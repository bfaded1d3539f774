"""Top-level public API integrity tests."""

import importlib

import pytest

import repro

SUBPACKAGES = ["repro.des", "repro.storage", "repro.core", "repro.gamma",
               "repro.workload", "repro.experiments"]


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, name):
        """Every name a package exports must actually exist."""
        module = importlib.import_module(name)
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_top_level_all_resolves(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol)

    def test_no_duplicate_exports(self):
        for name in SUBPACKAGES:
            module = importlib.import_module(name)
            assert len(set(module.__all__)) == len(module.__all__), name

    def test_des_kernel_surface(self):
        """The kernel exports what the Gamma model uses and no more."""
        import repro.des
        assert set(repro.des.__all__) == {
            "Environment", "Event", "Timeout", "Hold", "Process", "AllOf",
            "SimulationError", "AgendaEmptyError", "Server", "Request",
            "Store", "TallyMonitor", "TimeWeightedMonitor"}
        env = repro.des.Environment()
        for gone in ("step", "any_of", "schedule_urgent", "active_process"):
            assert not hasattr(env, gone), gone

    def test_key_entry_points_importable(self):
        from repro import (
            BerdStrategy,
            GammaMachine,
            MagicStrategy,
            RangeStrategy,
            make_mix,
            make_wisconsin,
        )
        assert all(obj is not None for obj in (
            BerdStrategy, GammaMachine, MagicStrategy, RangeStrategy,
            make_mix, make_wisconsin))

    def test_cli_entry_point_declared(self):
        import tomllib  # py311+; test env guarantees it
        with open("pyproject.toml", "rb") as handle:
            config = tomllib.load(handle)
        assert config["project"]["scripts"] == {"repro": "repro.cli:main"}

    def test_py_typed_marker_present(self):
        import os
        root = os.path.dirname(repro.__file__)
        assert os.path.exists(os.path.join(root, "py.typed"))


class TestDocstrings:
    @pytest.mark.parametrize("name", SUBPACKAGES + ["repro"])
    def test_packages_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__) > 80

    def test_public_classes_documented(self):
        from repro import (
            BerdStrategy,
            GammaMachine,
            MagicStrategy,
            RangeStrategy,
        )
        for cls in (BerdStrategy, GammaMachine, MagicStrategy,
                    RangeStrategy):
            assert cls.__doc__ and len(cls.__doc__) > 30
