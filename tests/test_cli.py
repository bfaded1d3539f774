"""The ``repro`` command surface: subcommand help, usage errors,
``--quick`` semantics, the shared results loader, import isolation."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main

SUBCOMMANDS = ["figure", "sweep", "scaleup", "dynamics", "explain", "report",
               "processors", "rebalance", "audit", "validate", "profile",
               "trace", "latency"]

#: Bad command lines; {missing} / {empty} / {incomplete} / {badrun} become
#: a missing directory, an empty one, one whose only figure file lacks
#: every required key, and one whose only figure file has a run entry
#: with an unknown key.  Each must exit 2 with a usage message, not a
#: traceback.
BAD_INPUT = [
    ["perf"],
    ["sweep", "cpu_mips", "1", "--figure", "99"],
    ["sweep", "cpu_mips", "a"],
    ["sweep", "bogus", "1"],
    ["validate", "--figure", "8a", "--mpls", "x"],
    ["latency", "--mpls", "x"],
    ["profile", "--strategy", "bogus"],
    ["dynamics", "--scenarios", "bogus"],
    ["figure", "8a", "--jobs", "0"],
    ["report", "{missing}"],
    ["report", "{empty}"],
    ["report", "{incomplete}"],
    ["report", "{badrun}"],
    ["figure"],
    ["explain", "--mpl", "4,8"],
    ["dynamics", "--processors-count", "64", "--grow-to", "64"],
    ["dynamics", "--processors-count", "16", "--grow-to", "64"],
    # Options a subcommand would ignore are not accepted at all.
    ["explain", "--quick"],
    ["validate", "--quick"],
    ["validate", "--check-invariants"],
    ["profile", "--quick"],
    ["latency", "--quick"],
    ["audit", "--quick"],
    ["audit", "--measured", "50"],
    ["audit", "--mpls", "4"],
    ["processors", "--quick"],
    ["processors", "--measured", "50"],
    ["processors", "--mpls", "4"],
    ["rebalance", "--quick"],
    ["rebalance", "--measured", "50"],
    ["rebalance", "--mpls", "4"],
    ["rebalance", "--figure", "8a"],
    ["scaleup", "--processors-count", "64"],
]


def test_subcommand_list_is_complete():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert sorted(commands.choices) == sorted(SUBCOMMANDS)


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 2
    assert "usage: repro" in capsys.readouterr().out


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--help"])
    assert exit_info.value.code == 0
    assert f"usage: repro {name}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    incomplete = tmp_path / "incomplete"
    incomplete.mkdir()
    (incomplete / "figure_8a.json").write_text(
        json.dumps({"format_version": 2, "figure": "8a"}))
    badrun = tmp_path / "badrun"
    badrun.mkdir()
    run = dict(multiprogramming_level=1, throughput=1.0, completed=1,
               elapsed_seconds=1.0, response_time_mean=1.0, bogus=1)
    (badrun / "figure_8a.json").write_text(json.dumps(
        {"format_version": 2, "figure": "8a", "cardinality": 100,
         "num_sites": 4, "measured_queries": 1, "series": {"range": [run]}}))
    empty = tmp_path / "empty"
    empty.mkdir()
    argv = [arg.format(missing=tmp_path / "missing", empty=empty,
                       incomplete=incomplete, badrun=badrun)
            for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: repro" in capsys.readouterr().err


@pytest.mark.parametrize("extra, measured", [(["--measured", "50"], 50),
                                             ([], 200)])
def test_quick_changes_defaults_only(extra, measured, tmp_path, capsys):
    assert main(["figure", "8a", "--quick", "--mpls", "1",
                 "--cardinality", "3000", "--processors-count", "4",
                 "--save-json", str(tmp_path)] + extra) == 0
    saved = json.loads((tmp_path / "figure_8a.json").read_text())
    assert saved["measured_queries"] == measured
    # The explicit --mpls won over --quick's (1, 16, 64) as well.
    assert all(len(d) == 1 for d in saved["spec_digests"].values())


@pytest.mark.parametrize("command", ["latency", "trace"])
def test_unsupported_results_format_rejected(command, tmp_path, capsys):
    path = tmp_path / "figure_8a.json"
    path.write_text(json.dumps({"format_version": 99, "figure": "8a",
                                "latency": {"points": {}}, "series": {}}))
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(path), "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unsupported results format 99" in capsys.readouterr().err


def test_library_import_leaves_cli_and_argparse_unloaded():
    code = ("import sys, repro, repro.experiments; "
            "print('repro.cli' in sys.modules, 'argparse' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "False"]


def test_run_experiment_leaves_scipy_unloaded():
    code = ("import sys\n"
            "from repro.experiments import FIGURES, run_experiment\n"
            "run_experiment(FIGURES['8a'], cardinality=2000, num_sites=4, "
            "measured_queries=5, mpls=(2,), seed=13)\n"
            "print('scipy' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]
