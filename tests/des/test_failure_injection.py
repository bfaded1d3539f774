"""Failure-injection tests: the kernel under misbehaving processes.

A crashing process is a bug in the model, so the kernel fails fast: the
exception leaves ``Environment.run`` at once, and the process keeps it
as its outcome.
"""

import pytest

from repro.des import Environment


class TestDefaultFailFast:
    def test_unhandled_exception_crashes_run(self):
        env = Environment()

        def bomb(env):
            yield env.timeout(1)
            raise RuntimeError("injected")

        p = env.process(bomb(env))
        with pytest.raises(RuntimeError, match="injected"):
            env.run()
        assert not p.ok
        with pytest.raises(RuntimeError, match="injected"):
            _ = p.value

    def test_other_processes_ran_until_crash(self):
        env = Environment()
        progress = []

        def worker(env):
            for i in range(10):
                yield env.timeout(1)
                progress.append(i)

        def bomb(env):
            yield env.timeout(3.5)
            raise ValueError("boom")

        env.process(worker(env))
        env.process(bomb(env))
        with pytest.raises(ValueError):
            env.run()
        assert progress == [0, 1, 2]
