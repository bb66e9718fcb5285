import pytest

from heolsim import sim_engine
from heolsim.sim_engine import RunLog, run_scenario
from scenarios import builtin


@pytest.fixture(scope="session")
def builtin_run():
    """``builtin_run(name, **keys)``: the ``(log, metrics)`` of
    ``run_scenario(builtin(name, **keys))``, run once per config for the
    whole session.  The log matrix is read-only, so no test can change
    another's input.  A test that reruns on purpose, times its own run or
    changes the engine's collaborators runs ``run_scenario`` itself.  It
    runs only on the engine's default log sink, which keeps every row: a
    sink that frees the rows it is told are final would leave zeros in the
    shared log."""
    runs = {}

    def run(name, **keys):
        cfg = builtin(name, **keys)
        key = repr(cfg)
        if key not in runs:
            assert type(sim_engine._log_sink) is sim_engine._LogSink
            log, metrics = run_scenario(cfg)
            log.data.setflags(write=False)
            runs[key] = RunLog(log.data), metrics   # read-only column views
        return runs[key]

    return run
