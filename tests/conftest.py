import os

import pytest
from hypothesis import settings

# Every property test is deterministic and unhurried unless it says
# otherwise: the same examples on every run, no example database, and no
# per-example deadline on a shared machine.
settings.register_profile("tier-1", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("tier-1")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, running or unreaped: a
    streamed evolution's frame worker, say, that nothing stopped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left: pid {pid or 'running'}, "
                f"status {status}")


@pytest.fixture
def forks(monkeypatch):
    """The list of the pids os.fork returns to this process in the test."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids
