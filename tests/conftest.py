import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.

    pedflow may fork a child to write half of a large snapshot set or to
    bisect half of a hyperbolicity map's boundary edges
    (pedflow._fork.two_process_map); it must wait for every child before
    it returns or raises, as the benchmark checks for each run.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child process {pid} unreaped (status {status})")


@pytest.fixture
def forks(monkeypatch):
    """Count the forks of this process: one entry per os.fork call."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls
