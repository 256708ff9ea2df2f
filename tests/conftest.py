"""Suite-wide checks that apply to every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a non-daemon thread it started still running;
    such a thread would keep the interpreter alive after the suite."""
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before and not t.daemon]
    for thread in leaked:
        thread.join(timeout=1.0)  # one that is just finishing may end
    leaked = [t.name for t in leaked if t.is_alive()]
    assert not leaked, f"test left non-daemon thread(s) running: {', '.join(leaked)}"
