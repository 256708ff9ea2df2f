"""Suite-wide checks that apply to every test."""

import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Fail a test of this directory that leaks a socket, file or other
    resource: its ``ResourceWarning``, or the warning pytest raises for one
    ignored in a destructor, becomes an error. Marked per item, so a run that
    also collects another directory leaves that directory's tests as they are."""
    for item in items:
        if HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


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
