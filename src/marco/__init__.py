"""Configurable graph-based task solving with pluggable agents, tools,
knowledge bases, and a timing-analysis domain pack.
"""

# Importing the engine loads every module a run needs, so ``import marco``
# pays for them all up front: bench/worker.py relies on that to keep import
# time out of its first timed run.
from . import engine  # noqa: F401
