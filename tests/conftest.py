"""Fixtures shared by the test modules.

* `time_limit`: a wall-clock guard for the tests that run the isotropic
  sequence search, directly or through the lattice-selfcheck suite: a
  search that runs away (say, on a broken pruning bound) fails with
  TimeoutError instead of hanging the test run.
* `clear_caches`: empties every per-process cache, so that a test can
  run a suite cold.
"""

import signal
import sys
from contextlib import contextmanager, nullcontext

import pytest

# each guarded block takes under 0.5 s on a 2-vCPU VM
SEARCH_LIMIT_S = 30


@contextmanager
def _time_limit(seconds=SEARCH_LIMIT_S):
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # raised afresh: the interrupted frame may lack the line number pytest reports
        raise TimeoutError(f"ran past {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """`with time_limit(seconds):` fails the block once it has run that long
    (SEARCH_LIMIT_S by default); where there is no SIGALRM it runs unguarded."""
    if not hasattr(signal, "SIGALRM"):
        return lambda seconds=SEARCH_LIMIT_S: nullcontext()
    return _time_limit


def _clear_caches():
    """Clear every cache of the loaded enrq modules: each module global
    with a `cache_clear`, and the interning table `fibers._SHARED`.  The
    caches are found, not listed, so a new one is cleared too."""
    import enrq

    for name in enrq._SUBMODULES:
        module = sys.modules.get(f"enrq.{name}")
        if module is None:  # not loaded, so nothing cached
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    if "enrq.fibers" in sys.modules:
        sys.modules["enrq.fibers"]._SHARED.clear()


@pytest.fixture
def clear_caches():
    """`clear_caches()` empties every per-process cache of enrq."""
    return _clear_caches
