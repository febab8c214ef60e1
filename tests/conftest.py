"""A wall-clock guard for the tests that run the isotropic sequence search,
directly or through the lattice-selfcheck suite: a search that runs away
(say, on a broken pruning bound) fails with TimeoutError instead of
hanging the test run."""

import signal
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
