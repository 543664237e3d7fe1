"""Shared fixtures, and a time limit on every test.

A defect that loops forever would otherwise hang the whole suite.  On POSIX,
each test's call runs under a SIGALRM timer of TIME_LIMIT_S seconds, armed
only on the main thread, where Python delivers signals.  A test still
running when the timer fires fails with TestTimedOut and the suite goes on.
TestTimedOut derives from BaseException, not Exception: hypothesis takes an
Exception (or pytest.fail) for a failing example and runs it again while
shrinking, which would hang once more with no timer left, but lets other
BaseExceptions through at once.
"""

import signal
import threading

import pytest

from sqfpairs import parse_alpha

#: Per-test limit: the slowest test takes a few seconds.
TIME_LIMIT_S = 180.0


class TestTimedOut(BaseException):
    """A test ran past the per-test time limit."""

    __test__ = False  # not a test class, despite its name


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise TestTimedOut(f"{item.nodeid} ran longer than the {TIME_LIMIT_S:g} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def sqrt2():
    return parse_alpha("sqrt:2")


@pytest.fixture(scope="session")
def golden():
    return parse_alpha("quad:1,1,2,5")


@pytest.fixture(scope="session")
def poly_sqrt2():
    return parse_alpha("poly:-2,0,1@1/1,2/1")
