"""Shared fixtures, a time limit on every test and a cap on the session's memory.

A defect that loops forever would otherwise hang the whole suite.  On POSIX,
each test's call runs under a SIGALRM timer of TIME_LIMIT_S seconds, armed
only on the main thread, where Python delivers signals.  A test still
running when the timer fires fails with TestTimedOut and the suite goes on.
TestTimedOut derives from BaseException, not Exception: hypothesis takes an
Exception (or pytest.fail) for a failing example and runs it again while
shrinking, which would hang once more with no timer left, but lets other
BaseExceptions through at once.

A loop that allocates as it goes would grow for the whole time limit, some
gigabytes on a machine shared with other jobs.  So on POSIX the session's
address space is capped at ADDRESS_SPACE_CAP bytes (RLIMIT_AS, soft limit,
only ever lowered), where such a loop stops with MemoryError.  Hypothesis
would take that for a failing example and run it again, growing to the cap
once more until the timer fired, so a MemoryError that escapes the body of
a hypothesis test is raised again as TestOutOfMemory, a BaseException like
TestTimedOut, and the test ends at the first one.  Children inherit the cap
and may lower it further.
"""

import functools
import signal
import threading

try:
    import resource
except ImportError:  # not POSIX
    resource = None

import pytest

from sqfpairs import parse_alpha

#: Per-test limit: the slowest test takes a few seconds.
TIME_LIMIT_S = 180.0


#: Address-space cap of the test session; the suite peaks at about 250 MB.
ADDRESS_SPACE_CAP = 4 << 30


def pytest_configure(config):
    if resource is None:
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = min(c for c in (soft, hard, ADDRESS_SPACE_CAP) if c != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


class TestTimedOut(BaseException):
    """A test ran past the per-test time limit."""

    __test__ = False  # not a test class, despite its name


class TestOutOfMemory(BaseException):
    """A hypothesis test ran out of the session's address space."""

    __test__ = False


def _memory_error_ends_the_test(test):
    @functools.wraps(test)
    def run(*args, **kwargs):
        try:
            return test(*args, **kwargs)
        except MemoryError as exc:
            raise TestOutOfMemory("MemoryError under the session's address-space cap") from exc

    run.ends_at_memory_error = True
    return run


def pytest_collection_modifyitems(items):
    # parametrized items share one function, so each is wrapped once
    for item in items:
        hyp = getattr(getattr(item, "obj", None), "hypothesis", None)
        if hyp is not None and not getattr(hyp.inner_test, "ends_at_memory_error", False):
            hyp.inner_test = _memory_error_ends_the_test(hyp.inner_test)


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
