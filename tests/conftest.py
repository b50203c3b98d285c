import signal

import pytest

from vpq.scalar import ScalarContext

# Seconds a single test call may run, above the 120 s budget of the slowest
# acceptance criterion: a hang (say, a remainder loop that never shrinks)
# then fails its test instead of stalling the run.
TEST_TIME_LIMIT = 180


class TimeLimitExceeded(BaseException):
    """Raised by the alarm.  Not an Exception, so Hypothesis does not catch
    it and re-run the hanging example while shrinking."""


if hasattr(signal, "SIGALRM"):
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        def expire(signum, frame):
            raise TimeLimitExceeded(
                "test call ran past its %d s time limit" % TEST_TIME_LIMIT)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(TEST_TIME_LIMIT)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def ctx():
    """Default rational evaluation point."""
    return ScalarContext.numeric(2, 3)


@pytest.fixture(scope="session")
def ctx57():
    return ScalarContext.numeric("5", "7")


@pytest.fixture(scope="session")
def sym():
    """Fully formal p, q."""
    return ScalarContext.symbolic()
