"""A time limit on every test, so a non-terminating bug fails by name.

A wrong elimination can grow its integers without bound and run for hours
instead of failing; the alarm turns that into a failure of the test that
hangs.  ``TimeLimitExceeded`` derives from ``BaseException``, so neither the
CLI's error handler (``ValueError``, ``OSError``, ...) nor a test's own
``except Exception`` swallows it.  Platforms without ``SIGALRM`` run with no
limit.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120  # the slowest test takes about 10 s


class TimeLimitExceeded(BaseException):
    """A test ran past ``TEST_TIME_LIMIT_S``."""


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
