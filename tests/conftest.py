import signal

import pytest

from graded_sqm import build_from_selector

# seconds a test may run; the slowest takes a few, so a test that reaches
# this is stuck, as in an endless loop of a broken check
TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def time_bound():
    """Fail a test that runs longer than TEST_SECONDS.  pytest.fail raises
    no Exception subclass, so no ``except Exception`` in the code under test
    (the CLI's exit 2 among them) can take the timeout for its own error."""

    def stop(signum, frame):
        pytest.fail(f"test ran longer than {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def models():
    """Session-wide cache of built models, keyed by selector string."""
    cache = {}

    def get(selector: str):
        if selector not in cache:
            cache[selector] = build_from_selector(selector)
        return cache[selector]

    return get
