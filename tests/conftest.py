"""A time limit on every test, so a hang fails its own test instead of stalling the suite."""

import signal

import pytest

_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran longer than {_LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
