"""Fixtures shared by the test modules."""

import signal
from contextlib import contextmanager

import pytest


@contextmanager
def _time_limit(seconds: int, message: str):
    """Raise TimeoutError(message) in the block if it runs past ``seconds``;
    SIGALRM's previous handler is restored on the way out."""

    def too_slow(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """``with time_limit(seconds, message):`` bounds a call that must not
    search without limit."""
    return _time_limit
