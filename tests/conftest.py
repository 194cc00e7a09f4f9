"""A per-test time limit for the suite.

A test that runs longer than ``TIME_LIMIT_S`` makes ``faulthandler`` dump
every thread's traceback and end the run with exit status 1, so a hang
fails the suite instead of stalling it; the tests after it do not run.
The dump goes to a duplicate of the real stderr, taken in
``pytest_configure`` while pytest's output capture is suspended, because
a captured stream is never shown once the process exits.
"""

import faulthandler
import os

import pytest

TIME_LIMIT_S = 30

_real_stderr = None


def pytest_configure(config):
    global _real_stderr
    _real_stderr = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    _real_stderr.close()


@pytest.fixture(autouse=True)
def _time_limit():
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True, file=_real_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
