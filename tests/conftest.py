"""Shared fixtures."""

import sys
import threading
import time

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def rng2():
    return np.random.default_rng(999)


@pytest.fixture
def wait_parked():
    """``wait_parked(thread, ready)``: return once *thread* is blocked
    in a ``Condition.wait`` while ``ready()`` holds; fail after 10 s.

    A serve collector parked on backpressure pops nothing more until a
    lease is released or a replica joins, so what a test reads next
    cannot move under it: no sleep decides the outcome.
    """

    def wait(thread, ready, timeout_s=10.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            frame = sys._current_frames().get(thread.ident)
            if (frame is not None and frame.f_code.co_name == "wait"
                    and frame.f_code.co_filename == threading.__file__
                    and ready()):
                return
            time.sleep(0.001)
        raise AssertionError(f"{thread.name} never parked in a wait")

    return wait
