"""Shared pytest configuration: hypothesis profile, common fixtures
(including the executor-tier fixtures), and a fallback implementation
of the ``timeout`` marker.

The server/concurrency suites mark themselves ``@pytest.mark.timeout``
so a hung event loop or deadlocked scheduler fails fast instead of
wedging the whole run.  When the ``pytest-timeout`` plugin is
installed (CI) it owns the marker; in bare environments the
SIGALRM-based fallback below enforces it for main-thread tests on
POSIX, and the marker degrades to a no-op elsewhere.
"""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.arch import native

settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it exceeds the wall-clock "
        "budget (pytest-timeout when installed, SIGALRM fallback "
        "otherwise)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    usable = (
        marker is not None
        and marker.args
        and not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    seconds = float(marker.args[0])

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s timeout marker")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def numpy_tier(monkeypatch) -> str:
    """Disable the native kernel loader for one test: every
    VectorProgram runs on the numpy interpreter."""
    monkeypatch.setattr(native, "_state",
                        (None, "disabled by the numpy_tier fixture"))
    return "numpy"


@pytest.fixture
def native_tier(monkeypatch) -> str:
    """Every VectorProgram run in one test takes the native kernel,
    one-instruction programs and small first runs included (skips
    without the tier)."""
    if native.kernel() is None:
        pytest.skip(f"native tier unavailable: "
                    f"{native.status()['kernel_fallback']}")
    monkeypatch.setattr(native, "EAGER_LINK_WORDS", 0)
    monkeypatch.setattr(native, "MIN_INSTRUCTIONS", 1)
    return "native"


@pytest.fixture(params=["native", "numpy"])
def tier(request) -> str:
    """Run a test once per executor tier (native C kernel, numpy)."""
    return request.getfixturevalue(f"{request.param}_tier")
