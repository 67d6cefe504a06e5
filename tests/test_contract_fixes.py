"""Regression tests for the true positives ``repro check`` surfaced.

The checker's first run over the real tree found three latent bugs; the
one whose code still exists gets a behavioral pin here, independent of the
static rule that caught it (the others were ``EngineConfig.waste_budget``
not folding into the model fingerprint — the knob is gone — and
``ModelRegistry.default_name`` reading the registered name outside the
registry lock — the property is gone):

* ``ServingPool.stop`` read ``_started`` outside the pool lock while
  ``start`` writes it under the lock.
"""

from __future__ import annotations

import threading

from repro.serving.pool import PoolConfig, ServingPool


class _RecordingLock:
    """Context-manager lock probe: counts acquisitions."""

    def __init__(self) -> None:
        self._inner = threading.RLock()
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        return self._inner.release()


class TestPoolStopStartedLock:
    def test_stop_before_start_is_safe_and_collects_nothing(self):
        pool = ServingPool(PoolConfig(bundle="nowhere"))
        pool.stop()  # never started: must not raise, must not merge stats
        assert pool.final_stats is None

    def test_stop_is_idempotent_without_start(self):
        pool = ServingPool(PoolConfig(bundle="nowhere"))
        pool.stop()
        pool.stop()
        assert pool.final_stats is None

    def test_stop_snapshots_started_under_lock(self):
        pool = ServingPool(PoolConfig(bundle="nowhere"))
        probe = _RecordingLock()
        pool._lock = probe
        pool.stop()
        assert probe.acquisitions > 0
