"""Metrics registry: log buckets, instruments, and the telemetry shim.

The histogram layout is load-bearing (the grain-error series and any
future latency histogram share it), so the boundary formula is pinned
exactly: boundary ``k`` is ``10**(lo_exp + k/per_decade)``.  The
``fill_telemetry`` shim is what keeps ``CampaignTelemetry`` readers
working after the registry superseded it -- its counter-first,
gauge-second, else-zero resolution order is part of that contract.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.scheduler import CampaignTelemetry
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    fill_telemetry,
    log_bucket_boundaries,
    new_registry,
)
from repro.obs import metrics


# ----------------------------------------------------------------------
# Bucket boundaries
# ----------------------------------------------------------------------
def test_default_boundaries_span_microseconds_to_minutes():
    boundaries = log_bucket_boundaries()
    assert len(boundaries) == (2 - (-6)) * 4 + 1 == 33
    assert boundaries[0] == pytest.approx(1e-6)
    assert boundaries[-1] == pytest.approx(100.0)


def test_boundary_k_is_ten_to_lo_plus_k_over_per_decade():
    boundaries = log_bucket_boundaries(-3, 3, 4)
    assert len(boundaries) == 25
    for k, boundary in enumerate(boundaries):
        assert boundary == pytest.approx(10.0 ** (-3 + k / 4))
    # Constant ratio between neighbours: the log-scale promise.
    ratio = 10.0 ** (1 / 4)
    for lo, hi in zip(boundaries, boundaries[1:]):
        assert hi / lo == pytest.approx(ratio)


def test_boundaries_reject_degenerate_layouts():
    with pytest.raises(ValueError):
        log_bucket_boundaries(2, 2)
    with pytest.raises(ValueError):
        log_bucket_boundaries(0, 2, per_decade=0)


# ----------------------------------------------------------------------
# Histogram bucketing
# ----------------------------------------------------------------------
def test_histogram_buckets_underflow_interior_and_overflow():
    hist = Histogram("h", boundaries=(1.0, 10.0, 100.0))
    assert len(hist.counts) == 4  # underflow + 2 interior + overflow
    hist.observe(0.5)    # below the first boundary
    hist.observe(1.0)    # exactly on a boundary: the higher bucket
    hist.observe(5.0)    # interior
    hist.observe(100.0)  # on the last boundary: overflow
    hist.observe(999.0)  # past the last boundary: overflow
    assert hist.counts == [1, 2, 0, 2]
    assert hist.count == 5
    assert hist.total == pytest.approx(0.5 + 1.0 + 5.0 + 100.0 + 999.0)


def test_bucket_for_matches_observe():
    hist = Histogram("h", boundaries=log_bucket_boundaries(-3, 3, 4))
    for value in (1e-4, 1e-3, 0.37, 1.0, 2.0, 999.0, 1e4):
        before = list(hist.counts)
        hist.observe(value)
        [changed] = [
            i for i, (a, b) in enumerate(zip(before, hist.counts)) if a != b
        ]
        assert changed == hist.bucket_for(value)


def test_histogram_rejects_unsorted_boundaries():
    with pytest.raises(ValueError):
        Histogram("h", boundaries=(1.0, 0.5))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_instruments_are_get_or_create():
    registry = MetricsRegistry()
    assert registry.counter("c") is registry.counter("c")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    assert registry.time_series("s") is registry.time_series("s")


def test_new_registry_repoints_the_module_global():
    registry = new_registry()
    assert metrics.LAST_REGISTRY is registry
    other = new_registry()
    assert metrics.LAST_REGISTRY is other and other is not registry


def test_snapshot_is_json_safe_and_complete():
    registry = MetricsRegistry()
    registry.counter("campaign.shards").inc(4)
    registry.gauge("campaign.grain_states").set(0.43)
    registry.histogram("campaign.grain_error").observe(1.2)
    registry.time_series("campaign.states_per_s").add(0.5, 1000.0)
    snapshot = json.loads(json.dumps(registry.snapshot()))
    assert snapshot["counters"] == {"campaign.shards": 4}
    assert snapshot["gauges"]["campaign.grain_states"] == pytest.approx(0.43)
    hist = snapshot["histograms"]["campaign.grain_error"]
    assert hist["count"] == 1
    assert sum(hist["counts"]) == 1
    assert len(hist["counts"]) == len(hist["boundaries"]) + 1
    assert snapshot["series"]["campaign.states_per_s"] == [[0.5, 1000.0]]


# ----------------------------------------------------------------------
# The CampaignTelemetry compatibility shim
# ----------------------------------------------------------------------
def test_fill_telemetry_reads_counter_then_gauge_then_zero():
    registry = MetricsRegistry()
    registry.counter("campaign.steals").inc(3)
    registry.counter("campaign.shards").inc(9)
    registry.gauge("campaign.grain_states").set(7)
    # campaign.steal_settled / steal_won never recorded -> 0.
    telemetry = CampaignTelemetry(backend="serial", capacity=1)
    fill_telemetry(telemetry, registry)
    assert telemetry.steals == 3
    assert telemetry.shards == 9
    assert telemetry.grain_states == 7
    assert telemetry.steal_settled == 0
    assert telemetry.steal_won == 0
