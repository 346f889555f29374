"""Tests for the benchmark's own arithmetic and its tracer.

Run with:  python3 -m pytest perfbench/test_harness.py
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from stats import Ratio, covered_length, percentile, samples_beyond, self_time  # noqa: E402


def test_self_time_subtracts_the_union_of_overlapping_children():
    # [1,4] and [3,6] overlap: together they cover 5, not 6; [8,12] is
    # clipped to the parent's end at 10.
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert covered_length(children, 0.0, 10.0) == pytest.approx(7.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)


def test_self_time_with_nested_and_identical_children():
    children = [(2.0, 8.0), (3.0, 4.0), (2.0, 8.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert self_time(5.0, 6.0, [(0.0, 1.0), (7.0, 9.0)]) == pytest.approx(1.0)


def test_tracer_self_total_uses_only_direct_children():
    t = tracing.Tracer()
    t.spans = [
        ["model.predict_batch", None, 0.0, 10.0],
        ["model.table", 0, 1.0, 4.0],
        ["model.build_table", 1, 1.5, 3.5],
        ["kernels.accum", 0, 3.0, 6.0],
    ]
    # children of the batch span cover [1,6]; the build is inside the table span
    assert t.self_total(("model.predict_batch",)) == pytest.approx(5.0)
    assert t.self_total(("model.table",)) == pytest.approx(1.0)
    assert t.under("model.build_table", "model.predict_batch") == [2]
    assert t.under("model.build_table", "model.predict_batch", direct=True) == []


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert samples_beyond(100, 90) == 10
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    with pytest.raises(ValueError):
        percentile(values[:99], 90)
    assert samples_beyond(20, 50) == 10
    assert percentile(list(range(20, 0, -1)), 50) == 10
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_min_samples_is_the_smallest_count_a_percentile_needs():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    for q in (50, 90, 95):
        n = stats.min_samples(q)
        percentile(list(range(n)), q)
        with pytest.raises(ValueError):
            percentile(list(range(n - 1)), q)


def test_percentile_is_a_sample_and_ignores_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    got = percentile(values, 90)
    assert got in values
    assert got == 5.0
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


def test_ratio_keeps_its_base():
    r = Ratio(3, 4)
    assert r.value == 0.75
    assert tuple(r) == (3, 4)
    assert Ratio(0, 0).value is None


def fake_tracer():
    t = tracing.Tracer()
    t.spans = [
        ["data.encode", None, 0.0, 1.0],
        ["model.predict_batch", None, 1.0, 3.0],
        ["model.table", 1, 1.1, 1.5],
        ["model.build_table", 2, 1.1, 1.4],
        ["model.table", 1, 1.6, 1.7],
        ["policy.search", None, 3.0, 4.0],
        ["model.predict_at_dims", 5, 3.1, 3.2],
        ["model.predict_at_dims", 5, 3.3, 3.4],
    ]
    t.counters.update(
        {"data.tokens_in": 10, "data.tokens_kept": 8, "policy.useful": 1}
    )
    return t


def test_every_ratio_metric_reports_its_base():
    metrics, ratios, absent = tracing.layer_metrics(fake_tracer(), {"counts.nnz": 5})
    ratio_names = {name for name in metrics if name.endswith("_ratio")}
    assert ratio_names == set(ratios)
    for name in ratio_names:
        numerator, base = ratios[name]
        assert base > 0
        assert metrics[name] == numerator / base
    assert metrics["model.table_hit_ratio"] == 0.5
    assert metrics["data.tokens_kept_ratio"] == 0.8
    assert metrics["policy.useful_ratio"] == 0.5
    assert metrics["model.predict_self_s"] == pytest.approx(2.0 - 0.5 + 0.2)


def test_zero_base_and_missing_values_are_absent():
    t = tracing.Tracer()
    metrics, ratios, absent = tracing.layer_metrics(t, {})
    assert "model.table_hit_ratio" in absent
    assert "counts.nnz" in absent
    assert "model.table_hit_ratio" not in metrics
    assert ratios["model.table_hit_ratio"].base == 0


def test_missing_target_is_absent_and_originals_come_back(monkeypatch):
    import sparseborn
    from sparseborn.model import Model

    original = Model.__dict__["_build_table"]
    targets = tuple(
        (name, owner, "_no_such_method" if attr == "_build_table" else attr)
        for name, owner, attr in tracing.TARGETS
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    t = tracing.Tracer()
    t.install()
    try:
        assert "model.build_table" in t.absent
        assert sparseborn.fit is sparseborn.evaluate.fit is sparseborn.model.fit
        assert hasattr(sparseborn.fit, "__wrapped__")
    finally:
        t.uninstall()
    assert Model.__dict__["_build_table"] is original
    assert not hasattr(sparseborn.fit, "__wrapped__")
    metrics, _, absent = tracing.layer_metrics(t, {})
    assert {"model.table_builds", "model.table_build_s", "model.table_hit_ratio"} <= set(absent)
    assert "model.table_builds" not in metrics


def test_slowdown_is_the_median_probe_over_the_reference():
    speed = hostspeed.HostSpeed(hostspeed.probe_python)
    ref = hostspeed.REFERENCE_S[hostspeed.probe_python]
    speed.probe_s = [ref, 3 * ref, 2 * ref, 100 * ref, 4 * ref, 5 * ref, 6 * ref]
    assert speed.slowdown() == pytest.approx(4.0)
    # only the latest PROBE_REPEATS probes count for the sample taken next
    assert speed.recent_slowdown() == pytest.approx(5.0)


def test_tick_probes_at_most_once_per_interval(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: now[0])
    speed = hostspeed.HostSpeed()
    speed.fn = lambda: None
    speed.tick()
    assert len(speed.probe_s) == hostspeed.PROBE_REPEATS
    now[0] = hostspeed.INTERVAL_S / 2
    speed.tick()
    assert len(speed.probe_s) == hostspeed.PROBE_REPEATS
    now[0] = hostspeed.INTERVAL_S * 1.5
    speed.tick()
    assert len(speed.probe_s) == 2 * hostspeed.PROBE_REPEATS
