"""``tools/bench_pairs.py``'s summary of alternating parent/change pairs.

Every performance claim quotes a ``BENCH_*.json`` that this summary writes,
so its bound check, wins, quartiles and gain test are pinned here on
hand-made pairs.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pairs(name, parent, change):
    """One pair dict per (parent, change) value, as ``run_once`` records them."""
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


def metric(name, better, bound=0.25):
    return {"name": name, "unit": "u", "better": better, "bound": bound}


def test_better_follows_the_direction():
    assert bench_pairs.better("lower", 1.0, 2.0)
    assert not bench_pairs.better("lower", 2.0, 1.0)
    assert bench_pairs.better("higher", 2.0, 1.0)
    assert not bench_pairs.better("higher", 1.0, 1.0)


def test_a_lower_metric_30_percent_worse_is_outside_its_bound():
    parent = [float(v) for v in range(1, 11)]
    row = bench_pairs.summarise(metric("setup_s", "lower"),
                                pairs("setup_s", parent, [1.3 * v for v in parent]))
    assert row["relative_change"] == pytest.approx(0.3)
    assert not row["inside_bound"]
    assert row["change_wins"] == 0
    assert not row["gain_beyond_parent_iqr"]


def test_a_higher_metric_30_percent_better_is_inside_its_bound_and_wins():
    parent = [float(v) for v in range(1, 11)]
    row = bench_pairs.summarise(metric("rate", "higher"),
                                pairs("rate", parent, [1.3 * v for v in parent]))
    assert row["relative_change"] == pytest.approx(0.3)
    assert row["inside_bound"]
    assert row["change_wins"] == 10
    assert row["pairs"] == 10
    # inclusive quartiles of 1..10
    p = row["parent"]
    assert (p["median"], p["q1"], p["q3"], p["iqr"]) == (5.5, 3.25, 7.75, 4.5)
    assert (p["min"], p["max"]) == (1.0, 10.0)
    assert row["parent_range_share"] == 9.0
    assert row["change"]["median"] == pytest.approx(7.15)
    # a gain of 1.65 is inside the parent's IQR of 4.5
    assert not row["gain_beyond_parent_iqr"]


def test_gain_beyond_the_parent_iqr_and_a_mixed_series():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    change = [120.0, 119.0, 121.0, 99.0, 125.0, 118.0, 122.0, 117.0, 120.0, 80.0]
    row = bench_pairs.summarise(metric("rate", "higher"), pairs("rate", parent, change))
    assert row["change_wins"] == 8
    assert (row["parent"]["q1"], row["parent"]["q3"]) == (99.25, 100.75)
    assert row["change"]["median"] == 119.5
    assert row["gain_beyond_parent_iqr"]
    assert row["relative_change"] == pytest.approx(0.195)


def test_pairs_without_the_metric_are_left_out():
    runs = pairs("rate", [1.0, 2.0], [1.0, 2.0])
    runs.append({"parent": {"metrics": {"rate": 3.0}}, "change": {"error": "boom"}})
    row = bench_pairs.summarise(metric("rate", "higher"), runs)
    assert row["pairs"] == 2
    assert bench_pairs.summarise(metric("other", "higher"), runs) is None
    out = bench_pairs.summary({"end_to_end": [metric("rate", "higher")]}, {"w": runs})
    assert out["w"]["fail"]["change"]["runs_without_result"] == 1
    assert out["w"]["fail"]["parent"]["runs_without_result"] == 0


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    """An 83% parent range against a 25% bound, as train-small ``setup_s``
    read over ten runs of unchanged set-up code; the change's runs mix with
    the parent's."""
    parent = [0.0139, 0.0254, 0.0141, 0.0230, 0.0145, 0.0150, 0.0240, 0.0143, 0.0148, 0.0152]
    change = [0.0142, 0.0235, 0.0144, 0.0138, 0.0250, 0.0149, 0.0146, 0.0228, 0.0151, 0.0147]
    row = bench_pairs.summarise(metric("setup_s", "lower"), pairs("setup_s", parent, change))
    assert row["parent_range_share"] == pytest.approx(0.8273, abs=1e-4)
    assert row["inside_bound"]
    assert row["unresolved"]


def test_a_parent_spread_inside_the_bound_is_resolved():
    parent = [100.0, 104.0, 98.0, 101.0, 107.8, 100.0, 103.0, 99.0, 100.0, 102.0]
    change = [101.0, 99.0, 102.0, 100.0, 98.5, 103.0, 100.5, 101.5, 99.5, 100.0]
    row = bench_pairs.summarise(metric("rate", "higher"), pairs("rate", parent, change))
    assert row["parent_range_share"] == pytest.approx(0.1)
    assert row["inside_bound"]
    assert not row["unresolved"]


def test_a_change_that_beats_every_parent_run_is_resolved():
    """The parent spreads 83%, but every change run is faster than its
    fastest run."""
    parent = [0.0139, 0.0254, 0.0141, 0.0230, 0.0145, 0.0150, 0.0240, 0.0143, 0.0148, 0.0152]
    change = [0.0100, 0.0120, 0.0110, 0.0105, 0.0138, 0.0101, 0.0102, 0.0115, 0.0108, 0.0111]
    row = bench_pairs.summarise(metric("setup_s", "lower"), pairs("setup_s", parent, change))
    assert row["parent_range_share"] > 0.8
    assert row["change_wins"] == 10
    assert not row["unresolved"]
