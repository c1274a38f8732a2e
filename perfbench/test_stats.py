"""Tests of the benchmark's own arithmetic, on synthetic spans and files.

Run with: python3 -m pytest perfbench
"""

import json
import statistics

import numpy as np
import pytest

import checks
import stats


def test_union_length_merges_overlaps_and_gaps():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert stats.union_length([(5, 6), (0, 10)]) == pytest.approx(10.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("stage.assemble", 0.0, 10.0, -1),
        ("cli.main", 1.0, 9.0, 0),
        ("spectral.assemble_np_matrix", 2.0, 8.0, 1),
        ("surfaces.CCoordinateChart.height", 3.0, 4.0, 2),
        ("surfaces.CCoordinateChart.height", 5.0, 7.0, 2),
    ]
    assert stats.self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 1.0, 2.0])
    # Self times of a tree add up to the root's duration.
    assert sum(stats.self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [
        ("a", 0.0, 4.0, -1),
        ("b", 1.0, 3.0, 0),
        ("c", 2.0, 6.0, 0),  # runs past its parent: only [2, 4] counts
    ]
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


def test_by_name_aggregates_calls_and_self_time():
    spans = [("p", 0.0, 3.0, -1), ("k", 0.0, 1.0, 0), ("k", 1.0, 1.5, 0)]
    agg = stats.by_name(spans)
    assert agg["k"] == {"calls": 2, "self_s": pytest.approx(1.5)}
    assert agg["p"] == {"calls": 1, "self_s": pytest.approx(1.5)}


def test_span_tree_groups_by_parent_name():
    spans = [
        ("stage.coeff", 0.0, 10.0, -1),
        ("cli.main", 1.0, 9.0, 0),
        ("surfaces.CCoordinateChart.height", 2.0, 3.0, 1),
        ("extraction.chart_kernel", 3.0, 6.0, 1),
        ("surfaces.CCoordinateChart.height", 4.0, 5.0, 3),
        ("surfaces.CCoordinateChart.height", 6.0, 7.0, 1),
    ]
    tree = {(e["parent"], e["name"]): (e["calls"], e["self_s"]) for e in stats.span_tree(spans)}
    assert tree == {
        ("run", "stage.coeff"): (1, pytest.approx(2.0)),
        ("stage.coeff", "cli.main"): (1, pytest.approx(3.0)),
        ("cli.main", "surfaces.CCoordinateChart.height"): (2, pytest.approx(2.0)),
        ("cli.main", "extraction.chart_kernel"): (1, pytest.approx(2.0)),
        ("extraction.chart_kernel", "surfaces.CCoordinateChart.height"): (1, pytest.approx(1.0)),
    }
    assert stats.span_tree(spans)[0]["name"] == "cli.main"


def test_median_and_tail_percentile_with_sample_counts():
    assert stats.summarize([3.0, 1.0, 2.0]) == {"n": 3, "median": 2.0, "tail": None}
    hundred = [float(i) for i in range(1, 101)]
    s = stats.summarize(hundred)
    assert s["n"] == 100 and s["median"] == 50.5
    assert s["tail"] == {"p": 90.0, "value": pytest.approx(90.1), "beyond": 10}
    thousand = [float(i) for i in range(1, 1001)]
    assert stats.tail(thousand)["p"] == 99.0
    assert stats.tail(thousand)["beyond"] == 10
    assert stats.tail([1.0] * 50) is None  # no sample lies beyond any percentile
    with pytest.raises(ValueError):
        stats.summarize([])


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert stats.percentile([5.0], 99.9) == 5.0


def test_quartile_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 12.0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    assert stats.quartile_spread(vals) == pytest.approx((q3 - q1) / statistics.median(vals))


def test_fail_rate_keeps_its_base():
    assert stats.fail_rate(6, 1) == {"value": pytest.approx(1 / 6), "failed": 1, "attempted": 6}
    assert stats.fail_rate(4, 0)["value"] == 0.0
    with pytest.raises(ValueError):
        stats.fail_rate(0, 0)
    with pytest.raises(ValueError):
        stats.fail_rate(2, 3)


def test_ratios():
    assert stats.matrices_per_assemble(["k", "s", "k", "s"]) == 0.5
    assert stats.matrices_per_assemble(["k", "s"]) == 1.0
    assert stats.matrices_per_assemble([]) == 0.0
    # 32 nodes x 64 angles x 3 roots over 18,432 trace calls.
    assert stats.trace_useful_ratio(32, 64, 3, 18432) == pytest.approx(1 / 3)
    assert stats.trace_useful_ratio(32, 64, 3, 0) == 0.0


def test_unit_of():
    assert [stats.unit_of(n) for n in ("wall_s", "io.read_mb", "surfaces.height_calls",
                                       "spectral.matrices_per_assemble")] == \
        ["s", "MB", "count", "ratio"]


def test_layer_metrics_on_synthetic_pipeline():
    spans = [
        ("stage.assemble", 0.0, 10.0, -1),                       # 0
        ("cli.main", 1.0, 9.5, 0),                               # 1
        ("spectral.assemble_np_matrix", 2.0, 6.0, 1),            # 2
        ("surfaces.CCoordinateChart.height", 2.5, 3.5, 2),       # 3
        ("spectral.assemble_single_layer_matrix", 6.0, 8.0, 1),  # 4
        ("io.write_npmat", 8.0, 9.0, 1),                         # 5
        ("stage.spectrum", 11.0, 16.0, -1),                      # 6
        ("spectral.assemble_np_matrix", 12.0, 14.0, 6),          # 7
        ("linalg.eigvalsh", 14.0, 15.0, 6),                      # 8
    ]
    extra = {2: "K", 4: "S", 5: 47.0, 7: "K"}
    m = stats.layer_metrics(spans, extra, [0.4, 0.6], nodes=2, angles=4)
    assert m["surfaces.height_calls"] == 1
    assert m["surfaces.height_s"] == pytest.approx(1.0)
    assert m["spectral.assemble_calls"] == 3
    assert m["spectral.assemble_s"] == pytest.approx(3.0 + 2.0 + 2.0)
    assert m["spectral.matrices_per_assemble"] == pytest.approx(2 / 3)
    assert m["io.write_s"] == pytest.approx(1.0)
    assert m["io.write_mb"] == pytest.approx(47.0)
    assert m["io.read_mb"] == 0
    assert m["linalg.eigensolve_s"] == pytest.approx(1.0)
    assert m["cli.import_s"] == pytest.approx(0.5)
    # Stage self time (1.5 + 2.0) plus cli.main self time (1.5).
    assert m["cli.stage_overhead_s"] == pytest.approx(5.0)
    assert m["asymptotics.trace_useful_ratio"] == 0.0


def test_rigid_residual_of_exact_operator_is_zero():
    assert checks.rigid_residual(0.5 * np.eye(6)) == 0.0
    k_mat = 0.5 * np.eye(6)
    k_mat[0, 3] = 0.01
    assert checks.rigid_residual(k_mat) == pytest.approx(0.01)


def test_failed_check_is_reported_not_raised(tmp_path):
    found, acc = checks.check_coeff(str(tmp_path), 3, 1.0, 1.0)
    assert found and not found[0][1]
    k = 1.0 / 6.0
    reports = [{"root": r, "side": s, "C": c, "d": 2.0, "err_estimate": 1e-6, "route": "symbol"}
               for r in (-k, 0.0, k) for s, c in (("plus", 0.5), ("minus", 1e-4))]
    reports[0]["C"] = 0.6  # C+(-k) no longer equals C+(+k)
    (tmp_path / "coeff.json").write_text(json.dumps({"reports": reports}))
    found, acc = checks.check_coeff(str(tmp_path), 3, 1.0, 1.0)
    results = {name: ok for name, ok, _ in found}
    assert results == {"six_reports": True, "coeff_roots_essential": True,
                       "c_plus_positive": True, "c_symmetric_in_k": False}
    assert acc["angle_drift"] == 1e-6
