"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.checks import Ledger, check_paper_shape
from perfbench.metrics import (
    NAME_RE,
    PROBE_REF_S,
    cell_cpu_s,
    end_to_end,
    serve_layers,
    sim_layers,
    sweep_layers,
)
from perfbench.phases import ServeUnit, SimRound, SweepUnit, _due
from perfbench.stats import (
    TooFewSamples,
    histogram_quantile,
    min_samples_for,
    percentile,
)
from perfbench.tracing import SpanRecorder, layer_totals, self_times
from perfbench.workloads import MIXES, SIM_REQUESTS

ROOT = Path(__file__).resolve().parent.parent
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

def _fake_round(mix) -> SimRound:
    out = SimRound()
    for app in mix.apps:
        for scheme in mix.schemes:
            key = f"{app}/{scheme}"
            out.chunk_cpu_s[key] = [0.02 + i / 1e4 for i in range(20)]
            out.feed_cpu_s[key] = [0.02] * 20
            out.probe_s[key] = [PROBE_REF_S] * 21
            out.cpu_s[key] = 0.5
            out.wall_s[key] = 0.5
            out.rows[key] = {"write_latency_ns": 200.0 if scheme == "ESD"
                             else 300.0, "write_reduction": 0.4,
                             "pcm_data_writes": 10.0}
            out.extras[key] = {"efit_hit_rate": 0.5, "efit_evictions": 3.0,
                               "amt_hit_rate": 0.9, "memo_line_ecc_hits": 1.0,
                               "memo_line_ecc_misses": 1.0}
            out.dedup_hits[key] = 1
            out.writes[key] = 2
    return out


def _all_metrics(mix):
    rnd = _fake_round(mix)
    serve = [ServeUnit(wall_s=1.0, acks_ms=[float(i) for i in range(1200)],
                       payloads=[])]
    sweep = [SweepUnit(cold_s=1.0, warm_s=[0.02], queue_s=1.0,
                       job_durations=[0.1, 0.2], lease_reclaims=0,
                       warm_probe_s=[PROBE_REF_S] * 2)]
    e2e = end_to_end(mix, [1.0, 1.1, 1.2], [rnd], serve, sweep,
                     [PROBE_REF_S], 80.0, 12)
    hist = {"name": "h", "type": "histogram", "count": 2, "sum": 2.0,
            "buckets": [{"le": 1.0, "count": 2}, {"le": "+inf", "count": 0}]}
    reply = {"flat": {"serve_rejected_total{tenant=\"a\"}": 1.0},
             "metrics": [dict(hist, name="serve_admission_latency_ns"),
                         dict(hist, name="serve_batch_occupancy")]}
    layers = dict(sim_layers(mix, rnd, {}, None, 1.0, 0.0, []))
    layers.update(serve_layers(reply, serve[0], 0.5, 2.0, 3.0))
    layers.update(sweep_layers(sweep, 2))
    return e2e, layers


@pytest.mark.parametrize("workload", sorted(MIXES))
def test_printed_names_are_valid_and_match_benchmark_json(workload):
    e2e, layers = _all_metrics(MIXES[workload])
    for name, (_value, unit) in list(e2e.items()) + list(layers.items()):
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
        assert UNIT_RE.fullmatch(unit), unit
    assert list(e2e) == [m["name"] for m in DECLARED["end_to_end"]]
    assert list(layers) == [m["name"] for m in DECLARED["per_layer"]]
    units = {m["name"]: m["unit"] for m in
             DECLARED["end_to_end"] + DECLARED["per_layer"]}
    for name, (_value, unit) in list(e2e.items()) + list(layers.items()):
        assert units[name] == unit, name


def test_benchmark_json_workloads_are_the_defined_mixes():
    assert [w["name"] for w in DECLARED["workloads"]] == list(MIXES)


def test_cell_cpu_takes_least_per_chunk_plus_least_overhead():
    fast, slow = SimRound(), SimRound()
    fast.chunk_cpu_s["c"], fast.cpu_s["c"] = [1.0, 5.0], 6.5
    slow.chunk_cpu_s["c"], slow.cpu_s["c"] = [3.0, 2.0], 5.2
    for r in (fast, slow):
        r.probe_s["c"] = [PROBE_REF_S] * 3
    assert cell_cpu_s([fast, slow], "c") == pytest.approx(1.0 + 2.0 + 0.2)


def test_cell_cpu_scales_each_chunk_by_its_probes():
    rnd = SimRound()
    rnd.chunk_cpu_s["c"], rnd.cpu_s["c"] = [2.0, 2.0], 4.0
    # The machine ran at half speed around the first chunk only.
    rnd.probe_s["c"] = [2 * PROBE_REF_S, 2 * PROBE_REF_S, PROBE_REF_S]
    assert cell_cpu_s([rnd], "c") == pytest.approx(1.0 + 2.0 * 2 / 3)


@pytest.mark.parametrize("steps,units", [(6, 3), (6, 6), (6, 4), (7, 2)])
def test_phase_units_spread_evenly_over_the_run(steps, units):
    due = [_due(step, steps, units) for step in range(steps)]
    assert sum(due) == units and max(due) == 1


def test_ack_percentiles_pool_every_serve_unit():
    # A stalled unit's acks must reach the tail percentile.
    fast = [ServeUnit(wall_s=1.0, acks_ms=[1.0] * 100, payloads=[])
            for _ in range(5)]
    stalled = ServeUnit(wall_s=9.0, acks_ms=[50.0] * 40, payloads=[])
    mix = MIXES["paper-grid"]
    rnd = _fake_round(mix)
    sweep = [SweepUnit(cold_s=1.0, warm_s=[0.02], queue_s=1.0,
                       job_durations=[0.1], lease_reclaims=0,
                       warm_probe_s=[PROBE_REF_S] * 2)]
    e2e = end_to_end(mix, [1.0], [rnd], fast + [stalled], sweep,
                     [PROBE_REF_S], 80.0, 12)
    assert e2e["serve_ack_ms_p95"][0] == 50.0


def test_multi_process_wall_times_scale_by_the_host_probes():
    # Probes twice the reference: the host ran at half speed, so every
    # wall time counts half and every throughput double.
    mix = MIXES["paper-grid"]
    rnd = _fake_round(mix)
    serve = [ServeUnit(wall_s=2.0, acks_ms=[float(i) for i in range(400)],
                       payloads=[])]
    sweep = [SweepUnit(cold_s=1.0, warm_s=[0.02], queue_s=3.0,
                       job_durations=[0.1], lease_reclaims=0,
                       warm_probe_s=[PROBE_REF_S] * 2)]
    args = (mix, [1.0, 1.2, 1.1], [rnd], serve, sweep)
    ref = end_to_end(*args, [PROBE_REF_S] * 3, 80.0, 12)
    slow = end_to_end(*args, [2 * PROBE_REF_S, 2 * PROBE_REF_S, 0.1], 80.0,
                      12)
    for name in ("setup_s", "serve_ack_ms_p50", "serve_ack_ms_p95"):
        assert slow[name][0] == pytest.approx(ref[name][0] / 2), name
    for name in ("serve_req_per_s", "sweep_jobs_per_s",
                 "sweep_queue_jobs_per_s"):
        assert slow[name][0] == pytest.approx(ref[name][0] * 2), name
    for name in ("sim_us_per_req", "feed_ms_p50", "sweep_cached_jobs_per_s"):
        assert slow[name] == ref[name], name


def test_absent_layer_is_dropped_not_zeroed():
    mix = MIXES["paper-grid"]
    layers = sim_layers(mix, _fake_round(mix), {}, None, 1.0, 0.0,
                        ["vec.precompute"])
    assert "vec.precompute_us_per_req" not in layers
    assert "sim.feed_self_us_per_req" in layers


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p,needed", [(50, 20), (95, 200), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(p, needed):
    assert min_samples_for(p) == needed
    with pytest.raises(TooFewSamples):
        percentile(list(range(needed - 1)), p)
    samples = list(range(needed))
    value = percentile(samples, p)
    assert sum(1 for s in samples if s > value) >= 10


def test_percentile_interpolates():
    assert percentile(list(range(101)) * 10, 50) == 50
    assert percentile([float(i) for i in range(1001)], 99) == \
        pytest.approx(990.0)


def test_histogram_quantile_interpolates_inside_bucket():
    buckets = [{"le": 10.0, "count": 0}, {"le": 20.0, "count": 4},
               {"le": "+inf", "count": 0}]
    assert histogram_quantile(buckets, 0.5) == pytest.approx(15.0)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_covered_interval_of_children():
    rec = SpanRecorder()
    root = rec.add("root", 0, 100)
    a = rec.add("a", 10, 30, root)
    rec.add("b", 20, 50, root)        # overlaps a: covered is [10, 50]
    rec.add("c", 60, 70, root)
    rec.add("d", 95, 120, root)       # sticks out: only [95, 100] counts
    rec.add("a1", 12, 18, a)
    selfs = self_times(rec.start, rec.end, rec.parent)
    assert selfs[root] == 100 - (40 + 10 + 5)
    assert selfs[a] == 20 - 6
    assert list(selfs[2:]) == [30, 10, 25, 6]


def test_layer_totals_count_nested_same_name_once_inclusive():
    rec = SpanRecorder()
    outer = rec.add("f", 0, 10)
    rec.add("f", 2, 6, outer)
    totals = layer_totals(rec, self_times(rec.start, rec.end, rec.parent))
    assert totals["f"] == {"calls": 2, "self_ns": 10, "incl_ns": 10}


def test_wrapped_calls_nest_and_partition_time():
    rec = SpanRecorder()

    def leaf():
        return 1

    leaf_w = rec.wrap("leaf", leaf)
    outer_w = rec.wrap("outer", lambda: leaf_w() + leaf_w())
    assert outer_w() == 2
    assert list(rec.parent) == [-1, 0, 0]
    selfs = self_times(rec.start, rec.end, rec.parent)
    assert sum(selfs) == rec.end[0] - rec.start[0]


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------

def _paper_rows(esd_write_ns: float):
    return {"gcc/ESD": {"write_latency_ns": esd_write_ns,
                        "write_reduction": 0.4},
            "gcc/Baseline": {"write_latency_ns": 300.0,
                             "write_reduction": 0.0}}


def test_passing_checks_leave_failed_frac_zero():
    ledger = Ledger()
    check_paper_shape(ledger, _paper_rows(200.0), {"gcc": 0}, ["gcc"])
    assert ledger.attempted == 3 and ledger.failed_frac == 0.0
    assert ledger.correct


def test_injected_failed_check_raises_failed_frac():
    ledger = Ledger()
    check_paper_shape(ledger, _paper_rows(400.0), {"gcc": 0}, ["gcc"])
    assert ledger.failed == 1
    assert ledger.failed_frac == pytest.approx(1 / 3)
    assert not ledger.correct


def test_failed_operation_counts_and_is_contained():
    ledger = Ledger()
    with ledger.operation("ok"):
        pass
    with ledger.operation("boom"):
        raise RuntimeError("injected")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures == ["boom"]


def test_baseline_dedup_hit_fails_check():
    ledger = Ledger()
    check_paper_shape(ledger, {}, {"gcc": 5}, [])
    assert ledger.failed == 1


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sim_requests_per_cell_follow_the_roadmap():
    assert SIM_REQUESTS >= 20_000
