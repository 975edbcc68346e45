"""Reduce phase samples to the named end-to-end and per-layer metrics.

Every metric is a ``(value, unit)`` pair under a name matching
:data:`NAME_RE`.  Host times are process CPU (sim phase) or wall
(serve, sweeps, set-up), all scaled to the reference machine speed
(:data:`PROBE_REF_S`).  The work that runs in this process -- sim
chunks and warm sweep passes -- is scaled by the speed probes around
each sample; the rest by the median of the probes taken on every CPU
between units.  Simulated values come from the model's output.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .phases import ServeUnit, SimRound, SweepUnit
from .stats import geomean, histogram_quantile, median, percentile
from .workloads import SIM_REQUESTS, Mix

Metric = Tuple[float, str]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Per-app paper values quoted in EXPERIMENTS.md (Fig. 11).
PAPER_REFERENCE: Dict[Tuple[str, str], str] = {
    ("esd_write_reduction_pct", "deepsjeng"): "paper 99.9 % (Fig. 11)",
}
UNVALIDATED = "unvalidated: no per-app paper reference"


#: Probe time that defines the reference machine speed: CPU times are
#: reported as if every probe around them had taken this long.
PROBE_REF_S = 1.5e-3


def _scaled(cpu_s: List[float], probes: List[float]) -> List[float]:
    """Each sample scaled by the mean of the probes on either side."""
    return [c * 2.0 * PROBE_REF_S / (probes[i] + probes[i + 1])
            for i, c in enumerate(cpu_s)]


def cell_cpu_s(rounds: Sequence[SimRound], key: str) -> float:
    """Steady CPU estimate of one cell over the run's rounds.

    The machine this runs on changes speed by up to 1.6x for seconds at
    a time, as other tenants load it.  Every 1024-request chunk is
    therefore scaled to the reference speed by the probes taken around
    it, and counts with the least scaled CPU it took in any round (extra
    load only ever adds time).  Session open and finalize add their
    least overhead, scaled by the cell's median probe.
    """
    chunks = zip(*(_scaled(r.chunk_cpu_s[key], r.probe_s[key])
                   for r in rounds))
    overhead = min((r.cpu_s[key] - sum(r.chunk_cpu_s[key]))
                   * PROBE_REF_S / median(r.probe_s[key]) for r in rounds)
    return sum(min(samples) for samples in chunks) + overhead


def feed_samples_ms(rounds: Sequence[SimRound]) -> List[float]:
    """One sample per (cell, chunk): its least scaled feed CPU."""
    return [min(samples) * 1e3 for key in rounds[0].feed_cpu_s
            for samples in zip(*(_scaled(r.feed_cpu_s[key], r.probe_s[key])
                                 for r in rounds))]


def warm_sweep_s(units: Sequence[SweepUnit]) -> float:
    """Median scaled wall time of a warm (all cached) sweep pass.

    The median, not the least: a pass ends in fsyncs of the manifest,
    whose latency the probes cannot see, so its fastest passes are rare
    events while its median repeats.
    """
    return median(w for u in units for w in _scaled(u.warm_s, u.warm_probe_s))


def esd_write_figures(mix: Mix, rows: Mapping[str, Mapping[str, float]]
                      ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per app: Baseline/ESD mean write latency and ESD reduction (%)."""
    speedup = {app: rows[f"{app}/Baseline"]["write_latency_ns"]
               / rows[f"{app}/ESD"]["write_latency_ns"] for app in mix.apps}
    reduction = {app: rows[f"{app}/ESD"]["write_reduction"] * 100.0
                 for app in mix.apps}
    return speedup, reduction


def end_to_end(mix: Mix, setup_walls: Sequence[float],
               rounds: Sequence[SimRound], serve: Sequence[ServeUnit],
               sweep: Sequence[SweepUnit], host_probe_s: Sequence[float],
               peak_rss_mb: float, sweep_cells: int) -> Dict[str, Metric]:
    """CPU per request and feed CPU are least-of-k rounds at reference
    speed (:func:`cell_cpu_s`).  Set-up, serve and cold sweep times are
    the median repetition or unit and ack percentiles pool the acks of
    every serve unit; these run in several processes at once, so they
    are scaled by the run's median probe on every CPU, ``host_probe_s``.

    The host's speed drifts over minutes, and a whole run can land in a
    slow spell; one factor per run follows that drift, where probes
    next to single units are too noisy to.
    """
    keys = list(rounds[0].cpu_s)
    esd_keys = [k for k in keys if k.endswith("/ESD")]
    feed_ms = feed_samples_ms(rounds)
    speed = PROBE_REF_S / median(host_probe_s)
    acks = [ms * speed for unit in serve for ms in unit.acks_ms]
    requests_per_unit = SIM_REQUESTS * len(mix.serve)

    def us_per_req(cells: List[str]) -> float:
        return (sum(cell_cpu_s(rounds, k) for k in cells)
                / (len(cells) * SIM_REQUESTS) * 1e6)

    return {
        "setup_s": (median(setup_walls) * speed, "s"),
        "sim_us_per_req": (us_per_req(keys), "us"),
        "esd_us_per_req": (us_per_req(esd_keys), "us"),
        "feed_ms_p50": (percentile(feed_ms, 50), "ms"),
        "feed_ms_p95": (percentile(feed_ms, 95), "ms"),
        "serve_req_per_s": (
            requests_per_unit / (median(u.wall_s for u in serve) * speed),
            "1/s"),
        "serve_ack_ms_p50": (percentile(acks, 50), "ms"),
        "serve_ack_ms_p95": (percentile(acks, 95), "ms"),
        "sweep_jobs_per_s": (
            sweep_cells / (median(u.cold_s for u in sweep) * speed), "1/s"),
        "sweep_cached_jobs_per_s": (sweep_cells / warm_sweep_s(sweep),
                                    "1/s"),
        "sweep_queue_jobs_per_s": (
            sweep_cells / (median(u.queue_s for u in sweep) * speed),
            "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def paper_reference_lines(mix: Mix, rows: Mapping[str, Mapping[str, float]]
                          ) -> List[str]:
    """Each simulated per-app figure beside its paper value, if any."""
    speedup, reduction = esd_write_figures(mix, rows)
    lines = [f"esd_write_speedup {geomean(speedup.values()):.6g} x "
             f"(simulated, geomean over apps)",
             f"esd_write_reduction_pct "
             f"{sum(reduction.values()) / len(reduction):.6g} % "
             f"(simulated, mean over apps)"]
    for metric, per_app, unit in (("esd_write_speedup", speedup, "x"),
                                  ("esd_write_reduction_pct", reduction,
                                   "%")):
        for app, value in per_app.items():
            ref = PAPER_REFERENCE.get((metric, app), UNVALIDATED)
            lines.append(f"  {metric}[{app}] = {value:.4f} {unit}  ({ref})")
    return lines


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------

def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def _ratio(extras: Sequence[Mapping[str, float]], hits: str,
           misses: str) -> float:
    h = sum(e.get(hits, 0.0) for e in extras)
    m = sum(e.get(misses, 0.0) for e in extras)
    return _per(h, h + m)


def sim_layers(mix: Mix, traced: SimRound, layers: Mapping[str, Mapping],
               gen: Optional[Mapping], untraced_cpu_us: float,
               unwrapped_ns: float, absent: Sequence[str]
               ) -> Dict[str, Metric]:
    """Per-layer metrics of the traced sim round and the set-up."""
    cells = len(traced.cpu_s)
    reqs = cells * SIM_REQUESTS

    def span(name: str) -> Mapping[str, float]:
        return layers.get(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})

    def us_per_call(name: str, kind: str = "incl_ns") -> float:
        s = span(name)
        return _per(s[kind], s["calls"], 1e-3)

    def us_per_req(name: str, kind: str = "incl_ns") -> float:
        return _per(span(name)[kind], reqs, 1e-3)

    speedup, reduction = esd_write_figures(mix, traced.rows)
    extras = list(traced.extras.values())
    esd = [traced.extras[k] for k in traced.extras if k.endswith("/ESD")]
    traced_cpu_us = sum(traced.cpu_s.values()) / reqs * 1e6
    out: Dict[str, Metric] = {
        "esd_write_speedup": (geomean(speedup.values()), "x"),
        "esd_write_reduction_pct": (
            sum(reduction.values()) / len(reduction), "%"),
        "workloads.gen_us_per_req": (
            _per(gen["incl_ns"], len(mix.apps) * SIM_REQUESTS, 1e-3)
            if gen else 0.0, "us"),
        "workloads.trace_decode_us_per_req": (
            us_per_req("workloads.trace_decode", "self_ns"), "us"),
        "sim.feed_self_us_per_req": (us_per_req("sim.feed", "self_ns"),
                                     "us"),
        "sim.finalize_ms": (us_per_call("sim.finalize") / 1e3, "ms"),
        "dedup.write_us_per_call": (us_per_call("dedup.write"), "us"),
        "dedup.write_self_us_per_call": (
            us_per_call("dedup.write", "self_ns"), "us"),
        "dedup.read_us_per_call": (us_per_call("dedup.read"), "us"),
        "dedup.read_self_us_per_call": (
            us_per_call("dedup.read", "self_ns"), "us"),
        "ecc.line_ecc_calls": (float(span("ecc.line_ecc")["calls"]),
                               "count"),
        "ecc.line_ecc_us_per_call": (us_per_call("ecc.line_ecc"), "us"),
        "perf.line_ecc_hit_ratio": (
            _ratio(extras, "memo_line_ecc_hits", "memo_line_ecc_misses"),
            "ratio"),
        "perf.counter_pad_hit_ratio": (
            _ratio(extras, "memo_counter_pad_hits",
                   "memo_counter_pad_misses"), "ratio"),
        "crypto.encrypt_us_per_call": (us_per_call("crypto.encrypt"), "us"),
        "crypto.fingerprint_us_per_call": (
            us_per_call("crypto.fingerprint"), "us"),
        "core.efit_us_per_call": (us_per_call("core.efit"), "us"),
        "core.efit_hit_ratio": (
            _per(sum(e["efit_hit_rate"] for e in esd), len(esd)), "ratio"),
        "core.efit_evictions": (
            float(sum(e["efit_evictions"] for e in esd)), "count"),
        "core.amt_hit_ratio": (
            _per(sum(e["amt_hit_rate"] for e in esd), len(esd)), "ratio"),
        "dedup.hit_ratio": (
            _per(sum(traced.dedup_hits.values()),
                 sum(traced.writes.values())), "ratio"),
        "nvmm.pcm_data_writes": (
            float(sum(r["pcm_data_writes"] for r in traced.rows.values())),
            "count"),
        "nvmm.controller_us_per_op": (us_per_call("nvmm.controller"), "us"),
        "common.timeline_us_per_req": (us_per_req("common.timeline"), "us"),
        "vec.precompute_us_per_req": (us_per_req("vec.precompute"), "us"),
        "trace.overhead_us_per_req": (traced_cpu_us - untraced_cpu_us,
                                      "us"),
        "trace.unwrapped_us_per_req": (_per(unwrapped_ns, reqs, 1e-3), "us"),
    }
    for name in absent:
        for key in [k for k in out if k.startswith(name + "_")]:
            del out[key]
    return out


def serve_layers(metrics_reply: Mapping, unit: ServeUnit,
                 encode_us_per_req: float, direct_wall_s: float,
                 queue_depth_max: float) -> Dict[str, Metric]:
    flat = metrics_reply.get("flat", {})
    hists = {m["name"]: m for m in metrics_reply.get("metrics", [])
             if m.get("type") == "histogram"}
    admission = hists.get("serve_admission_latency_ns")
    occupancy = hists.get("serve_batch_occupancy")
    rejected = sum(v for k, v in flat.items()
                   if k.startswith("serve_rejected_total"))
    return {
        "serve.encode_us_per_req": (encode_us_per_req, "us"),
        "serve.admission_ms_p50": (
            histogram_quantile(admission["buckets"], 0.5) / 1e6
            if admission else 0.0, "ms"),
        "serve.batch_occupancy": (
            _per(occupancy["sum"], occupancy["count"]) if occupancy
            else 0.0, "count"),
        "serve.rejected_total": (float(rejected), "count"),
        "serve.queue_depth_max": (queue_depth_max, "count"),
        "serve.overhead_ratio": (_per(unit.wall_s, direct_wall_s), "ratio"),
    }


def sweep_layers(units: Sequence[SweepUnit], workers: int
                 ) -> Dict[str, Metric]:
    durations = [d for u in units for d in u.job_durations]
    overhead = [1.0 - sum(u.job_durations) / (workers * u.queue_s)
                for u in units]
    return {
        "sweep.job_s_p50": (median(durations) if durations else 0.0, "s"),
        "sweep.overhead_frac": (median(overhead), "ratio"),
        "sweep.lease_reclaims": (
            float(sum(u.lease_reclaims for u in units)), "count"),
    }
