#!/usr/bin/env python3
"""Benchmark of the ESD reproduction: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 55 \\
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Each run sets up (traces, trace files, the ``repro serve`` process) three
times and reports the median as ``setup_s``, then runs the workload's
fixed timed work (sim, serve, sweep units; ``Mix.units`` in
``perfbench/workloads.py``), checks the outputs, and prints every metric
by name with its unit.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (a
separate run that wraps each layer's calls in spans; end-to-end numbers
never come from it).

Exit status: 0 when every check passed, 1 when a check or operation
failed (the JSON line is still printed), 2 when the repository's
``src/repro`` package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for traces, stores and span dumps, inside the checkout.
WORK_ROOT = ROOT / ".perfbench"

#: Set-up repetitions; setup_s is their median.
SETUP_REPS = 3
#: Worker processes of every sweep pass.
SWEEP_JOBS = 2


def environment(seed: int) -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "seed": seed}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def print_metrics(metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


def run_untraced(mix, seed: int, work: Path, ledger):
    from perfbench import metrics, phases
    from perfbench.metrics import end_to_end
    from perfbench.stats import median
    from perfbench.workloads import timed_set_up

    host: List[float] = []
    prepared, setup_walls = timed_set_up(
        mix, seed, work, SRC, SETUP_REPS,
        lambda: host.extend(phases.host_probes()))
    try:
        rounds, serve, sweep = phases.run_phases(mix, prepared, seed, work,
                                                 ledger, host)
        direct, _wall = phases.direct_states(
            phases.serve_sessions(mix, prepared))
    finally:
        drained = prepared.stop_servers()
    ledger.check(drained, "repro serve did not drain clean on SIGTERM")
    phases.check_served(ledger, serve, direct)
    report_round(mix, rounds[0], ledger)
    print(f"sim rounds {len(rounds)}, serve units {len(serve)}, "
          f"sweep units {len(sweep)}")
    probes = [p for r in rounds for ps in r.probe_s.values() for p in ps]
    print(f"speed probe median {median(probes) * 1e3:.4f} ms over "
          f"{len(probes)} sim probes, {median(host) * 1e3:.4f} ms over "
          f"{len(host)} probes on every CPU between units (reference "
          f"{metrics.PROBE_REF_S * 1e3:g} ms)")
    print(f"samples: feed_ms_* {sum(map(len, rounds[0].feed_cpu_s.values()))}"
          f", serve_ack_ms_* {sum(len(u.acks_ms) for u in serve)} "
          f"(batches of {serve[0].batch_size} requests)")
    cells = len(mix.sweep_apps) * len(mix.sweep_schemes)
    return end_to_end(mix, setup_walls, rounds, serve, sweep, host,
                      peak_rss_mb(), cells)


def report_round(mix, first, ledger) -> None:
    """Digest, paper-shape checks and paper references of a sim round."""
    from perfbench.checks import check_paper_shape, rows_digest
    from perfbench.metrics import paper_reference_lines
    print(f"sim summary sha256 {rows_digest(first.rows)}")
    check_paper_shape(ledger, first.rows, first.baseline_hits,
                      mix.paper_apps)
    print("simulated: metadata caches start cold; the engine's 10 % "
          "warm-up is excluded from latency statistics only")
    for line in paper_reference_lines(mix, first.rows):
        print(line)


def run_traced(mix, seed: int, work: Path, ledger):
    """One untraced and one traced sim round, one serve and one sweep
    unit; returns the per-layer metrics."""
    from perfbench import phases
    from perfbench.metrics import serve_layers, sim_layers, sweep_layers
    from perfbench.tracing import (
        Patcher,
        SpanRecorder,
        install,
        layer_totals,
        self_times,
    )
    from perfbench.workloads import set_up
    from repro.serve import ServeClient
    from repro.serve.protocol import encode_requests

    rec = SpanRecorder()
    patcher = Patcher()
    install(rec, patcher)
    try:
        prepared = set_up(mix, seed, work, SRC)
    finally:
        patcher.restore()
    try:
        untraced = phases.sim_round(mix, prepared, ledger)
        absent = install(rec, patcher)
        try:
            traced = phases.sim_round(mix, prepared, ledger, rec)
        finally:
            patcher.restore()
        report_round(mix, untraced, ledger)
        ledger.check(traced.rows == untraced.rows,
                     "tracing changed the simulated summary rows")
        selfs = self_times(rec.start, rec.end, rec.parent)
        layers_all = layer_totals(rec, selfs)
        cell_spans = [i for i in range(len(rec)) if rec.cell[i] >= 0]
        top_ns = sum(rec.end[i] - rec.start[i] for i in cell_spans
                     if rec.parent[i] < 0)
        total_ns = sum(traced.wall_s.values()) * 1e9
        unwrapped_ns = total_ns - top_ns
        print_layer_ledger(rec, selfs, cell_spans, unwrapped_ns, total_ns,
                           sum(traced.cpu_s.values()) * 1e9)

        # The generator spans are the only ones outside any cell.
        gen = layers_all.get("workloads.gen")
        layer_names = {rec.names[rec.name[i]] for i in cell_spans}
        cell_layers = {n: v for n, v in layers_all.items()
                       if n in layer_names}
        untraced_us = (sum(untraced.cpu_s.values())
                       / (len(untraced.cpu_s) * phases.SIM_REQUESTS) * 1e6)
        metrics = sim_layers(mix, traced, cell_layers, gen, untraced_us,
                             unwrapped_ns, absent)

        sessions = phases.serve_sessions(mix, prepared)
        port = prepared.servers[0].port
        depth = QueueDepthPoller(port)
        with depth:
            unit = phases.serve_unit(port, sessions)
        with ServeClient("127.0.0.1", port) as client:
            reply = client.metrics()
        size = unit.batch_size
        batches = [trace[s:s + size] for _scheme, _app, trace in sessions
                   for s in range(0, len(trace), size)]
        t0 = time.perf_counter()
        for batch in batches:
            encode_requests(batch)
        encode_us = ((time.perf_counter() - t0) * 1e6
                     / sum(len(b) for b in batches))
        direct, direct_wall = phases.direct_states(sessions)
        phases.check_served(ledger, [unit], direct)
        metrics.update(serve_layers(reply, unit, encode_us, direct_wall,
                                    depth.max_depth))

        config = phases.sweep_config(mix, seed)
        sweep = [phases.sweep_unit(config, work / "sweep-traced", ledger,
                                   [])]
        metrics.update(sweep_layers(sweep, SWEEP_JOBS))
    finally:
        drained = prepared.stop_servers()
    ledger.check(drained, "repro serve did not drain clean on SIGTERM")
    dump = WORK_ROOT / f"spans-{mix.name}.bin"
    size = rec.dump(dump)
    print(f"wrote {len(rec)} spans ({size} bytes) to "
          f"{dump.relative_to(ROOT)}")
    for name in absent:
        print(f"{name} absent: its module is not in this tree")
    return metrics


def print_layer_ledger(rec, selfs, cell_spans, unwrapped_ns: float,
                       total_ns: float, cpu_ns: float) -> None:
    """Self time per span name plus the unwrapped remainder."""
    per_name: Dict[str, int] = {}
    for i in cell_spans:
        name = rec.names[rec.name[i]]
        per_name[name] = per_name.get(name, 0) + selfs[i]
    print("traced sim round, self time per layer:")
    for name, ns in sorted(per_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {ns / 1e6:10.1f} ms  "
              f"{100.0 * ns / total_ns:5.1f} %")
    print(f"  {'(unwrapped)':28s} {unwrapped_ns / 1e6:10.1f} ms  "
          f"{100.0 * unwrapped_ns / total_ns:5.1f} %")
    accounted = sum(per_name.values()) + unwrapped_ns
    print(f"  {'sum':28s} {accounted / 1e6:10.1f} ms of "
          f"{total_ns / 1e6:.1f} ms traced wall "
          f"({cpu_ns / 1e6:.1f} ms process CPU)")


class QueueDepthPoller:
    """Polls the serve ``metrics`` verb for the deepest ingest queue."""

    def __init__(self, port: int, interval_s: float = 0.02) -> None:
        self.port = port
        self.interval_s = interval_s
        self.max_depth = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        from repro.serve import ServeClient
        with ServeClient("127.0.0.1", self.port) as client:
            while not self._stop.is_set():
                flat = client.metrics().get("flat", {})
                depths = [v for k, v in flat.items()
                          if k.startswith("serve_queue_depth")]
                self.max_depth = max([self.max_depth] + depths)
                self._stop.wait(self.interval_s)

    def __enter__(self) -> "QueueDepthPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=30)


def run_one(args) -> int:
    from perfbench.checks import Ledger
    from perfbench.workloads import MIXES

    mix = MIXES[args.workload]
    env = environment(args.seed)
    env.update(workload=mix.name, seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{mix.name}-",
                                 dir=WORK_ROOT))
    # Children (server, sweep workers) inherit a temp dir in the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    ledger = Ledger()
    try:
        if args.trace:
            metrics = run_traced(mix, args.seed, work, ledger)
        else:
            metrics = run_untraced(mix, args.seed, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_metrics(metrics)
    print(f"failed_frac {ledger.failed_frac:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations and checks)")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if ledger.correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process (peak RSS is per process)."""
    from perfbench.workloads import MIXES
    results = {}
    code = 0
    for name in MIXES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        code = max(code, proc.returncode)
    print(json.dumps(results), flush=True)
    return code


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-grid", "adversarial", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
