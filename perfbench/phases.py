"""The three timed phases every workload runs: sim, serve and sweep.

Each phase repeats its unit of work a fixed number of times per
workload (:attr:`perfbench.workloads.Mix.units`), interleaved with the other
phases' units by :func:`run_phases`, and keeps every sample;
:mod:`perfbench.metrics` reduces them.  Correctness checks run outside
the timed regions.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .checks import Ledger, rows_digest
from .tracing import SpanRecorder, wrap_scheme
from .workloads import (
    FEED_CHUNK,
    SIM_REQUESTS,
    SWEEP_REQUESTS,
    Mix,
    Prepared,
    derived_seed,
)

#: Warm sweep re-runs per unit; one takes ~0.02 s, too short alone.
WARM_REPS = 20

#: Extras that count memo/vec cache activity.  Sessions interleaved on
#: one server share the process-wide caches, so these are deterministic
#: only for sessions run alone (``repro.sim.session`` docstring).
_SHARED_CACHE_EXTRAS = ("memo_", "vec_")


#: Iterations of the speed probe, about 1.5 ms of CPU.
PROBE_ITERS = 20_000


def speed_probe() -> float:
    """CPU seconds of a fixed pure-Python loop.

    It shares no code with the program, so it tracks only the speed the
    machine runs Python at right now; a faster program never moves it.
    """
    t0 = time.thread_time()
    total = 0
    for j in range(PROBE_ITERS):
        total += j * j
    return time.thread_time() - t0


#: Speed probes per CPU in one :func:`host_probes` set.
PROBES_PER_CPU = 7


def host_probes() -> List[float]:
    """Speed probes on each CPU this process may use, in turn.

    The server and the sweep workers run in other processes on whichever
    CPUs are free, so the speed that matters for their wall times is
    that of all the CPUs: this thread is pinned to each in turn.  Taken
    only between units, never while a sender waits on an ack.
    """
    cpus = sorted(os.sched_getaffinity(0))
    out: List[float] = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            out += [speed_probe() for _ in range(PROBES_PER_CPU)]
    finally:
        os.sched_setaffinity(0, cpus)
    return out


# ----------------------------------------------------------------------
# sim: direct Session.feed / finalize
# ----------------------------------------------------------------------

@dataclass
class SimRound:
    """One pass over every cell; per-cell samples keyed ``app/scheme``."""

    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Process CPU of the whole cell, session open to finalize.
    cpu_s: Dict[str, float] = field(default_factory=dict)
    wall_s: Dict[str, float] = field(default_factory=dict)
    #: Per 1024-request chunk: CPU to draw it (decode) and feed it.
    chunk_cpu_s: Dict[str, List[float]] = field(default_factory=dict)
    #: Per chunk: CPU of the ``Session.feed`` call alone.
    feed_cpu_s: Dict[str, List[float]] = field(default_factory=dict)
    #: :func:`speed_probe` before every chunk and after the last one.
    probe_s: Dict[str, List[float]] = field(default_factory=dict)
    extras: Dict[str, Dict[str, float]] = field(default_factory=dict)
    dedup_hits: Dict[str, int] = field(default_factory=dict)
    writes: Dict[str, int] = field(default_factory=dict)
    baseline_hits: Dict[str, int] = field(default_factory=dict)


def _chunks_from_file(path: Path, rec: Optional[SpanRecorder]):
    from repro.workloads.trace import read_trace
    source = read_trace(path)
    while True:
        if rec is None:
            chunk = list(islice(source, FEED_CHUNK))
        else:
            with rec.span("workloads.trace_decode"):
                chunk = list(islice(source, FEED_CHUNK))
        if not chunk:
            return
        yield chunk


def _chunks_from_list(trace: list):
    for start in range(0, len(trace), FEED_CHUNK):
        yield trace[start:start + FEED_CHUNK]


def run_cell(mix: Mix, app: str, scheme_name: str, prepared: Prepared,
             out: SimRound, rec: Optional[SpanRecorder] = None) -> None:
    """Simulate one (app, scheme) cell and record its samples."""
    from repro.registry import make_scheme
    from repro.sim.engine import EngineConfig, SimulationEngine
    from repro.sim.runner import scaled_system_config
    from repro.workloads.profiles import get_profile

    scheme = make_scheme(scheme_name, scaled_system_config())
    if rec is not None:
        wrap_scheme(rec, scheme)
    engine = SimulationEngine(scheme, EngineConfig())
    ipa = get_profile(app).instructions_per_access
    clock, cpu = time.perf_counter, time.process_time
    chunk_cpu: List[float] = []
    feed_cpu: List[float] = []
    probes: List[float] = []
    w0, c0 = clock(), cpu()
    session = engine.open_session(app=app, total_hint=SIM_REQUESTS,
                                  instructions_per_access=ipa)
    chunks = iter(_chunks_from_file(prepared.trace_files[app], rec)
                  if mix.decode else _chunks_from_list(prepared.traces[app]))
    while True:
        # The traced round skips the probes: its time outside spans
        # should be the session's own.
        probes.append(speed_probe() if rec is None else 0.0)
        d0 = cpu()
        chunk = next(chunks, None)
        if chunk is None:
            break
        f0 = cpu()
        session.feed(chunk)
        f1 = cpu()
        feed_cpu.append(f1 - f0)
        chunk_cpu.append(f1 - d0)
    result = session.finalize()
    key = f"{app}/{scheme_name}"
    out.cpu_s[key] = cpu() - c0 - sum(probes)
    out.chunk_cpu_s[key] = chunk_cpu
    out.feed_cpu_s[key] = feed_cpu
    out.probe_s[key] = probes
    out.wall_s[key] = clock() - w0
    out.rows[key] = result.summary_row()
    out.extras[key] = dict(result.extras)
    out.dedup_hits[key] = result.dedup_eliminated
    out.writes[key] = result.writes
    if scheme_name == "Baseline":
        out.baseline_hits[app] = scheme.counters.get("dedup_hits")


def sim_round(mix: Mix, prepared: Prepared, ledger: Ledger,
              rec: Optional[SpanRecorder] = None) -> SimRound:
    out = SimRound()
    for app in mix.apps:
        for scheme_name in mix.schemes:
            if rec is not None:
                rec.cell_id += 1
            with ledger.operation(f"sim {app}/{scheme_name}"):
                run_cell(mix, app, scheme_name, prepared, out, rec)
    return out


# ----------------------------------------------------------------------
# serve: repro serve subprocess, two closed-loop connections
# ----------------------------------------------------------------------

@dataclass
class ServeUnit:
    wall_s: float
    acks_ms: List[float]
    payloads: List[Dict[str, Any]]
    #: Requests per batch the SDK's ``stream`` sent (the server's hint).
    batch_size: int = 0


def serve_unit(port: int, sessions: List[Tuple[str, str, list]]) -> ServeUnit:
    """Stream every session on its own connection; time first send to
    last finalize reply.

    Each connection streams its trace with the SDK's ``stream``, so the
    batches have the size users get by default: the server's batch hint.
    No speed probe runs here: a probe would hold this process's GIL
    while the senders wait on acks (:func:`run_phases` probes between
    units).
    """
    from repro.serve import ServeClient

    clients = [ServeClient("127.0.0.1", port) for _ in sessions]
    try:
        for i, (client, (scheme, app, trace)) in enumerate(
                zip(clients, sessions)):
            client.open_session(scheme, tenant=f"bench-{i}", app=app,
                                total_hint=len(trace))
        batch_size = clients[0].session.batch_hint
        n = len(sessions)
        acks: List[List[float]] = [[] for _ in range(n)]
        payloads: List[Dict[str, Any]] = [{} for _ in range(n)]
        ends = [0.0] * n
        errors: List[Exception] = []
        barrier = threading.Barrier(n + 1)

        def drive(i: int) -> None:
            client, own = clients[i], acks[i]
            clock = time.perf_counter
            send = client.send

            def timed_send(batch):
                t0 = clock()
                credits = send(batch)
                own.append((clock() - t0) * 1e3)
                return credits

            # ``stream`` looks ``send`` up on the instance.
            client.send = timed_send
            try:
                barrier.wait()
                client.stream(sessions[i][2])
                payloads[i] = client.finalize()
                ends[i] = clock()
            except Exception as exc:  # re-raised in the caller
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(i,), daemon=True)
                   for i in range(n)]
        for thread in threads:
            thread.start()
        barrier.wait()
        t0 = time.perf_counter()
        deadline = t0 + 120.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.perf_counter()))
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve session did not finish in 120 s")
        if errors:
            raise errors[0]
        return ServeUnit(wall_s=max(ends) - t0,
                         acks_ms=[a for own in acks for a in own],
                         payloads=payloads, batch_size=batch_size)
    finally:
        for client in clients:
            client.close()


def comparable_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """A result state without the shared-cache activity extras."""
    out = dict(state)
    out["extras"] = {k: v for k, v in state["extras"].items()
                     if not k.startswith(_SHARED_CACHE_EXTRAS)}
    return out


def direct_states(sessions: List[Tuple[str, str, list]]
                  ) -> Tuple[List[Dict[str, Any]], float]:
    """Each session run directly, as the server runs it; plus wall s."""
    from repro.registry import make_scheme
    from repro.sim.engine import EngineConfig, SimulationEngine
    from repro.sim.export import result_to_state
    from repro.sim.runner import scaled_system_config

    states = []
    t0 = time.perf_counter()
    for scheme, app, trace in sessions:
        engine = SimulationEngine(make_scheme(scheme, scaled_system_config()),
                                  EngineConfig())
        session = engine.open_session(app=app, total_hint=len(trace))
        session.feed(trace)
        result = session.finalize()
        states.append({"summary": result.summary_row(),
                       "state": result_to_state(result)})
    return states, time.perf_counter() - t0


def serve_sessions(mix: Mix, prepared: Prepared) -> List[Tuple[str, str, list]]:
    return [(scheme, app, prepared.traces[app]) for scheme, app in mix.serve]


def check_served(ledger: Ledger, units: List[ServeUnit],
                 direct: List[Dict[str, Any]]) -> None:
    for u, served in enumerate(units):
        for payload, expected in zip(served.payloads, direct):
            ledger.check(payload["summary"] == expected["summary"]
                         and comparable_state(payload["state"])
                         == comparable_state(expected["state"]),
                         f"serve unit {u + 1} {expected['state']['scheme']}:"
                         f" served finalize state differs from a direct "
                         f"Session run")


# ----------------------------------------------------------------------
# sweep: pool/dir cold, warm re-run, queue/sqlite cold
# ----------------------------------------------------------------------

@dataclass
class SweepUnit:
    cold_s: float
    warm_s: List[float]
    queue_s: float
    #: Worker-side execution time of each queue-pass job.
    job_durations: List[float]
    lease_reclaims: int
    #: :func:`speed_probe` before every warm pass and after the last.
    warm_probe_s: List[float] = field(default_factory=list)


def sweep_config(mix: Mix, seed: int):
    from repro.sim.runner import ExperimentConfig
    return ExperimentConfig(apps=list(mix.sweep_apps),
                            schemes=list(mix.sweep_schemes),
                            requests_per_app=SWEEP_REQUESTS,
                            seed=derived_seed(seed, "sweep"))


def sweep_unit(config, work: Path, ledger: Ledger,
               reference: List[str]) -> SweepUnit:
    from repro.sim.export import grid_to_dict
    from repro.sweep import open_store, run_sweep

    cells = len(config.apps) * len(config.schemes)
    clock = time.perf_counter

    def timed(store: str, backend: str, storage: str):
        t0 = clock()
        grid = run_sweep(config, jobs=2, store=store, backend=backend,
                         storage=storage)
        wall = clock() - t0
        return json.dumps(grid_to_dict(grid), sort_keys=True), wall

    work.mkdir(parents=True)
    try:
        pool_store = str(work / "pool")
        cold_rows, cold_s = timed(pool_store, "pool", "dir")
        cold = open_store(pool_store).read_manifest() or {}
        warm_s = []
        warm_rows = []
        # A warm pass runs in this process only, so it is CPU-bound here
        # and can be scaled by the probes around it like a sim chunk.
        # The cold passes run in worker processes; :func:`run_phases`
        # probes every CPU around the unit for them.
        probes = [speed_probe()]
        for _ in range(WARM_REPS):
            rows, wall = timed(pool_store, "pool", "dir")
            warm_rows.append(rows)
            warm_s.append(wall)
            probes.append(speed_probe())
        warm = open_store(pool_store).read_manifest() or {}
        queue_store = str(work / "queue.sqlite")
        queue_rows, queue_s = timed(queue_store, "queue", "sqlite")
        queue = open_store(queue_store, "sqlite").read_manifest() or {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not reference:
        reference.append(cold_rows)
    ledger.check(cold.get("simulated") == cells and cold.get("failed") == 0,
                 f"cold sweep simulated {cold.get('simulated')} of {cells}")
    ledger.check(warm.get("cached") == cells,
                 f"warm sweep served {warm.get('cached')} of {cells} cached")
    ledger.check(queue.get("simulated") == cells
                 and queue.get("failed") == 0,
                 f"queue sweep simulated {queue.get('simulated')} of {cells}")
    ledger.check(all(rows == reference[0]
                     for rows in [cold_rows, queue_rows] + warm_rows),
                 "sweep cold, warm and queue rows are not byte-identical")
    reclaims = queue.get("obs", {}).get("flat", {}).get(
        "sweep_lease_reclaims_total", 0)
    # Queue manifests carry each worker's execution time; pool ones
    # count from submission, so they include the wait for a free worker.
    return SweepUnit(cold_s=cold_s, warm_s=warm_s, queue_s=queue_s,
                     job_durations=[job["duration_s"]
                                    for job in queue.get("jobs", [])
                                    if job["status"] == "simulated"],
                     lease_reclaims=int(reclaims), warm_probe_s=probes)


def _due(step: int, steps: int, units: int) -> int:
    """Units of a phase due at ``step`` when spread evenly over steps."""
    return (step + 1) * units // steps - step * units // steps


def run_phases(mix: Mix, prepared: Prepared, seed: int, work: Path,
               ledger: Ledger, probes: List[float]
               ) -> Tuple[List[SimRound], List[ServeUnit], List[SweepUnit]]:
    """The mix's sim rounds, serve units and sweep units.

    The units of the three phases are interleaved evenly over the run,
    so that a burst of load from other tenants, which can last tens of
    seconds, cannot land on every unit of one phase.  Serve units rotate
    over the set-up's servers.  A :func:`host_probes` set, appended to
    ``probes``, follows every serve and sweep unit.
    """
    if not prepared.servers:
        raise ValueError("the serve phase needs a running server")
    sessions = serve_sessions(mix, prepared)
    config = sweep_config(mix, seed)
    rounds: List[SimRound] = []
    serve: List[ServeUnit] = []
    sweep: List[SweepUnit] = []
    reference: List[str] = []
    counts = mix.units
    steps = max(counts)
    for step in range(steps):
        for _ in range(_due(step, steps, counts[0])):
            rounds.append(sim_round(mix, prepared, ledger))
        for _ in range(_due(step, steps, counts[1])):
            server = prepared.servers[len(serve) % len(prepared.servers)]
            with ledger.operation("serve unit"):
                serve.append(serve_unit(server.port, sessions))
            probes += host_probes()
        for _ in range(_due(step, steps, counts[2])):
            with ledger.operation("sweep unit"):
                sweep.append(sweep_unit(config, work / f"sweep-{len(sweep)}",
                                        ledger, reference))
            probes += host_probes()
    first = rows_digest(rounds[0].rows)
    for i, later in enumerate(rounds[1:], start=2):
        ledger.check(rows_digest(later.rows) == first,
                     f"sim round {i} summary digest differs from round 1")
    return rounds, serve, sweep
