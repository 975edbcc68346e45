"""The benchmark's workloads and their set-up.

A workload is one *traffic mix*: which traces the simulator is fed and
how.  Every workload runs the same three user paths on its mix, so every
end-to-end metric exists on every workload:

* **sim** -- direct ``Session.feed``/``finalize`` over every
  (app, scheme) cell, 20k requests a cell in 1024-request chunks;
* **serve** -- ``repro serve`` as a subprocess, two client connections
  in a closed loop, one session each;
* **sweep** -- ``run_sweep(jobs=2)`` over many small cells: pool/dir
  cold, the same store warm, then queue/sqlite cold.

Set-up builds everything the timed phases consume: traces, trace files
and the server process.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Requests per simulated trace; sets the EFIT-capacity-to-footprint
#: ratio, so it is fixed whatever the run length.
SIM_REQUESTS = 20_000
#: Requests per ``Session.feed`` call in the sim phase.
FEED_CHUNK = 1024
#: Requests per sweep cell: small, so fan-out and store writes weigh,
#: yet long enough that one cold pass is not mostly process start-up.
SWEEP_REQUESTS = 4_000

PAPER_SCHEMES = ("Baseline", "Dedup_SHA1", "DeWrite", "ESD")
ALL_SCHEMES = PAPER_SCHEMES + ("DaE", "PDE", "NV-Dedup", "ESD-Delta")


@dataclass(frozen=True)
class Mix:
    name: str
    #: Apps (trace profiles) of the sim phase.
    apps: Tuple[str, ...]
    schemes: Tuple[str, ...]
    #: Stream sim traces from a v2 container through ``read_trace``
    #: (True) or from in-memory lists (False).
    decode: bool
    #: Apps whose write path must show the paper's Fig. 11/12 shape.
    paper_apps: Tuple[str, ...]
    #: (scheme, app) of the two served sessions, one per connection.
    serve: Tuple[Tuple[str, str], ...]
    #: Sweep cells; the sweep accepts only the 20 paper apps.
    sweep_apps: Tuple[str, ...]
    sweep_schemes: Tuple[str, ...]
    #: Sim rounds, serve units and sweep units of one run.  Two sim
    #: rounds to take each chunk's least CPU over; 40 acks a serve unit,
    #: of which a p95 needs 200 and a steady one more; four sweeps for
    #: a median.  Sized so a run takes under a minute.
    units: Tuple[int, int, int]


MIXES: Dict[str, Mix] = {
    "paper-grid": Mix(
        name="paper-grid",
        apps=("gcc", "deepsjeng", "lbm"),
        schemes=PAPER_SCHEMES,
        decode=True,
        paper_apps=("gcc", "deepsjeng", "lbm"),
        serve=(("ESD", "gcc"), ("DeWrite", "lbm")),
        sweep_apps=("gcc", "deepsjeng", "lbm"),
        sweep_schemes=PAPER_SCHEMES,
        units=(2, 12, 4),
    ),
    "adversarial": Mix(
        name="adversarial",
        apps=("adv-dedup-worst", "adv-collision-heavy"),
        schemes=ALL_SCHEMES,
        decode=False,
        paper_apps=(),
        serve=(("ESD", "adv-dedup-worst"), ("DeWrite", "adv-collision-heavy")),
        # The paper app with the least content reuse.
        sweep_apps=("namd",),
        sweep_schemes=ALL_SCHEMES,
        units=(2, 6, 4),
    ),
}


def derived_seed(seed: int, *parts: object) -> int:
    """Stable per-trace seed from the workload seed (no hash salting)."""
    key = ":".join(str(p) for p in (seed,) + parts)
    return random.Random(key).getrandbits(31)


@dataclass
class Prepared:
    """What set-up hands the timed phases."""

    traces: Dict[str, list]
    trace_files: Dict[str, Path]
    #: One ``repro serve`` process per set-up repetition; serve units
    #: rotate over them so a run samples several server processes.
    servers: List["ServerProcess"] = field(default_factory=list)

    def stop_servers(self) -> bool:
        """Stop every server; True when all drained clean."""
        drained = [server.stop() for server in self.servers]
        return all(drained)


class ServerProcess:
    """``repro serve`` in a subprocess on an ephemeral loopback port."""

    ANNOUNCE = re.compile(r"serving on .*:(\d+)")

    def __init__(self, src: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        match = self.ANNOUNCE.match(line)
        if not match:
            self.kill()
            raise RuntimeError(f"repro serve did not announce a port "
                               f"(got {line!r})")
        self.port = int(match.group(1))

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGTERM and wait; True when the server drained clean."""
        if self.proc.poll() is not None:
            return False
        self.proc.terminate()
        try:
            out, _err = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        return self.proc.returncode == 0 and "drained clean" in out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def set_up(mix: Mix, seed: int, work: Path, src: Path) -> Prepared:
    """Generate traces, write trace files, start a server."""
    from repro.workloads.generator import TraceGenerator
    from repro.workloads.profiles import get_profile
    from repro.workloads.trace import write_trace

    traces: Dict[str, list] = {}
    files: Dict[str, Path] = {}
    for app in mix.apps:
        generator = TraceGenerator(get_profile(app),
                                   seed=derived_seed(seed, app))
        traces[app] = generator.generate_list(SIM_REQUESTS)
        if mix.decode:
            files[app] = work / f"{app}.trace"
            write_trace(traces[app], files[app])
    return Prepared(traces=traces, trace_files=files,
                    servers=[ServerProcess(src)])


def timed_set_up(mix: Mix, seed: int, work: Path, src: Path, reps: int,
                 between: Callable[[], None]
                 ) -> Tuple[Prepared, List[float]]:
    """Set up ``reps`` times, calling ``between`` before each and after
    the last; keep the last traces and every server."""
    walls: List[float] = []
    servers: List[ServerProcess] = []
    prepared = None
    try:
        for _ in range(reps):
            between()
            t0 = time.perf_counter()
            prepared = set_up(mix, seed, work, src)
            walls.append(time.perf_counter() - t0)
            servers += prepared.servers
        between()
    except BaseException:
        for server in servers:
            server.kill()
        raise
    if prepared is None:
        raise ValueError("set-up needs at least one repetition")
    prepared.servers = servers
    return prepared, walls
