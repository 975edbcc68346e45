"""Correctness bookkeeping: operations attempted, checks, failures.

Every simulated cell, served session and sweep pass is an *operation*;
every paper-shape or parity rule is a *check*.  Both count toward
``attempted``; an exception, an errored session or a failed check
counts toward ``failed``, so ``failed_frac`` is their ratio.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Sequence


class Ledger:
    """Counts attempted and failed operations and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr, flush=True)
        return ok

    @contextmanager
    def operation(self, what: str) -> Iterator[None]:
        """Count one operation; an exception inside marks it failed.

        The exception is reported and swallowed, so one broken cell does
        not hide the checks of the others.
        """
        self.attempted += 1
        try:
            yield
        except Exception:  # benchmark boundary: record and keep going
            self.failed += 1
            self.failures.append(what)
            print(f"OPERATION FAILED: {what}", file=sys.stderr)
            traceback.print_exc()

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def rows_digest(rows: Mapping[str, Mapping[str, float]]) -> str:
    """sha256 of summary rows keyed ``app/scheme`` (order-independent)."""
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


#: Largest write reduction any scheme may show on adv-dedup-worst,
#: whose generator supplies about 2 % duplicate writes.
WORST_CASE_MAX_REDUCTION = 0.05


def check_paper_shape(ledger: Ledger, rows: Mapping[str, Dict[str, float]],
                      baseline_hits: Mapping[str, int],
                      paper_apps: Sequence[str]) -> None:
    """The Fig. 11/12 shape rules on one round of summary rows.

    ``rows`` maps ``app/scheme`` to a summary row; ``baseline_hits``
    maps app to the Baseline scheme's dedup-hit counter.
    """
    for app, hits in baseline_hits.items():
        ledger.check(hits == 0, f"{app}: Baseline has {hits} dedup hits")
    for app in paper_apps:
        esd = rows[f"{app}/ESD"]
        base = rows[f"{app}/Baseline"]
        ledger.check(esd["write_reduction"] > 0,
                     f"{app}: ESD write reduction {esd['write_reduction']}"
                     f" is not positive (Fig. 11)")
        ledger.check(esd["write_latency_ns"] < base["write_latency_ns"],
                     f"{app}: ESD mean write {esd['write_latency_ns']} ns "
                     f"is not below Baseline's {base['write_latency_ns']} "
                     f"ns (Fig. 12)")
    for key, row in rows.items():
        if key.startswith("adv-dedup-worst/"):
            ledger.check(abs(row["write_reduction"])
                         <= WORST_CASE_MAX_REDUCTION,
                         f"{key}: write reduction {row['write_reduction']} "
                         f"beyond {WORST_CASE_MAX_REDUCTION} on a stream "
                         f"with ~2 % duplicates")
