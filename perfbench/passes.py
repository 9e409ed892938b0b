"""Timed passes over a workload's operation list, and their tally.

A pass runs every operation, in order, from one caller: each call starts
when the previous one has ended.  Answers are judged after the pass,
outside the timed region.

Between calls, untimed, a pass samples the host's speed (see
``hostspeed``); each call's latency is normalized by the speed around it,
and an operation's latency is the median of its normalized calls.
Operations faster than ``SAMPLE_S`` are called several times in a row
within a pass, each call on fresh inputs prepared untimed, so that their
median rests on as many samples as the slow ones get.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from workloads import judge


SAMPLE_S = 0.02     # an operation faster than this is called again in its pass
MAX_REPS = 20
MIN_PASSES = 3      # so that every operation has at least three samples


def now() -> float:
    """CLOCK_MONOTONIC, which is shared by every process on the host, so a
    child can time its own set-up from the moment its parent spawned it."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Tally:
    walls: list = field(default_factory=list)
    by_op: dict = field(default_factory=dict)   # operation name -> [[start, seconds]], every call
    attempted: int = 0
    failed: int = 0
    undecided: int = 0
    unexpected: int = 0        # failures outside the documented known defects
    mismatches: Counter = field(default_factory=Counter)
    checks: Counter = field(default_factory=Counter)

    def add_pass(self, wall: float, records: list) -> None:
        """records: (op, calls) in the order they ran, calls being
        (start, seconds, answer, error) of each call of the operation.

        An operation counts once per pass: failed if any call failed,
        else undecided if any call was.  Cross-operation checks see the
        first call's answers.
        """
        self.walls.append(wall)
        answers = {op.name: calls[0][2] for op, calls in records
                   if calls[0][3] is None}
        for op, calls in records:
            self.by_op.setdefault(op.name, []).extend([t, s] for t, s, _, _ in calls)
            self.attempted += 1
            self.checks.update(op.oracles)
            verdicts = [judge(op, answer, error, answers) for _, _, answer, error in calls]
            bad = next((v for v in verdicts if v.outcome == "failed"), None)
            if bad is not None:
                self.failed += 1
                self.unexpected += not op.known_defect
                tag = "known defect" if op.known_defect else "MISMATCH"
                self.mismatches[f"{tag}: {op.name}: {bad.message}"] += 1
            elif any(v.outcome == "undecided" for v in verdicts):
                self.undecided += 1

    def count(self, other: "Tally") -> None:
        """Add the operation counts and checks of another run."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.undecided += other.undecided
        self.unexpected += other.unexpected
        self.mismatches.update(other.mismatches)
        self.checks.update(other.checks)

    def median_ms(self, speed=None) -> dict:
        """Each operation's median call, normalized by ``speed`` if given."""
        def ms(t, s):
            return s * 1000.0 / (speed.slowdown(t, t + s) if speed else 1.0)
        return {name: statistics.median(ms(t, s) for t, s in calls)
                for name, calls in self.by_op.items()}

    def samples(self) -> int:
        return sum(len(calls) for calls in self.by_op.values())

    def to_json(self) -> dict:
        return {"walls": self.walls, "by_op": self.by_op,
                "attempted": self.attempted, "failed": self.failed,
                "undecided": self.undecided, "unexpected": self.unexpected,
                "mismatches": dict(self.mismatches), "checks": dict(self.checks)}

    @classmethod
    def from_json(cls, d: dict) -> "Tally":
        t = cls(**{k: v for k, v in d.items()
                   if k not in ("mismatches", "checks")})
        t.mismatches = Counter(d["mismatches"])
        t.checks = Counter(d["checks"])
        return t


def run_pass(ops: list, prepare, reps: dict = None, speed=None) -> tuple:
    """Run each operation ``reps[name]`` times (once by default); returns
    (wall seconds, records).

    ``prepare(op, k)`` gives, untimed, the thunk that makes the k-th call.
    ``speed``, a ``hostspeed.HostSpeed``, is sampled between calls.
    A full collection first, untimed, so every pass starts from the same
    garbage-collector state and its pauses fall on the same operations.
    """
    records = []
    gc.collect()
    start = now()
    for op in ops:
        calls = []
        for k in range((reps or {}).get(op.name, 1)):
            call = prepare(op, k)
            if speed is not None:
                speed.maybe_sample()
            t = now()
            answer = error = None
            try:
                answer = call()
            except Exception as exc:       # an operation's failure is a result
                error = exc
            calls.append((t, now() - t, answer, error))
        records.append((op, calls))
    if speed is not None:
        speed.sample()
    return now() - start, records


def repetitions(records: list) -> dict:
    """Calls per pass for each operation, from its latency in a first pass."""
    return {op.name: max(1, min(MAX_REPS, math.ceil(SAMPLE_S / max(calls[0][1], 1e-6))))
            for op, calls in records}


def keep_going(started: float, seconds: float, last_wall: float, passes: int,
               least: int = MIN_PASSES) -> bool:
    """Start another pass while one more fits the time budget, or while
    there are fewer than ``least`` passes."""
    return passes < least or now() - started + last_wall <= seconds


def measure(ops: list, per_pass, seconds: float, speed, once: bool = False,
            repeat: bool = True) -> Tally:
    """Timed passes for ``seconds``, sampling ``speed`` between calls;
    ``per_pass()`` gives each pass's ``prepare``.  The first pass calls
    each operation once and sets how often later passes call it, unless
    ``repeat`` is false.  ``once`` stops after the first pass."""
    tally = Tally()
    started = now()
    reps = None
    while True:
        wall, records = run_pass(ops, per_pass(), reps, speed)
        tally.add_pass(wall, records)
        if reps is None and repeat:
            reps = repetitions(records)
        if once or not keep_going(started, seconds, wall, len(tally.walls)):
            return tally


def end_to_end_latency(tally: Tally, speed) -> dict:
    """wall_s, op_ms.p50 and op_ms.p90 from each operation's median
    normalized call: (value, samples)."""
    lat = sorted(tally.median_ms(speed).values())
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {"wall_s": (sum(lat) / 1000.0, len(tally.walls)),
            "op_ms.p50": (statistics.median(lat), len(lat)),
            "op_ms.p90": (p90, len(lat))}


def fresh_dir(path: str, files: dict) -> str:
    """An empty working directory holding only ``files``."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    for name, text in files.items():
        with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return path


def cli_argv(op, workdir: str) -> list:
    return [a.replace("{dir}", workdir) for a in op.argv]
