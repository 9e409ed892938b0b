"""The host's speed, read from fixed reference kernels run between calls.

The benchmark shares a few cores of a host with other tenants.  Their load
makes interpreter code on this machine up to twice as slow, for seconds to
minutes at a time, while large SVDs in BLAS barely slow.  The slowdown of
a small interpreter kernel tracks that of hadlab's interpreter-bound
operations closely (over 40-second windows that swung by 1.6x, the
normalized time of the ``structure`` operation list spread by 2%).  So a
run samples, every ``EVERY_S`` seconds between two calls of hadlab, the
reference kernel of its workload, and divides each call's latency by the
kernel's slowdown around it:

    normalized = measured * NOMINAL[kernel] / median(kernel samples near the call)

Normalized times are seconds on this host when it is not slowed down:
``NOMINAL`` holds each kernel's time then.  The kernels are fixed code of
the benchmark, so a change to hadlab moves the normalized times as much
as the measured ones.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction

EVERY_S = 0.25          # between samples of an in-process kernel
SPAWN_EVERY_S = 1.0     # between samples of the spawn kernel
WINDOW_S = 1.0          # a call is normalized by the samples this close to it
SPAWN_WINDOW_S = 0.5
SHORT_S = 0.02          # certify: calls this short are normalized

# each kernel's time on this host (2 vCPUs, Python 3.11, numpy 2) when
# other tenants leave it alone
NOMINAL = {"interp": 0.0060, "spawn": 0.104}


def interp() -> None:
    """Allocation-heavy interpreter work: exact fractions in a dict of
    tuples, then a sort, like the cycle search and the closure."""
    acc: dict = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 11 + 1)
    sorted(acc.items())


class Spawn:
    """Start a Python interpreter that imports numpy, like each command of
    the ``cli`` workload before it reaches hadlab."""

    def __init__(self, env: dict):
        self.env = env

    def __call__(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env,
                       check=True, capture_output=True, timeout=60)


def for_workload(workload: str, env: dict) -> "HostSpeed":
    """The kernel that stands in for a workload's work.

    ``structure`` spends its time in interpreter code, all of which slows
    with the interp kernel.  ``certify`` spends it in large SVDs, which
    the tenants' load leaves alone, so only its calls shorter than
    ``SHORT_S`` (interpreter work around BLAS calls on small arrays) are
    normalized.  Each ``cli`` command is mostly interpreter start-up.
    """
    if workload == "cli":
        return HostSpeed({"spawn": Spawn(env)}, SPAWN_EVERY_S, SPAWN_WINDOW_S)
    if workload == "certify":
        return HostSpeed({"interp": interp}, longest=SHORT_S)
    return HostSpeed({"interp": interp})


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class HostSpeed:
    """Samples of the reference kernels, and the slowdown they give.

    ``kernels`` maps a kernel name of ``NOMINAL`` to the callable that
    runs it; a call's slowdown is the mean over these kernels.  Calls
    longer than ``longest`` seconds are taken as measured.
    """

    def __init__(self, kernels: dict, every: float = EVERY_S, window: float = WINDOW_S,
                 longest: float = None):
        self.kernels = kernels
        self.every = every
        self.window = window
        self.longest = longest
        self.samples = {name: ([], []) for name in kernels}   # name -> (times, seconds)
        self._last = -1e9

    def sample(self) -> None:
        """Run every kernel once, untimed by the caller."""
        for name, kernel in self.kernels.items():
            t = now()
            kernel()
            end = now()
            times, secs = self.samples[name]
            times.append((t + end) / 2)
            secs.append(end - t)
        self._last = now()

    def maybe_sample(self) -> None:
        if now() - self._last >= self.every:
            self.sample()

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than nominal the host ran from t0 to t1, for a
        call that ran then."""
        if self.longest is not None and t1 - t0 > self.longest:
            return 1.0
        factors = []
        for name, (times, secs) in self.samples.items():
            lo = bisect.bisect_left(times, t0 - self.window)
            hi = bisect.bisect_right(times, t1 + self.window)
            if lo == hi:        # no sample that close: the last one before
                lo, hi = max(lo - 1, 0), max(lo, 1)
            factors.append(statistics.median(secs[lo:hi]) / NOMINAL[name])
        return statistics.fmean(factors)

    def to_json(self) -> dict:
        return {"window_s": self.window, "longest_s": self.longest,
                "samples": {name: {"t": t, "s": s} for name, (t, s) in self.samples.items()}}

    @classmethod
    def from_json(cls, d: dict) -> "HostSpeed":
        h = cls({name: None for name in d["samples"]}, window=d["window_s"],
                longest=d["longest_s"])
        h.samples = {name: (v["t"], v["s"]) for name, v in d["samples"].items()}
        return h
