"""The hadlab benchmark.

    python3 perfbench/run.py --workload cli|certify|structure --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; hadlab is imported from ``src``.  One
caller drives hadlab in a closed loop: at most one child process at a
time, BLAS pinned to one thread.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Every answer is checked against an oracle.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--smoke`` runs every workload's operations on minimal inputs, once.

The end-to-end metrics.  Their times are normalized by the host's speed
(see ``hostspeed``): they are seconds on this host when other tenants do
not slow it down, and the measured seconds go to the result file.

- ``setup_s``: median of seven fresh set-ups (import, seeded inputs and a
  warm-up pass of the smoke-sized workload; on ``cli`` one ``hadlab
  --version`` process), normalized by the spawn kernel sampled before each.
- ``wall_s``: time to all answers, the sum over the workload's operation
  list of each operation's median normalized call.  Calls run in passes
  over the list for the whole run.
- ``op_ms.p50`` and ``op_ms.p90``: median and 90th percentile of those
  per-operation medians, one sample per operation.
- ``ok_ratio`` and ``decided_ratio``: operations neither failed nor
  undecided, per operation attempted (counted once per pass).
- ``peak_rss_mb``: peak resident memory; on ``cli`` the largest child.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
DEADLINE_S = 170.0          # every run ends well inside 180 s
BLAS_THREADS = "1"
UNITS = {"setup_s": "s", "wall_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms",
         "ok_ratio": "ratio", "decided_ratio": "ratio", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cli", "certify", "structure"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hadlab", "__init__.py")):
        print("run from the root of a hadlab checkout: src/hadlab is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    bench = Bench(args, env, out_dir)

    load_before = _loadavg()
    try:
        if args.trace:
            tally, metrics = bench.traced()
        elif args.workload == "cli":
            tally, metrics = bench.cli()
        else:
            tally, metrics = bench.in_process()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    load_after = _loadavg()

    host = _host_facts(args, load_before, load_after)
    print("host: " + json.dumps(host, sort_keys=True))
    if host["started_under_load"]:
        print(f"WARNING: started under load (loadavg {load_before}); "
              f"timings are not comparable")
    for message, count in sorted(tally.mismatches.items()):
        print(f"{message} (x{count})")
    print("checks: " + json.dumps(dict(sorted(tally.checks.items()))))
    print(f"ops: attempted {tally.attempted}, failed {tally.failed} "
          f"(failed_ratio {tally.failed / tally.attempted:.4f}), undecided "
          f"{tally.undecided} (undecided_ratio {tally.undecided / tally.attempted:.4f}), "
          f"passes {len(tally.walls)}, op samples {tally.samples()}")
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (samples {samples})")
    result = {"correct": tally.unexpected == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    record = dict(result, host=host, workload=args.workload, seed=args.seed,
                  trace=args.trace, mismatches=dict(tally.mismatches),
                  checks=dict(tally.checks), pass_walls_s=tally.walls,
                  op_ms_median=tally.median_ms(), calls=tally.by_op,
                  speed_samples=bench.speed_samples)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


class Bench:
    """The runs of one invocation.  Modules that import hadlab are imported
    inside the methods, once ``main`` has put the checkout's src on the path."""

    def __init__(self, args, env: dict, out_dir: str):
        import passes
        self.args = args
        self.env = env
        self.out_dir = out_dir
        self.started = passes.now()
        self.speed_samples = None

    def _remaining(self) -> float:
        import passes
        left = DEADLINE_S - (passes.now() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def _child(self, argv: list) -> subprocess.CompletedProcess:
        """Run one child to completion; the only child alive at the time."""
        try:
            return subprocess.run(argv, env=self.env, capture_output=True,
                                  text=True, timeout=self._remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {' '.join(argv[:6])}") from exc

    def _worker(self, mode: str) -> tuple:
        import passes
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds), "--mode", mode,
                "--out", self.out_dir, "--spawned-at", repr(passes.now())]
        if self.args.smoke:
            argv.append("--smoke")
        proc = self._child(argv)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {mode} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        setup = json.loads(lines[0])["setup_s"]
        return setup, (json.loads(lines[-1]) if mode != "setup" else None)

    def _spawn_speed(self):
        """The spawn kernel alone, sampled before each set-up."""
        import hostspeed
        return hostspeed.HostSpeed({"spawn": hostspeed.Spawn(self.env)})

    def in_process(self):
        import hostspeed
        import passes
        repeats = 1 if self.args.smoke else SETUP_REPEATS
        spawn = self._spawn_speed()
        setups = []
        for k in range(repeats):
            spawn.sample()
            setup, out = self._worker("measure" if k == repeats - 1 else "setup")
            setups.append(setup)
        tally = passes.Tally.from_json(out["tally"])
        speed = hostspeed.HostSpeed.from_json(out["speed"])
        return tally, self._end_to_end(tally, speed, setups, spawn, out["peak_rss_mb"])

    def _hadlab(self, argv: list) -> subprocess.CompletedProcess:
        return self._child([sys.executable, "-m", "hadlab.cli", *argv])

    def cli(self):
        """Each operation is a fresh ``hadlab`` process, spawn to exit."""
        import hostspeed
        import passes
        import workloads

        work = os.path.join(self.out_dir, f"cli-{os.getpid()}")
        spawn = self._spawn_speed()
        setups = []
        for k in range(1 if self.args.smoke else SETUP_REPEATS):
            spawn.sample()
            t = passes.now()
            w = workloads.cli(self.args.seed, smoke=self.args.smoke)
            passes.fresh_dir(os.path.join(work, "setup"), w.files)
            if self._hadlab(["--version"]).returncode != 0:
                raise BenchError("hadlab --version failed")
            setups.append(passes.now() - t)

        count = [0]

        def per_pass():
            count[0] += 1
            d = passes.fresh_dir(os.path.join(work, f"pass-{count[0]}"), w.files)

            def prepare(op, k):
                def run():
                    proc = self._hadlab(passes.cli_argv(op, d))
                    text = proc.stdout if proc.returncode in (0, 1) else proc.stderr
                    return proc.returncode, text, d
                return run
            return prepare

        # each command appends to the pass's catalog: one call per pass
        speed = hostspeed.for_workload("cli", self.env)
        tally = passes.measure(w.ops, per_pass, self.args.seconds, speed,
                               once=self.args.smoke, repeat=False)
        shutil.rmtree(work, ignore_errors=True)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return tally, self._end_to_end(tally, speed, setups, spawn, rss)

    def _end_to_end(self, tally, speed, setups: list, spawn, rss_mb: float) -> dict:
        """Every time normalized by the host's speed: the run's by the
        workload's kernels, the set-ups by the spawn kernel sampled before
        each of them."""
        import passes
        self.speed_samples = {"run": speed.to_json(), "setup": spawn.to_json()}
        slow = spawn.slowdown(-math.inf, math.inf)
        measured = passes.end_to_end_latency(tally, None)
        print(f"measured, not normalized: setup_s {statistics.median(setups):.4g}, "
              + ", ".join(f"{k} {v:.4g}" for k, (v, _) in measured.items())
              + f"; host slowdown at set-up {slow:.3g}")
        values = {
            "setup_s": (statistics.median(setups) / slow, len(setups)),
            **passes.end_to_end_latency(tally, speed),
            "ok_ratio": (1.0 - tally.failed / tally.attempted, tally.attempted),
            "decided_ratio": (1.0 - tally.undecided / tally.attempted, tally.attempted),
            "peak_rss_mb": (rss_mb, 1),
        }
        return {k: (v, UNITS[k], s) for k, (v, s) in values.items()}

    def traced(self):
        """Per-layer numbers from a traced worker, plus CLI start-up time."""
        import passes
        from layers import metric_units

        _, out = self._worker("trace")
        startup = []
        for _ in range(STARTUP_REPEATS):
            t = passes.now()
            if self._hadlab(["--version"]).returncode != 0:
                raise BenchError("hadlab --version failed")
            startup.append((passes.now() - t) * 1000.0)
        layers = dict(out["layers"], **{"cli.startup_ms": statistics.median(startup)})
        traced = passes.Tally.from_json(out["traced_tally"])
        samples = len(traced.walls)
        tally = passes.Tally.from_json(out["tally"])
        tally.count(traced)
        metrics = {name: (float(layers.get(name, 0.0)), unit, samples)
                   for name, unit in metric_units().items()}
        return tally, metrics


def _loadavg() -> list:
    return [round(x, 2) for x in os.getloadavg()]


def _host_facts(args, before: list, after: list) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = os.cpu_count() or 1
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": cpus, "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "loadavg_before": before,
        "loadavg_after": after, "seed": args.seed, "workload": args.workload,
        # another busy process besides this benchmark's one child
        "started_under_load": before[0] > cpus - 0.5,
    }


if __name__ == "__main__":
    sys.exit(main())
