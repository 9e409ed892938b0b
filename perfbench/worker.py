"""One benchmark process that asks hadlab its questions in-process.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|measure|trace --spawned-at T [--smoke]

Set-up is the import of hadlab, the seeded inputs and a warm-up pass of
the smoke-sized workload, timed from T, the parent's CLOCK_MONOTONIC
reading when it spawned this process.  ``measure`` then runs timed passes
for S seconds; ``trace`` alternates untraced and traced passes for S
seconds.  Each result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys

import hadlab.cli
import hostspeed
import passes
import workloads
from tracer import Tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True, help="scratch directory")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    build = workloads.BUILDERS[args.workload]
    w = build(args.seed, smoke=args.smoke)
    workdir = os.path.join(args.out, f"worker-{os.getpid()}")
    execute = _executor(w, workdir)
    warm = build(args.seed, smoke=True)
    passes.run_pass(warm.ops, _executor(warm, workdir)())
    setup_s = passes.now() - args.spawned_at
    print(json.dumps({"setup_s": setup_s}), flush=True)
    if args.mode == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    if args.mode == "measure":
        speed = hostspeed.for_workload(args.workload, dict(os.environ))
        speed.sample()      # a first sample, before timing
        tally = passes.measure(w.ops, execute, args.seconds, speed, once=args.smoke,
                               repeat=w.ops[0].argv is None)
        out = {"tally": tally.to_json(), "speed": speed.to_json()}
    else:
        out = _traced(w, execute, args)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out), flush=True)
    return 0


def _executor(w, workdir: str):
    """A factory giving, per pass, ``prepare(op, k)``: the thunk that makes
    the k-th call of an operation in the pass.

    In-process operations get fresh matrix objects every pass, and every
    further call fresh copies of the inputs the operation read in its
    first call.  CLI operations go through ``hadlab.cli.run_command`` in a
    fresh working directory with a fresh catalog.
    """
    counter = [0]
    reads: dict = {}    # operation name -> names of the inputs it reads

    def per_pass():
        if w.ops[0].argv is None:
            inputs = w.fresh_inputs()

            def prepare(op, k):
                if k == 0:
                    view = workloads.Recording(inputs, reads.setdefault(op.name, set()))
                    return lambda: op.call(view)
                fresh = w.fresh_inputs(reads[op.name])
                return lambda: op.call(fresh)
            return prepare
        counter[0] += 1
        d = passes.fresh_dir(os.path.join(workdir, f"pass-{counter[0]}"), w.files)

        def prepare(op, k):
            def run():
                code, text = hadlab.cli.run_command(passes.cli_argv(op, d))
                return code, text, d
            return run
        return prepare
    return per_pass


def _traced(w, execute, args) -> dict:
    """Untraced and traced passes in turn; per-layer numbers per traced pass."""
    tracer = Tracer()
    plain = passes.Tally()
    traced = passes.Tally()
    started = passes.now()
    while True:
        wall, records = passes.run_pass(w.ops, execute())
        plain.add_pass(wall, records)
        run = execute()
        tracer.install()
        try:
            wall_t, records = passes.run_pass(w.ops, run)
        finally:
            tracer.uninstall()
        traced.add_pass(wall_t, records)
        # the traced run reports no latencies: time budget only
        if args.smoke or not passes.keep_going(started, args.seconds, wall + wall_t,
                                               len(traced.walls), least=1):
            break
    layers = tracer.layer_stats(len(traced.walls))
    layers["trace.overhead_ratio"] = (statistics.median(traced.walls)
                                      / statistics.median(plain.walls))
    tracer.dump(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.json"))
    return {"tally": plain.to_json(), "traced_tally": traced.to_json(),
            "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
