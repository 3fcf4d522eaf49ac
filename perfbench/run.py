"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
(nothing is installed).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run, whose spans are
written to ``.perfbench_work/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it is the environment block.  End-to-end timings are
reported at the reference host's speed (see ``perfbench/hostclock.py``);
the environment block holds the run's host factors and the raw values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
NAMES = ("table1", "serve_hot", "serve_cold")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds the stack, so the server and the host clock
    # process are stopped and waited for on the way out.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import common, hostclock, spans
    from perfbench.metrics import END_TO_END, PER_LAYER, at_reference_speed, host_kernels
    from perfbench.workloads import WORKLOADS, Context

    os.makedirs(WORKDIR, exist_ok=True)
    start = time.perf_counter()
    with hostclock.HostClock() as clock:
        ctx = Context(
            workload=args.workload,
            seed=args.seed,
            seconds=float(args.seconds),
            trace=bool(args.trace),
            src=SRC,
            workdir=WORKDIR,
            clock=clock,
            recorder=spans.Recorder() if args.trace else spans.NULL,
        )
        end_to_end, per_layer = WORKLOADS[args.workload](ctx)
    per_layer["fail_frac"] = ctx.outcome.fail_frac
    if args.trace:
        wanted, values = PER_LAYER, per_layer
    else:
        factors = {
            name: clock.factor(host_kernels(name), *phases)
            for name, phases in ctx.phases.items()
        }
        wanted, values = END_TO_END, at_reference_speed(end_to_end, factors)
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in wanted
    }
    if args.trace:
        trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        ctx.recorder.write(trace_path)
    for name in os.listdir(WORKDIR):
        path = os.path.join(WORKDIR, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)

    for name, metric in metrics.items():
        print(f"{args.workload:>10}  {name:<34} {metric['value']:>16.6f} {metric['unit']}")
    for problem in ctx.outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env = common.environment(
        args.workload, args.seed, args.seconds, bool(args.trace), **ctx.env
    )
    env["host_factors"] = clock.factors()
    env["host_ticks"] = clock.ticks()
    if not args.trace:
        env["raw"] = {name: float(end_to_end.get(name, 0.0)) for name, _ in END_TO_END}
    env["run_seconds"] = round(time.perf_counter() - start, 3)
    print(json.dumps({"environment": env}))
    print(
        json.dumps(
            {
                "correct": ctx.outcome.correct,
                "attempted": ctx.outcome.attempted,
                "failed": ctx.outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
