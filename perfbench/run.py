"""Run one qfalab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

With `--trace 0` the named workload runs untraced as a closed loop (one
client, no threads) for S seconds and the end-to-end metrics are printed.
With `--trace 1` every workload runs a fixed amount of work, each op once
untraced and then once traced with spans around each call into the library,
and the per-layer metrics are printed; each per-layer metric comes from the
workload that exercises its layer, so one traced run covers all of them.
The last line of output is one JSON object: correct, attempted, failed,
metrics.  `--workload all` runs each workload in a process of its own, one
after another, and prints each one's output under its name.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from harness import OUT, ROOT, MissingLibrary, Outcome, closed_loop, cpu_seconds, load_library
from stats import TAIL_MIN_BEYOND, tail_percentile
from tracing import NULL, Recorder

WORKLOADS = {
    "classify-random": "classify_random",
    "verify-exhaustive": "verify_exhaustive",
    "cli-session": "cli_session",
}
SETUP_REPEATS = 5


def _workload(name: str):
    return importlib.import_module(WORKLOADS[name])


def setup(name: str, seed: int):
    """Import qfalab, then build the seeded inputs SETUP_REPEATS times.

    setup_s is the median CPU time of a build (see `cpu_seconds`).  The
    one-time import is left out: on a shared host it moved by a third
    between two sets of runs of unchanged code (page cache), and each CLI
    process of cli-session pays it anyway.
    """
    load_library()
    module = _workload(name)
    builds = []
    for _ in range(SETUP_REPEATS):
        started = cpu_seconds()
        inputs = module.build(seed, NULL)
        builds.append(cpu_seconds() - started)
    return module, inputs, statistics.median(builds)


def end_to_end(name: str, seed: int, seconds: float):
    module, inputs, setup_s = setup(name, seed)
    loop = closed_loop(
        lambda i: module.step(inputs, i), seconds, min_steps=max(module.CYCLE, TAIL_MIN_BEYOND + 1)
    )
    op_ms = loop.op_ms()
    pct, tail = tail_percentile(op_ms)
    who = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops_per_s(module.CYCLE), "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "decided_ratio": (loop.decided / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "ops_per_s": f"median of {len(loop.cycle_rates(module.CYCLE))} cycles; {loop.attempted} ops, "
        f"{sum(loop.cpu_s):.3f} s CPU in {loop.elapsed:.3f} s wall",
        "op_ms_p50": f"{len(op_ms)} samples",
        "op_ms_tail": f"p{pct:g} of {len(op_ms)} samples",
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"steps-{name}-seed{seed}.json").write_text(
        json.dumps({"cycle": module.CYCLE, "ops": [o.count for o in loop.outcomes], "cpu_s": loop.cpu_s, "wall_s": loop.wall_s})
    )
    print(f"failed_ratio     {loop.failed / loop.attempted:.6g} ratio ({loop.failed} of {loop.attempted} ops)")
    return loop.attempted, loop.failed, metrics, notes


def traced(seed: int):
    load_library()
    rec = Recorder()
    attempted = failed = 0
    overhead = {}
    for name in WORKLOADS:
        module = _workload(name)
        with rec.op(f"{name}:setup"):
            inputs = module.build(seed, rec)
        plain_s = []

        def paired_step(i: int) -> Outcome:
            # each op runs untraced and then traced, so both see the same host load
            started = perf_counter()
            plain = module.step(inputs, i)
            plain_s.append(perf_counter() - started)
            with rec.op(f"{name}:{i}"):
                replay = module.traced_step(inputs, i, rec, plain.detail)
            return Outcome(
                plain.count + replay.count, plain.failed + replay.failed, plain.decided + replay.decided
            )

        n = module.TRACED_STEPS
        pairs = closed_loop(paired_step, 0, min_steps=n, max_steps=n)
        traced_s = sum(s.duration for s in rec.named(f"{name}.op"))
        overhead[name] = traced_s / sum(plain_s) - 1
        attempted += pairs.attempted
        failed += pairs.failed

    busy = rec.busy_s()
    metrics = {}
    for name in WORKLOADS:
        metrics.update(_workload(name).layer_metrics(rec, busy))
    for name, ratio in overhead.items():
        metrics[f"trace_overhead_ratio.{name}"] = (ratio, "ratio")
    rec.write(OUT / f"trace-seed{seed}.jsonl")
    return attempted, failed, metrics, {}


def run_all(args) -> int:
    """Every workload in its own process; exit 0 only if all ran correctly."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        print(f"== {name}\n{proc.stdout}", end="")
        sys.stderr.write(proc.stderr)
        ok = ok and proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.trace:
            attempted, failed, metrics, notes = traced(args.seed)
        else:
            attempted, failed, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
    except MissingLibrary as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if [m["name"] for m in declared] != list(metrics):
        print("perfbench: metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 2
    for metric, (value, unit) in metrics.items():
        note = f" ({notes[metric]})" if metric in notes else ""
        print(f"{metric:<16} {value:.6g} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
