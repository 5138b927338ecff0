"""Run one workload on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs `perfbench/run.py` once per seed, one run at a time, and prints for
every metric its median, quartiles and quartile spread ((Q3 - Q1) / median,
from `statistics.quantiles(values, n=4)`), next to the bound that
BENCHMARK.json fixes for it.  The raw results are written to
`.perfbench-out/spread-<workload>-trace<0|1>.json`.  A metric passes when
its spread is under a third of its bound; setup_s is only reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import OUT, ROOT
from stats import quartile_spread


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
    steady = all(r["correct"] for r in runs)
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = quartile_spread(values) if median else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread < bound / 3 else "WIDE"
            steady = steady and verdict == "ok"
        print(f"{name:<40} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6} {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
