#!/usr/bin/env python3
"""Cycle position and step name of a benchmark run's slowest per-op samples.

    python3 scripts/tail_positions.py WORKLOAD SEED [TOP]

Reads `.perfbench-out/steps-WORKLOAD-seedSEED.json`, which
`perfbench/run.py --workload WORKLOAD --seed SEED --trace 0` writes, and
prints the TOP (default 12) largest per-op CPU times, slowest first, with
each step's index, cycle position and name.  Names come from the workload's
inputs, rebuilt at SEED.  Top samples that recur every k steps at one
position point at a periodic cost, such as a full garbage collection, rather
than at that step's code.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from harness import load_library  # noqa: E402
from run import _workload  # noqa: E402
from tracing import NULL  # noqa: E402


def main() -> None:
    workload, seed, top = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]) if len(sys.argv) > 3 else 12
    steps = json.loads((ROOT / ".perfbench-out" / f"steps-{workload}-seed{seed}.json").read_text())
    load_library()
    module = _workload(workload)
    inputs = module.build(seed, NULL)
    names = {
        "verify-exhaustive": lambda i: getattr(item := inputs.order[i % module.CYCLE], "name", item),
        "cli-session": lambda i: " ".join(Path(arg).name for arg in inputs.calls[i % module.CYCLE].args[:2]),
        "classify-random": lambda i: f"DFA {i % len(inputs.texts)} of the pool",
    }[workload]
    op_ms = [1000 * cpu / ops for cpu, ops in zip(steps["cpu_s"], steps["ops"])]
    for i in sorted(range(len(op_ms)), key=op_ms.__getitem__, reverse=True)[:top]:
        print(f"step {i:6d}  position {i % steps['cycle']:3d}  {op_ms[i]:10.4f} ms/op  {names(i)}")


if __name__ == "__main__":
    main()
