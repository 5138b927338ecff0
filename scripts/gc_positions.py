#!/usr/bin/env python3
"""Garbage collections of a benchmark workload, by generation and cycle position.

    python3 scripts/gc_positions.py WORKLOAD SEED PASSES

Builds the workload's inputs at SEED as `perfbench/run.py --trace 0` does
(its `setup`), then replays PASSES passes of its steps in this process
through the benchmark's own loop (`closed_loop`, which keeps every outcome
as a timed run does), with a `gc.callbacks` hook that records each
collection: its generation, the step it landed in and how long it took.
It prints, per generation, the number of collections and their spread over
the cycle positions, each position with its step's name; for full
(generation-2) collections it also prints the steps they landed in and
their times.  A position that takes every full collection sets the
workload's `op_ms_tail`, and `scripts/tail_positions.py` then shows that
step at the top.
"""

import gc
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from harness import closed_loop  # noqa: E402
from run import setup  # noqa: E402


def main() -> None:
    workload, seed, passes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    module, inputs, _ = setup(workload, seed)
    names = {
        "verify-exhaustive": lambda i: getattr(item := inputs.order[i], "name", item),
        "cli-session": lambda i: " ".join(Path(arg).name for arg in inputs.calls[i].args[:2]),
        "classify-random": lambda i: f"DFA {i % len(inputs.texts)} of the pool",
    }[workload]
    current = 0  # the step running
    started = 0.0
    collections: list[tuple[int, int, float]] = []  # (generation, step, seconds)

    def hook(phase: str, info: dict) -> None:
        nonlocal started
        if phase == "start":
            started = perf_counter()
        else:
            collections.append((info["generation"], current, perf_counter() - started))

    def step(i: int):
        nonlocal current
        current = i
        return module.step(inputs, i)

    steps = passes * module.CYCLE
    gc.callbacks.append(hook)
    try:
        closed_loop(step, 0, min_steps=steps, max_steps=steps)
    finally:
        gc.callbacks.remove(hook)
    print(f"{workload} seed {seed}: {passes} passes, {steps} steps, {len(collections)} collections")
    for generation in range(3):
        found = [(i, s) for g, i, s in collections if g == generation]
        print(f"generation {generation}: {len(found)}")
        for position, count in sorted(Counter(i % module.CYCLE for i, _ in found).items()):
            print(f"  position {position:3d}  {count:6d}  {names(position)}")
        if generation == 2:
            for i, seconds in found:
                print(f"  step {i:6d}  position {i % module.CYCLE:3d}  {1000 * seconds:8.3f} ms")


if __name__ == "__main__":
    main()
