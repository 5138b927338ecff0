"""Shared pieces of the workloads: locating the library and the closed loop."""

from __future__ import annotations

import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


class MissingLibrary(RuntimeError):
    """The checkout holds no qfalab sources to benchmark."""


def load_library() -> None:
    """Import qfalab from this checkout's `src`, never from elsewhere."""
    if not (SRC / "qfalab" / "__init__.py").is_file():
        raise MissingLibrary(f"no qfalab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qfalab
    import qfalab.cli
    import qfalab.fixtures  # noqa: F401

    if SRC.resolve() not in Path(qfalab.__file__).resolve().parents:
        raise MissingLibrary(f"qfalab was imported from {qfalab.__file__}, not {SRC}")


@dataclass(frozen=True)
class Outcome:
    """Result of one loop step: `count` ops, of which some failed or were decided."""

    count: int
    failed: int
    decided: int
    detail: object = None


def cpu_seconds() -> float:
    """CPU time used so far by this process and its finished children.

    The timings are taken in CPU time, not wall time.  The host shares its
    cores with other virtual machines and at times runs them instead of
    this one (steal time): in one minute a third of the wall time went that
    way, and identical work took up to 3.4x longer by the wall clock while
    its CPU time stayed within 10%.  The work is CPU-bound (reads and
    writes hit the page cache) and, apart from numpy's BLAS threads in CLI
    processes, on one thread, so on an idle host CPU time tracks wall time.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


@dataclass
class LoopResult:
    outcomes: list[Outcome] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)  # CPU time per step
    wall_s: list[float] = field(default_factory=list)  # wall time per step
    elapsed: float = 0.0  # wall time of the whole loop

    @property
    def attempted(self) -> int:
        return sum(o.count for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def decided(self) -> int:
        return sum(o.decided for o in self.outcomes)

    def op_ms(self) -> list[float]:
        """CPU time per op, in ms, averaged within each step."""
        return [1000 * t / o.count for o, t in zip(self.outcomes, self.cpu_s)]

    def cycle_rates(self, cycle: int) -> list[float]:
        """Ops per CPU second of each complete cycle of `cycle` consecutive steps."""
        rates = []
        for start in range(0, len(self.outcomes) - cycle + 1, cycle):
            ops = sum(o.count for o in self.outcomes[start : start + cycle])
            rates.append(ops / sum(self.cpu_s[start : start + cycle]))
        return rates

    def ops_per_s(self, cycle: int) -> float:
        """Median throughput over the complete cycles.

        Every cycle holds the same mix of work, so a burst of load from
        other tenants of the host slows a few cycles and leaves the median
        alone, where it would drag down the ratio of all ops to all time.
        """
        return statistics.median(self.cycle_rates(cycle))


def closed_loop(
    step: Callable[[int], Outcome], seconds: float, min_steps: int = 0, max_steps: int | None = None
) -> LoopResult:
    """Run steps 0, 1, 2, ... back to back until `seconds` of wall time have passed.

    At least `min_steps` and at most `max_steps` steps run.  A step that
    raises counts as one failed op; its traceback goes to stderr.
    """
    result = LoopResult()
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while (i < min_steps or perf_counter() < deadline) and (max_steps is None or i < max_steps):
        t0, c0 = perf_counter(), cpu_seconds()
        try:
            outcome = step(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(count=1, failed=1, decided=0)
        result.cpu_s.append(cpu_seconds() - c0)
        result.wall_s.append(perf_counter() - t0)
        result.outcomes.append(outcome)
        i += 1
    result.elapsed = perf_counter() - start
    return result
