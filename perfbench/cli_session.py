"""Workload `cli-session`: the README's typical session as separate CLI processes.

One op is one `python -m qfalab.cli --format structured ...` process, run to
completion before the next starts.  Process start, imports and argument
parsing dominate; the compute inside each call is small.  This is the only
workload where import-time and CLI-boilerplate changes show, and the only
one that runs `qfa.run` on the traced reference path (`simulate WORD
--trace`) instead of in bulk.

A session is 17 processes in a fixed order (files written by an earlier call
are read by a later one): `fixtures list`, two `fixtures emit`, `classify`
on every DFA fixture, `synthesize`, `simulate WORD --trace`, `simulate
--all-up-to 6`, `complement`, a passing `union` of the 3/4 toys, the 2/3
limit-case `union` that must exit 1, `decompose` and `separability
--max-len 5`.  The seed picks the emitted fixtures, the classify order, the
compiled language and the simulated and decomposed words.

Every process must give its expected exit code, and its output, with
`timing_s` removed, must be byte-identical to the first run of the same call.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

from qfalab.automata import dfa_to_json
from qfalab.fixtures import dfa_fixture, dfa_fixture_names, qfa_fixture, qfa_fixture_names
from qfalab.qfa import qfa_to_json

from harness import OUT, ROOT, SRC, Outcome
from tracing import NULL
from verify_exhaustive import mixtures, parity_machines

NAME = "cli-session"

SUBCOMMANDS = (
    "classify",
    "simulate",
    "synthesize",
    "union",
    "complement",
    "decompose",
    "separability",
    "fixtures",
)
CHILD_TIMEOUT_S = 120
IMPORT_PROBES = 3
TWO_THIRDS = repr(2 / 3)  # 1/p1 + 1/p2 = 3 exactly: the union's limit case
CYCLE = 11 + len(dfa_fixture_names())  # calls in one session
TRACED_STEPS = CYCLE


@dataclass(frozen=True)
class Call:
    args: tuple[str, ...]
    exit_code: int

    @property
    def subcommand(self) -> str:
        return self.args[0]


@dataclass
class Inputs:
    calls: tuple[Call, ...]
    env: dict
    outputs: dict = field(default_factory=dict)  # session position -> first output


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))


def build(seed: int, rec) -> Inputs:
    rng = random.Random(seed)
    work = OUT / f"{NAME}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in dfa_fixture_names():
        files[name] = work / f"{name}.dfa"
        files[name].write_text(dfa_to_json(dfa_fixture(name)), encoding="utf-8")
    for name in ("even_head_odd_tail_qfa", "odd_head_odd_tail_qfa"):
        files[name] = work / f"{name}.qfa"
        files[name].write_text(qfa_to_json(qfa_fixture(name)), encoding="utf-8")
    for i, toy in enumerate(mixtures(parity_machines(), NULL)):
        files[f"toy{i}"] = work / f"toy{i}.qfa"
        files[f"toy{i}"].write_text(qfa_to_json(toy), encoding="utf-8")

    def f(name: str) -> str:
        return str(files[name])

    language = rng.choice(("even_head_odd_tail", "odd_head_odd_tail"))
    compiled = str(work / "compiled.qfa")
    k2, k3 = f("even_head_odd_tail_qfa"), f("odd_head_odd_tail_qfa")
    calls = [
        Call(("fixtures", "list"), 0),
        Call(("fixtures", "emit", rng.choice(dfa_fixture_names()), "-o", str(work / "emitted.dfa")), 0),
        Call(("fixtures", "emit", rng.choice(qfa_fixture_names())), 0),
        *(Call(("classify", f(name)), 0) for name in rng.sample(dfa_fixture_names(), len(dfa_fixture_names()))),
        Call(("synthesize", f(language), "-o", compiled), 0),
        Call(("simulate", compiled, _word(rng, 6, 10), "--trace"), 0),
        Call(("simulate", compiled, "--all-up-to", "6", "--oracle", language, "--p", "0.6"), 0),
        Call(("complement", k2, "-o", str(work / "complement.qfa")), 0),
        Call(("union", f("toy0"), "0.75", f("toy1"), "0.75", "-o", str(work / "union.qfa")), 0),
        Call(("union", k2, TWO_THIRDS, k3, TWO_THIRDS, "-o", str(work / "limit.qfa")), 1),
        Call(("decompose", k2, "--word", _word(rng, 1, 3), "--word2", _word(rng, 1, 3)), 0),
        Call(("separability", k2, k3, "--oracle", "odd_tail", "--max-len", "5"), 0),
    ]
    env = {k: v for k, v in os.environ.items() if k != "QFALAB_MONOID_CAP"}
    env["PYTHONPATH"] = str(SRC)
    return Inputs(tuple(calls), env)


def _child(inputs: Inputs, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=inputs.env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def _run(inputs: Inputs, i: int, rec) -> Outcome:
    position = i % len(inputs.calls)
    call = inputs.calls[position]
    with rec.span(f"cli.{call.subcommand}") as s:
        proc = _child(inputs, ["-m", "qfalab.cli", "--format", "structured", *call.args])
    output = proc.stdout
    if call.args[:2] != ("fixtures", "emit") or "-o" in call.args:  # a bare emit prints the fixture
        doc = json.loads(output) if output else {}
        if "timing_s" in doc:
            s.counters["timing_s"] = doc.pop("timing_s")
        output = json.dumps(doc, sort_keys=True)
    output += "\n--- stderr ---\n" + proc.stderr
    first = inputs.outputs.setdefault(position, output)
    ok = proc.returncode == call.exit_code and output == first
    if not ok:
        print(f"cli-session: {call.args} exited {proc.returncode}: {proc.stderr[-500:]}", file=sys.stderr)
    return Outcome(1, 0 if ok else 1, int(proc.returncode != 3))


def step(inputs: Inputs, i: int) -> Outcome:
    return _run(inputs, i, NULL)


def traced_step(inputs: Inputs, i: int, rec, reference) -> Outcome:
    if i == 0:
        for _ in range(IMPORT_PROBES):
            with rec.span("cli.import"):
                _child(inputs, ["-c", "import qfalab.cli"]).check_returncode()
    with rec.span(f"{NAME}.op"):
        return _run(inputs, i, rec)


def layer_metrics(rec, busy: dict[str, float]) -> dict[str, tuple[float, str]]:
    metrics = {}
    for sub in SUBCOMMANDS:
        spans = rec.named(f"cli.{sub}")
        metrics[f"cli.{sub}.wall_s"] = (statistics.median(s.duration for s in spans), "s")
        metrics[f"cli.{sub}.timing_s"] = (statistics.median(s.counters["timing_s"] for s in spans if "timing_s" in s.counters), "s")
    structured = [s for sub in SUBCOMMANDS for s in rec.named(f"cli.{sub}") if "timing_s" in s.counters]
    metrics["cli.startup_s"] = (statistics.median(s.duration - s.counters["timing_s"] for s in structured), "s")
    metrics["cli.import_s"] = (statistics.median(s.duration for s in rec.named("cli.import")), "s")
    return metrics
