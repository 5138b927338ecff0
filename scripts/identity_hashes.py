#!/usr/bin/env python3
"""Output-identity check: one digest per group of `classify` results.

    python3 scripts/identity_hashes.py

Each digest covers, per DFA: classification, reason, minimal DFA, plan,
`witness_to_json`, the `verify_witness` report, monoid size and
completeness.  The groups are the first 436 `classify-random` DFAs of seeds
11 and 12 (the benchmark's generator, imported read only), every DFA
fixture, and `qfalab --format structured classify` on every DFA fixture with
`timing_s` removed.  A fifth digest covers `search_two_level_fork` on the
minimal DFA and its default monoid: every DFA fixture at the default
budget, and the DFAs of both classify-random groups at budgets 50 and
1 000, so a moved budget cut-off shows too.  A sixth digest covers
`classify` of both classify-random groups at monoid caps 12 and 500, where
many verdicts are inconclusive and witnesses are found inside a capped
monoid.  The library and the generator
are imported from the checkout that holds this script, so running it in two
checkouts and comparing the outputs with `diff` shows whether a change moved
any output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from qfalab.automata import dfa_to_json, minimize, parse_dfa, transition_monoid  # noqa: E402
from qfalab.cli import main as cli_main  # noqa: E402
from qfalab.fixtures import dfa_fixture, dfa_fixture_names  # noqa: E402
from qfalab.fragments import (  # noqa: E402
    DEFAULT_SEARCH_BUDGET,
    classify,
    search_two_level_fork,
    verify_witness,
    witness_to_json,
)

import classify_random  # noqa: E402

RANDOM_SEEDS = (11, 12)
RANDOM_DFAS = 436  # four cycles of the classify-random mix
TWO_LEVEL_BUDGETS = (50, 1_000)  # classify-random; the fixtures run at the default
CAPS = (12, 500)  # classify-random again, on capped monoids


def verdict_record(dfa, **options) -> str:
    verdict = classify(dfa, **options)
    witness = verdict.witness
    return repr((
        verdict.classification,
        verdict.reason,
        dfa_to_json(verdict.minimal_dfa),
        repr(verdict.plan),
        witness_to_json(witness) if witness is not None else None,
        repr(verify_witness(verdict.minimal_dfa, witness)) if witness is not None else None,
        verdict.monoid_size,
        verdict.monoid_complete,
    ))


def two_level_records(dfa, budgets):
    minimal = minimize(dfa)
    monoid = transition_monoid(minimal)
    for budget in budgets:
        witness = search_two_level_fork(minimal, monoid, budget)
        yield repr((budget, witness_to_json(witness) if witness is not None else None))


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record.encode())
        h.update(b"\0")
    return h.hexdigest()


def cli_record(path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["--format", "structured", "classify", str(path)])
    doc = json.loads(out.getvalue())
    doc.pop("timing_s")
    return repr((code, json.dumps(doc, sort_keys=True)))


def main() -> None:
    random_dfas = []
    for seed in RANDOM_SEEDS:
        dfas = [parse_dfa(text)[0] for text in classify_random.build(seed, None).texts[:RANDOM_DFAS]]
        print(f"classify-random seed {seed} ({RANDOM_DFAS} DFAs): {digest(map(verdict_record, dfas))}")
        random_dfas += dfas
    names = dfa_fixture_names()
    print(f"dfa fixtures ({len(names)}): {digest(verdict_record(dfa_fixture(n)) for n in names)}")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name in names:
            path = Path(tmp) / f"{name}.json"
            path.write_text(dfa_to_json(dfa_fixture(name)), encoding="utf-8")
            paths.append(path)
        print(f"cli structured classify ({len(names)}): {digest(cli_record(p) for p in paths)}")
    records = chain(
        (r for n in names for r in two_level_records(dfa_fixture(n), (DEFAULT_SEARCH_BUDGET,))),
        (r for dfa in random_dfas for r in two_level_records(dfa, TWO_LEVEL_BUDGETS)),
    )
    print(
        f"two-level fork ({len(names)} fixtures, {len(random_dfas)} classify-random DFAs): "
        f"{digest(records)}"
    )
    records = (verdict_record(dfa, monoid_cap=cap) for cap in CAPS for dfa in random_dfas)
    print(f"classify-random at monoid caps {CAPS} ({len(random_dfas)} DFAs): {digest(records)}")


if __name__ == "__main__":
    main()
