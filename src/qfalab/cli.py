"""Command-line interface tying the library into reproducible workflows.

Exit codes: 0 success, 1 domain error, failed check or unwritable output,
2 parse error (an unreadable or non-UTF-8 input included), 3 inconclusive
result.  All numeric output is printed with 12 significant digits;
identical invocations produce identical payloads (timing aside).

Each command imports what it computes with: only those that read or build
a QFA load numpy, and only `classify`, `verify-witness` and `synthesize` the
fragment search.  `main` starts BLAS with one thread unless
`OPENBLAS_NUM_THREADS` is set: matrices of a few dozen rows never use a
second one, whose idle worker costs about 70 ms of CPU per process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from typing import TYPE_CHECKING, Any

from qfalab import USER_UNITARITY_TOL
from qfalab.automata import DEFAULT_MONOID_CAP, Dfa, DfaParseError, ParseError, dfa_to_json, minimize, parse_dfa
from qfalab.fixtures import (
    dfa_fixture,
    dfa_fixture_names,
    oracle,
    oracle_names,
    qfa_fixture,
    qfa_fixture_names,
)

if TYPE_CHECKING:
    import numpy as np

    from qfalab import fragments
    from qfalab.qfa import Qfa
    from qfalab.synthesis import SynthesisPlan

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3
# each subcommand returns one of these statuses with its payload
EXIT_CODES = {"pass": EXIT_OK, "fail": EXIT_DOMAIN, "inconclusive": EXIT_INCONCLUSIVE}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round_floats(obj: Any) -> Any:
    """Round every float to 12 significant digits for stable payloads.

    JSON has no NaN or infinity, so a non-finite float becomes its string
    "nan", "inf" or "-inf".
    """
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else _fmt(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(command: str, status: str, payload: dict, timing_s: float, fmt: str) -> None:
    if fmt == "structured":
        doc = {
            "command": command,
            "status": status,
            "payload": _round_floats(payload),
            "timing_s": round(timing_s, 6),
        }
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
        return
    print(f"[{status}] {command}")
    _print_table(payload, indent="  ")
    print(f"  (took {timing_s:.3f}s)")


def _print_table(obj: Any, indent: str = "") -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_table(v, indent + "  ")
            else:
                print(f"{indent}{k}: {_fmt(v) if isinstance(v, float) else v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _print_table(v, indent)
                print()
            else:
                print(f"{indent}- {_fmt(v) if isinstance(v, float) else v}")
    else:
        print(f"{indent}{obj}")


def _read_text(path: str, error: type[ParseError]) -> str:
    """The file as UTF-8 text; a file that cannot be read or decoded raises `error`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    """Write the file; a file that cannot be written raises ValueError (a domain error)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _read_dfa(path: str, complete_with_sink: bool) -> tuple[Dfa, dict]:
    dfa, report = parse_dfa(_read_text(path, DfaParseError), complete_with_sink=complete_with_sink)
    note = {}
    if report.completed_with_sink:
        note = {
            "completed_with_sink": True,
            "sink_name": report.sink_name,
            "missing_transitions": len(report.missing_transitions),
        }
    return dfa, note


def _read_qfa(path: str, tol: float) -> Qfa:
    from qfalab.qfa import QfaParseError, parse_qfa

    return parse_qfa(_read_text(path, QfaParseError), validate_tol=tol)


def _witness_payload(witness: fragments.FragmentWitness | None, verification=None) -> Any:
    if witness is None:
        return None
    from qfalab import fragments

    doc = fragments.witness_to_dict(witness)
    if verification is not None:
        doc["verification"] = [
            {"condition": c.label, "passed": c.passed, **({"detail": c.detail} if c.detail else {})}
            for c in verification.conditions
        ]
        doc["verified"] = verification.passed
    return doc


def _plan_payload(plan: SynthesisPlan | None) -> Any:
    if plan is None:
        return None
    return {
        "transient_states": list(plan.transient_states),
        "components": [list(c) for c in plan.components],
        "entry_states": list(plan.entry_states),
        "chain": list(plan.chain),
        "containment_counts": list(plan.containment_counts),
        "halting_weights": [str(w) for w in plan.halting_weights],
        "success_probability": str(plan.success_probability),
        "success_probability_float": float(plan.success_probability),
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args) -> tuple[str, dict | None]:
    from qfalab import fragments

    dfa, note = _read_dfa(args.dfa, args.complete_with_sink)
    verdict = fragments.classify(dfa, monoid_cap=args.monoid_cap)
    verification = None
    if verdict.witness is not None:
        verification = fragments.verify_witness(verdict.minimal_dfa, verdict.witness)
    payload = {
        "classification": verdict.classification,
        "minimal_states": len(verdict.minimal_dfa.states),
        "monoid": {"size": verdict.monoid_size, "complete": verdict.monoid_complete},
        "witness": _witness_payload(verdict.witness, verification),
        "plan": _plan_payload(verdict.plan),
    }
    if verdict.reason:
        payload["reason"] = verdict.reason
    if note:
        payload["parse_report"] = note
    status = "inconclusive" if verdict.classification == fragments.INCONCLUSIVE else "pass"
    return status, payload


def _cmd_verify_witness(args) -> tuple[str, dict | None]:
    from qfalab import fragments

    dfa, note = _read_dfa(args.dfa, args.complete_with_sink)
    witness = fragments.parse_witness(_read_text(args.witness, fragments.WitnessParseError))
    # state names are the minimal DFA's, the ones `classify` prints
    report = fragments.verify_witness(minimize(dfa), witness)
    payload = _witness_payload(witness, report)
    if note:
        payload["parse_report"] = note
    return "pass" if report.passed else "fail", payload


def _oracle_over(name: str, alphabet: tuple[str, ...]) -> Dfa:
    """The named oracle's DFA; one over another alphabet would label the machine's
    words meaninglessly, so that is an error."""
    lang = oracle(name)
    if set(lang.alphabet) != set(alphabet):
        raise ValueError(
            f"oracle {name!r} reads {{{', '.join(lang.alphabet)}}} "
            f"but the machine reads {{{', '.join(alphabet)}}}"
        )
    return lang


def _cmd_simulate(args) -> tuple[str, dict | None]:
    sweeping = args.all_up_to is not None
    if sweeping == (args.word is not None):
        args.usage_error("give a word or --all-up-to N" + (", not both" if sweeping else ""))
    if sweeping and args.trace:
        args.usage_error("--trace needs a word, not --all-up-to")
    if sweeping and (args.oracle is None or args.p is None):
        args.usage_error("--all-up-to needs --oracle and --p")
    if not sweeping and (args.oracle is not None or args.p is not None):
        args.usage_error("--oracle and --p need --all-up-to, not a word")
    from qfalab.qfa import run, verify_recognition

    qfa = _read_qfa(args.qfa, args.tol)
    if not sweeping:
        outcome = run(qfa, args.word, with_trace=args.trace)
        payload = {
            "word": args.word,
            "p_accept": outcome.p_accept,
            "p_reject": outcome.p_reject,
            "p_residual": outcome.p_residual,
        }
        if outcome.residual_flagged:
            payload["note"] = "non-halting mass left after the right endmarker"
        if args.trace:
            payload["trace"] = [
                {
                    "symbol": rec.symbol,
                    "accept_increment": rec.accept_increment,
                    "reject_increment": rec.reject_increment,
                    "post_norm_sq": rec.post_norm_sq,
                }
                for rec in outcome.trace
            ]
        return "pass", payload

    lang = _oracle_over(args.oracle, qfa.alphabet)
    report = verify_recognition(qfa, lang, args.p, args.all_up_to, tol=args.tol)
    payload = {
        "oracle": args.oracle,
        "p": args.p,
        "max_len": args.all_up_to,
        "words_checked": _word_count(report.words_checked, len(qfa.alphabet), args.all_up_to),
        "worst_accept_margin": report.worst_accept_margin,
        "worst_reject_margin": report.worst_reject_margin,
        "counterexamples": [
            {"word": w, "probability": pr} for w, pr in report.counterexamples
        ],
        "residual_flagged": report.residual_flagged,
    }
    return "pass" if report.passed else "fail", payload


def _word_count(count: int, k: int, max_len: int) -> int | str:
    """`count`, the number of words of length 0..max_len over k letters; one
    too long for the interpreter to print as an int is spelled exactly as
    the string "(k^(max_len+1) - 1)/(k - 1)", or "2^(max_len+1) - 1"."""
    try:
        str(count)
    except ValueError:
        return f"({k}^{max_len + 1} - 1)/{k - 1}" if k > 2 else f"2^{max_len + 1} - 1"
    return count


def _cmd_synthesize(args) -> tuple[str, dict | None]:
    from qfalab import fragments
    from qfalab.qfa import qfa_to_json
    from qfalab.synthesis import synthesize

    dfa, note = _read_dfa(args.dfa, args.complete_with_sink)
    verdict = fragments.classify(dfa, monoid_cap=args.monoid_cap)
    if verdict.classification == fragments.INCONCLUSIVE:
        return "inconclusive", {"reason": verdict.reason}
    if verdict.classification != fragments.CONSTRUCTIBLE:
        raise ValueError(
            f"input is {verdict.classification}; only constructible languages can be compiled"
        )
    qfa, p = synthesize(verdict.minimal_dfa)
    _write_text(args.out, qfa_to_json(qfa))
    payload = {
        "out": args.out,
        "dimension": qfa.dimension,
        "plan": _plan_payload(verdict.plan),
        "success_probability": str(p),
        "success_probability_float": float(p),
    }
    if note:
        payload["parse_report"] = note
    return "pass", payload


def _cmd_union(args) -> tuple[str, dict | None]:
    from qfalab import combinators
    from qfalab.qfa import qfa_to_json

    q1 = _read_qfa(args.qfa1, args.tol)
    q2 = _read_qfa(args.qfa2, args.tol)
    machine, p = combinators.union(q1, args.p1, q2, args.p2)
    _write_text(args.out, qfa_to_json(machine))
    payload = {
        "out": args.out,
        "dimension": machine.dimension,
        "p1": args.p1,
        "p2": args.p2,
        "combined_probability": p,
    }
    return "pass", payload


def _cmd_complement(args) -> tuple[str, dict | None]:
    from qfalab import combinators
    from qfalab.qfa import qfa_to_json

    qfa = _read_qfa(args.qfa, args.tol)
    comp = combinators.complement(qfa)
    _write_text(args.out, qfa_to_json(comp))
    payload = {"out": args.out, "dimension": comp.dimension}
    return "pass", payload


def _cmd_decompose(args) -> tuple[str, dict | None]:
    if args.word2 is not None and args.decay_steps is not None:
        args.usage_error("--decay-steps needs the one-word form, not --word2")
    from qfalab import spectral

    qfa = _read_qfa(args.qfa, args.tol)
    words = [args.word] if args.word2 is None else [args.word, args.word2]
    dec = spectral.decompose(qfa, *words)

    def basis_payload(mat: np.ndarray) -> list[list[list[float]]]:
        return [[[float(z.real), float(z.imag)] for z in column] for column in mat.T]

    payload = {
        "words": words,
        "non_halting_dimension": len(dec.non_halting),
        "isometric_dimension": dec.isometric_dim,
        "transient_dimension": dec.transient_dim,
        "isometric_basis": basis_payload(dec.isometric_basis),
        "transient_basis": basis_payload(dec.transient_basis),
    }
    if args.word2 is None:  # a jointly transient vector need not decay under one word's powers
        steps = 12 if args.decay_steps is None else args.decay_steps
        payload["transient_norm_decay"] = [
            {"basis_vector": j, "norms": spectral.norm_decay_table(qfa, args.word, v, steps)}
            for j, v in enumerate(dec.transient_basis.T)
        ]
    return "pass", payload


def _cmd_separability(args) -> tuple[str, dict | None]:
    from qfalab import combinators

    q1 = _read_qfa(args.qfa1, args.tol)
    q2 = _read_qfa(args.qfa2, args.tol)
    lang = _oracle_over(args.oracle, q1.alphabet)
    result = combinators.separability(q1, q2, lang, args.max_len)
    payload = {
        "oracle": args.oracle,
        "max_len": args.max_len,
        "separable": result.separable,
        "limit_case": result.limit_case,
        "margin": result.margin,
        "line": list(result.line) if result.line else None,
        "cloud": [
            {"word": p.word, "p1": p.p1, "p2": p.p2, "label": "in" if p.in_language else "out"}
            for p in result.cloud
        ],
    }
    return "pass", payload


def _cmd_fixtures(args) -> tuple[str, dict | None]:
    if args.action == "list":
        payload = {
            "dfa": list(dfa_fixture_names()),
            "qfa": list(qfa_fixture_names()),
            "oracle": list(oracle_names()),
        }
        return "pass", payload
    name = args.name
    if name is None:
        args.usage_error("fixtures emit needs a fixture name")
    if name in dfa_fixture_names():
        text = dfa_to_json(dfa_fixture(name))
    elif name in qfa_fixture_names():
        from qfalab.qfa import qfa_to_json

        text = qfa_to_json(qfa_fixture(name))
    else:
        raise ValueError(f"unknown fixture {name!r}; try `fixtures list`")
    if args.out:
        _write_text(args.out, text)
        return "pass", {"name": name, "out": args.out}
    # bare emit: the fixture text is the whole output
    sys.stdout.write(text)
    return "pass", None


def _checked(convert, fallback, ok, message: str):
    """An argparse type: `convert` the text (`fallback` when it cannot), and
    raise ArgumentTypeError with `message` unless `ok` holds of the value."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = fallback
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{message}, not {text!r}")
        return value
    return parse


# `--tol`: a finite, non-negative float
_tolerance = _checked(float, math.nan, lambda v: math.isfinite(v) and v >= 0, "must be a finite, non-negative number")
# `--all-up-to`, `--max-len` and `--decay-steps`: a non-negative int
_non_negative_int = _checked(int, -1, lambda v: v >= 0, "must be a non-negative integer")
# `--monoid-cap`: a positive int no larger than `sys.maxsize`; a cap below
# |alphabet|+1 depends on the DFA and stays the library's error
_monoid_cap = _checked(
    int, 0, lambda v: 0 < v <= sys.maxsize, f"must be a positive integer no larger than {sys.maxsize}"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfalab",
        description="Recognizability analysis, compilation and exact simulation of 1-way QFAs.",
    )
    def add_globals(target, suppress: bool):
        # the same flags parse before or after the subcommand; the
        # subcommand position wins when both are given
        kw = {"default": argparse.SUPPRESS} if suppress else {}
        target.add_argument(
            "--tol", type=_tolerance, help=f"numeric tolerance (default {USER_UNITARITY_TOL:g})",
            **({"default": USER_UNITARITY_TOL} if not suppress else kw),
        )
        target.add_argument(
            "--monoid-cap", type=_monoid_cap,
            help=f"transition monoid enumeration cap (default {DEFAULT_MONOID_CAP})",
            **({"default": DEFAULT_MONOID_CAP} if not suppress else kw),
        )
        target.add_argument(
            "--format", choices=("table", "structured"), help="output format",
            **({"default": "table"} if not suppress else kw),
        )

    add_globals(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    add_globals(common, suppress=True)
    dfa_input = argparse.ArgumentParser(add_help=False)
    dfa_input.add_argument("dfa")
    dfa_input.add_argument("--complete-with-sink", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common, dfa_input], help="decide QFA-recognizability of a DFA's language")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify-witness", parents=[common, dfa_input], help="replay a fragment witness on a DFA")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_verify_witness)

    p = sub.add_parser("simulate", parents=[common], help="run a QFA on one word or sweep all words up to a length")
    p.add_argument("qfa")
    p.add_argument("word", nargs="?")
    p.add_argument("--all-up-to", type=_non_negative_int, metavar="N")
    p.add_argument("--oracle", choices=oracle_names())
    p.add_argument("--p", type=float)
    p.add_argument("--trace", action="store_true")
    # usage_error: argument combinations argparse cannot check end in this
    # subcommand's usage message and exit 2
    p.set_defaults(func=_cmd_simulate, usage_error=p.error)

    p = sub.add_parser("synthesize", parents=[common, dfa_input], help="compile an eligible DFA into a QFA")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("union", parents=[common], help="combine two recognizers into one for the union")
    p.add_argument("qfa1")
    p.add_argument("p1", type=float)
    p.add_argument("qfa2")
    p.add_argument("p2", type=float)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_union)

    p = sub.add_parser("complement", parents=[common], help="swap accepting and rejecting states")
    p.add_argument("qfa")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("decompose", parents=[common], help="isometric/transient split for one or two words")
    p.add_argument("qfa")
    p.add_argument("--word", required=True)
    p.add_argument("--word2")
    p.add_argument("--decay-steps", type=_non_negative_int, help="one-word form only (default 12)")
    p.set_defaults(func=_cmd_decompose, usage_error=p.error)

    p = sub.add_parser("separability", parents=[common], help="two-machine point cloud and max-margin line")
    p.add_argument("qfa1")
    p.add_argument("qfa2")
    p.add_argument("--oracle", required=True, choices=oracle_names())
    p.add_argument("--max-len", type=_non_negative_int, required=True)
    p.set_defaults(func=_cmd_separability)

    p = sub.add_parser("fixtures", parents=[common], help="list or emit built-in fixtures")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("-o", "--out")
    p.set_defaults(func=_cmd_fixtures, usage_error=p.error)

    return parser


def main(argv: list[str] | None = None) -> int:
    # numpy's scipy-openblas reads this when numpy loads, which no command has
    # done yet; a value the user set wins.  Only the CLI sets it, so library
    # users keep their environment.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return _run(_build_parser().parse_args(argv))
    except BrokenPipeError:
        # the reader closed stdout (`| head`): the output ends here.  stdout
        # now writes to devnull, so the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN


def _run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        with warnings.catch_warnings():  # numpy's overflow and NaN already show in the payload
            warnings.simplefilter("ignore", RuntimeWarning)
            status, payload = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if payload is not None:  # None: the command wrote its whole output itself
        _emit(args.command, status, payload, time.perf_counter() - started, args.format)
    sys.stdout.flush()  # a closed pipe shows here, not at the interpreter's exit
    return EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
