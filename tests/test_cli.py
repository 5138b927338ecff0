"""End-to-end command-line workflows, exit codes, and payload determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfalab
from conftest import random_dfa
from qfalab.cli import main
from qfalab.fixtures import dfa_fixture, dfa_fixture_names, qfa_fixture
from qfalab.automata import dfa_to_json, minimize, parse_dfa
from qfalab.fragments import classify
from qfalab.qfa import parse_qfa, qfa_to_json


@pytest.fixture()
def paths(tmp_path):
    files = {}
    for name in ("odd_tail", "even_head_odd_tail", "a_star_b_star"):
        p = tmp_path / f"{name}.dfa"
        p.write_text(dfa_to_json(dfa_fixture(name)))
        files[name] = str(p)
    for name in ("even_head_odd_tail_qfa", "odd_head_odd_tail_qfa"):
        p = tmp_path / f"{name}.qfa"
        p.write_text(qfa_to_json(qfa_fixture(name)))
        files[name] = str(p)
    files["tmp"] = tmp_path
    return files


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "structured")
    return code, json.loads(out) if out else None, err


def run_process(*argv):
    """`qfalab` in a fresh interpreter: exit code and everything it printed."""
    src = str(Path(qfalab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qfalab.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestClassifyCommand:
    def test_union_language(self, capsys, paths):
        code, doc, _ = run_json(capsys, "classify", paths["odd_tail"])
        assert code == 0
        assert doc["payload"]["classification"] == "not-recognizable"
        assert doc["payload"]["witness"]["kind"] == "fork"
        assert doc["payload"]["witness"]["verified"] is True

    def test_constructible_language_carries_a_plan(self, capsys, paths):
        code, doc, _ = run_json(capsys, "classify", paths["even_head_odd_tail"])
        assert code == 0
        payload = doc["payload"]
        assert payload["classification"] == "constructible"
        assert payload["plan"]["success_probability"] == "3/5"

    def test_chained_cycles(self, capsys, paths):
        code, doc, _ = run_json(capsys, "classify", paths["a_star_b_star"])
        assert code == 0
        assert doc["payload"]["classification"] == "outside-characterized-class"
        assert doc["payload"]["witness"]["kind"] == "two-cycles"

    def test_inconclusive_exit_code(self, capsys, paths):
        # two generators of a large permutation group under a tiny cap
        text = {
            "alphabet": ["a", "b"],
            "states": [f"q{i}" for i in range(6)],
            "start": "q0",
            "accept": ["q0"],
            "delta": {
                f"q{i}": {"a": f"q{(i + 1) % 6}", "b": f"q{1 - i}" if i < 2 else f"q{i}"}
                for i in range(6)
            },
        }
        path = paths["tmp"] / "perm.dfa"
        path.write_text(json.dumps(text))
        code, doc, _ = run_json(capsys, "--monoid-cap", "50", "classify", str(path))
        assert code == 3
        assert doc["status"] == "inconclusive"
        out_path = paths["tmp"] / "out.qfa"
        code, doc, _ = run_json(
            capsys, "--monoid-cap", "50", "synthesize", str(path), "-o", str(out_path)
        )
        assert code == 3
        assert "hit the cap (50)" in doc["payload"]["reason"]
        assert not out_path.exists()

    @pytest.mark.parametrize("cap", ["0", "-5", "99999999999999999999", "x"])
    @pytest.mark.parametrize("position", ["global", "subcommand"])
    def test_monoid_cap_out_of_range_is_a_usage_error(self, capsys, paths, cap, position):
        classify_argv = ["classify", paths["odd_tail"]]
        argv = ["--monoid-cap", cap, *classify_argv] if position == "global" else [*classify_argv, "--monoid-cap", cap]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"argument --monoid-cap: must be a positive integer no larger than {sys.maxsize}, not '{cap}'" in err

    def test_monoid_cap_below_the_alphabet_is_a_domain_error(self, capsys, paths):
        # whether a cap is too small depends on the DFA's alphabet
        code, out, err = run_cli(capsys, "--monoid-cap", "2", "classify", paths["odd_tail"])
        assert code == 1
        assert out == ""
        assert "cap must be at least |alphabet|+1 = 3" in err
        code, doc, _ = run_json(capsys, "--monoid-cap", str(sys.maxsize), "classify", paths["odd_tail"])
        assert code == 0 and doc["payload"]["monoid"] == {"complete": True, "size": 6}

    def test_parse_error_exit_code(self, capsys, paths):
        bad = paths["tmp"] / "bad.dfa"
        bad.write_text("{not json")
        code, out, err = run_cli(capsys, "classify", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_malformed_accept_list_is_a_parse_error(self, paths):
        # a list where a state name belongs once escaped the parser as a TypeError
        doc = json.loads(dfa_to_json(dfa_fixture("odd_tail")))
        doc["accept"] = [["x"]]
        bad = paths["tmp"] / "bad_accept.dfa"
        bad.write_text(json.dumps(doc))
        src = str(Path(qfalab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qfalab.cli", "classify", str(bad)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "parse error" in proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout

    def test_non_finite_matrix_entry_is_a_parse_error(self, capsys, paths):
        # a NaN entry once passed validation and then every recognition check
        doc = json.loads(qfa_to_json(qfa_fixture("even_head_odd_tail_qfa")))
        doc["unitaries"]["b"][9] = [float("nan"), 0.0]
        bad = paths["tmp"] / "nan.qfa"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "simulate", str(bad), "--all-up-to", "4", "--oracle", "even_head_odd_tail", "--p", "0.66"
        )
        assert code == 2
        assert "must be finite" in err

    def test_sink_completion_note(self, capsys, paths):
        partial = paths["tmp"] / "partial.dfa"
        partial.write_text(json.dumps({
            "alphabet": ["a", "b"],
            "states": ["p"],
            "start": "p",
            "accept": ["p"],
            "delta": {"p": {"a": "p"}},
        }))
        code, out, err = run_cli(capsys, "classify", str(partial))
        assert code == 2
        code, doc, _ = run_json(capsys, "classify", str(partial), "--complete-with-sink")
        assert code == 0
        assert doc["payload"]["parse_report"]["completed_with_sink"] is True


class TestUnusableFiles:
    """An input that cannot be read or decoded is a parse error (exit 2); an
    output that cannot be written is an error (exit 1); neither a traceback."""

    @pytest.mark.parametrize("argv", [
        ("classify", "{tmp}/latin1.dfa"),
        ("simulate", "{tmp}/latin1.qfa", "a"),
        ("classify", "{tmp}"),
        ("simulate", "{tmp}", "a"),
        ("union", "{tmp}", "0.75", "{even_head_odd_tail_qfa}", "0.75", "-o", "{tmp}/u.qfa"),
        ("verify-witness", "{odd_tail}", "{tmp}/latin1.dfa"),
    ])
    def test_unusable_input_is_a_parse_error(self, paths, argv):
        for suffix in ("dfa", "qfa"):
            (paths["tmp"] / f"latin1.{suffix}").write_bytes('{"alphabet": ["\xe9"]}'.encode("latin-1"))
        code, out, err = run_process(*(arg.format(**paths) for arg in argv))
        assert code == 2
        assert err.startswith("parse error: cannot read")
        assert "Traceback" not in out + err

    def test_integer_past_the_digit_limit_is_a_parse_error(self, paths):
        big = paths["tmp"] / "big.json"
        big.write_text('{"alphabet": ' + "9" * 5000 + "}")
        for argv in (("classify", str(big)), ("simulate", str(big), "a")):
            code, out, err = run_process(*argv)
            assert code == 2
            assert out == ""
            assert err.startswith("parse error: invalid JSON")
            assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("complement", "{even_head_odd_tail_qfa}", "-o", "{tmp}"),
        ("synthesize", "{even_head_odd_tail}", "-o", "{tmp}"),
        ("fixtures", "emit", "odd_tail", "-o", "{tmp}"),
    ])
    def test_unwritable_output_is_an_error(self, paths, argv):
        code, out, err = run_process(*(arg.format(**paths) for arg in argv))
        assert code == 1
        assert err.startswith("error: ValueError: cannot write")
        assert "Traceback" not in out + err


def write_witness(path, witness: dict) -> str:
    path.write_text(json.dumps({"witness": witness}))
    return str(path)


class TestVerifyWitnessCommand:
    def test_every_classify_witness_replays(self, capsys, tmp_path):
        # the DFA fixtures with a witness, and seeded random DFAs that carry one
        rng = np.random.default_rng(11)
        randoms = []
        while len(randoms) < 12:
            dfa = random_dfa(rng, int(rng.integers(2, 7)))
            if classify(dfa).witness is not None:
                randoms.append(dfa)
        cases = [(name, dfa_fixture(name)) for name in dfa_fixture_names()]
        cases += [(f"random{i}", dfa) for i, dfa in enumerate(randoms)]
        replayed = []
        for stem, dfa in cases:
            dfa_path = tmp_path / f"{stem}.dfa"
            dfa_path.write_text(dfa_to_json(dfa))
            _, doc, _ = run_json(capsys, "classify", str(dfa_path))
            witness = doc["payload"]["witness"]
            if witness is None:
                continue
            witness_path = write_witness(tmp_path / f"{stem}.witness", witness)
            code, replay, _ = run_json(capsys, "verify-witness", str(dfa_path), witness_path)
            assert (code, replay["status"]) == (0, "pass"), stem
            assert replay["payload"]["verification"] == witness["verification"], stem
            assert replay["payload"] == witness, stem
            replayed.append(stem)
        assert len(replayed) == 4 + len(randoms)

    def test_layered_two_level_fork(self, capsys, tmp_path):
        dfa_path = tmp_path / "layered.dfa"
        dfa_path.write_text(dfa_to_json(dfa_fixture("layered")))
        words = dict(zip(("u1", "u2", "u3", "v1", "v2", "v3", "s1", "s2", "s3"), "abcdefghi"))
        witness = {"kind": "two-level-fork", "states": {"q0": "s0"}, "words": words}
        witness_path = write_witness(tmp_path / "layered.witness", witness)
        code, doc, _ = run_json(capsys, "verify-witness", str(dfa_path), witness_path)
        assert (code, doc["status"]) == (0, "pass")
        assert len(doc["payload"]["verification"]) == 7
        assert doc["payload"]["verified"] is True

    def test_multilevel_witness_is_a_parse_error(self, capsys, tmp_path):
        # the general layered form is not a witness kind: its replay verified
        # this witness on a language that `classify` calls constructible
        code, text, _ = run_cli(capsys, "fixtures", "emit", "even_head_odd_tail")
        assert code == 0
        dfa_path = tmp_path / "even_head_odd_tail.dfa"
        dfa_path.write_text(text)
        levels = [{"states": ["s0"], "words": ["b", "ba"]}, {"states": ["s2", "s4"]}]
        witness_path = write_witness(tmp_path / "layered.witness", {"kind": "multilevel", "levels": levels})
        code, out, err = run_cli(capsys, "verify-witness", str(dfa_path), witness_path)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: unknown witness kind 'multilevel'")

    @pytest.mark.parametrize("witness, message", [
        ({"kind": "fork", "states": {"q1": "s0"}, "words": {}}, "witness is missing bindings"),
        ({"kind": "order-violation"}, None),
        ({"kind": "partial-order-violation", "states": {"q1": "s0", "q2": "nowhere"},
          "words": {"x": "a", "y": "b"}}, "witness references unknown state 'nowhere'"),
        ({"kind": "partial-order-violation", "states": {"q1": "s0", "q2": "s1"},
          "words": {"x": "z", "y": "b"}}, "word 'z' uses symbol 'z' outside the alphabet"),
    ])
    def test_witness_that_cannot_be_replayed_is_an_error(self, capsys, paths, witness, message):
        witness_path = write_witness(paths["tmp"] / "bad.witness", witness)
        code, out, err = run_cli(capsys, "verify-witness", paths["odd_tail"], witness_path)
        assert out == ""
        if message is None:  # an unknown kind is malformed input
            assert code == 2 and err.startswith("parse error: unknown witness kind")
        else:
            assert code == 1 and err.startswith(f"error: ValueError: {message}")

    def test_malformed_input_is_a_parse_error(self, capsys, paths):
        bad = paths["tmp"] / "bad.json"
        bad.write_text('{"witness": {"kind": "fork"')
        code, out, err = run_cli(capsys, "verify-witness", paths["odd_tail"], str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("parse error: invalid JSON at line 1, column 28")
        witness_path = write_witness(paths["tmp"] / "w.json", {"kind": "fork"})
        code, out, err = run_cli(capsys, "verify-witness", str(bad), witness_path)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: invalid JSON")


class TestSimulateCommand:
    def test_single_word(self, capsys, paths):
        code, doc, _ = run_json(capsys, "simulate", paths["even_head_odd_tail_qfa"], "ba")
        assert code == 0
        assert doc["payload"]["p_accept"] == pytest.approx(2 / 3, abs=1e-9)

    def test_sweep_passes(self, capsys, paths):
        code, doc, _ = run_json(
            capsys, "simulate", paths["even_head_odd_tail_qfa"],
            "--all-up-to", "7", "--oracle", "even_head_odd_tail", "--p", "0.6666",
        )
        assert code == 0
        assert doc["status"] == "pass"

    def test_sweep_fails_above_the_bound(self, capsys, paths):
        code, doc, _ = run_json(
            capsys, "simulate", paths["even_head_odd_tail_qfa"],
            "--all-up-to", "5", "--oracle", "even_head_odd_tail", "--p", "0.7",
        )
        assert code == 1
        assert doc["status"] == "fail"
        assert doc["payload"]["counterexamples"]

    def test_a_count_too_long_to_print_as_an_int_is_spelled_exactly(self, capsys, paths):
        # 2**15001 - 1 words: 4 516 digits, past the interpreter's 4 300-digit limit on int to str
        argv = ["simulate", paths["odd_head_odd_tail_qfa"], "--all-up-to", "15000", "--oracle", "odd_head_odd_tail", "--p", "0.6"]
        code, doc, err = run_json(capsys, *argv)
        assert (code, err, doc["status"]) == (0, "", "pass")
        assert doc["payload"]["words_checked"] == "2^15001 - 1"
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "  words_checked: 2^15001 - 1\n" in out

    def test_symbol_error(self, capsys, paths):
        code, out, err = run_cli(capsys, "simulate", paths["even_head_odd_tail_qfa"], "bq")
        assert code == 1
        assert "SymbolError" in err

    def test_invalid_p(self, capsys, paths):
        code, out, err = run_cli(
            capsys, "simulate", paths["even_head_odd_tail_qfa"],
            "--all-up-to", "3", "--oracle", "even_head_odd_tail", "--p", "0.5",
        )
        assert code == 1

    @pytest.mark.parametrize("p", ["1.5", "inf"])
    @pytest.mark.parametrize("fmt", ["table", "structured"])
    def test_p_above_one_is_an_error(self, capsys, paths, p, fmt):
        code, out, err = run_cli(
            capsys, "--format", fmt, "simulate", paths["even_head_odd_tail_qfa"],
            "--all-up-to", "2", "--oracle", "even_head_odd_tail", "--p", p,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValueError: recognition probability must lie in (1/2, 1]")

    def test_trace(self, capsys, paths):
        code, doc, _ = run_json(capsys, "simulate", paths["even_head_odd_tail_qfa"], "ba", "--trace")
        assert code == 0
        assert len(doc["payload"]["trace"]) == 4  # ^, b, a, $

    def test_mass_left_after_the_endmarker_gets_a_note(self, capsys, tmp_path):
        # no halting state, so the whole norm survives "$"
        doc = {"dimension": 1, "alphabet": ["a"], "start": 0, "acc": [], "rej": [],
               "unitaries": {sym: [[1.0, 0.0]] for sym in ("^", "$", "a")}}
        path = tmp_path / "idle.qfa"
        path.write_text(json.dumps(doc))
        code, doc, _ = run_json(capsys, "simulate", str(path), "a", "--trace")
        assert code == 0
        assert doc["payload"]["p_residual"] == 1.0
        assert doc["payload"]["note"] == "non-halting mass left after the right endmarker"
        assert [rec["post_norm_sq"] for rec in doc["payload"]["trace"]] == [1.0] * 3

    def test_negative_length_is_an_error(self, capsys, paths):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", paths["even_head_odd_tail_qfa"],
                  "--all-up-to", "-1", "--oracle", "even_head_odd_tail", "--p", "0.6"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "argument --all-up-to: must be a non-negative integer, not '-1'" in err

    def test_oracle_over_another_alphabet_is_an_error(self, capsys, paths):
        code, out, err = run_cli(
            capsys, "simulate", paths["even_head_odd_tail_qfa"],
            "--all-up-to", "4", "--oracle", "layered", "--p", "0.6",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ValueError: oracle 'layered' reads {a, b, c, d, e, f, g, h, i}")
        assert err.rstrip().endswith("but the machine reads {a, b}")

    @pytest.mark.parametrize("argv, message", [
        (("--all-up-to", "3", "--p", "0.6"), "--all-up-to needs --oracle and --p"),
        (("--all-up-to", "3", "--oracle", "even_head_odd_tail"), "--all-up-to needs --oracle and --p"),
        ((), "give a word or --all-up-to N"),
        # arguments of the other mode
        (("zzz", "--all-up-to", "2", "--oracle", "even_head_odd_tail", "--p", "0.6"),
         "give a word or --all-up-to N, not both"),
        (("ba", "--oracle", "even_head_odd_tail"), "--oracle and --p need --all-up-to, not a word"),
        (("ba", "--p", "0.6"), "--oracle and --p need --all-up-to, not a word"),
        (("--all-up-to", "2", "--oracle", "even_head_odd_tail", "--p", "0.6", "--trace"),
         "--trace needs a word, not --all-up-to"),
    ])
    def test_missing_arguments_are_usage_errors(self, capsys, paths, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", paths["even_head_odd_tail_qfa"], *argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.startswith("usage: qfalab simulate")
        assert f"error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("position", ["global", "subcommand"])
    def test_tolerance_out_of_range_is_a_usage_error(self, capsys, paths, tol, position):
        sweep = ["simulate", paths["even_head_odd_tail_qfa"], "--all-up-to", "3",
                 "--oracle", "even_head_odd_tail", "--p", "0.66"]
        argv = ["--tol", tol, *sweep] if position == "global" else [*sweep, "--tol", tol]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"argument --tol: must be a finite, non-negative number, not '{tol}'" in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "even_head_odd_tail_qfa", "--all-up-to", "0", "--oracle", "even_head_odd_tail", "--p", "0.6"),
        ("separability", "even_head_odd_tail_qfa", "odd_head_odd_tail_qfa", "--oracle", "odd_tail", "--max-len", "0"),
    ])
    def test_infinite_margin_is_strict_json(self, capsys, paths, argv):
        # one word only, so some margin is a minimum over no words
        argv = [paths[arg] if arg.endswith("_qfa") else arg for arg in argv]
        code, out, _ = run_cli(capsys, *argv, "--format", "structured")

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out, parse_constant=reject)["payload"]
        assert code == 0
        assert "inf" in payload.values()

    @pytest.mark.parametrize("argv, expected_code, status", [
        (("aa",), 0, "pass"),
        (("--all-up-to", "3", "--oracle", "odd_tail", "--p", "0.9"), 1, "fail"),
    ])
    def test_nan_probability_is_strict_json(self, tmp_path, argv, expected_code, status):
        # 1e154 squared overflows, so the probabilities of every word are NaN
        big = [[1e154, 0.0], [0.0, 0.0], [0.0, 0.0], [1e154, 0.0]]
        doc = {"dimension": 2, "alphabet": ["a", "b"], "start": 0, "acc": [1], "rej": [],
               "unitaries": {sym: big for sym in ("^", "$", "a", "b")}}
        path = tmp_path / "big.qfa"
        path.write_text(json.dumps(doc))
        code, out, err = run_process(
            "--tol", "1e308", "--format", "structured", "simulate", str(path), *argv
        )

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        result = json.loads(out, parse_constant=reject)
        assert (code, result["status"]) == (expected_code, status)
        assert '"nan"' in out
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, expected_code", [
        (("aa",), 0),
        (("--all-up-to", "3", "--oracle", "odd_tail", "--p", "0.9"), 1),
    ])
    def test_overflow_warnings_stay_off_stderr(self, tmp_path, argv, expected_code):
        # the NaN results are in the payload; numpy's warning lines are not
        big = [[1e154, 0.0], [0.0, 0.0], [0.0, 0.0], [1e154, 0.0]]
        doc = {"dimension": 2, "alphabet": ["a", "b"], "start": 0, "acc": [1], "rej": [],
               "unitaries": {sym: big for sym in ("^", "$", "a", "b")}}
        path = tmp_path / "big.qfa"
        path.write_text(json.dumps(doc))
        code, out, err = run_process("--tol", "1e308", "simulate", str(path), *argv)
        assert code == expected_code
        assert err == ""


class TestSynthesizeCommand:
    def test_compile_then_simulate(self, capsys, paths):
        out_path = str(paths["tmp"] / "compiled.qfa")
        code, doc, _ = run_json(capsys, "synthesize", paths["even_head_odd_tail"], "-o", out_path)
        assert code == 0
        assert doc["payload"]["success_probability"] == "3/5"
        code, doc, _ = run_json(
            capsys, "simulate", out_path,
            "--all-up-to", "8", "--oracle", "even_head_odd_tail", "--p", "0.6",
        )
        assert code == 0

    def test_compiled_machine_passes_every_word_up_to_length_40(self, capsys, tmp_path):
        # 2**41 - 1 words: checked on (configuration, DFA state) pairs, not one by one
        dfa_path, out_path = tmp_path / "odd_head_odd_tail.dfa", str(tmp_path / "compiled.qfa")
        dfa_path.write_text(dfa_to_json(dfa_fixture("odd_head_odd_tail")))
        code, doc, _ = run_json(capsys, "synthesize", str(dfa_path), "-o", out_path)
        assert (code, doc["payload"]["success_probability"]) == (0, "3/5")
        code, doc, _ = run_json(
            capsys, "simulate", out_path, "--all-up-to", "40", "--oracle", "odd_head_odd_tail", "--p", "0.6",
        )
        assert (code, doc["status"]) == (0, "pass")
        assert doc["payload"]["words_checked"] == 2**41 - 1

    def test_rejects_nonconstructible_input(self, capsys, paths):
        out_path = str(paths["tmp"] / "never.qfa")
        code, out, err = run_cli(capsys, "synthesize", paths["odd_tail"], "-o", out_path)
        assert code == 1
        assert "not-recognizable" in err


class TestUnionCommand:
    def test_limit_case_exits_one(self, capsys, paths):
        out_path = str(paths["tmp"] / "u.qfa")
        code, out, err = run_cli(
            capsys, "union",
            paths["even_head_odd_tail_qfa"], "0.6666666",
            paths["odd_head_odd_tail_qfa"], "0.6666666",
            "-o", out_path,
        )
        assert code == 1
        assert "LimitCondition" in err

    def test_valid_union_writes_a_machine(self, capsys, paths):
        out_path = str(paths["tmp"] / "u.qfa")
        code, doc, _ = run_json(
            capsys, "union",
            paths["even_head_odd_tail_qfa"], "0.75",
            paths["odd_head_odd_tail_qfa"], "0.75",
            "-o", out_path,
        )
        assert code == 0
        assert doc["payload"]["combined_probability"] == pytest.approx(6 / 11, abs=1e-9)
        parse_qfa(open(out_path).read())


class TestOtherCommands:
    def test_complement_round_trips(self, capsys, paths):
        out_path = str(paths["tmp"] / "c.qfa")
        code, _, _ = run_json(capsys, "complement", paths["even_head_odd_tail_qfa"], "-o", out_path)
        assert code == 0
        comp = parse_qfa(open(out_path).read())
        original = qfa_fixture("even_head_odd_tail_qfa")
        assert comp.acc == original.rej and comp.rej == original.acc

    def test_decompose_reports_dimensions_and_decay(self, capsys, paths):
        code, doc, _ = run_json(capsys, "decompose", paths["even_head_odd_tail_qfa"], "--word", "b")
        assert code == 0
        payload = doc["payload"]
        assert payload["isometric_dimension"] == 2
        assert payload["transient_dimension"] == 2
        assert payload["transient_norm_decay"][0]["norms"][0] == pytest.approx(1.0)

    @pytest.mark.parametrize("steps", ["-3", "x", "1.5"])
    def test_decay_steps_below_zero_or_not_an_int_is_a_usage_error(self, capsys, paths, steps):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", paths["even_head_odd_tail_qfa"], "--word", "b", "--decay-steps", steps])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert f"argument --decay-steps: must be a non-negative integer, not '{steps}'" in err

    def test_zero_decay_steps_gives_the_starting_norm_only(self, capsys, paths):
        code, doc, _ = run_json(
            capsys, "decompose", paths["even_head_odd_tail_qfa"], "--word", "b", "--decay-steps", "0"
        )
        assert code == 0
        assert doc["payload"]["transient_norm_decay"][0]["norms"] == [pytest.approx(1.0)]

    def test_decompose_pair(self, capsys, paths):
        code, doc, _ = run_json(
            capsys, "decompose", paths["even_head_odd_tail_qfa"], "--word", "b", "--word2", "a"
        )
        assert code == 0
        assert doc["payload"]["isometric_dimension"] == 2
        assert "transient_norm_decay" not in doc["payload"]

    def test_decay_steps_with_word2_is_a_usage_error(self, capsys, paths):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", paths["even_head_odd_tail_qfa"], "--word", "a", "--word2", "b",
                  "--decay-steps", "5"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "--decay-steps needs the one-word form, not --word2" in err

    def test_separability_limit_case(self, capsys, paths):
        code, doc, _ = run_json(
            capsys, "separability",
            paths["even_head_odd_tail_qfa"], paths["odd_head_odd_tail_qfa"],
            "--oracle", "odd_tail", "--max-len", "5",
        )
        assert code == 0
        payload = doc["payload"]
        assert payload["limit_case"] is True
        assert payload["margin"] == 0

    def test_separability_negative_length_is_an_error(self, capsys, paths):
        with pytest.raises(SystemExit) as exc:
            main(["separability", paths["even_head_odd_tail_qfa"], paths["odd_head_odd_tail_qfa"],
                  "--oracle", "odd_tail", "--max-len", "-1"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "argument --max-len: must be a non-negative integer, not '-1'" in err

    def test_separability_oracle_over_another_alphabet_is_an_error(self, capsys, paths):
        code, out, err = run_cli(
            capsys, "separability",
            paths["even_head_odd_tail_qfa"], paths["odd_head_odd_tail_qfa"],
            "--oracle", "layered", "--max-len", "3",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ValueError: oracle 'layered' reads {a, b, c, d, e, f, g, h, i}")
        assert err.rstrip().endswith("but the machine reads {a, b}")

    def test_fixtures_list_and_emit(self, capsys, paths):
        code, doc, _ = run_json(capsys, "fixtures", "list")
        assert code == 0
        assert "layered" in doc["payload"]["dfa"]
        code, out, _ = run_cli(capsys, "fixtures", "emit", "odd_tail")
        assert code == 0
        dfa, _ = parse_dfa(out)
        assert dfa == dfa_fixture("odd_tail")

    def test_unknown_fixture(self, capsys, paths):
        code, out, err = run_cli(capsys, "fixtures", "emit", "nope")
        assert code == 1

    def test_emit_without_a_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fixtures", "emit"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.startswith("usage: qfalab fixtures")
        assert "error: fixtures emit needs a fixture name" in err

    def test_a_closed_stdout_ends_the_output_quietly(self, paths):
        # the table of 2 047 cloud points outgrows the pipe's buffer, so the
        # CLI is still writing when the reader closes its end
        src = str(Path(qfalab.__file__).resolve().parents[1])
        argv = ["separability", paths["even_head_odd_tail_qfa"], paths["odd_head_odd_tail_qfa"]]
        argv += ["--oracle", "odd_tail", "--max-len", "10"]
        with subprocess.Popen(
            [sys.executable, "-m", "qfalab.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        ) as proc:
            assert proc.stdout.read(10) == b"[pass] sep"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        assert "Traceback" not in err
        assert err == ""
        assert code == 1


class TestDeterminism:
    def test_identical_invocations_identical_payloads(self, capsys, paths):
        _, doc1, _ = run_json(capsys, "classify", paths["odd_tail"])
        _, doc2, _ = run_json(capsys, "classify", paths["odd_tail"])
        assert json.dumps(doc1["payload"], sort_keys=True) == json.dumps(doc2["payload"], sort_keys=True)

    def test_round_trip_of_written_files(self, capsys, paths):
        out_path = str(paths["tmp"] / "again.qfa")
        run_cli(capsys, "complement", paths["even_head_odd_tail_qfa"], "-o", out_path)
        text1 = open(out_path).read()
        machine = parse_qfa(text1)
        assert qfa_to_json(machine) == text1
