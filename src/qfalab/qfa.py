"""Measure-many one-way QFAs: representation, validation, exact simulation.

A machine holds one unitary per working-alphabet symbol (the input letters
plus the endmarkers, spelled "^" and "$").  Reading a symbol applies the
unitary and then measures against the accept/reject/non-halting subspaces;
the run folds this over ^ word $ starting from the basis state `start`.
Residual non-halting mass left after "$" counts as neither accept nor
reject.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

KAPPA = "^"
DOLLAR = "$"

# Tolerances, set here only.  The CLI's --tol defaults to USER_UNITARITY_TOL
# and serves as both the unitarity and the recognition-margin tolerance.
USER_UNITARITY_TOL = 1e-9  # max |U^dag U - I| entry for matrices read from files
RECOGNITION_TOL = 1e-9  # slack below p that verify_recognition still accepts
RESIDUAL_TOL = 1e-9  # non-halting mass after "$" above which a run is flagged
UNIT_COLUMN_TOL = 1e-9  # |norm^2 - 1| allowed for a column given to complete_unitary
MIXTURE_WEIGHT_TOL = 1e-12  # |sum - 1| allowed for the weights and biases of a mixture


class SymbolError(ValueError):
    """A word uses a symbol outside the machine's alphabet."""


class QfaParseError(ValueError):
    """Raised when a QFA file is malformed or fails validation on load."""


@dataclass(frozen=True)
class Qfa:
    """A measure-many 1-way quantum finite automaton.

    `unitaries` maps each symbol of the working alphabet (alphabet plus
    "^"/"$") to a dimension x dimension complex matrix, applied to column
    vectors: column j is the image of basis state j.  `acc` and `rej` are
    disjoint basis-index sets; everything else is non-halting.
    """

    dimension: int
    alphabet: tuple[str, ...]
    unitaries: Mapping[str, np.ndarray]
    start: int
    acc: frozenset[int]
    rej: frozenset[int]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.acc & self.rej:
            raise ValueError("acc and rej overlap")
        for name, group in (("acc", self.acc), ("rej", self.rej)):
            if not all(0 <= i < self.dimension for i in group):
                raise ValueError(f"{name} contains out-of-range indices")
        if not 0 <= self.start < self.dimension:
            raise ValueError("start index out of range")
        expected = set(self.alphabet) | {KAPPA, DOLLAR}
        if set(self.unitaries) != expected:
            raise ValueError(f"unitaries must cover exactly {sorted(expected)}")
        for sym, mat in self.unitaries.items():
            if mat.shape != (self.dimension, self.dimension):
                raise ValueError(f"matrix for {sym!r} has shape {mat.shape}")

    @property
    def non_halting(self) -> tuple[int, ...]:
        halting = self.acc | self.rej
        return tuple(i for i in range(self.dimension) if i not in halting)

    def initial_state(self) -> np.ndarray:
        psi = np.zeros(self.dimension, dtype=np.complex128)
        psi[self.start] = 1.0
        return psi


@dataclass(frozen=True)
class UnitarityReport:
    passed: bool
    tol: float
    deviations: Mapping[str, float]  # per symbol, max |U^dag U - I|
    worst_symbol: str
    worst_deviation: float


def validate(qfa: Qfa, tol: float = USER_UNITARITY_TOL) -> UnitarityReport:
    """Check every matrix for unitarity: max entry of |U^dag U - I| <= tol."""
    deviations = {}
    for sym, mat in qfa.unitaries.items():
        gram = mat.conj().T @ mat
        deviations[sym] = float(np.max(np.abs(gram - np.eye(qfa.dimension))))
    worst = max(deviations, key=deviations.get)
    return UnitarityReport(
        passed=deviations[worst] <= tol,
        tol=tol,
        deviations=deviations,
        worst_symbol=worst,
        worst_deviation=deviations[worst],
    )


def _measure(qfa: Qfa, psi: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Project onto non-halting; return (projection, accept mass, reject mass)."""
    acc_inc = float(sum(abs(psi[i]) ** 2 for i in qfa.acc))
    rej_inc = float(sum(abs(psi[i]) ** 2 for i in qfa.rej))
    post = psi.copy()
    for i in qfa.acc:
        post[i] = 0.0
    for i in qfa.rej:
        post[i] = 0.0
    return post, acc_inc, rej_inc


def step(qfa: Qfa, state: np.ndarray, symbol: str) -> tuple[np.ndarray, float, float]:
    """Read one symbol: apply its unitary, then measure.

    Returns the unnormalized non-halting projection together with the accept
    and reject probability increments of the measurement.
    """
    mat = qfa.unitaries.get(symbol)
    if mat is None:
        raise SymbolError(f"symbol {symbol!r} is not in the working alphabet")
    return _measure(qfa, mat @ state)


@dataclass(frozen=True)
class StepRecord:
    symbol: str
    pre_measurement: np.ndarray
    accept_increment: float
    reject_increment: float
    post_state: np.ndarray


@dataclass(frozen=True)
class RunOutcome:
    p_accept: float
    p_reject: float
    p_residual: float
    trace: tuple[StepRecord, ...] | None = None

    @property
    def residual_flagged(self) -> bool:
        """True when non-halting mass survives past the right endmarker."""
        return self.p_residual > RESIDUAL_TOL


def run(qfa: Qfa, word: str, with_trace: bool = False) -> RunOutcome:
    """Exact acceptance/rejection probabilities of `word` (endmarkers implied)."""
    for pos, ch in enumerate(word):
        if ch not in qfa.alphabet:
            raise SymbolError(f"symbol {ch!r} at position {pos} is not in the input alphabet")
    psi = qfa.initial_state()
    p_acc = 0.0
    p_rej = 0.0
    records: list[StepRecord] = []
    for sym in (KAPPA, *word, DOLLAR):
        pre = qfa.unitaries[sym] @ psi
        psi, acc_inc, rej_inc = _measure(qfa, pre)
        p_acc += acc_inc
        p_rej += rej_inc
        if with_trace:
            records.append(StepRecord(sym, pre, acc_inc, rej_inc, psi.copy()))
    residual = float(np.vdot(psi, psi).real)
    return RunOutcome(
        p_accept=p_acc,
        p_reject=p_rej,
        p_residual=residual,
        trace=tuple(records) if with_trace else None,
    )


def nonhalting_projector(qfa: Qfa) -> np.ndarray:
    proj = np.zeros((qfa.dimension, qfa.dimension), dtype=np.complex128)
    for i in qfa.non_halting:
        proj[i, i] = 1.0
    return proj


def nonhalting_operator(qfa: Qfa, word: str) -> np.ndarray:
    """Composition of (project-to-non-halting o unitary) over the word's symbols.

    The word ranges over the working alphabet, so endmarkers are allowed.
    The result is a norm contraction; the empty word gives the identity.
    """
    proj = nonhalting_projector(qfa)
    op = np.eye(qfa.dimension, dtype=np.complex128)
    for sym in word:
        mat = qfa.unitaries.get(sym)
        if mat is None:
            raise SymbolError(f"symbol {sym!r} is not in the working alphabet")
        op = proj @ mat @ op
    return op


def all_words(letters: Iterable[str], max_len: int):
    """All words over `letters` of length 0..max_len, shortest first."""
    letters = tuple(letters)
    words = [""]
    for n in range(max_len + 1):
        yield from words
        if n < max_len:
            words = [w + ch for w in words for ch in letters]


@dataclass(frozen=True)
class RecognitionReport:
    passed: bool
    probability: float
    tol: float
    max_len: int
    words_checked: int
    worst_accept_margin: float  # min over in-language words of p_accept - p
    worst_reject_margin: float  # min over out-of-language words of p_reject - p
    counterexamples: tuple[tuple[str, float], ...]
    residual_flagged: bool


def verify_recognition(
    qfa: Qfa,
    oracle: Callable[[str], bool],
    p: float,
    max_len: int,
    tol: float = RECOGNITION_TOL,
    alphabet: Iterable[str] | None = None,
) -> RecognitionReport:
    """Exhaustively check recognition with probability p on all words up to max_len.

    In-language words must accept with probability >= p - tol and all other
    words must reject with probability >= p - tol.  The report carries the
    worst margins and the offending words, if any.
    """
    if not p > 0.5:
        raise ValueError("recognition probability must exceed 1/2")
    letters = tuple(alphabet) if alphabet is not None else qfa.alphabet
    worst_acc = float("inf")
    worst_rej = float("inf")
    counterexamples: list[tuple[str, float]] = []
    residual_seen = False
    count = 0
    for w in all_words(letters, max_len):
        outcome = run(qfa, w)
        count += 1
        residual_seen = residual_seen or outcome.residual_flagged
        if oracle(w):
            margin = outcome.p_accept - p
            worst_acc = min(worst_acc, margin)
        else:
            margin = outcome.p_reject - p
            worst_rej = min(worst_rej, margin)
        if margin < -tol and len(counterexamples) < 5:
            counterexamples.append((w, margin + p))
    passed = worst_acc >= -tol and worst_rej >= -tol
    return RecognitionReport(
        passed=passed,
        probability=p,
        tol=tol,
        max_len=max_len,
        words_checked=count,
        worst_accept_margin=worst_acc,
        worst_reject_margin=worst_rej,
        counterexamples=tuple(counterexamples),
        residual_flagged=residual_seen,
    )


def complete_unitary(columns: Mapping[int, np.ndarray], dimension: int) -> np.ndarray:
    """Extend prescribed orthonormal columns to a full unitary.

    Free columns are filled by modified Gram-Schmidt over the standard basis
    vectors in index order, so the completion is deterministic.
    """
    mat = np.zeros((dimension, dimension), dtype=np.complex128)
    filled = []
    for j, col in columns.items():
        vec = np.asarray(col, dtype=np.complex128)
        if vec.shape != (dimension,):
            raise ValueError("column shape mismatch")
        mat[:, j] = vec
        filled.append(vec)
    for vec in filled:
        if abs(np.vdot(vec, vec).real - 1.0) > UNIT_COLUMN_TOL:
            raise ValueError("prescribed column is not a unit vector")
    candidate = 0
    for j in range(dimension):
        if j in columns:
            continue
        while True:
            if candidate >= dimension:
                raise ValueError("ran out of candidate basis vectors")
            vec = np.zeros(dimension, dtype=np.complex128)
            vec[candidate] = 1.0
            candidate += 1
            for other in filled:
                vec = vec - np.vdot(other, vec) * other
            norm = float(np.linalg.norm(vec))
            if norm > 1e-6:
                vec = vec / norm
                # second orthogonalization pass kills rounding drift
                for other in filled:
                    vec = vec - np.vdot(other, vec) * other
                vec = vec / np.linalg.norm(vec)
                break
        mat[:, j] = vec
        filled.append(vec)
    return mat


def freeze(qfa: Qfa) -> Qfa:
    """Mark all matrices read-only (shared values should not be mutated)."""
    for mat in qfa.unitaries.values():
        mat.flags.writeable = False
    return qfa


def qfa_to_json(qfa: Qfa) -> str:
    def encode(mat: np.ndarray) -> list[list[float]]:
        flat = mat.reshape(-1)
        return [[float(z.real), float(z.imag)] for z in flat]

    obj = {
        "dimension": qfa.dimension,
        "alphabet": list(qfa.alphabet),
        "start": qfa.start,
        "acc": sorted(qfa.acc),
        "rej": sorted(qfa.rej),
        "unitaries": {sym: encode(mat) for sym, mat in qfa.unitaries.items()},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_qfa(text: str, validate_tol: float | None = USER_UNITARITY_TOL) -> Qfa:
    """Parse the structured-text QFA format; validates unitarity unless tol is None."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QfaParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise QfaParseError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise QfaParseError("top-level value must be an object")
    for key in ("dimension", "alphabet", "start", "acc", "rej", "unitaries"):
        if key not in obj:
            raise QfaParseError(f"missing key {key!r}")
    dim = obj["dimension"]
    if not _is_int(dim) or dim < 1:
        raise QfaParseError("dimension must be a positive integer")
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(a, str) and len(a) == 1 for a in alphabet):
        raise QfaParseError("alphabet must be a list of single-character strings")
    if len(set(alphabet)) != len(alphabet):
        raise QfaParseError("duplicate alphabet symbols")
    if KAPPA in alphabet or DOLLAR in alphabet:
        raise QfaParseError('input alphabet must not contain the endmarkers "^" or "$"')
    if not _is_int(obj["start"]):
        raise QfaParseError("start must be a basis index")
    for key in ("acc", "rej"):
        if not isinstance(obj[key], list) or not all(_is_int(i) for i in obj[key]):
            raise QfaParseError(f"{key} must be a list of basis indices")

    unitaries = {}
    raw = obj["unitaries"]
    if not isinstance(raw, dict):
        raise QfaParseError("unitaries must be an object")
    for sym, entries in raw.items():
        if not isinstance(entries, list) or len(entries) != dim * dim:
            raise QfaParseError(f"matrix for {sym!r} must have {dim * dim} entries")
        try:
            flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):
            raise QfaParseError(f"matrix entries for {sym!r} must be [re, im] pairs of numbers") from None
        unitaries[sym] = flat.reshape(dim, dim)
    try:
        qfa = Qfa(
            dimension=dim,
            alphabet=tuple(alphabet),
            unitaries=unitaries,
            start=obj["start"],
            acc=frozenset(obj["acc"]),
            rej=frozenset(obj["rej"]),
        )
    except (TypeError, ValueError) as exc:
        raise QfaParseError(str(exc)) from None
    if validate_tol is not None:
        report = validate(qfa, validate_tol)
        if not report.passed:
            raise QfaParseError(
                f"matrix for {report.worst_symbol!r} is not unitary: "
                f"max Gram deviation {report.worst_deviation:.6g} > {validate_tol:.6g}"
            )
    return freeze(qfa)
