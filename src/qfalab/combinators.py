"""Closure operations on QFAs and the two-machine separability diagnostic.

`mix` is the one mixing mechanism: a block-direct-sum machine whose left
endmarker splits the start amplitude across the parts (square roots of the
weights) and two frozen halting states that realize constant accept/reject
biases.  `union` instantiates it with the weights that make the combined
machine recognize the union of the parts' languages.

`separability` maps words to points (accept probability under machine 1,
accept probability under machine 2) and finds a maximum-margin separating
line between the in-language and out-of-language point sets.  Coordinates
are snapped to nearby rationals (within 1e-9) and all hull geometry is
exact from there, so a margin of exactly zero (touching hulls, the limit
case) is detected reliably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from qfalab import COORDINATE_SNAP_DENOMINATOR, MIXTURE_WEIGHT_TOL
from qfalab.qfa import DOLLAR, KAPPA, Qfa, complete_unitary, freeze, sweep, word_labels


class LimitConditionError(ValueError):
    """The union precondition 1/p1 + 1/p2 < 3 fails."""


class MixtureError(ValueError):
    """Malformed mixture specification."""


def complement(qfa: Qfa) -> Qfa:
    """Swap accepting and rejecting states; unitaries are untouched."""
    return Qfa(
        dimension=qfa.dimension,
        alphabet=qfa.alphabet,
        unitaries=qfa.unitaries,
        start=qfa.start,
        acc=qfa.rej,
        rej=qfa.acc,
    )


@dataclass(frozen=True)
class MixtureSpec:
    """Parts with non-negative weights plus constant accept/reject biases.

    Weights and biases must sum to 1.  `alphabet` may be given explicitly;
    it is required when there are no parts.
    """

    parts: tuple[tuple[Qfa, float], ...]
    accept_bias: float = 0.0
    reject_bias: float = 0.0
    alphabet: tuple[str, ...] | None = None

    def resolved_alphabet(self) -> tuple[str, ...]:
        if self.alphabet is not None:
            return self.alphabet
        if not self.parts:
            raise MixtureError("an empty mixture needs an explicit alphabet")
        return self.parts[0][0].alphabet


def mix(spec: MixtureSpec) -> Qfa:
    """Block-direct-sum machine realizing the convex mixture.

    For every word, the mixture's accept probability is the weighted sum of
    the parts' accept probabilities plus the accept bias (and likewise for
    rejection).
    """
    total = sum(w for _, w in spec.parts) + spec.accept_bias + spec.reject_bias
    if abs(total - 1.0) > MIXTURE_WEIGHT_TOL:
        raise MixtureError(f"weights and biases sum to {total!r}, expected 1")
    if any(w < 0 for _, w in spec.parts) or spec.accept_bias < 0 or spec.reject_bias < 0:
        raise MixtureError("weights and biases must be non-negative")
    alphabet = spec.resolved_alphabet()
    for part, _ in spec.parts:
        if part.alphabet != alphabet:
            raise MixtureError("all parts must share one alphabet")

    # layout: fresh start, then the part blocks, then frozen acc/rej
    offsets = []
    pos = 1
    for part, _ in spec.parts:
        offsets.append(pos)
        pos += part.dimension
    frozen_acc = pos
    frozen_rej = pos + 1
    dim = pos + 2

    acc = {frozen_acc}
    rej = {frozen_rej}
    for (part, _), off in zip(spec.parts, offsets):
        acc.update(off + i for i in part.acc)
        rej.update(off + i for i in part.rej)

    unitaries: dict[str, np.ndarray] = {}
    for sym in (*alphabet, DOLLAR):
        mat = np.eye(dim, dtype=np.complex128)
        for (part, _), off in zip(spec.parts, offsets):
            mat[off : off + part.dimension, off : off + part.dimension] = part.unitaries[sym]
        unitaries[sym] = mat

    init = np.zeros(dim, dtype=np.complex128)
    for (part, weight), off in zip(spec.parts, offsets):
        if weight == 0:
            continue
        block = np.zeros(part.dimension, dtype=np.complex128)
        block[part.start] = 1.0
        init[off : off + part.dimension] = math.sqrt(weight) * (part.unitaries[KAPPA] @ block)
    init[frozen_acc] = math.sqrt(spec.accept_bias)
    init[frozen_rej] = math.sqrt(spec.reject_bias)
    unitaries[KAPPA] = complete_unitary({0: init}, dim)

    return freeze(
        Qfa(
            dimension=dim,
            alphabet=alphabet,
            unitaries=unitaries,
            start=0,
            acc=frozenset(acc),
            rej=frozenset(rej),
        )
    )


def union(q1: Qfa, p1: float, q2: Qfa, p2: float) -> tuple[Qfa, float]:
    """Combine machines recognizing with probabilities p1, p2 into one for the union.

    Requires 1/p1 + 1/p2 < 3 strictly; the combined machine recognizes the
    union with probability 2*p1*p2/(p1 + p2 + p1*p2) > 1/2.
    """
    if not (0 < p1 <= 1 and 0 < p2 <= 1):
        raise ValueError("probabilities must lie in (0, 1]")
    if 1 / p1 + 1 / p2 >= 3:
        raise LimitConditionError(
            f"1/p1 + 1/p2 = {1 / p1 + 1 / p2:.12g} >= 3: the mixture construction "
            "degenerates to success probability 1/2"
        )
    denom = p1 + p2 + p1 * p2
    machine = mix(
        MixtureSpec(
            parts=((q1, p2 / denom), (q2, p1 / denom)),
            accept_bias=p1 * p2 / denom,
        )
    )
    return machine, 2 * p1 * p2 / denom


# ---------------------------------------------------------------------------
# separability diagnostic

@dataclass(frozen=True)
class CloudPoint:
    word: str
    p1: float
    p2: float
    in_language: bool


@dataclass(frozen=True)
class SeparabilityResult:
    cloud: tuple[CloudPoint, ...]
    separable: bool
    line: tuple[float, float, float] | None  # a, b, c for a*x + b*y = c
    margin: float
    limit_case: bool = False  # touching hulls: non-strict separation only


Point = tuple[Fraction, Fraction]


def _snap(value: float) -> Fraction:
    return Fraction(value).limit_denominator(COORDINATE_SNAP_DENOMINATOR)


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: Iterable[Point]) -> list[Point]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _support(hull: Sequence[Point], direction: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    values = [direction[0] * p[0] + direction[1] * p[1] for p in hull]
    return min(values), max(values)


def _axes(h1: Sequence[Point], h2: Sequence[Point]) -> list[tuple[Fraction, Fraction]]:
    axes = []
    for hull in (h1, h2):
        for i in range(len(hull)):
            x1, y1 = hull[i]
            x2, y2 = hull[(i + 1) % len(hull)]
            if (x1, y1) != (x2, y2):
                axes.append((y2 - y1, x1 - x2))  # edge normal
    for p in h1:
        for q in h2:
            if p != q:
                axes.append((q[0] - p[0], q[1] - p[1]))
    return axes


def _closest_pair(h1: Sequence[Point], h2: Sequence[Point]) -> tuple[Fraction, Point, Point]:
    """Min squared distance between two convex hulls plus a realizing pair."""
    best: tuple[Fraction, Point, Point] | None = None

    def consider(p: Point, a: Point, b: Point, swap: bool):
        nonlocal best
        ab = (b[0] - a[0], b[1] - a[1])
        denom = ab[0] * ab[0] + ab[1] * ab[1]
        if denom == 0:
            t = Fraction(0)
        else:
            t = (p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]
            t = min(Fraction(1), max(Fraction(0), t / denom))
        foot = (a[0] + t * ab[0], a[1] + t * ab[1])
        dx, dy = p[0] - foot[0], p[1] - foot[1]
        d2 = dx * dx + dy * dy
        pair = (foot, p) if swap else (p, foot)
        if best is None or d2 < best[0]:
            best = (d2, pair[0], pair[1])

    for p in h1:
        for i in range(len(h2)):
            consider(p, h2[i], h2[(i + 1) % len(h2)], swap=True)
    for p in h2:
        for i in range(len(h1)):
            consider(p, h1[i], h1[(i + 1) % len(h1)], swap=False)
    assert best is not None
    return best


def separability(
    q1: Qfa,
    q2: Qfa,
    oracle: Callable[[str], bool],
    max_len: int,
) -> SeparabilityResult:
    """Point cloud over all words up to max_len plus a maximum-margin line.

    The line (a, b, c) satisfies a*x + b*y >= c on the in-language points
    and <= c on the others.  A zero margin means the hulls touch (the limit
    case: only non-strict separation exists); `separable=False` with no line
    means the hulls properly overlap.  A `Dfa` oracle labels each length at
    once (`word_labels`).
    """
    if q1.alphabet != q2.alphabet:
        raise ValueError("machines must share an alphabet")
    cloud, distinct = [], set()
    # the sweeps come first, so that they check the length before the labels are read
    levels = zip(sweep(q1, max_len), sweep(q2, max_len), word_labels(oracle, q1.alphabet, max_len))
    for lvl1, lvl2, labels in levels:
        points = list(zip(lvl1.p_accept.tolist(), lvl2.p_accept.tolist(), labels.tolist()))
        cloud += (CloudPoint(w, *pt) for w, pt in zip(lvl1.words, points))
        distinct.update(points)
    # clouds repeat few points, and the hulls keep only distinct snapped points
    # (`_convex_hull` takes a set): snap and hull each distinct (p1, p2, label) once
    inside = [(_snap(a1), _snap(a2)) for a1, a2, label in distinct if label]
    outside = [(_snap(a1), _snap(a2)) for a1, a2, label in distinct if not label]
    return _max_margin_line(tuple(cloud), inside, outside)


def _max_margin_line(cloud: tuple[CloudPoint, ...], inside: list[Point], outside: list[Point]) -> SeparabilityResult:
    """The exact hull geometry of `separability` on the snapped in/out points."""
    if not inside or not outside:
        return SeparabilityResult(
            cloud=cloud, separable=True, line=None, margin=math.inf
        )

    hull_in = _convex_hull(inside)
    hull_out = _convex_hull(outside)

    # exact separating-axis test (non-strict); orient so in-points sit above
    separating_axis = None
    for axis in _axes(hull_in, hull_out):
        in_lo, in_hi = _support(hull_in, axis)
        out_lo, out_hi = _support(hull_out, axis)
        if out_hi <= in_lo:
            separating_axis = (axis, out_hi, in_lo)
            break
        if in_hi <= out_lo:
            separating_axis = ((-axis[0], -axis[1]), -out_lo, -in_hi)
            break
    if separating_axis is None:
        return SeparabilityResult(
            cloud=cloud, separable=False, line=None, margin=0.0
        )

    d2, pt_in, pt_out = _closest_pair(hull_in, hull_out)
    if d2 == 0:
        axis, out_hi, in_lo = separating_axis
        norm = math.hypot(float(axis[0]), float(axis[1]))
        line = (float(axis[0]) / norm, float(axis[1]) / norm, float((out_hi + in_lo) / 2) / norm)
        return SeparabilityResult(
            cloud=cloud, separable=True, line=line, margin=0.0, limit_case=True
        )

    direction = (pt_in[0] - pt_out[0], pt_in[1] - pt_out[1])
    mid = ((pt_in[0] + pt_out[0]) / 2, (pt_in[1] + pt_out[1]) / 2)
    c_exact = direction[0] * mid[0] + direction[1] * mid[1]
    norm = math.hypot(float(direction[0]), float(direction[1]))
    line = (float(direction[0]) / norm, float(direction[1]) / norm, float(c_exact) / norm)
    margin = math.sqrt(float(d2)) / 2
    return SeparabilityResult(
        cloud=cloud, separable=True, line=line, margin=margin
    )
