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
case) is detected reliably.  The geometry is one convex hull, of the
differences of in- and out-points (`_max_margin_line`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

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


def _nearest(gap: list[Point]) -> tuple[Fraction, Point, Point]:
    """The point of the polygon `gap`'s boundary nearest the origin: its
    squared norm, the point, and the direction of an edge it lies on
    ((0, 0) when `gap` is one point)."""
    best = []
    for u, v in zip(gap, gap[1:] + gap[:1]):
        e = (v[0] - u[0], v[1] - u[1])
        ee = e[0] * e[0] + e[1] * e[1]
        t = min(1, max(0, -(u[0] * e[0] + u[1] * e[1]) / ee)) if ee else 0
        z = (u[0] + t * e[0], u[1] + t * e[1])
        best.append((z[0] * z[0] + z[1] * z[1], z, e))
    return min(best)


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
    means the hulls properly overlap, or are one and the same point.  A
    point with a non-finite coordinate (a machine whose probabilities
    overflow) has no rational to snap to: the report is then not separable,
    with no line and a NaN margin.  A `Dfa` oracle labels each length at
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
    if not all(math.isfinite(a1) and math.isfinite(a2) for a1, a2, _ in distinct):
        return SeparabilityResult(cloud=tuple(cloud), separable=False, line=None, margin=math.nan)
    # clouds repeat few points, and the hulls keep only distinct snapped points
    # (`_convex_hull` takes a set): snap and hull each distinct (p1, p2, label) once
    inside = [(_snap(a1), _snap(a2)) for a1, a2, label in distinct if label]
    outside = [(_snap(a1), _snap(a2)) for a1, a2, label in distinct if not label]
    return _max_margin_line(tuple(cloud), inside, outside)


def _max_margin_line(cloud: tuple[CloudPoint, ...], inside: list[Point], outside: list[Point]) -> SeparabilityResult:
    """The exact hull geometry of `separability` on the snapped in/out points.

    A line a*x + b*y = c has the in-points on or above it and the out-points
    on or below it exactly when a*z >= 0 for every z in the gap
    G = hull{p - q : p in, q out}.  The origin strictly inside G: the hulls
    overlap.  On G's boundary: they touch, and the normal (a, b) is the
    inward normal of a G edge through the origin; when G is the origin alone
    (both sides one and the same point) there is no edge, and no line.
    Outside G: the normal is the point z* of G nearest the origin, and the
    margin is |z*|/2.  Either line's c lies midway between the least a*p of
    the in-points and the greatest a*q of the out-points.
    """
    if not inside or not outside:
        return SeparabilityResult(cloud=cloud, separable=True, line=None, margin=math.inf)

    hull_in = _convex_hull(inside)
    hull_out = _convex_hull(outside)
    gap = _convex_hull((p[0] - q[0], p[1] - q[1]) for p in hull_in for q in hull_out)
    d2, nearest, edge = _nearest(gap)
    # the hull runs counterclockwise: the origin is strictly inside when it is left of every edge
    overlap = all(_cross(u, v, (0, 0)) > 0 for u, v in zip(gap, gap[1:] + gap[:1]))
    if overlap or d2 == 0 and edge == (0, 0):  # G is the origin alone: no edge
        return SeparabilityResult(cloud=cloud, separable=False, line=None, margin=0.0)

    normal = (-edge[1], edge[0]) if d2 == 0 else nearest
    in_lo = min(normal[0] * p[0] + normal[1] * p[1] for p in hull_in)
    out_hi = max(normal[0] * q[0] + normal[1] * q[1] for q in hull_out)
    norm = math.hypot(float(normal[0]), float(normal[1]))
    line = (float(normal[0]) / norm, float(normal[1]) / norm, float((in_lo + out_hi) / 2) / norm)
    return SeparabilityResult(
        cloud=cloud, separable=True, line=line, margin=math.sqrt(float(d2)) / 2, limit_case=d2 == 0
    )
