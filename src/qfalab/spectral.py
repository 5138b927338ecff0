"""Isometric/transient decomposition of the non-halting space under word actions.

For a word x let T_x be the read-then-project operator on the non-halting
coordinates.  It is a norm contraction, so I - T_x*T_x is positive
semidefinite and ||T_x v|| = ||v|| exactly when (I - T_x*T_x) v = 0.  For a
set of words the isometric part E1 is the largest subspace that every T_x
maps into itself without changing norms, the fixpoint of

    E <- {v in E : (I - P_E) T_x v = 0 and (I - T_x*T_x) v = 0 for every x}

started from all non-halting coordinates: one kernel per step, until the
dimension stops falling.  The transient part E2 is its orthocomplement
within the non-halting coordinates.

For one word E1 is the span of the unimodular eigenvectors: T is unitary on
E1, and conversely T v = lam v with |lam| = 1 forces T*T v = v, so that span
is invariant and isometric.  A contraction has no defective unimodular
eigenvalues (powers of such a block grow), so on E2 the spectral radius is
below 1 and powers of T drive every vector to 0.  For two words E1 is the
jointly invariant isometric part of the source paper's pair condition; a
vector of E2 is driven towards 0 by words over the pair, though not always
by the powers of one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qfalab import KERNEL_CUTOFF
from qfalab.qfa import Qfa, nonhalting_operator


@dataclass(frozen=True)
class Decomposition:
    """Orthogonal split of the non-halting coordinate subspace.

    Basis vectors are full-dimension columns supported on the non-halting
    coordinates.  Vectors in the span of `isometric_basis` keep their norm
    under every generating word; vectors in the span of `transient_basis`
    can be driven arbitrarily close to zero.
    """

    isometric_basis: np.ndarray  # dimension x k1
    transient_basis: np.ndarray  # dimension x k2
    non_halting: tuple[int, ...]

    @property
    def isometric_dim(self) -> int:
        return self.isometric_basis.shape[1]

    @property
    def transient_dim(self) -> int:
        return self.transient_basis.shape[1]


def _kernel(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right null space of mat."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    keep = np.ones(mat.shape[1], dtype=bool)
    keep[: len(s)] = s <= KERNEL_CUTOFF
    return vh.conj().T[:, keep]


def decompose(qfa: Qfa, *words: str) -> Decomposition:
    """Split the non-halting space for the joint action of one or more
    nonempty words; no word, or an empty one, raises ValueError."""
    if not words:
        raise ValueError("decompose needs at least one word")
    if not all(words):
        raise ValueError("word must be nonempty")
    eye = np.eye(qfa.dimension, dtype=np.complex128)
    ops = [nonhalting_operator(qfa, w) for w in words]
    defects = [eye - op.conj().T @ op for op in ops]
    embed = eye[:, list(qfa.non_halting)]
    basis = embed
    for _ in range(len(qfa.non_halting) + 1):
        proj_out = eye - basis @ basis.conj().T
        stacked = np.vstack([proj_out @ op @ basis for op in ops] + [d @ basis for d in defects])
        kept = basis @ _kernel(stacked)  # orthonormal: both factors are
        if kept.shape[1] == basis.shape[1]:
            break
        basis = kept
    return Decomposition(
        isometric_basis=basis,
        transient_basis=embed @ _kernel(basis.conj().T @ embed),
        non_halting=qfa.non_halting,
    )


def norm_decay_table(qfa: Qfa, x: str, v: np.ndarray, steps: int) -> list[float]:
    """||T_{x^k} v|| for k = 0..steps; monotone non-increasing."""
    op = nonhalting_operator(qfa, x)
    vec = np.asarray(v, dtype=np.complex128)
    table = [float(np.linalg.norm(vec))]
    for _ in range(steps):
        vec = op @ vec
        table.append(float(np.linalg.norm(vec)))
    return table
