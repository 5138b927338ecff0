"""Isometric/transient decomposition of the non-halting space under word actions.

For a word x let T be the read-then-project operator restricted to the
non-halting coordinate subspace.  T is a norm contraction, and its isometric
part is spanned by the eigenvectors with unimodular eigenvalues:

  * a contraction has no defective unimodular eigenvalues (powers of a
    defective block grow, contradicting ||T^k|| <= 1), so those eigenvectors
    exhaust the unit-circle spectrum;
  * if T v = lam v with |lam| = 1 then <v, (I - T*T) v> = 0, and since
    I - T*T is positive semidefinite this forces T*T v = v; consequently
    eigenvectors of distinct unimodular eigenvalues are orthogonal and the
    span is T-invariant with an isometric, in fact unitary, restriction;
  * on the orthogonal complement (within the non-halting coordinates) the
    spectral radius is strictly below 1, so repeated application of T drives
    every vector's norm to 0.

Numerically the unimodular part is selected by the cutoff |lam| >= 1 - tol
on eigenvalues of the restricted operator; the selected eigenvectors are
re-orthonormalized by SVD, and each fixpoint iteration of the two-word
variant re-orthonormalizes to stop drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qfalab.qfa import Qfa, nonhalting_operator

EIGENVALUE_CUTOFF = 1e-8
RANK_CUTOFF = 1e-10  # singular value, relative to the largest, below which a column is dependent
KERNEL_CUTOFF = 1e-10  # singular value at or below which decompose_pair keeps a direction


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
    tol: float

    @property
    def isometric_dim(self) -> int:
        return self.isometric_basis.shape[1]

    @property
    def transient_dim(self) -> int:
        return self.transient_basis.shape[1]


def _orthonormal_columns(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, deterministic via SVD."""
    if vectors.size == 0 or vectors.shape[1] == 0:
        return np.zeros((vectors.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF * max(1.0, float(s[0]) if len(s) else 1.0)))
    return u[:, :rank]


def _complement_within(basis: np.ndarray, subspace: np.ndarray) -> np.ndarray:
    """Orthocomplement of span(basis) inside span(subspace)."""
    if basis.shape[1] == 0:
        return subspace
    proj = subspace - basis @ (basis.conj().T @ subspace)
    return _orthonormal_columns(proj)


def _coordinate_basis(dimension: int, indices: tuple[int, ...]) -> np.ndarray:
    basis = np.zeros((dimension, len(indices)), dtype=np.complex128)
    for col, i in enumerate(indices):
        basis[i, col] = 1.0
    return basis


def decompose_word(qfa: Qfa, x: str, tol: float = EIGENVALUE_CUTOFF) -> Decomposition:
    """Split the non-halting space for the action of the single word x."""
    if not x:
        raise ValueError("word must be nonempty")
    non = qfa.non_halting
    full = nonhalting_operator(qfa, x)
    restricted = full[np.ix_(non, non)]
    try:
        eigvals, eigvecs = np.linalg.eig(restricted)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigendecomposition failed for word {x!r}: {exc}") from exc
    keep = np.abs(eigvals) >= 1.0 - tol
    iso_small = _orthonormal_columns(eigvecs[:, keep])
    embed = _coordinate_basis(qfa.dimension, non)
    isometric = embed @ iso_small
    transient = _complement_within(isometric, embed)
    return Decomposition(
        isometric_basis=isometric,
        transient_basis=transient,
        non_halting=non,
        tol=tol,
    )


def decompose_pair(qfa: Qfa, x: str, y: str, tol: float = EIGENVALUE_CUTOFF) -> Decomposition:
    """Largest jointly invariant isometric subspace for two word actions.

    Starting from the intersection of the single-word isometric parts, the
    subspace is shrunk until it is invariant under both operators:
    E <- {v in E : T_x v in E and T_y v in E}.  On the fixpoint both
    operators act isometrically, and the complement within the non-halting
    coordinates is jointly transient.
    """
    dx = decompose_word(qfa, x, tol)
    dy = decompose_word(qfa, y, tol)
    tx = nonhalting_operator(qfa, x)
    ty = nonhalting_operator(qfa, y)

    # intersection of the two isometric parts: the complement (within the
    # non-halting coordinates) of the union of the two transient parts
    embed = _coordinate_basis(qfa.dimension, qfa.non_halting)
    transient_union = _orthonormal_columns(np.hstack([dx.transient_basis, dy.transient_basis]))
    basis = _complement_within(transient_union, embed)

    for _ in range(qfa.dimension + 1):
        if basis.shape[1] == 0:
            break
        proj_out = np.eye(qfa.dimension) - basis @ basis.conj().T
        stacked = np.vstack([proj_out @ tx @ basis, proj_out @ ty @ basis])
        _, s, vh = np.linalg.svd(stacked, full_matrices=True)
        null_mask = np.ones(basis.shape[1], dtype=bool)
        null_mask[: len(s)] = s <= KERNEL_CUTOFF
        kernel = vh.conj().T[:, null_mask]
        new_basis = _orthonormal_columns(basis @ kernel)
        if new_basis.shape[1] == basis.shape[1]:
            basis = new_basis
            break
        basis = new_basis

    transient = _complement_within(basis, embed)
    return Decomposition(
        isometric_basis=basis,
        transient_basis=transient,
        non_halting=qfa.non_halting,
        tol=tol,
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
