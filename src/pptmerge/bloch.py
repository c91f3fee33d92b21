"""Traceless Hermitian operator bases and Bloch-vector bookkeeping.

The basis built here is the generalised Gell-Mann family: for dimension d
it has d^2 - 1 traceless Hermitian elements with Tr(G_i G_j) = 2 delta_ij,
listed as symmetric pair operators, then antisymmetric pair operators,
then the diagonal ladder.  For d = 2 that ordering is exactly X, Y, Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import DensityMatrix

__all__ = [
    "OperatorBasis",
    "BlochVector",
    "gell_mann_basis",
    "bloch_coords",
    "from_bloch",
    "rank_of_family",
    "random_separable_two_qubit",
]

_MAX_BASIS_DIM = 16
_RANK_RTOL = 1e-8


@dataclass(frozen=True)
class OperatorBasis:
    """Ordered operator basis with its measured orthogonality defect.

    ``orthogonality_defect`` is the largest deviation of Tr(G_i G_j) from
    2 delta_ij over all pairs; it certifies the construction numerically.
    ``flat_t`` holds the flattened transposes vec(G_i^T) as rows, shape
    (d^2 - 1, d^2), so vec(rho) @ flat_t.T gives the coordinates Tr(rho G_i).
    """

    dim: int
    elements: tuple[np.ndarray, ...]
    orthogonality_defect: float
    flat_t: np.ndarray


@dataclass(frozen=True)
class BlochVector:
    """Expansion coefficients Tr(rho G_i) of a state, length d^2 - 1."""

    dim: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float).reshape(-1)
        if coords.shape != (self.dim * self.dim - 1,):
            raise ValueError(
                f"expected {self.dim ** 2 - 1} coordinates for dim {self.dim}, "
                f"got {coords.shape[0]}"
            )
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)


@lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> OperatorBasis:
    """Generalised Gell-Mann basis for a d-dimensional system, 2 <= d <= 16.

    The result is cached and its matrices are read-only.
    """
    if not 2 <= d <= _MAX_BASIS_DIM:
        raise ValueError(f"basis dimension must be in [2, {_MAX_BASIS_DIM}], got {d}")
    mats: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for level in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for j in range(level):
            m[j, j] = 1.0
        m[level, level] = -float(level)
        mats.append(m * np.sqrt(2.0 / (level * (level + 1))))
    for m in mats:
        m.flags.writeable = False
    flat = np.array([m.reshape(-1) for m in mats])
    flat_t = np.array([m.T.reshape(-1) for m in mats])
    flat_t.flags.writeable = False
    gram = np.real(flat @ flat_t.T)
    defect = float(np.max(np.abs(gram - 2.0 * np.eye(len(mats)))))
    return OperatorBasis(d, tuple(mats), defect, flat_t)


def _bloch_rows(stack: np.ndarray) -> np.ndarray:
    """Bloch coordinates of a stack of d x d matrices, one row per matrix."""
    d = stack.shape[-1]
    if d > _MAX_BASIS_DIM:
        raise ValueError(f"total dimension {d} exceeds the basis cap {_MAX_BASIS_DIM}")
    # Tr(rho G) = sum_ij rho_ij G_ji, i.e. vec(rho) . vec(G^T).
    return np.real(stack.reshape(-1, d * d) @ gell_mann_basis(d).flat_t.T)


def _family_rank(stack: np.ndarray) -> int:
    """Rank of the span of the Bloch rows of a stack of d x d matrices."""
    svals = np.linalg.svd(_bloch_rows(stack), compute_uv=False)
    # absolute floor: coordinates of genuine states are O(1), so a leading
    # singular value at rounding level means the family has no direction
    if svals.size == 0 or svals[0] <= 1e-10:
        return 0
    return int(np.sum(svals > _RANK_RTOL * svals[0]))


def bloch_coords(rho: DensityMatrix) -> BlochVector:
    """Bloch vector of ``rho`` viewed as a single system of its total dimension.

    The state reconstructs as ``I/d + sum_i coords[i] G_i / 2``.
    """
    return BlochVector(dim=rho.dim, coords=_bloch_rows(rho.data)[0])


def from_bloch(vector: BlochVector, dims: Sequence[int] | None = None) -> DensityMatrix:
    """Reconstruct the density matrix with the given Bloch vector.

    ``dims`` defaults to the single composite system ``(d,)``; pass the
    subsystem layout explicitly to reinterpret the same matrix as
    multipartite.  Raises if the coordinates do not describe a state.
    """
    d = vector.dim
    basis = gell_mann_basis(d)
    out = np.eye(d, dtype=complex) / d
    for c, g in zip(vector.coords, basis.elements):
        out += 0.5 * c * g
    return DensityMatrix(tuple(dims) if dims is not None else (d,), out)


def rank_of_family(states: Sequence[DensityMatrix]) -> int:
    """Rank of the span of the states' Bloch vectors.

    Uses an SVD with a relative threshold of 1e-8 times the largest
    singular value.  The family must be non-empty, share one total
    dimension, and contain at most d^2 members.
    """
    states = list(states)
    if not states:
        raise ValueError("family must contain at least one state")
    d = states[0].dim
    if any(s.dim != d for s in states):
        raise ValueError("all family members must share one total dimension")
    if len(states) > d * d:
        raise ValueError(f"family of {len(states)} states exceeds the d^2 = {d * d} cap")
    return _family_rank(np.array([s.data for s in states]))


def _random_qubit_ket(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1.0j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _random_separable_two_qubit(rng: np.random.Generator, mixing_terms: int) -> np.ndarray:
    weights = rng.dirichlet(np.ones(mixing_terms))
    out = np.zeros((4, 4), dtype=complex)
    for w in weights:
        ket = np.kron(_random_qubit_ket(rng), _random_qubit_ket(rng))
        out += w * np.outer(ket, ket.conj())
    return out


def random_separable_two_qubit(seed: int, mixing_terms: int = 4) -> DensityMatrix:
    """Random mixture of ``mixing_terms`` product pure states of two qubits.

    Deterministic for a fixed seed.  The output is separable by
    construction, hence positive under partial transposition of either
    qubit.
    """
    if mixing_terms < 1:
        raise ValueError("mixing_terms must be at least 1")
    rng = np.random.default_rng(seed)
    return DensityMatrix((2, 2), _random_separable_two_qubit(rng, mixing_terms))
