"""Entropies, distances and distillability witnesses.

All entropic quantities are in bits (base-2 logarithms).  Witnesses come
back as :class:`WitnessValue` records so callers always know which side of
the true quantity the number sits on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Bipartition,
    DensityMatrix,
    PureState,
    TripartiteState,
    _DEFAULT_TOL,
    _check_cut,
    _check_kind,
    _check_tol,
    _ptrace_array,
    partial_transpose,
)

__all__ = [
    "WitnessValue",
    "von_neumann_entropy",
    "conditional_entropy",
    "mutual_information",
    "fidelity",
    "trace_distance",
    "log_negativity",
    "is_ppt",
    "hashing_witness",
    "negativity_witness",
]

# Eigenvalues at or below this are treated as exact zeros inside entropies.
_ENTROPY_EIG_CUTOFF = 1e-12


@dataclass(frozen=True)
class WitnessValue:
    """A one-sided bound on a quantity that is itself out of reach.

    ``direction`` is ``"lower_bound"`` or ``"upper_bound"`` and refers to
    the true value of ``quantity`` across ``cut``.
    """

    value: float
    direction: str
    quantity: str
    cut: Bipartition

    def __post_init__(self):
        if self.direction not in ("lower_bound", "upper_bound"):
            raise ValueError(f"unknown direction {self.direction!r}")


def _entropies(*spectra: np.ndarray) -> list[float]:
    """-sum(p log2 p) over the eigenvalues above 1e-12 of each array, all in
    one pass.  An array of any shape gives the entropy of the direct sum of
    the blocks it holds the eigenvalues of, and the exact zeros that
    :func:`_padded_eigvalsh` adds fall below the cutoff."""
    offsets = list(itertools.accumulate((s.size for s in spectra[:-1]), initial=0))
    w = np.concatenate([s.ravel() for s in spectra])
    w = np.where(w > _ENTROPY_EIG_CUTOFF, w, 1.0)  # a term 1 log2 1 = 0 drops it
    return (-np.add.reduceat(w * np.log2(w), offsets)).tolist()


def _padded_eigvalsh(*stacks: np.ndarray) -> list[np.ndarray]:
    """The spectra of stacks of Hermitian matrices (..., n, n), n differing
    between stacks, from one ``eigvalsh`` call: each matrix is zero-padded
    to the largest n, which adds exact zeros to its spectrum.  Returns each
    stack's eigenvalues as (matrices, largest n) rows, ascending."""
    rows = [s.reshape(-1, *s.shape[-2:]) for s in stacks]
    n = max(r.shape[-1] for r in rows)
    bounds = list(itertools.accumulate(map(len, rows), initial=0))
    padded = np.zeros((bounds[-1], n, n), np.result_type(*rows))
    for r, i, j in zip(rows, bounds, bounds[1:]):
        padded[i:j, : r.shape[-1], : r.shape[-1]] = r
    w = np.linalg.eigvalsh(padded)
    return [w[i:j] for i, j in zip(bounds, bounds[1:])]


def _marginal_spectra(rho: DensityMatrix, *keeps: Sequence[int]) -> list[np.ndarray]:
    """Spectra of the marginals on each of ``keeps``, from one padded call and
    built without DensityMatrix validation: the marginal of a valid state is
    valid, and validating costs an extra spectrum."""
    return _padded_eigvalsh(*(_ptrace_array(rho.data, rho.dims, keep) for keep in keeps))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(p log2 p) over eigenvalues above 1e-12; never negative,
    so rounding below 0 (a pure state's top eigenvalue just above 1) is
    clamped to 0."""
    _check_kind("rho", rho, DensityMatrix, PureState)
    (s,) = _entropies(np.linalg.eigvalsh(rho.data))
    return max(0.0, s)


def conditional_entropy(state: TripartiteState) -> float:
    """S(BC) - S(C) of a tripartite state, in bits.

    Non-positive values certify that party B can be merged into party C
    without spoiling correlations with A; see :mod:`pptmerge.classify`.
    """
    _check_kind("state", state, TripartiteState)
    bc, c = state.b_indices + state.c_indices, state.c_indices
    s_bc, s_c = _entropies(*_marginal_spectra(state.state, bc, c))
    return s_bc - s_c


def mutual_information(rho: DensityMatrix, cut: Bipartition) -> float:
    """S(left) + S(right) - S(whole) across ``cut``, in bits; never negative,
    so rounding below 0 is clamped to 0."""
    _check_kind("rho", rho, DensityMatrix, PureState)
    _check_cut(cut, len(rho.dims))
    s_whole, s_left, s_right = _entropies(
        np.linalg.eigvalsh(rho.data), *_marginal_spectra(rho, cut.left, cut.right)
    )
    return max(0.0, s_left + s_right - s_whole)


def _rank_factor(matrix: np.ndarray) -> np.ndarray:
    """Tall factor F with ``matrix = F F^dag``, truncated to numerical rank.

    Truncation matters: carrying null-space eigenvalues of size eps through
    a square root would inject sqrt(eps)-sized noise into the fidelity.
    """
    w, V = np.linalg.eigh(matrix)
    keep = w > 1e-14
    return V[:, keep] * np.sqrt(w[keep])


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Evaluated as the nuclear norm ||A^dag B||_1 for rank factors
    ``rho = A A^dag`` and ``sigma = B B^dag``, which is numerically stable
    on rank-deficient inputs.  For pure ``rho = |psi><psi|`` this reduces
    to ``sqrt(<psi|sigma|psi>)``.
    """
    _check_kind("rho", rho, DensityMatrix, PureState)
    _check_kind("sigma", sigma, DensityMatrix, PureState)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    a = _rank_factor(rho.data)
    b = _rank_factor(sigma.data)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(a.conj().T @ b, compute_uv=False)
    return float(min(1.0, np.sum(s)))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma, in [0, 1]."""
    _check_kind("rho", rho, DensityMatrix, PureState)
    _check_kind("sigma", sigma, DensityMatrix, PureState)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w = np.linalg.eigvalsh(rho.data - sigma.data)
    return float(min(1.0, 0.5 * np.sum(np.abs(w))))


def log_negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """log2 of the trace norm of the partial transpose across ``cut``.

    Zero for every state that stays positive under the partial transpose,
    strictly positive otherwise.
    """
    w = np.linalg.eigvalsh(partial_transpose(rho, cut))
    return max(0.0, float(np.log2(np.sum(np.abs(w)))))


def is_ppt(rho: DensityMatrix, cut: Bipartition, tol: float = _DEFAULT_TOL) -> bool:
    """Whether the partial transpose across ``cut`` is positive to ``tol``."""
    _check_tol(tol)
    w = np.linalg.eigvalsh(partial_transpose(rho, cut))
    return bool(w[0] >= -tol)


def hashing_witness(rho: DensityMatrix, cut: Bipartition) -> WitnessValue:
    """Certified lower bound on distillable entanglement across ``cut``.

    The value is ``max(S(left) - S(whole), S(right) - S(whole))``, the
    better of the two one-way hashing rates.  A strictly positive value
    proves the state is distillable across the cut; a non-positive value
    proves nothing.
    """
    _check_kind("rho", rho, DensityMatrix, PureState)
    _check_cut(cut, len(rho.dims))
    # unclamped, unlike von_neumann_entropy
    s_whole, s_left, s_right = _entropies(
        np.linalg.eigvalsh(rho.data), *_marginal_spectra(rho, cut.left, cut.right)
    )
    return WitnessValue(
        value=max(s_left - s_whole, s_right - s_whole),
        direction="lower_bound",
        quantity="distillable_entanglement",
        cut=cut,
    )


def negativity_witness(rho: DensityMatrix, cut: Bipartition) -> WitnessValue:
    """Certified upper bound on distillable entanglement across ``cut``.

    The value is the log-negativity.  Zero certifies that no entanglement
    can be distilled across the cut by PPT-preserving operations.
    """
    return WitnessValue(
        value=log_negativity(rho, cut),
        direction="upper_bound",
        quantity="distillable_entanglement",
        cut=cut,
    )
