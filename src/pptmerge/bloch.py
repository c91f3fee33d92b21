"""Bloch rank of a family of states.

The Bloch vector of a d-dimensional state holds the coordinates of its
traceless part rho - I/d in a traceless Hermitian operator basis.  An
orthonormal basis is a linear isometry, so the rank of a family's Bloch
vectors is the rank of the flattened traceless parts and needs no basis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import DensityMatrix, PureState, _check_kind

__all__ = ["rank_of_family"]

_RANK_RTOL = 1e-8
# Bloch coordinates of genuine states are O(1), so a leading singular value
# at rounding level means the family has no direction.  The floor is 1e-10
# on the coordinates Tr(rho G_i) of a basis with Tr(G_i G_j) = 2 delta_ij,
# which are sqrt(2) times the orthonormal ones taken here.
_RANK_FLOOR = 1e-10 / np.sqrt(2.0)


def _family_rank(stack: np.ndarray) -> int:
    """Rank of the span of the traceless parts of a stack of d x d matrices."""
    k, d = stack.shape[0], stack.shape[-1]
    svals = np.linalg.svd((stack - np.eye(d) / d).reshape(k, d * d), compute_uv=False)
    if svals.size == 0 or svals[0] <= _RANK_FLOOR:
        return 0
    return int(np.sum(svals > _RANK_RTOL * svals[0]))


def rank_of_family(states: Sequence[DensityMatrix]) -> int:
    """Rank of the span of the states' Bloch vectors.

    Uses an SVD with a relative threshold of 1e-8 times the largest
    singular value.  The family must be non-empty, share one total
    dimension, and contain at most d^2 members.
    """
    try:
        states = list(states)
    except TypeError as exc:
        raise ValueError(f"states must be an iterable of states, got {type(states).__name__}") from exc
    for k, state in enumerate(states):
        _check_kind(f"states[{k}]", state, DensityMatrix, PureState)
    if not states:
        raise ValueError("family must contain at least one state")
    d = states[0].dim
    if any(s.dim != d for s in states):
        raise ValueError("all family members must share one total dimension")
    if len(states) > d * d:
        raise ValueError(f"family of {len(states)} states exceeds the d^2 = {d * d} cap")
    return _family_rank(np.array([s.data for s in states]))
