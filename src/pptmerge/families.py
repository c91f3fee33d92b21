"""Named constructors for the states the classifier is exercised on."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .bloch import _family_rank
from .core import DensityMatrix, PureState, TripartiteState, _check_kind, _complex_array, _ints

__all__ = [
    "GenerationError",
    "phi_plus",
    "ghz",
    "classical_correlated",
    "product_pure",
    "product_example",
    "sep_no_merge_family",
    "robust_vanishing_family",
    "perturb",
    "SEP_FAMILY_BLOCKS",
    "SEP_FAMILY_WEIGHT_FLOOR",
]

# The blocking family needs one classical flag per Bloch direction of a
# two-qubit pair, hence 15 blocks, each mixed in with at least this weight.
SEP_FAMILY_BLOCKS = 15
SEP_FAMILY_WEIGHT_FLOOR = 0.01

_RETRY_CAP = 100


class GenerationError(RuntimeError):
    """Randomised construction failed to meet its certificate within the retry cap."""


def _check_unit(name: str, value: float) -> None:
    """Reject a value that is not a real number in [0, 1], such as a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def phi_plus() -> PureState:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    return PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def ghz() -> TripartiteState:
    """Three-qubit state (|000> + |111>)/sqrt(2) with one qubit per party."""
    vec = np.zeros(8)
    vec[0] = vec[7] = 1.0 / np.sqrt(2.0)
    return TripartiteState.from_pure(PureState((2, 2, 2), vec), (0,), (1,), (2,))


def classical_correlated() -> TripartiteState:
    """Equal classical mixture of |000> and |111>, one qubit per party."""
    mat = np.zeros((8, 8))
    mat[0, 0] = mat[7, 7] = 0.5
    return TripartiteState(DensityMatrix((2, 2, 2), mat), (0,), (1,), (2,))


def _unit(vec) -> np.ndarray:
    v = _complex_array(vec).reshape(-1)
    if v.shape != (2,):
        raise ValueError(f"expected a qubit amplitude pair, got shape {v.shape}")
    norm = math.sqrt(np.vdot(v, v).real)  # vdot overflows to inf, with no warning
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("amplitudes must be a non-zero finite vector")
    return v / norm


def product_pure(alpha, beta, gamma) -> TripartiteState:
    """Product state |alpha>|beta>|gamma> of three qubits.

    Inputs are amplitude pairs and are normalised before use.  Every
    correlation measure vanishes across every cut of the result.
    """
    vec = np.kron(np.kron(_unit(alpha), _unit(beta)), _unit(gamma))
    return TripartiteState.from_pure(PureState((2, 2, 2), vec), (0,), (1,), (2,))


def product_example(psi: PureState) -> TripartiteState:
    """Bipartite pure state on A and B, with a fresh |0> qubit handed to C."""
    _check_kind("psi", psi, PureState)
    if len(psi.dims) != 2:
        raise ValueError(f"psi must be bipartite, got dims {psi.dims}")
    vec = np.kron(psi.amplitudes, np.array([1.0, 0.0]))
    return TripartiteState.from_pure(
        PureState(psi.dims + (2,), vec), (0,), (1,), (2,)
    )


def _separable_blocks(rng: np.random.Generator, m: int, terms: int) -> np.ndarray:
    """``m`` mixtures of ``terms`` product pure states of two qubits, as an
    ``(m, 4, 4)`` stack.  Each block draws its Dirichlet weights, then its
    kets' parts indexed (term, qubit, re/im, amplitude); the arithmetic is
    that of one ket and one term at a time, so the bits are too."""
    draws = [(rng.dirichlet(np.ones(terms)), rng.standard_normal((terms, 2, 2, 2)))
             for _ in range(m)]
    weights, parts = (np.array(x) for x in zip(*draws))
    re, im = parts[..., 0, :], parts[..., 1, :]
    norms = np.sqrt(re[..., None, :] @ re[..., None] + im[..., None, :] @ im[..., None])[..., 0]
    kets = (re + 1.0j * im) / norms
    pairs = (kets[..., 0, :, None] * kets[..., 1, None, :]).reshape(m, terms, 4)
    projectors = pairs[..., :, None] * pairs[..., None, :].conj()
    out = np.zeros((m, 4, 4), dtype=complex)
    for t in range(terms):
        out += weights[:, t, None, None] * projectors[:, t]
    return out


def sep_no_merge_family(seed: int) -> TripartiteState:
    """Classically flagged mixture of 15 separable two-qubit states.

    A holds a 15-dimensional flag register, B and C one qubit each:

        rho = sum_i p_i |i><i|_A (x) sigma_i_BC

    with every p_i >= 0.01 and the sigma_i separable across B:C.  The draw
    retries (up to 100 times, bumping the seed) until the sigma_i have 15
    linearly independent Bloch vectors, and that rank certificate is what
    makes the family useful: it blocks perfect merging even though the
    state carries no entanglement at all.

    Deterministic for a fixed seed, and the order of the draws is part of
    that contract: attempt k seeds ``default_rng(seed + k)``, each block
    draws its Dirichlet weights and then its kets (see
    :func:`_separable_blocks`), and the flag weights come last.  Raises
    ``ValueError`` on a seed that is not an integer (a bool included) or
    is negative, before any draw, and :class:`GenerationError` if no
    attempt within the cap reaches full Bloch rank.
    """
    (seed,) = _ints((seed,))
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    m = SEP_FAMILY_BLOCKS
    for attempt in range(_RETRY_CAP):
        rng = np.random.default_rng(seed + attempt)
        blocks = _separable_blocks(rng, m, 4)
        if _family_rank(blocks) != m:
            continue
        raw = rng.uniform(size=m)
        raw /= raw.sum()
        # Affine floor keeps every weight >= the floor after normalisation.
        weights = SEP_FAMILY_WEIGHT_FLOOR + (1.0 - m * SEP_FAMILY_WEIGHT_FLOOR) * raw
        mat = np.zeros((m, 4, m, 4), dtype=complex)
        mat[np.arange(m), :, np.arange(m), :] = weights[:, None, None] * blocks
        rho = DensityMatrix((m, 2, 2), mat.reshape(4 * m, 4 * m))
        return TripartiteState(rho, (0,), (1,), (2,))
    raise GenerationError(
        f"no rank-{m} family found within {_RETRY_CAP} attempts from seed {seed}"
    )


def robust_vanishing_family(p: float) -> TripartiteState:
    """Noisy Bell pair on AB next to an untouched |0> qubit at C.

        rho(p) = (1 - p) |phi+><phi+| (x) |0><0|  +  p I/8

    The state is exactly invariant under transposing C, so it is PPT
    across AB:C for every p.  Below a noise threshold (close to 0.317)
    the hashing witness across A:BC stays positive, which pins the
    classifier's VANISHING verdict on an open neighbourhood of p.
    Raises ``ValueError`` unless p is a real number in [0, 1].
    """
    _check_unit("p", p)
    bell = phi_plus().amplitudes
    vec = np.kron(bell, np.array([1.0, 0.0]))
    mat = (1.0 - p) * np.outer(vec, vec.conj()) + p * np.eye(8) / 8.0
    return TripartiteState(DensityMatrix((2, 2, 2), mat), (0,), (1,), (2,))


def perturb(state: TripartiteState, direction: DensityMatrix, eps: float) -> TripartiteState:
    """Convex mixture (1 - eps) * state + eps * direction, same party layout,
    for a real number eps in [0, 1] (else ``ValueError``)."""
    _check_unit("eps", eps)
    _check_kind("state", state, TripartiteState)
    _check_kind("direction", direction, DensityMatrix, PureState)
    if direction.dims != state.dims:
        raise ValueError(
            f"direction dims {direction.dims} do not match state dims {state.dims}"
        )
    mixed = (1.0 - eps) * state.state.data + eps * direction.data
    return TripartiteState(
        DensityMatrix(state.dims, mixed),
        state.a_indices,
        state.b_indices,
        state.c_indices,
    )
