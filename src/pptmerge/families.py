"""Named constructors for the states the classifier is exercised on."""

from __future__ import annotations

import numpy as np

from .bloch import _family_rank
from .core import DensityMatrix, PureState, TripartiteState, _ints

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
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.shape != (2,):
        raise ValueError(f"expected a qubit amplitude pair, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
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
    if len(psi.dims) != 2:
        raise ValueError(f"psi must be bipartite, got dims {psi.dims}")
    vec = np.kron(psi.amplitudes, np.array([1.0, 0.0]))
    return TripartiteState.from_pure(
        PureState(psi.dims + (2,), vec), (0,), (1,), (2,)
    )


def _random_qubit_ket(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1.0j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _random_separable_two_qubit(rng: np.random.Generator, mixing_terms: int) -> np.ndarray:
    """Mixture of ``mixing_terms`` product pure states of two qubits, as a 4 x 4 array."""
    weights = rng.dirichlet(np.ones(mixing_terms))
    out = np.zeros((4, 4), dtype=complex)
    for w in weights:
        ket = np.kron(_random_qubit_ket(rng), _random_qubit_ket(rng))
        out += w * np.outer(ket, ket.conj())
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

    Deterministic for a fixed seed.  Raises ``ValueError`` on a seed that
    is not an integer (a bool included), and :class:`GenerationError` if no
    attempt within the cap reaches full Bloch rank.
    """
    (seed,) = _ints((seed,))
    m = SEP_FAMILY_BLOCKS
    for attempt in range(_RETRY_CAP):
        rng = np.random.default_rng(seed + attempt)
        blocks = [_random_separable_two_qubit(rng, 4) for _ in range(m)]
        if _family_rank(np.array(blocks)) != m:
            continue
        raw = rng.uniform(size=m)
        raw /= raw.sum()
        # Affine floor keeps every weight >= the floor after normalisation.
        weights = SEP_FAMILY_WEIGHT_FLOOR + (1.0 - m * SEP_FAMILY_WEIGHT_FLOOR) * raw
        mat = np.zeros((4 * m, 4 * m), dtype=complex)
        for i, (w, b) in enumerate(zip(weights, blocks)):
            mat[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = w * b
        return TripartiteState(DensityMatrix((m, 2, 2), mat), (0,), (1,), (2,))
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
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    bell = phi_plus().amplitudes
    vec = np.kron(bell, np.array([1.0, 0.0]))
    mat = (1.0 - p) * np.outer(vec, vec.conj()) + p * np.eye(8) / 8.0
    return TripartiteState(DensityMatrix((2, 2, 2), mat), (0,), (1,), (2,))


def perturb(state: TripartiteState, direction: DensityMatrix, eps: float) -> TripartiteState:
    """Convex mixture (1 - eps) * state + eps * direction, same party layout."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
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
