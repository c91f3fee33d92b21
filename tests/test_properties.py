"""Hypothesis properties of the partial transpose, measures, witnesses, classifier
(on general states and on states classical on A), the trace-distance dual bound,
the symmetry sectors of the trace-distance program, its kernel's start, linear
map and adjoint, the overlap bracket, the overlap's product certificate, the
one-pass check of a pure state's amplitudes, and the exact Hermitian symmetry
of every matrix the classifier and the measures hand to an eigen-solver.

Hypothesis draws the layouts, ranks and seeds; numpy draws the states.
"""

import importlib
import math
from contextlib import contextmanager
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptmerge import (
    VERDICTS,
    Bipartition,
    DensityMatrix,
    InconsistentCriteriaError,
    PureState,
    TripartiteState,
    classify,
    conditional_entropy,
    fidelity,
    hashing_witness,
    is_ppt,
    log_negativity,
    max_overlap_ppt,
    mutual_information,
    min_trace_distance_ppt,
    negativity_witness,
    partial_transpose,
    trace_distance,
    von_neumann_entropy,
)
from pptmerge import pptopt
from pptmerge.core import _herm, _pt_array, _sectors
from pptmerge.pptopt import _Coords
from helpers import haar_unitary, random_density, random_separable
from oracles import (
    partial_transpose_einsum,
    report_numbers,
    same_torus_sector,
    schmidt_overlap,
    sep_family_obstruction,
)

classify_mod = importlib.import_module("pptmerge.classify")

_seeds = st.integers(0, 2**32 - 1)
_dims = st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])


@st.composite
def _layouts(draw):
    """Subsystem dimensions, A/B/C index blocks and a rank, for a tripartite state."""
    dims = draw(st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (2, 2, 2, 2)]))
    order = draw(st.permutations(range(len(dims))))
    i = draw(st.integers(1, len(dims) - 2))
    j = draw(st.integers(i + 1, len(dims) - 1))
    rank = draw(st.integers(1, int(np.prod(dims))))
    return dims, (order[:i], order[i:j], order[j:]), rank


def _cut(data, n):
    left = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1), label="left")
    return Bipartition.of(left, n)


def _local_unitary(rng, dims):
    return reduce(np.kron, [haar_unitary(rng, d) for d in dims])


def _rotate(rho, u):
    return DensityMatrix(rho.dims, u @ rho.data @ u.conj().T)


@settings(max_examples=60, deadline=None)
@given(dims=_dims, rank=st.integers(1, 4), data=st.data(), seed=_seeds)
def test_measures_and_witnesses_invariant_under_local_unitaries(dims, rank, data, seed):
    rng = np.random.default_rng(seed)
    cut = _cut(data, len(dims))
    rho = random_density(rng, dims, rank=rank)
    sigma = random_density(rng, dims)
    u = _local_unitary(rng, dims)
    rho_u, sigma_u = _rotate(rho, u), _rotate(sigma, u)

    def values(r, s):
        return np.array([
            von_neumann_entropy(r),
            mutual_information(r, cut),
            log_negativity(r, cut),
            hashing_witness(r, cut).value,
            negativity_witness(r, cut).value,
            fidelity(r, s),
            trace_distance(r, s),
        ])

    np.testing.assert_allclose(values(rho_u, sigma_u), values(rho, sigma), rtol=0, atol=1e-8)
    assert is_ppt(rho_u, cut) == is_ppt(rho, cut)


@settings(max_examples=40, deadline=None)
@given(layout=_layouts(), seed=_seeds)
def test_tripartite_witnesses_invariant_under_local_unitaries(layout, seed):
    dims, (a, b, c), rank = layout
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dims, rank=rank)
    rho_u = _rotate(rho, _local_unitary(rng, dims))
    state, state_u = TripartiteState(rho, a, b, c), TripartiteState(rho_u, a, b, c)
    assert abs(conditional_entropy(state_u) - conditional_entropy(state)) < 1e-8
    assert abs(
        classify(state_u).fidelity_lower_bound - classify(state).fidelity_lower_bound
    ) < 1e-8


@settings(max_examples=80, deadline=None)
@given(dims=_dims, rank=st.integers(1, 6), data=st.data(), seed=_seeds)
def test_hashing_witness_never_exceeds_log_negativity(dims, rank, data, seed):
    # coherent information <= distillable entanglement <= log-negativity;
    # pure states (rank 1) test the Renyi-1/2 against the von Neumann entropy
    cut = _cut(data, len(dims))
    rho = random_density(np.random.default_rng(seed), dims, rank=rank)
    assert hashing_witness(rho, cut).value <= log_negativity(rho, cut) + 1e-9


@settings(max_examples=60, deadline=None)
@given(layout=_layouts(), seed=_seeds)
def test_classify_raises_only_inconsistent_criteria_on_random_states(layout, seed):
    dims, (a, b, c), rank = layout
    state = TripartiteState(random_density(np.random.default_rng(seed), dims, rank=rank), a, b, c)
    try:
        report = classify(state)
    except InconsistentCriteriaError:
        return
    assert report.verdict in VERDICTS


@settings(max_examples=60, deadline=None)
@given(dims=_dims, rank=st.integers(1, 4), data=st.data(), seed=_seeds)
def test_partial_transpose_is_an_involution(dims, rank, data, seed):
    cut = _cut(data, len(dims))
    rho = random_density(np.random.default_rng(seed), dims, rank=rank)
    once = partial_transpose(rho, cut)
    # entries are only permuted, so equality is exact; both sides give the full transpose
    assert np.array_equal(_pt_array(once, dims, cut.left), rho.data)
    assert np.array_equal(_pt_array(once, dims, cut.right), rho.data.T)


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
    rank=st.integers(2, 9),
    weight=st.floats(0.0, 1.0),
    budget=st.sampled_from([1, 2, 3, 300, 2000]),
    seed=_seeds,
)
def test_trace_distance_dual_bound_is_below_every_separable_distance(
    dims, rank, weight, budget, seed
):
    # rho mixes a separable sigma with a random state, so T(rho, sigma) <= weight
    # and small weights test the bound close to the feasible set
    rng = np.random.default_rng(seed)
    sigma = random_separable(rng, *dims)
    noise = random_density(rng, dims, rank=min(rank, int(np.prod(dims))))
    rho = DensityMatrix(dims, (1.0 - weight) * sigma.data + weight * noise.data)
    # the iteration guard, patched here; a fixture would trip Hypothesis's health check
    with mock.patch.object(pptopt, "_MAX_ITERS", budget):
        res = min_trace_distance_ppt(rho, Bipartition((0,), (1,)))
    assert res.value - res.gap <= trace_distance(rho, sigma) + 1e-12
    other = random_separable(rng, *dims)
    assert res.value - res.gap <= trace_distance(rho, other) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    layout=st.sampled_from(
        [((2, 2), (0,)), ((2, 3), (0,)), ((2, 4), (0,)), ((3, 3), (0,)),
         ((2, 2, 2), (0,)), ((2, 2, 2), (0, 1)), ((2, 2, 2), (1,))]
    ),
    rank=st.integers(2, 9),
    real=st.booleans(),
    seed=_seeds,
)
def test_trace_distance_kernel_certifies_mixed_states_in_few_iterations(
    layout, rank, real, seed
):
    # every solve closes the gap within 20 iterations with a certificate
    # feasible to rounding, and its lower end holds against a separable state
    dims, left = layout
    n, D, k = len(dims), int(np.prod(dims)), min(rank, int(np.prod(dims)))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((D, k)) + (0 if real else 1j) * rng.standard_normal((D, k))
    rho = DensityMatrix(dims, a @ a.conj().T / np.sum(np.abs(a) ** 2))
    cut = Bipartition.of(left, n)
    res = min_trace_distance_ppt(rho, cut)
    assert res.converged and res.iterations <= 20
    assert max(res.residuals.values()) <= 1e-12
    # a separable state across the cut, built in (left, right) order and
    # permuted back to the subsystem order of dims
    order = list(cut.left + cut.right)
    d_left = int(np.prod([dims[i] for i in cut.left]))
    sigma = random_separable(rng, d_left, D // d_left).data
    back = np.argsort(order)
    sigma = sigma.reshape([dims[i] for i in order] * 2).transpose([*back, *(back + n)])
    sigma = DensityMatrix(dims, sigma.reshape(D, D))
    assert res.value - res.gap <= trace_distance(rho, sigma) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]),
    real=st.booleans(),
    sectors=st.booleans(),
    data=st.data(),
    seed=_seeds,
)
def test_trace_distance_kernel_starts_a_margin_inside_every_cone(dims, real, sectors, data, seed):
    # the start blocks P - rho + I/D, P, I/D and (I/D)^Gamma, with
    # P = (rho - I/D)_+ + I/(10 D), are each at least I/(10 D), for states
    # of every rank; with sectors, rho is pinched by the charge sum_s c_s[i_s]
    # of a torus of local diagonal unitaries, so the kernel keeps fewer entries
    D = int(np.prod(dims))
    rank = data.draw(st.integers(1, D), label="rank")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((D, rank)) + (0 if real else 1j) * rng.standard_normal((D, rank))
    m = a @ a.conj().T
    if sectors:
        charge = reduce(np.add.outer, [rng.integers(0, 3, d) for d in dims]).reshape(-1)
        m = m * (charge[:, None] == charge[None, :])
    rho = DensityMatrix(dims, m / np.trace(m).real)
    kernel, starts = pptopt._interior_point, []

    def recording_kernel(coords, C, b, z, *rest):
        starts.append(C + coords.lin(z))
        return kernel(coords, C, b, z, *rest)

    with mock.patch.object(pptopt, "_interior_point", recording_kernel):
        min_trace_distance_ppt(rho, Bipartition.of((0,), len(dims)))
    least = np.linalg.eigvalsh(starts[0])[:, 0]
    assert least.min() >= 1.0 / (10 * D) - 1e-12
    # and Tr P is 1/10 above its least value T(rho, I/D) for sigma = I/D
    centre = DensityMatrix(dims, np.eye(D) / D)
    assert abs(np.trace(starts[0][1]).real - trace_distance(rho, centre) - 0.1) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(
        [((2, 2), (0,)), ((2, 3), (0,)), ((2, 3), (1,)), ((3, 3), (0,)), ((2, 2, 2), (0, 2))]
    ),
    real=st.booleans(),
    kept=st.sampled_from(["all", "sectors", "none"]),
    blocks=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=4),
    data=st.data(),
    seed=_seeds,
)
def test_kernel_map_matches_its_definition_and_its_adjoint(
    layout, real, kept, blocks, data, seed
):
    # L(v)_k sums blocks[k, g] H_g over the groups g, partially transposed
    # where transposed[k], with H_g the matrix of group g's coordinates over
    # the basis of _Coords: diag(W[:, c]), then sqrt(2) Re and sqrt(2) Im of
    # each kept entry; and <L v, Y> = <v, L* Y> with <A, B> = Re Tr(A B).
    # L* reads each block's diagonal and the entries above it (in the
    # partially transposed frame where transposed[k]), bit for bit
    dims, left = layout
    transposed = data.draw(
        st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)), label="transposed"
    )
    rng = np.random.default_rng(seed)
    D = int(np.prod(dims))
    i, j = np.triu_indices(D, 1)
    sector = {"all": np.zeros(D), "sectors": rng.integers(0, 3, D), "none": np.arange(D)}[kept]
    inside = sector[i] == sector[j]
    i, j = i[inside], j[inside]
    blocks = np.array(blocks, bool)
    coords = _Coords(dims, left, real, (i, j), blocks, transposed)
    n, h, s = coords.n, i.size, 2**-0.5
    basis = np.zeros((n, D, D), coords.dtype)
    for c in range(D):
        basis[c] = np.diag(coords.W[:, c])
    for t, (a, b) in enumerate(zip(i, j)):
        basis[D + t, a, b] = basis[D + t, b, a] = s
        if not real:
            basis[D + h + t, a, b], basis[D + h + t, b, a] = 1j * s, -1j * s
    lin, adj = coords.lin, coords.adj
    v = rng.standard_normal(blocks.shape[1] * n - 1)
    H = np.tensordot(np.concatenate([[0.0], v]).reshape(-1, n), basis, axes=1)
    expected = np.tensordot(blocks.astype(float), H, axes=1)
    for k in np.flatnonzero(transposed):
        expected[k] = _pt_array(expected[k], dims, left)
    np.testing.assert_allclose(lin(v), expected, rtol=0, atol=1e-13)
    g = rng.standard_normal((len(blocks), D, D)) + (0 if real else 1j) * rng.standard_normal(
        (len(blocks), D, D)
    )
    Y = g + g.conj().transpose(0, 2, 1)
    inner = float(np.sum(lin(v).conj() * Y).real)
    assert abs(inner - v @ adj(Y)) <= 1e-12 * (1.0 + abs(inner))
    # a non-Hermitian g with its lower triangle replaced by the conjugates of
    # its upper one leaves L* unchanged
    framed = [_pt_array(a, dims, left) if t else a for a, t in zip(g, transposed)]
    upper = [np.triu(a) + np.triu(a, 1).conj().T for a in framed]
    mirrored = np.stack([_pt_array(a, dims, left) if t else a for a, t in zip(upper, transposed)])
    assert adj(g).tobytes() == adj(mirrored).tobytes()


def _sectored_state(dims, charges, real, seed):
    """A random state whose entries (a, b) are zero unless a and b have equal
    charges ``sum_s theta_s[a_s]`` for each row theta of ``charges``, one
    integer per level.  Each block of equal charges is a dense Wishart draw,
    or with odds 1 in 3 its diagonal, so that a sector can be finer than the
    charges or hold states that no chain of nonzero entries joins.  Returns
    the state and the (D, D) pattern of equal charges."""
    D = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    offsets = np.cumsum((0,) + dims[:-1])
    levels = np.stack(np.unravel_index(np.arange(D), dims), axis=1) + offsets
    q = np.asarray(charges)[:, levels].sum(axis=2).T
    equal = np.all(q[:, None, :] == q[None, :, :], axis=2)
    block = np.unique(q, axis=0, return_inverse=True)[1].reshape(-1)
    dense = rng.random(block.max() + 1) >= 1 / 3
    a = rng.standard_normal((D, D)) + (0 if real else 1j) * rng.standard_normal((D, D))
    m = np.where(equal & dense[block][:, None] | np.eye(D, dtype=bool), a @ a.conj().T, 0.0)
    return DensityMatrix(dims, m / np.trace(m).real), equal


def _charges(data, dims):
    n_levels = int(sum(dims))
    level = st.lists(st.integers(-2, 2), min_size=n_levels, max_size=n_levels)
    return data.draw(st.lists(level, min_size=1, max_size=2), label="charges")


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2)]),
    real=st.booleans(),
    data=st.data(),
    seed=_seeds,
)
def test_sectors_match_a_float_svd_oracle_of_the_torus(dims, real, data, seed):
    # on states block diagonal in random sectors the exact finder agrees with
    # the float oracle, and its sectors refine the charges drawn
    rho, equal = _sectored_state(dims, _charges(data, dims), real, seed)
    sector = _sectors(rho.data, dims)
    same = sector[:, None] == sector[None, :]
    assert np.array_equal(same, same_torus_sector(rho.data, dims))
    assert not np.any(same & ~equal)


@settings(max_examples=15, deadline=None)
@given(
    layout=st.sampled_from([((2, 2), (0,)), ((2, 3), (0,)), ((2, 2, 2), (0,)), ((2, 2, 2), (1,))]),
    real=st.booleans(),
    data=st.data(),
    seed=_seeds,
)
def test_sector_solve_matches_the_solve_of_a_rotated_copy(layout, real, data, seed):
    # a local rotation keeps F(cut), so the least trace distance, and leaves
    # one sector, so it runs the full program; both solves certify, and
    # their values agree within the two gaps (and 1e-12 of rounding)
    dims, left = layout
    rho, _ = _sectored_state(dims, _charges(data, dims), real, seed)
    rotated = _rotate(rho, _local_unitary(np.random.default_rng(seed), dims))
    assert _sectors(rotated.data, dims).max() == 0
    cut = Bipartition.of(left, len(dims))
    a, b = min_trace_distance_ppt(rho, cut), min_trace_distance_ppt(rotated, cut)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.gap + b.gap + 1e-12


def _random_amplitudes(rng, dims, real):
    D = int(np.prod(dims))
    amps = rng.standard_normal(D) + (0 if real else 1j) * rng.standard_normal(D)
    return amps / np.linalg.norm(amps)


@settings(max_examples=40, deadline=None)
@given(
    layout=st.sampled_from(
        [((2, 2), (0,)), ((2, 3), (0,)), ((3, 3), (0,)), ((2, 2, 2), (0,)), ((2, 2, 2), (0, 1))]
    ),
    real=st.booleans(),
    seed=_seeds,
)
def test_overlap_bracket_contains_the_schmidt_value(layout, real, seed):
    # [value, value + gap] must hold s_1^2: value is the overlap of a feasible
    # certificate and value + gap is s_1^2 computed in closed form
    dims, left = layout
    amps = _random_amplitudes(np.random.default_rng(seed), dims, real)
    res = max_overlap_ppt(PureState(dims, amps), Bipartition.of(left, len(dims)))
    exact = schmidt_overlap(amps, dims, left)
    assert res.converged and res.gap <= 1e-12
    assert res.value - 1e-12 <= exact <= res.value + res.gap + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    layout=st.sampled_from(
        [((2, 3), (0,)), ((3, 3), (0,)), ((2, 2, 2), (0,)), ((2, 2, 2), (0, 1)),
         ((2, 2, 2, 2), (0, 2))]
    ),
    real=st.booleans(),
    seed=_seeds,
)
def test_overlap_certificate_meets_the_rains_bound(layout, real, seed):
    # Tr sigma P = Tr sigma^Gamma P^Gamma <= lambda_max(P^Gamma) on the PPT
    # set, so a certificate that reaches lambda_max(P^Gamma) is optimal; it
    # is a product across the cut, a pure state whose partial transpose is pure
    dims, left = layout
    amps = _random_amplitudes(np.random.default_rng(seed), dims, real)
    res = max_overlap_ppt(PureState(dims, amps), Bipartition.of(left, len(dims)))
    rains = np.linalg.eigvalsh(partial_transpose_einsum(np.outer(amps, amps.conj()), dims, left))
    assert abs(res.value - schmidt_overlap(amps, dims, left)) <= 1e-12
    assert abs(res.value - rains[-1]) <= 1e-12
    assert res.gap <= 1e-12
    sigma = res.certificate.data
    for m in (sigma, partial_transpose_einsum(sigma, dims, left)):
        assert np.count_nonzero(np.linalg.eigvalsh(m) > 1e-12) == 1


def _three_pass_check(dims, amplitudes):
    """The rules of the pure-state check before it read the squared norm from
    one vdot, kept here as the oracle: the message of the ``ValueError`` they
    raise, or None if they accept.  Finite, then length D, then
    ``|np.linalg.norm(v) - 1| <= 1e-12``."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if not np.isfinite(vec).all():
        return "amplitudes contain non-finite entries"
    D = int(np.prod(dims))
    if vec.shape != (D,):
        return f"amplitude length {vec.shape[0]} does not match dims {dims} (D={D})"
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-12:
        return f"state vector is not normalised: |norm - 1| = {abs(norm - 1.0):.3e}"
    return None


def _three_squares(n):
    """Non-negative a, b, c with a^2 + b^2 + c^2 = n, or None if there are none
    with a within 8 of isqrt(n)."""
    top = math.isqrt(n)
    for a in range(top, max(top - 8, -1), -1):
        for b in range(math.isqrt(n - a * a), -1, -1):
            c2 = n - a * a - b * b
            if c2 > b * b:
                break
            if math.isqrt(c2) ** 2 == c2:
                return a, b, math.isqrt(c2)
    return None


def _exact_amplitudes(rng, length, norm):
    """``length`` >= 2 amplitudes whose squared norm is the double nearest
    ``norm^2`` < 2, summed without rounding.  Every real and imaginary part is
    an integer times 2^-26 (four of them nonzero), so each product, fused or
    not, and each partial sum is a multiple of 2^-52 below 2, and exact.  The
    vdot and the norm of the oracle then see the same squared norm, and at a
    norm 1e-14 or more from the 1e-12 edge no rounding can put them on
    different sides of it or print them differently."""
    target = round(norm * norm * 2**52)
    top = math.isqrt(target)
    while (rest := _three_squares(target - top * top)) is None:
        top -= 1
    parts = np.zeros(2 * length, dtype=np.int64)
    parts[:4] = (top,) + rest
    parts *= rng.choice([-1, 1], size=parts.shape)
    rng.shuffle(parts)
    return (parts[::2] + 1j * parts[1::2]) * 2.0**-26


_NON_FINITE = [np.nan, np.inf, -np.inf, complex(np.inf, np.inf), complex(0, -np.inf),
               complex(np.nan, 1), complex(1, np.nan)]


@st.composite
def _amplitude_draws(draw):
    """Dims and amplitudes for the pure-state check: non-finite entries, huge
    finite ones whose squared norm overflows, subnormal ones, lengths that
    miss D, norms within 1e-14 of either side of the 1e-12 edge, and exact
    unit vectors."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    D = math.prod(dims)
    length = draw(st.sampled_from([D, D, 2, D - 1, D + 1, D + 5]))
    rng = np.random.default_rng(draw(_seeds))
    kind = draw(st.sampled_from(["edge", "non-finite", "huge", "subnormal", "random"]))
    if kind == "edge":
        offset = draw(st.sampled_from([0.0, 1e-12 - 1e-14, 1e-12 + 1e-14, 1e-6, 0.25]))
        norm = 1.0 + draw(st.sampled_from([-1, 1])) * offset
        vec = _exact_amplitudes(rng, max(length, 2), norm)
    elif kind == "subnormal":
        vec = rng.uniform(-1, 1, (length, 2)) * np.finfo(float).smallest_normal
        vec = vec[:, 0] + 1j * vec[:, 1]
        vec[0] = draw(st.sampled_from([0.0, 1.0, 1j]))
    else:
        vec = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        vec /= np.linalg.norm(vec)
        count = draw(st.integers(1, length))
        at = rng.choice(length, size=count, replace=False)
        if kind == "huge":  # each entry's square overflows, and so does the sum
            big = 10.0 ** rng.uniform(154.5, 308, count) * rng.choice([-1, 1], count)
            part = draw(st.sampled_from(["real", "imag", "both"]))
            if part != "imag":
                vec.real[at] = big
            if part != "real":  # both huge: np.vdot gives NaN, not inf
                vec.imag[at] = big[::-1]
        elif kind == "non-finite":
            vec[at] = [draw(st.sampled_from(_NON_FINITE)) for _ in range(count)]
    if not vec.imag.any() and draw(st.booleans()):
        vec = vec.real
    return dims, vec


@settings(max_examples=400, deadline=None)
@given(draw=_amplitude_draws())
def test_pure_state_check_matches_the_three_pass_rules(draw):
    # the one-pass check accepts and rejects exactly what the earlier rules
    # did, with the same message and the same precedence, and stores the
    # amplitudes as given
    dims, vec = draw
    expected = _three_pass_check(dims, vec)
    if expected is None:
        psi = PureState(dims, vec)
        assert psi.amplitudes.tobytes() == np.asarray(vec, dtype=complex).tobytes()
    else:
        with pytest.raises(ValueError) as raised:
            PureState(dims, vec)
        assert str(raised.value) == expected


@st.composite
def _classical_on_a(draw):
    """A's dims (a flag register or two subsystems), dB, dC, where each
    subsystem sits in the layout (A first or not), whether the blocks may be
    singular, and a numpy seed."""
    a_dims = draw(st.one_of(
        st.integers(2, 6).map(lambda d: (d,)), st.sampled_from([(2, 2), (2, 3), (3, 2)])
    ))
    db, dc = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    position = draw(st.permutations(range(len(a_dims) + 2)))
    return a_dims, db, dc, position, draw(st.booleans()), draw(_seeds)


def _flags(rng, da, m, singular):
    """sum_i p_i |i><i| (x) sigma_i as a (da m) x (da m) matrix in A, BC order,
    with random PSD blocks: of full rank and positive weight, or, if
    ``singular``, of random rank and with some weights zero."""
    weights = rng.random(da) + 0.1
    if singular:
        weights *= rng.random(da) > 0.3
        weights[rng.integers(da)] += 0.5
    mat = np.zeros((da * m, da * m), dtype=complex)
    for i, w in enumerate(weights):
        g = rng.standard_normal((m, rng.integers(1, m + 1) if singular else m))
        g = g + 1j * rng.standard_normal(g.shape)
        block = g @ g.conj().T
        mat[i * m : (i + 1) * m, i * m : (i + 1) * m] = w * block / np.trace(block).real
    return mat / weights.sum()


def _laid_out(mat, dims_abc, n_a, position):
    """A tripartite state from a matrix in A, B, C order, with subsystem k of
    that order moved to ``position[k]``."""
    n = len(dims_abc)
    source = [0] * n
    for k, j in enumerate(position):
        source[j] = k
    tensor = mat.reshape(dims_abc * 2).transpose(source + [n + k for k in source])
    D = mat.shape[0]
    rho = DensityMatrix(tuple(dims_abc[k] for k in source), tensor.reshape(D, D))
    return TripartiteState(rho, position[:n_a], (position[n_a],), (position[n_a + 1],))


def _off_a_blocks(state):
    """The entries of the validated state outside its diagonal blocks in A."""
    dims, n = state.dims, len(state.dims)
    order = [*state.a_indices, *state.b_indices, *state.c_indices]
    da = int(np.prod([dims[i] for i in state.a_indices]))
    m = state.state.dim // da
    arr = state.state.data.reshape(dims * 2).transpose(order + [n + i for i in order])
    off = arr.reshape(da, m, da, m).copy()
    off[range(da), :, range(da), :] = 0.0
    return off


@contextmanager
def _eigvalsh_sizes():
    """The matrix size of every ``np.linalg.eigvalsh`` call inside the block."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigvalsh", recording):
        yield sizes


def _report_values(report):
    return [
        report.witnesses["conditional_entropy"],
        report.witnesses["hashing_a_bc"],
        report.witnesses["log_negativity_ab_c"],
        report.fidelity_lower_bound,
        *(c.witness for c in report.criteria[:4]),
    ]


def _oracle_values(state):
    # the four spectral criteria read the conditional entropy, the hashing
    # witness twice and the hashing witness minus the log-negativity
    ce, hashing, log_neg, fid = report_numbers(state)
    return [ce, hashing, log_neg, fid, ce, hashing, hashing, hashing - log_neg]


def _check_against_oracle(state, oracle, largest):
    with _eigvalsh_sizes() as sizes:
        report = classify(state)
    assert max(sizes) == largest, sizes
    np.testing.assert_allclose(_report_values(report), oracle, rtol=0, atol=1e-12)
    return report


@settings(max_examples=60, deadline=None)
@given(layout=_classical_on_a())
def test_spectra_of_states_classical_on_a_match_oracle_and_a_rotation(layout):
    # block diagonal in A: every spectrum comes from blocks of at most dB dC;
    # a random unitary on A mixes the blocks and forces the single D x D block
    a_dims, db, dc, position, singular, seed = layout
    rng = np.random.default_rng(seed)
    da, m = int(np.prod(a_dims)), db * dc
    dims_abc = a_dims + (db, dc)
    mat = _flags(rng, da, m, singular)
    u = np.kron(haar_unitary(rng, da), np.eye(m))
    state = _laid_out(mat, dims_abc, len(a_dims), position)
    rotated = _laid_out(u @ mat @ u.conj().T, dims_abc, len(a_dims), position)
    # validation keeps a state that is PSD up to rounding bit for bit, so the
    # zeros off the A blocks survive even with singular blocks
    assert not _off_a_blocks(state).any()
    oracle = _oracle_values(state)
    report = _check_against_oracle(state, oracle, m)
    report_u = _check_against_oracle(rotated, oracle, da * m)
    assert report_u.verdict == report.verdict
    assert [c.holds for c in report_u.criteria] == [c.holds for c in report.criteria]


def test_one_tiny_entry_off_the_a_blocks_takes_the_single_block():
    # a 1e-300 coherence between A levels 0 and 2 breaks the exact block structure
    mat = _flags(np.random.default_rng(199), 3, 4, singular=False)
    mat[1, 9] = 1e-300
    state = _laid_out(mat, (3, 2, 2), 1, (0, 1, 2))
    off = _off_a_blocks(state)
    assert np.count_nonzero(off) == 2 and np.abs(off).max() == 0.5e-300
    _check_against_oracle(state, _oracle_values(state), 12)


def test_singular_states_classical_on_a_keep_the_block_path():
    # rank-deficient blocks and zero weights put eigenvalues at rounding level
    # below zero; validation must not rebuild those states from eigenvectors,
    # which spread rounding-sized entries off the A blocks (117 of these 120
    # states lost the block path that way)
    rng = np.random.default_rng(229)
    for a_dims in [(2,), (3,), (5,), (2, 2), (3, 2)]:
        n = len(a_dims) + 2
        for db, dc in [(2, 2), (2, 3), (3, 2)]:
            # A never first: after C, or with its first subsystem last
            for position in [[*range(1, n), 0], [n - 1, *range(n - 1)]]:
                for _ in range(4):
                    da, m = int(np.prod(a_dims)), db * dc
                    mat = _flags(rng, da, m, singular=True)
                    state = _laid_out(mat, a_dims + (db, dc), len(a_dims), position)
                    assert not _off_a_blocks(state).any(), (a_dims, db, dc, position)
                    _check_against_oracle(state, _oracle_values(state), m)


# A's layouts over one or two subsystems, by the number of flags
_FLAG_LAYOUTS = {15: [(15,), (3, 5), (5, 3)], 16: [(16,), (4, 4), (2, 8)]}


@st.composite
def _flagged_families(draw):
    """A flag count, A's layout, each subsystem's place in the layout, the
    off-block noise in units of tol, the last flag's weight (None for a
    random one), whether the last flag's block is diagonal with a
    rounding-level negative eigenvalue, whether one block is entangled, and
    a numpy seed."""
    flags = draw(st.sampled_from([15, 16]))
    a_dims = draw(st.sampled_from(_FLAG_LAYOUTS[flags]))
    return (
        a_dims,
        draw(st.permutations(range(len(a_dims) + 2))),
        draw(st.sampled_from([0.0, 0.5, 2.0])),
        draw(st.sampled_from([None, 2e-6, 5e-7])),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(_seeds),
    )


@settings(max_examples=100, deadline=None)
@given(family=_flagged_families())
def test_obstruction_in_classify_matches_a_direct_call_and_the_oracle(family):
    # classify hands the obstruction the A-blocks and B:C partial-transpose
    # spectra of its own pass only when the state is exactly classical on A;
    # with off-block entries of 0.5 tol or 2 tol the check finds the blocks
    # itself.  Either way its row must match a direct call and the oracle.
    a_dims, position, noise, tiny, negative, entangled, seed = family
    rng = np.random.default_rng(seed)
    tol = 1e-9
    da = int(np.prod(a_dims))
    weights = rng.random(da) + 0.1
    if tiny is not None:
        weights[-1] = tiny * (weights.sum() - weights[-1]) / (1.0 - tiny)
    weights /= weights.sum()
    mat = np.zeros((4 * da, 4 * da), dtype=complex)
    for i, w in enumerate(weights):
        # the identity mixed in keeps every block far from singular, so the
        # off-block noise between flags 0 and 1 leaves the state positive definite
        block = 0.5 * random_separable(rng, 2, 2).data + 0.125 * np.eye(4)
        mat[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = w * block
    if entangled:  # flag 2 holds a Bell state: not PPT across B:C
        bell = np.zeros((4, 4))
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        mat[8:12, 8:12] = weights[2] * bell
    if negative:
        # w |00><00| - delta |11><11|, with delta a quarter of the eigenvalue
        # the constructor still keeps bit for bit (D eps max|lambda|)
        last = slice(4 * da - 4, 4 * da)
        mat[last, last] = np.diag([weights[-1], 0.0, 0.0, 0.0])
        delta = 0.25 * 4 * da * np.finfo(float).eps * np.linalg.eigvalsh(mat)[-1]
        mat[4 * da - 1, 4 * da - 1] = -delta
    if noise:
        k, l = rng.integers(4, size=2)
        mat[k, 4 + l] = mat[4 + l, k] = noise * tol
    state = _laid_out(mat, a_dims + (2, 2), len(a_dims), position)
    # validation keeps every entry as built
    off = _off_a_blocks(state)
    assert np.abs(off).max() == noise * tol
    if negative:
        assert np.linalg.eigvalsh(state.state.data)[0] < 0.0
    passed = []
    direct = classify_mod.check_sep_family_obstruction

    def recording(*args, **kwargs):
        passed.append(kwargs.get("_a_blocks_pt"))
        return direct(*args, **kwargs)

    with mock.patch.object(classify_mod, "check_sep_family_obstruction", recording):
        row = classify(state, tol).criteria[-1]
    assert row.name == "separable_family_obstruction"
    assert [p is not None for p in passed] == [noise == 0.0]
    want = sep_family_obstruction(
        state.state.data, state.dims, state.a_indices, state.b_indices, state.c_indices, tol
    )
    alone = direct(state, tol)
    assert (row.holds, row.witness) == (alone.holds, alone.witness) == want
    if noise > 1.0 or entangled or tiny == 5e-7:
        assert want == (False, None)


@contextmanager
def _eigen_solver_inputs():
    """Every matrix passed to ``np.linalg.eigvalsh`` or ``np.linalg.eigh`` inside the block."""
    inputs = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            inputs.append(np.asarray(a))
            return fn(a, *args, **kwargs)

        return wrapped

    with mock.patch.object(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh)), \
            mock.patch.object(np.linalg, "eigh", recording(np.linalg.eigh)):
        yield inputs


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_hermitian_part_is_idempotent_bit_for_bit(n, data):
    # real and imaginary parts of -0.0 keep their signs, so the Hermitian
    # part of a Hermitian part is itself, bit for bit
    part = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
    parts = data.draw(st.lists(part, min_size=2 * n * n, max_size=2 * n * n), label="parts")
    H = _herm(np.array(parts).view(complex).reshape(n, n))
    assert _herm(H).tobytes() == H.tobytes()


def _bit_hermitian(m):
    return np.array_equal(m, m.conj().swapaxes(-1, -2))


def _wishart(rng, dims, rank, real):
    D = int(np.prod(dims))
    a = rng.standard_normal((D, rank)) + (0 if real else 1j) * rng.standard_normal((D, rank))
    return DensityMatrix(dims, a @ a.conj().T / np.sum(np.abs(a) ** 2))


# The eigen-solves below take partial traces, partial transposes, A-blocks and
# differences of validated states as they come: the constructor stores a
# bit-Hermitian matrix, and each of those operations keeps it bit-Hermitian.
@settings(max_examples=60, deadline=None)
@given(
    layout=_layouts(), flags=_classical_on_a(), classical=st.booleans(),
    real=st.booleans(), seed=_seeds,
)
def test_classify_solves_only_bit_hermitian_matrices(layout, flags, classical, real, seed):
    rng = np.random.default_rng(seed)
    if classical:
        a_dims, db, dc, position, singular, _ = flags
        mat = _flags(rng, int(np.prod(a_dims)), db * dc, singular)
        state = _laid_out(mat.real if real else mat, a_dims + (db, dc), len(a_dims), position)
    else:
        dims, parties, rank = layout
        state = TripartiteState(_wishart(rng, dims, rank, real), *parties)
    with _eigen_solver_inputs() as inputs:
        classify(state)
    assert len(inputs) == 6
    assert all(_bit_hermitian(m) for m in inputs)


@settings(max_examples=60, deadline=None)
@given(dims=_dims, rank=st.integers(1, 4), real=st.booleans(), data=st.data(), seed=_seeds)
def test_measures_solve_only_bit_hermitian_matrices(dims, rank, real, data, seed):
    rng = np.random.default_rng(seed)
    cut = _cut(data, len(dims))
    rho = _wishart(rng, dims, rank, real)
    sigma = _wishart(rng, dims, int(np.prod(dims)), real)
    with _eigen_solver_inputs() as inputs:
        log_negativity(rho, cut)
        hashing_witness(rho, cut)
        mutual_information(rho, cut)
        trace_distance(rho, sigma)
        fidelity(rho, sigma)
    # one spectrum each for log_negativity and trace_distance, three each for
    # hashing_witness and mutual_information, and two eigh for fidelity
    assert len(inputs) == 10
    assert all(_bit_hermitian(m) for m in inputs)
