"""Hypothesis properties of the partial transpose, measures, witnesses, classifier
and trace-distance dual bound.

Hypothesis draws the layouts, ranks and seeds; numpy draws the states.
"""

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pptmerge import (
    VERDICTS,
    Bipartition,
    DensityMatrix,
    InconsistentCriteriaError,
    PptOptConfig,
    TripartiteState,
    classify,
    conditional_entropy,
    fidelity,
    hashing_witness,
    is_ppt,
    log_negativity,
    mutual_information,
    min_trace_distance_ppt,
    negativity_witness,
    partial_transpose,
    trace_distance,
    von_neumann_entropy,
)
from pptmerge.classify import fidelity_lower_bound
from pptmerge.core import _pt_array
from helpers import haar_unitary, random_density, random_separable

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
    assert abs(fidelity_lower_bound(state_u) - fidelity_lower_bound(state)) < 1e-8


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
    budget=st.sampled_from([300, 2000]),
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
    res = min_trace_distance_ppt(rho, Bipartition((0,), (1,)), PptOptConfig(max_iters=budget))
    assert res.value - res.gap <= trace_distance(rho, sigma) + 1e-12
    other = random_separable(rng, *dims)
    assert res.value - res.gap <= trace_distance(rho, other) + 1e-12
