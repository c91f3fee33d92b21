"""Bloch rank of a state family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptmerge import DensityMatrix, rank_of_family
from helpers import haar_unitary, random_density, random_separable


def test_rank_of_family_examples():
    eye = DensityMatrix((2, 2), np.eye(4) / 4)
    assert rank_of_family([eye]) == 0  # the fully mixed state has no direction
    rng = np.random.default_rng(127)
    fam = [random_density(rng, (2, 2)) for _ in range(6)]
    assert rank_of_family(fam) == 6
    assert rank_of_family(fam + [eye]) == 6  # adding I/d adds no direction
    assert rank_of_family(list(reversed(fam))) == 6  # order independent
    # a repeated state adds nothing either
    assert rank_of_family(fam + [fam[0]]) == 6


def test_rank_of_family_separable_products():
    rng = np.random.default_rng(137)
    fam = [random_separable(rng, 2, 2, terms=1) for _ in range(15)]
    assert rank_of_family(fam) == 15


@pytest.mark.parametrize("k", [1, 2, 19, 20, 21, 400])
def test_rank_of_family_computational_projectors_in_d20(k):
    # |i><i| - I/d for i < d sum to zero, so d projectors span only d - 1
    # directions; d = 20 is above the old 16-dimension basis cap
    d = 20
    projectors = [DensityMatrix((d,), np.diag(row)) for row in np.eye(d)]
    assert rank_of_family([projectors[i % d] for i in range(k)]) == min(k, d - 1)


def test_rank_of_family_validation():
    with pytest.raises(ValueError):
        rank_of_family([])
    rng = np.random.default_rng(131)
    with pytest.raises(ValueError):
        rank_of_family([random_density(rng, (2,)), random_density(rng, (3,))])
    too_many = [random_density(rng, (2,)) for _ in range(5)]
    with pytest.raises(ValueError, match="cap"):
        rank_of_family(too_many)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_rank_of_family_invariant_under_permutation_and_common_unitary(d, data, seed):
    # Hypothesis draws the sizes and the seed; numpy draws the states.
    # Members are mixtures of a few generators, so the rank is often below full.
    k = data.draw(st.integers(1, d * d), label="members")
    generators = data.draw(st.integers(1, k), label="generators")
    rng = np.random.default_rng(seed)
    gens = np.array([random_density(rng, (d,)).data for _ in range(generators)])
    family = [
        DensityMatrix((d,), np.tensordot(rng.dirichlet(np.ones(generators)), gens, axes=1))
        for _ in range(k)
    ]
    rank = rank_of_family(family)
    assert 0 < rank <= min(generators, d * d - 1)
    assert rank_of_family([family[i] for i in rng.permutation(k)]) == rank
    u = haar_unitary(rng, d)
    assert rank_of_family([DensityMatrix((d,), u @ s.data @ u.conj().T) for s in family]) == rank
