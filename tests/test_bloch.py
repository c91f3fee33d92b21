"""Operator basis, Bloch coordinates and family rank."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptmerge import (
    Bipartition,
    BlochVector,
    DensityMatrix,
    bloch_coords,
    from_bloch,
    gell_mann_basis,
    is_ppt,
    random_separable_two_qubit,
    rank_of_family,
)
from pptmerge.bloch import _bloch_rows
from helpers import haar_unitary, random_density

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_basis_counts_and_orthogonality():
    for d in (2, 3, 4, 9, 16):
        basis = gell_mann_basis(d)
        assert basis.dim == d
        assert len(basis.elements) == d * d - 1
        assert basis.orthogonality_defect < 1e-12
        for g in basis.elements:
            assert abs(np.trace(g)) < 1e-12
            assert np.max(np.abs(g - g.conj().T)) < 1e-12


def test_basis_norm_sum():
    # with Tr(G_i^2) = 2 the squared norms add to 2 (d^2 - 1)
    for d in (2, 3, 5):
        basis = gell_mann_basis(d)
        total = sum(np.real(np.trace(g @ g)) for g in basis.elements)
        assert abs(total - 2.0 * (d * d - 1)) < 1e-10


def test_basis_dim_two_is_pauli():
    basis = gell_mann_basis(2)
    np.testing.assert_array_equal(basis.elements[0], PAULI_X)
    np.testing.assert_array_equal(basis.elements[1], PAULI_Y)
    np.testing.assert_array_equal(basis.elements[2], PAULI_Z)


def test_basis_is_cached_and_read_only():
    assert gell_mann_basis(4) is gell_mann_basis(4)
    with pytest.raises(ValueError):
        gell_mann_basis(4).elements[0][0, 0] = 1.0


def test_basis_dimension_bounds():
    with pytest.raises(ValueError):
        gell_mann_basis(1)
    with pytest.raises(ValueError):
        gell_mann_basis(17)


def test_bloch_coords_of_basis_states():
    up = DensityMatrix((2,), np.diag([1.0, 0.0]))
    np.testing.assert_allclose(bloch_coords(up).coords, [0.0, 0.0, 1.0], atol=1e-12)
    mixed = DensityMatrix((2,), np.eye(2) / 2)
    np.testing.assert_allclose(bloch_coords(mixed).coords, [0.0, 0.0, 0.0], atol=1e-12)


def test_bloch_coords_linear():
    rng = np.random.default_rng(107)
    for _ in range(10):
        a = random_density(rng, (2, 2))
        b = random_density(rng, (2, 2))
        lam = float(rng.uniform(0.1, 0.9))
        mix = DensityMatrix((2, 2), lam * a.data + (1 - lam) * b.data)
        want = lam * bloch_coords(a).coords + (1 - lam) * bloch_coords(b).coords
        np.testing.assert_allclose(bloch_coords(mix).coords, want, atol=1e-10)


def test_bloch_round_trip():
    rng = np.random.default_rng(109)
    for dims in [(2,), (3,), (2, 2), (2, 2, 2)]:
        rho = random_density(rng, dims)
        back = from_bloch(bloch_coords(rho), dims=dims)
        np.testing.assert_allclose(back.data, rho.data, atol=1e-10)
        assert back.dims == dims


def test_bloch_vector_validation():
    with pytest.raises(ValueError):
        BlochVector(2, np.zeros(4))  # needs 3 coordinates
    v = BlochVector(2, np.zeros(3))
    with pytest.raises(ValueError):
        v.coords[0] = 1.0


def test_from_bloch_rejects_non_states():
    # a Bloch vector of length > 1 for a qubit leaves the state space
    with pytest.raises(ValueError):
        from_bloch(BlochVector(2, np.array([0.0, 0.0, 1.5])))


def test_bloch_coords_dimension_cap():
    rho = random_density(np.random.default_rng(113), (2, 16))
    with pytest.raises(ValueError, match="cap"):
        bloch_coords(rho)


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
    fam = [random_separable_two_qubit(seed, mixing_terms=1) for seed in range(15)]
    assert rank_of_family(fam) == 15


def test_rank_of_family_validation():
    with pytest.raises(ValueError):
        rank_of_family([])
    rng = np.random.default_rng(131)
    with pytest.raises(ValueError):
        rank_of_family([random_density(rng, (2,)), random_density(rng, (3,))])
    too_many = [random_density(rng, (2,)) for _ in range(5)]
    with pytest.raises(ValueError, match="cap"):
        rank_of_family(too_many)


def test_random_separable_two_qubit():
    a = random_separable_two_qubit(42)
    b = random_separable_two_qubit(42)
    np.testing.assert_array_equal(a.data, b.data)  # deterministic
    c = random_separable_two_qubit(43)
    assert not np.array_equal(a.data, c.data)
    cut = Bipartition((0,), (1,))
    for seed in range(20):
        rho = random_separable_two_qubit(seed)
        assert is_ppt(rho, cut, tol=1e-10)
        assert is_ppt(rho, Bipartition((1,), (0,)), tol=1e-10)
    pure = random_separable_two_qubit(7, mixing_terms=1)
    assert pure.is_pure()
    with pytest.raises(ValueError):
        random_separable_two_qubit(0, mixing_terms=0)


# Hypothesis draws the dimensions, sizes and seeds; numpy draws the states.
_dims = st.sampled_from([(2,), (3,), (2, 2), (5,), (2, 3), (2, 2, 2), (16,)])
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(dims=_dims, k=st.integers(1, 6), seed=_seeds)
def test_bloch_rows_of_a_stack_match_bloch_coords(dims, k, seed):
    rng = np.random.default_rng(seed)
    states = [random_density(rng, dims, rank=int(rng.integers(1, 4))) for _ in range(k)]
    rows = _bloch_rows(np.array([s.data for s in states]))
    assert rows.shape == (k, states[0].dim ** 2 - 1)
    for row, state in zip(rows, states):
        np.testing.assert_allclose(row, bloch_coords(state).coords, rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(dims=_dims, rank=st.integers(1, 4), seed=_seeds)
def test_from_bloch_round_trips_bloch_coords(dims, rank, seed):
    rho = random_density(np.random.default_rng(seed), dims, rank=rank)
    back = from_bloch(bloch_coords(rho), dims=dims)
    assert back.dims == rho.dims
    np.testing.assert_allclose(back.data, rho.data, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), data=st.data(), seed=_seeds)
def test_rank_of_family_invariant_under_permutation_and_common_unitary(d, data, seed):
    # members are mixtures of a few generators, so the rank is often below full
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
