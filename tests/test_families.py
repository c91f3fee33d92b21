"""Named state constructors and their certificates."""

import numpy as np
import pytest

import pptmerge.families as families
from pptmerge import (
    Bipartition,
    DensityMatrix,
    GenerationError,
    classical_correlated,
    conditional_entropy,
    ghz,
    hashing_witness,
    is_ppt,
    mutual_information,
    partial_trace,
    perturb,
    phi_plus,
    product_example,
    product_pure,
    rank_of_family,
    robust_vanishing_family,
    sep_no_merge_family,
)
from pptmerge.families import SEP_FAMILY_BLOCKS, SEP_FAMILY_WEIGHT_FLOOR
from helpers import random_density

# Noise level where the hashing witness of robust_vanishing_family changes
# sign, found by bisection to 1e-12 and frozen here.
P_MAX = 0.317068894939


def test_phi_plus():
    psi = phi_plus()
    assert psi.dims == (2, 2)
    np.testing.assert_allclose(
        psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
    )


def test_ghz():
    t = ghz()
    assert t.dims == (2, 2, 2)
    assert t.state.is_pure()
    # every single-party margin is fully mixed
    for party in ((0,), (1,), (2,)):
        reduced = partial_trace(t.state, party)
        np.testing.assert_allclose(reduced.data, np.eye(2) / 2, atol=1e-12)


def test_classical_correlated():
    t = classical_correlated()
    diag = np.real(np.diag(t.state.data))
    assert abs(diag[0] - 0.5) < 1e-14 and abs(diag[7] - 0.5) < 1e-14
    assert abs(np.sum(diag) - 1.0) < 1e-14
    assert np.max(np.abs(t.state.data - np.diag(diag))) < 1e-14
    assert abs(mutual_information(t.state, t.cut_a_bc()) - 1.0) < 1e-9


def test_product_pure_has_no_correlations():
    t = product_pure((1.0, 1.0), (1.0, 0.0), (0.3, 0.4j))
    for cut in (t.cut_a_bc(), t.cut_ab_c()):
        assert abs(mutual_information(t.state, cut)) < 1e-9
    # inputs are normalised before use
    t2 = product_pure((2.0, 2.0), (1.0, 0.0), (0.3, 0.4j))
    np.testing.assert_allclose(t.state.data, t2.state.data, atol=1e-12)
    with pytest.raises(ValueError):
        product_pure((0.0, 0.0), (1.0, 0.0), (1.0, 0.0))


def test_product_example_layout():
    t = product_example(phi_plus())
    assert t.dims == (2, 2, 2)
    c = partial_trace(t.state, t.c_indices)
    np.testing.assert_allclose(c.data, np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(ValueError):
        product_example(families.PureState((2, 2, 2), np.eye(8)[0]))


def test_sep_no_merge_family_structure():
    t = sep_no_merge_family(0)
    m = SEP_FAMILY_BLOCKS
    assert t.dims == (m, 2, 2)
    assert t.a_indices == (0,) and t.b_indices == (1,) and t.c_indices == (2,)
    data = t.state.data
    blocks = []
    weights = []
    for i in range(m):
        blk = data[4 * i : 4 * i + 4, 4 * i : 4 * i + 4]
        w = float(np.trace(blk).real)
        weights.append(w)
        blocks.append(DensityMatrix((2, 2), blk / w))
    # block-diagonal with every classical weight at or above the floor
    off = data.copy()
    for i in range(m):
        off[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = 0.0
    assert np.max(np.abs(off)) == 0.0
    assert min(weights) >= SEP_FAMILY_WEIGHT_FLOOR - 1e-12
    assert abs(sum(weights) - 1.0) < 1e-12
    # the certificate: full Bloch rank, every block PPT across B:C
    assert rank_of_family(blocks) == m
    cut = Bipartition((0,), (1,))
    assert all(is_ppt(b, cut, tol=1e-10) for b in blocks)
    # merging here costs classical communication, not entanglement
    assert conditional_entropy(t) > 0.1


def test_sep_no_merge_family_deterministic():
    a = sep_no_merge_family(5)
    b = sep_no_merge_family(5)
    assert np.array_equal(a.state.data, b.state.data)
    c = sep_no_merge_family(6)
    assert not np.array_equal(a.state.data, c.state.data)


def test_sep_no_merge_family_seed_must_be_an_integer():
    # True used to run as seed 1, and 1.5 failed inside numpy with a TypeError
    for seed in (True, 1.5, "1"):
        with pytest.raises(ValueError, match="expected integers"):
            sep_no_merge_family(seed)
    a, b = sep_no_merge_family(np.int64(5)), sep_no_merge_family(5)
    assert np.array_equal(a.state.data, b.state.data)


def test_sep_no_merge_family_retry_exhaustion(monkeypatch):
    monkeypatch.setattr(families, "_family_rank", lambda stack: 14)
    with pytest.raises(GenerationError, match="100 attempts"):
        sep_no_merge_family(0)


def test_random_separable_two_qubit():
    sample = families._random_separable_two_qubit
    a = sample(np.random.default_rng(42), 4)
    b = sample(np.random.default_rng(42), 4)
    np.testing.assert_array_equal(a, b)  # deterministic for one generator state
    c = sample(np.random.default_rng(43), 4)
    assert not np.array_equal(a, c)
    for seed in range(20):
        rho = DensityMatrix((2, 2), sample(np.random.default_rng(seed), 4))
        assert is_ppt(rho, Bipartition((0,), (1,)), tol=1e-10)
        assert is_ppt(rho, Bipartition((1,), (0,)), tol=1e-10)
    assert DensityMatrix((2, 2), sample(np.random.default_rng(7), 1)).is_pure()


def test_robust_vanishing_family_invariants():
    t = robust_vanishing_family(0.1)
    assert t.dims == (2, 2, 2)
    # the construction is exactly invariant under transposing C
    from pptmerge.core import _pt_array

    pt_c = _pt_array(t.state.data, t.dims, (2,))
    assert np.array_equal(pt_c, t.state.data)
    with pytest.raises(ValueError):
        robust_vanishing_family(-0.1)
    with pytest.raises(ValueError):
        robust_vanishing_family(1.1)


def test_robust_vanishing_family_ppt_for_all_noise_levels():
    cut = Bipartition((0, 1), (2,))
    for p in np.linspace(0.0, 1.0, 101):
        t = robust_vanishing_family(float(p))
        assert is_ppt(t.state, cut, tol=1e-10)


def test_robust_vanishing_witness_threshold():
    cut_a_bc = Bipartition((0,), (1, 2))

    def witness(p):
        return hashing_witness(robust_vanishing_family(p).state, cut_a_bc).value

    assert witness(0.1) > 0.5  # comfortably positive deep inside
    assert witness(P_MAX - 1e-6) > 0.0
    assert witness(P_MAX + 1e-6) < 0.0
    # re-derive the frozen threshold by bisection
    lo, hi = 0.2, 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if witness(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - P_MAX) < 1e-9


def test_perturb():
    t = robust_vanishing_family(0.1)
    rng = np.random.default_rng(137)
    direction = random_density(rng, (2, 2, 2))
    moved = perturb(t, direction, 1e-3)
    assert moved.dims == t.dims
    assert moved.a_indices == t.a_indices
    delta = np.max(np.abs(moved.state.data - t.state.data))
    assert 0.0 < delta < 1e-2
    with pytest.raises(ValueError):
        perturb(t, direction, -0.5)
    with pytest.raises(ValueError):
        perturb(t, random_density(rng, (2, 2)), 1e-3)


def test_perturb_within_separable_states_stays_ppt():
    base = sep_no_merge_family(0)
    other = sep_no_merge_family(1)
    moved = perturb(base, other.state, 1e-3)
    for cut in (moved.cut_ab_c(), moved.cut_a_bc()):
        assert is_ppt(moved.state, cut, tol=1e-10)
