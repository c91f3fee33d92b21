"""Named state constructors and their certificates."""

import hashlib

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
from helpers import python_calls, random_density

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


def test_product_pure_rejects_amplitudes_whose_norm_overflows():
    # np.linalg.norm warned "overflow encountered in dot" before raising, and
    # pytest turns that RuntimeWarning into an error
    for bad in [(1e308, 1e308), (1e200, 0.0), (np.inf, 0.0), (np.nan, 1.0)]:
        with pytest.raises(ValueError, match="non-zero finite"):
            product_pure(bad, (1.0, 0.0), (1.0, 0.0))
    big = product_pure((1e150, 1e150), (1.0, 0.0), (1.0, 0.0))
    np.testing.assert_allclose(big.state.data, product_pure((1, 1), (1, 0), (1, 0)).state.data, atol=1e-15)


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


def test_sep_no_merge_family_rejects_a_negative_seed_before_any_draw(monkeypatch):
    # numpy's default_rng(-1) used to fail with a bare "expected non-negative
    # integer" that did not name the seed
    def no_draw(*args):
        raise AssertionError("drew before the seed check")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for seed in (-1, np.int64(-7), -(2**70)):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}$"):
            sep_no_merge_family(seed)


def test_sep_no_merge_family_retry_exhaustion(monkeypatch):
    monkeypatch.setattr(families, "_family_rank", lambda stack: 14)
    with pytest.raises(GenerationError, match="100 attempts"):
        sep_no_merge_family(0)


def test_random_separable_two_qubit():
    sample = families._separable_blocks
    a = sample(np.random.default_rng(42), 3, 4)
    b = sample(np.random.default_rng(42), 3, 4)
    np.testing.assert_array_equal(a, b)  # deterministic for one generator state
    c = sample(np.random.default_rng(43), 3, 4)
    assert not np.array_equal(a, c)
    # each block draws all it needs before the next one starts
    np.testing.assert_array_equal(sample(np.random.default_rng(42), 1, 4)[0], a[0])
    for seed in range(20):
        for blk in sample(np.random.default_rng(seed), 2, 4):
            rho = DensityMatrix((2, 2), blk)
            assert is_ppt(rho, Bipartition((0,), (1,)), tol=1e-10)
            assert is_ppt(rho, Bipartition((1,), (0,)), tol=1e-10)
    assert DensityMatrix((2, 2), sample(np.random.default_rng(7), 1, 1)[0]).is_pure()


# SHA-256 of sep_no_merge_family(seed).state.data as built one block, one ket
# and one term at a time (numpy 2.4 with OpenBLAS, x86-64).  The seed
# contract covers the bits: the same draws in the same order, the same
# operations on them.
_FAMILY_SHA256 = {
    0: "a1bd77200a227a5a02e5ccf28737a6f6e01656c5a87d4c243c05c2c10cdd97ac",
    7: "d4ea56508e0d93eab82a652b367bcd5a146cd17808a34f826173066c554964dc",
    11: "7bb66ed06b22f825c0484c0c133fff11769f952af899458a2299ffe3dbb04fc8",
}


def test_sep_no_merge_family_bits_are_pinned():
    for seed, digest in _FAMILY_SHA256.items():
        assert hashlib.sha256(sep_no_merge_family(seed).state.data.tobytes()).hexdigest() == digest


def test_sep_no_merge_family_builds_its_blocks_in_one_pass():
    # The block-by-block builder made 6,454 Python-level calls for one family.
    sep_no_merge_family(0)
    assert python_calls(sep_no_merge_family, 0) <= 1000


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


def test_noise_levels_must_be_real_numbers_in_the_unit_interval():
    # True ran as p = 1, and a string or None raised TypeError from <=
    t = robust_vanishing_family(0.1)
    direction = random_density(np.random.default_rng(3), (2, 2, 2))
    for bad in (True, False, np.True_, "0.1", None, float("nan"), 1 + 0j):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            robust_vanishing_family(bad)
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
            perturb(t, direction, bad)
    for good in (0, 1, 0.5, np.float64(0.25)):
        robust_vanishing_family(good)
        perturb(t, direction, good)


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
