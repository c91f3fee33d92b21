"""Entropies, distances and witnesses against hand-derived values."""

import numpy as np
import pytest

from pptmerge import (
    Bipartition,
    DensityMatrix,
    PureState,
    TripartiteState,
    WitnessValue,
    conditional_entropy,
    fidelity,
    hashing_witness,
    is_ppt,
    log_negativity,
    mutual_information,
    negativity_witness,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from pptmerge.families import classical_correlated, ghz, phi_plus, product_example
from helpers import random_density, random_pure, random_separable
from oracles import entropy_bits, partial_trace_einsum

CUT01 = Bipartition((0,), (1,))

# -(3/4) log2(3/4) - (1/4) log2(1/4), evaluated by hand
ENTROPY_3_4 = 0.8112781244591328
# sqrt(<0| I/2 |0>) = 1/sqrt(2)
FID_ZERO_MIXED = 0.7071067811865476
# phi+ mixed with I/4 at weight 1/2: PT spectrum {3/8, 3/8, 3/8, -1/8}
LOGNEG_HALF_MIX = 0.3219280948873623  # log2(5/4)
# same mixture at weight 2/3: PT spectrum {5/12, 5/12, 5/12, -1/4}
LOGNEG_TWO_THIRDS_MIX = 0.5849625007211562  # log2(3/2)


def _mix_with_noise(weight):
    rho = phi_plus().to_density()
    return DensityMatrix((2, 2), weight * rho.data + (1 - weight) * np.eye(4) / 4)


def test_entropy_frozen_values():
    assert abs(von_neumann_entropy(DensityMatrix((2,), np.diag([0.75, 0.25]))) - ENTROPY_3_4) < 1e-12
    assert abs(von_neumann_entropy(DensityMatrix((2,), np.eye(2) / 2)) - 1.0) < 1e-12
    assert von_neumann_entropy(phi_plus().to_density()) < 1e-10


def test_entropy_matches_bit_oracle():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rho = random_density(rng, (2, 3))
        w = np.linalg.eigvalsh(rho.data)
        assert abs(von_neumann_entropy(rho) - entropy_bits(w)) < 1e-10


def test_entropy_additive_over_tensor():
    rng = np.random.default_rng(67)
    for _ in range(10):
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        s = von_neumann_entropy(tensor(a, b))
        assert abs(s - von_neumann_entropy(a) - von_neumann_entropy(b)) < 1e-9


def test_entropy_of_a_pure_state_is_not_negative():
    # rounding puts the top eigenvalue just above 1, which gave entropies
    # down to -1.6e-15 and -0.0; a third of the kets are products
    rng = np.random.default_rng(71)
    for k in range(60):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 5)))
        if k % 3:
            psi = random_pure(rng, dims)
        else:
            psi = tensor(random_pure(rng, dims[:1]), random_pure(rng, dims[1:]))
        s = von_neumann_entropy(psi.to_density())
        assert 0.0 <= s < 1e-12 and not np.signbit(s)


def test_conditional_entropy_signs():
    # B maximally mixed given C: S(BC) - S(C) = 1
    assert abs(conditional_entropy(product_example(phi_plus())) - 1.0) < 1e-9
    assert abs(conditional_entropy(ghz())) < 1e-9
    # B purified by C: S(BC) = 0 while S(C) = 1
    zero = np.array([1.0, 0.0])
    amps = np.kron(zero, phi_plus().amplitudes)
    merged_free = TripartiteState.from_pure(
        PureState((2, 2, 2), amps), (0,), (1,), (2,)
    )
    assert abs(conditional_entropy(merged_free) - (-1.0)) < 1e-9


def test_marginals_are_written_into_one_zero_padded_stack(monkeypatch):
    # conditional_entropy, mutual_information and hashing_witness take their
    # marginals' spectra from one eigvalsh of a zero-filled stack: each
    # marginal, kept subsystems in their original order, in the top-left
    # corner of its row, and exact zeros everywhere else
    rng = np.random.default_rng(419)
    inputs = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        inputs.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    for dims, a, b, c in (
        ((2, 2, 2), (0,), (1,), (2,)),
        ((2, 3, 4), (1,), (2,), (0,)),  # B after C: the BC keep is unsorted
        ((2, 2, 3, 2), (1,), (0, 3), (2,)),  # the BC keep is split by A
    ):
        rho = random_density(rng, dims, rank=3)
        state = TripartiteState(rho, a, b, c)
        cut = state.cut_a_bc()
        inputs.clear()
        conditional_entropy(state)
        mutual_information(rho, cut)
        hashing_witness(rho, cut)
        stacks = inputs[0], inputs[2], inputs[4]
        keeps = (b + c, c), (cut.left, cut.right), (cut.left, cut.right)
        for stack, pair in zip(stacks, keeps):
            marginals = [partial_trace_einsum(rho.data, dims, sorted(k)) for k in pair]
            big = max(len(x) for x in marginals)
            assert stack.shape == (2, big, big)
            for row, marginal in zip(stack, marginals):
                size = len(marginal)
                np.testing.assert_allclose(row[:size, :size], marginal, rtol=0, atol=1e-15)
                row[:size, :size] = 0.0
            assert not stack.any()


def test_mutual_information_frozen_values():
    assert abs(mutual_information(phi_plus().to_density(), CUT01) - 2.0) < 1e-9
    cc = classical_correlated()
    assert abs(mutual_information(cc.state, cc.cut_a_bc()) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        mutual_information(phi_plus().to_density(), Bipartition((0,), (1, 2)))


def test_mutual_information_nonnegative():
    rng = np.random.default_rng(71)
    for _ in range(30):
        rho = random_density(rng, (2, 3))
        assert mutual_information(rho, CUT01) >= -1e-9
    # I = 0 on a product state, where rounding read down to -2e-15 on 234 of
    # these 500 before the clamp at 0
    rng = np.random.default_rng(181)
    for _ in range(500):
        rho = tensor(random_density(rng, (2,)), random_density(rng, (3,)))
        assert 0.0 <= mutual_information(rho, CUT01) <= 1e-12


def test_fidelity_frozen_and_basic():
    zero = PureState((2,), np.array([1.0, 0.0])).to_density()
    mixed = DensityMatrix((2,), np.eye(2) / 2)
    assert abs(fidelity(zero, mixed) - FID_ZERO_MIXED) < 1e-10
    assert abs(fidelity(mixed, mixed) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        fidelity(zero, DensityMatrix((3,), np.eye(3) / 3))


def test_fidelity_symmetric_and_pure_formula():
    rng = np.random.default_rng(73)
    for _ in range(20):
        rho = random_density(rng, (2, 2))
        sigma = random_density(rng, (2, 2))
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-8
        psi = random_pure(rng, (2, 2))
        direct = np.sqrt(
            np.real(psi.amplitudes.conj() @ sigma.data @ psi.amplitudes)
        )
        assert abs(fidelity(psi.to_density(), sigma) - direct) < 1e-8


def test_trace_distance_frozen_and_basic():
    zero = PureState((2,), np.array([1.0, 0.0])).to_density()
    mixed = DensityMatrix((2,), np.eye(2) / 2)
    assert abs(trace_distance(zero, mixed) - 0.5) < 1e-12
    assert trace_distance(mixed, mixed) == 0.0
    rng = np.random.default_rng(79)
    a, b = random_density(rng, (2, 2)), random_density(rng, (2, 2))
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
    with pytest.raises(ValueError):
        trace_distance(zero, DensityMatrix((3,), np.eye(3) / 3))


def test_fidelity_trace_distance_sandwich():
    # 1 - F <= T <= sqrt(1 - F^2) on random pairs of every flavour
    rng = np.random.default_rng(83)
    for i in range(200):
        dims = [(2,), (3,), (2, 2), (2, 3)][i % 4]
        total = int(np.prod(dims))
        rank_a = int(rng.integers(1, total + 1))
        rank_b = int(rng.integers(1, total + 1))
        a = random_density(rng, dims, rank=rank_a)
        b = random_density(rng, dims, rank=rank_b)
        f = fidelity(a, b)
        t = trace_distance(a, b)
        assert 1.0 - f <= t + 1e-8
        assert t <= np.sqrt(max(0.0, 1.0 - f * f)) + 1e-8


def test_log_negativity_frozen_values():
    rho = phi_plus().to_density()
    assert abs(log_negativity(rho, CUT01) - 1.0) < 1e-10
    assert abs(log_negativity(_mix_with_noise(0.5), CUT01) - LOGNEG_HALF_MIX) < 1e-10
    assert (
        abs(log_negativity(_mix_with_noise(2.0 / 3.0), CUT01) - LOGNEG_TWO_THIRDS_MIX)
        < 1e-10
    )
    assert log_negativity(DensityMatrix((2, 2), np.eye(4) / 4), CUT01) == 0.0


def test_log_negativity_additive_over_tensor():
    rng = np.random.default_rng(89)
    cut_13 = Bipartition((0, 2), (1, 3))
    for _ in range(10):
        a = random_density(rng, (2, 2))
        b = random_density(rng, (2, 2))
        joint = log_negativity(tensor(a, b), cut_13)
        split = log_negativity(a, CUT01) + log_negativity(b, CUT01)
        assert abs(joint - split) < 1e-9


def test_is_ppt():
    assert not is_ppt(phi_plus().to_density(), CUT01)
    rng = np.random.default_rng(97)
    assert is_ppt(random_separable(rng, 2, 2), CUT01)
    # Werner mixture: PT minimum eigenvalue is (1 - 3w) / 4
    assert is_ppt(_mix_with_noise(1.0 / 3.0), CUT01)
    assert not is_ppt(_mix_with_noise(0.34), CUT01)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_is_ppt_rejects_a_non_finite_or_negative_tol(tol):
    # a NaN tol used to read every state as not PPT
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        is_ppt(DensityMatrix((2, 2), np.eye(4) / 4), CUT01, tol=tol)


def test_hashing_witness_frozen_values():
    w = hashing_witness(phi_plus().to_density(), CUT01)
    assert isinstance(w, WitnessValue)
    assert w.direction == "lower_bound"
    assert w.quantity == "distillable_entanglement"
    assert w.cut == CUT01
    assert abs(w.value - 1.0) < 1e-10
    flat = hashing_witness(DensityMatrix((2, 2), np.eye(4) / 4), CUT01)
    assert abs(flat.value - (-1.0)) < 1e-10
    with pytest.raises(ValueError):
        hashing_witness(phi_plus().to_density(), Bipartition((0,), (1, 2)))


def test_negativity_witness_fields():
    w = negativity_witness(phi_plus().to_density(), CUT01)
    assert w.direction == "upper_bound"
    assert w.quantity == "distillable_entanglement"
    assert abs(w.value - 1.0) < 1e-10


def test_witness_value_rejects_unknown_direction():
    with pytest.raises(ValueError):
        WitnessValue(0.0, "sideways", "distillable_entanglement", CUT01)


def test_lower_bound_never_exceeds_upper_bound():
    # the two witnesses must bracket the same quantity on any state
    rng = np.random.default_rng(101)
    for i in range(200):
        dims = [(2, 2), (2, 3), (3, 3)][i % 3]
        rho = random_density(rng, dims, rank=int(rng.integers(1, np.prod(dims) + 1)))
        low = hashing_witness(rho, CUT01).value
        high = negativity_witness(rho, CUT01).value
        assert low <= high + 1e-8


def test_witnesses_vanish_on_ppt_states():
    rng = np.random.default_rng(103)
    for i in range(100):
        dl, dr = [(2, 2), (2, 3)][i % 2]
        rho = random_separable(rng, dl, dr, terms=int(rng.integers(1, 8)))
        assert is_ppt(rho, CUT01, tol=1e-10)
        assert hashing_witness(rho, CUT01).value <= 1e-8
        assert negativity_witness(rho, CUT01).value <= 1e-8


def test_pure_state_witness_gap():
    # flat Schmidt spectrum: both witnesses agree; tilted spectrum: strict gap
    both_one = phi_plus().to_density()
    assert abs(hashing_witness(both_one, CUT01).value - 1.0) < 1e-10
    assert abs(negativity_witness(both_one, CUT01).value - 1.0) < 1e-10
    tilted = PureState((2, 2), np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)]))
    rho = tilted.to_density()
    low = hashing_witness(rho, CUT01).value
    high = negativity_witness(rho, CUT01).value
    assert low + 1e-6 < high
