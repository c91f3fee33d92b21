"""Criteria, verdicts and their mutual consistency."""

import importlib
import itertools

import numpy as np
import pytest

# the package re-exports the classify *function* under the same name as the
# submodule, so fetch the module itself explicitly
classify_mod = importlib.import_module("pptmerge.classify")

from pptmerge import (
    DensityMatrix,
    InconsistentCriteriaError,
    PureState,
    TripartiteState,
    check_sep_family_obstruction,
    classical_correlated,
    classify,
    ghz,
    merging_cost_pure,
    perturb,
    phi_plus,
    product_example,
    product_pure,
    robust_vanishing_family,
    save_state,
    sep_no_merge_family,
    tensor,
)
from pptmerge.classify import (
    CriterionResult,
    INCONCLUSIVE,
    NO_PERFECT_MERGE,
    PERFECT,
    VANISHING,
    VERDICTS,
)
from pptmerge.cli import main
from helpers import haar_unitary, random_density, random_separable, random_tripartite
from oracles import report_numbers, sep_family_obstruction


def _free_merge_state():
    """|0>_A (x) |phi+>_BC: B is purified by C, merging releases a Bell pair."""
    amps = np.kron(np.array([1.0, 0.0]), phi_plus().amplitudes)
    return TripartiteState.from_pure(PureState((2, 2, 2), amps), (0,), (1,), (2,))


def _criterion(name):
    """A reader of the criterion called ``name`` off a state's classification report."""

    def read(state):
        (result,) = (c for c in classify(state).criteria if c.name == name)
        return result

    return read


perfect_sufficient = _criterion("perfect_merge_sufficient")
vanishing_ppt = _criterion("vanishing_ppt_merge")
vanishing_locc = _criterion("vanishing_locc_merge")
necessary_budget = _criterion("necessary_entanglement_budget")


def test_fixture_verdicts():
    assert classify(ghz()).verdict == PERFECT
    assert classify(classical_correlated()).verdict == PERFECT
    assert classify(_free_merge_state()).verdict == PERFECT
    assert classify(product_example(phi_plus())).verdict == VANISHING
    assert classify(robust_vanishing_family(0.1)).verdict == VANISHING
    assert classify(sep_no_merge_family(0)).verdict == NO_PERFECT_MERGE
    mixed = TripartiteState(DensityMatrix((2, 2, 2), np.eye(8) / 8), (0,), (1,), (2,))
    assert classify(mixed).verdict == INCONCLUSIVE
    assert all(classify(s).verdict in VERDICTS for s in (ghz(), mixed))


def test_perfect_sufficient_witness_values():
    assert abs(perfect_sufficient(product_example(phi_plus())).witness - 1.0) < 1e-9
    assert abs(perfect_sufficient(ghz()).witness) < 1e-9
    assert abs(perfect_sufficient(_free_merge_state()).witness - (-1.0)) < 1e-9
    r = perfect_sufficient(ghz())
    assert r.holds is True
    assert r.name == "perfect_merge_sufficient"


def test_vanishing_ppt_merge_three_values():
    assert vanishing_ppt(robust_vanishing_family(0.1)).holds is True
    assert vanishing_ppt(product_example(phi_plus())).holds is True
    # entangled across AB:C, so the PPT premise fails
    assert vanishing_ppt(_free_merge_state()).holds is False
    # PPT but not provably distillable: unknown
    assert vanishing_ppt(sep_no_merge_family(0)).holds is None


def test_vanishing_locc_merge():
    assert vanishing_locc(product_example(phi_plus())).holds is True
    assert vanishing_locc(sep_no_merge_family(0)).holds is None
    # implication: the PPT-assisted criterion is strictly stronger
    for state in (
        product_example(phi_plus()),
        robust_vanishing_family(0.05),
        robust_vanishing_family(0.25),
    ):
        if vanishing_ppt(state).holds:
            assert vanishing_locc(state).holds


def test_necessary_budget_criterion():
    r = necessary_budget(product_example(phi_plus()))
    assert r.holds is False  # hashing 1 across A:BC, zero budget across AB:C
    assert abs(r.witness - 1.0) < 1e-9
    assert necessary_budget(_free_merge_state()).holds is None
    assert necessary_budget(ghz()).holds is None


def test_vanishing_beats_no_perfect_merge_in_precedence():
    # the same state violates the budget and certifies vanishing; the
    # verdict must report the stronger statement
    state = product_example(phi_plus())
    assert necessary_budget(state).holds is False
    assert classify(state).verdict == VANISHING


def test_sep_family_obstruction():
    r = check_sep_family_obstruction(sep_no_merge_family(3))
    assert r.holds is True
    assert r.witness == 15.0
    assert check_sep_family_obstruction(ghz()).holds is False
    assert check_sep_family_obstruction(robust_vanishing_family(0.1)).holds is False
    # destroying the block-diagonal structure kills the certificate
    fam = sep_no_merge_family(3)
    noisy = perturb(fam, random_density(np.random.default_rng(157), (15, 2, 2)), 1e-3)
    assert check_sep_family_obstruction(noisy).holds is False


def test_sep_family_obstruction_threshold_on_one_off_diagonal_block():
    # coherence between A-levels i and j puts entries of eps / 8 into the
    # off-diagonal block (i, j) and nowhere else off the block diagonal
    fam = sep_no_merge_family(3)
    eps = 1e-3
    for i, j in ((0, 14), (3, 7)):
        v = np.zeros(15)
        v[[i, j]] = 1.0 / np.sqrt(2.0)
        direction = DensityMatrix((15, 2, 2), np.kron(np.outer(v, v), np.eye(4) / 4))
        moved = perturb(fam, direction, eps)
        assert check_sep_family_obstruction(moved, eps / 16).holds is False
        assert check_sep_family_obstruction(moved, eps / 4).holds is True


def test_sep_family_obstruction_ignores_low_rank_families():
    # same block-diagonal shape but all blocks equal: rank 1, no certificate
    blk = sep_no_merge_family(0)
    data = blk.state.data
    first = data[0:4, 0:4]
    first = first / np.trace(first).real
    mat = np.zeros_like(data)
    for i in range(15):
        mat[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = first / 15.0
    flat = TripartiteState(DensityMatrix((15, 2, 2), mat), (0,), (1,), (2,))
    r = check_sep_family_obstruction(flat)
    assert r.holds is False
    assert r.witness == 1.0
    assert classify(flat).verdict != NO_PERFECT_MERGE


def _family_blocks(seed):
    """Flag weights and normalised B:C blocks of ``sep_no_merge_family(seed)``."""
    data = sep_no_merge_family(seed).state.data
    blocks = [data[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] for i in range(15)]
    weights = [np.trace(blk).real for blk in blocks]
    return weights, [blk / w for blk, w in zip(blocks, weights)]


def _flagged(weights, blocks, dims=None, parties=((0,), (1,), (2,))):
    """sum_i p_i |i><i|_A (x) sigma_i_BC, with A's flags laid out over ``dims``."""
    m = len(blocks)
    mat = np.zeros((4 * m, 4 * m), dtype=complex)
    for i, (w, blk) in enumerate(zip(weights, blocks)):
        mat[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = w * blk
    mat /= np.trace(mat).real
    return TripartiteState(DensityMatrix(dims or (m, 2, 2), mat), *parties)


def test_sep_family_obstruction_matches_block_oracle():
    weights, blocks = _family_blocks(3)
    bell = np.outer(phi_plus().amplitudes, phi_plus().amplitudes.conj())
    extra = random_separable(np.random.default_rng(193), 2, 2).data
    perm = np.random.default_rng(197).permutation(15)
    # the same family with its subsystems laid out as (C, A, B)
    flags = _flagged(weights, blocks).state.data.reshape((15, 2, 2) * 2)
    cab = flags.transpose(2, 0, 1, 5, 3, 4).reshape(60, 60)
    cases = [
        ("genuine", _flagged(weights, blocks), (True, 15.0)),
        ("one NPT block", _flagged(weights, blocks[:5] + [bell] + blocks[6:]), (False, None)),
        ("one block duplicated", _flagged(weights, blocks[:7] + [blocks[2]] + blocks[8:]),
         (False, 14.0)),
        ("A over two subsystems",
         _flagged(weights, blocks, (3, 5, 2, 2), ((0, 1), (2,), (3,))), (True, 15.0)),
        ("16 flags", _flagged(weights + [0.05], blocks + [extra]), (True, 15.0)),
        # full Bloch rank and every block separable, but only 15 or 16 flag
        # levels are accepted
        ("17 flags", _flagged(weights + [0.05, 0.05], blocks + [extra, extra]), (False, None)),
        ("permuted blocks",
         _flagged([weights[i] for i in perm], [blocks[i] for i in perm]), (True, 15.0)),
        ("parties out of order",
         TripartiteState(DensityMatrix((2, 15, 2), cab), (1,), (2,), (0,)), (True, 15.0)),
    ]
    for label, state, want in cases:
        r = check_sep_family_obstruction(state)
        oracle = sep_family_obstruction(
            state.state.data, state.dims, state.a_indices, state.b_indices, state.c_indices
        )
        assert (r.holds, r.witness) == oracle == want, label


def test_classify_checks_sep_family_blocks_as_one_stack(monkeypatch):
    # the state is classical on A, so the six spectra come from its 15 diagonal
    # blocks; the obstruction check reads the blocks' B:C partial-transpose
    # spectra from that pass, so it adds no eigendecomposition, and it reads
    # the blocks of the validated state without checking them again: no eigh,
    # no DensityMatrix per block, and no eigendecomposition sees a matrix
    # larger than 4x4 or one that is not exactly Hermitian
    state = sep_no_merge_family(11)
    seen = {"eigh": [], "eigvalsh": []}
    calls = {"density": 0}

    def recording(name):
        fn = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            seen[name].append(np.asarray(a))
            return fn(a, *args, **kwargs)

        return wrapped

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls["density"] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", recording("eigh"))
    monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh"))
    monkeypatch.setattr(DensityMatrix, "__post_init__", counting(DensityMatrix.__post_init__))
    report = classify(state)
    assert report.verdict == NO_PERFECT_MERGE
    assert report.criteria[-1].witness == 15.0
    assert seen["eigh"] == []
    assert len(seen["eigvalsh"]) == 6
    assert max(m.shape[-1] for m in seen["eigvalsh"]) <= 4
    assert all(np.array_equal(m, m.conj().swapaxes(-1, -2)) for m in seen["eigvalsh"])
    assert calls["density"] == 0


def test_obstruction_reads_the_validated_blocks_of_a_state_with_a_tiny_flag(tmp_path):
    # a 16th flag of weight 2e-6 carries a rounding-level eigenvalue of -3e-15,
    # which the constructor keeps bit for bit; divided by its weight it reads
    # -1.5e-9, below the -1e-9 floor, so checking the normalised blocks as
    # density matrices again would reject this valid state
    _, blocks = _family_blocks(3)
    flag = np.diag([2e-6, 0.0, 0.0, -3e-15])
    state = _flagged([0.986] + [1e-3] * 14 + [1.0], blocks + [flag])
    data = state.state.data
    w = np.linalg.eigvalsh(data)
    assert data[63, 63].real < 0.0
    assert -3.1e-15 < w[0] < -2.9e-15
    assert w[0] > -64 * np.finfo(float).eps * np.abs(w).max()
    r = check_sep_family_obstruction(state)
    oracle = sep_family_obstruction(data, state.dims, (0,), (1,), (2,))
    assert (r.holds, r.witness) == oracle == (False, None)
    assert classify(state).verdict == INCONCLUSIVE
    path = tmp_path / "tiny-flag.json"
    save_state(state, path)
    assert main(["classify", str(path)]) == 0


def test_no_verdict_pair_is_ever_inconsistent():
    rng = np.random.default_rng(163)
    count = {v: 0 for v in VERDICTS}
    for i in range(400):
        dims = [(2, 2, 2), (2, 2, 4), (3, 2, 2), (2, 4, 2)][i % 4]
        rank = int(rng.integers(1, int(np.prod(dims)) + 1))
        state = TripartiteState(random_density(rng, dims, rank=rank), (0,), (1,), (2,))
        report = classify(state)  # must never raise InconsistentCriteriaError
        count[report.verdict] += 1
        held = {c.name: c.holds for c in report.criteria}
        if held["vanishing_ppt_merge"]:
            assert held["vanishing_locc_merge"]
            assert not held["perfect_merge_sufficient"]
    assert count[PERFECT] + count[VANISHING] + count[NO_PERFECT_MERGE] + count[
        INCONCLUSIVE
    ] == 400


def _docstring_verdict(held):
    """The verdict the module docstring gives for the criteria's ``holds``, by name."""
    if held["perfect_merge_sufficient"] is True:
        return PERFECT
    if held["vanishing_ppt_merge"] is True:
        return VANISHING
    if (
        held["necessary_entanglement_budget"] is False
        or held["separable_family_obstruction"] is True
    ):
        return NO_PERFECT_MERGE
    return INCONCLUSIVE


def test_verdict_on_every_combination_of_criteria(monkeypatch):
    # chosen spectra, crossed with a chosen obstruction result, reach every
    # combination of holds values the rules can give; the verdict must be the
    # docstring's, PERFECT with VANISHING must raise, and the LOCC criterion,
    # which is only reported, must never change the verdict
    tol = 0.1
    names = [
        "perfect_merge_sufficient",
        "vanishing_ppt_merge",
        "vanishing_locc_merge",
        "necessary_entanglement_budget",
        "separable_family_obstruction",
    ]
    outcome = {}
    for h, n, m, obstruction in itertools.product(
        (-1.0, 0.15, 2.0),  # hashing witness: at most tol, within 2 tol, far above
        (0.0, 0.08, 1.0),  # log-negativity: zero, at most tol, above
        (0.0, -1.0),  # least AB:C partial-transpose eigenvalue: PPT, not PPT
        (True, False),
    ):
        found = CriterionResult("separable_family_obstruction", obstruction, None, "chosen")
        monkeypatch.setattr(
            classify_mod,
            "check_sep_family_obstruction",
            lambda state, tol, _a_blocks_pt=None, r=found: r,
        )
        rest = None  # holds of every criterion but the first, read at ce = 1
        for ce in (1.0, -1.0):  # conditional entropy: perfect False, then True
            sp = classify_mod._Spectra(ce, h, n, m, fidelity_lower_bound=1.0)
            monkeypatch.setattr(classify_mod, "_spectra", lambda state, sp=sp: sp)
            if ce < 0 and rest[0] is True:
                with pytest.raises(InconsistentCriteriaError):
                    classify_mod.classify(ghz(), tol)
                outcome[(True, *rest)] = "raised"
                continue
            report = classify_mod.classify(ghz(), tol)
            assert [c.name for c in report.criteria] == names
            held = {c.name: c.holds for c in report.criteria}
            key = tuple(held[name] for name in names)
            assert key[0] is (ce < 0)
            assert rest is None or key[1:] == rest
            rest = key[1:]
            assert report.verdict == _docstring_verdict(held), key
            outcome[key] = report.verdict
    # the PPT-assisted criterion is unknown only when the hashing witness is at
    # most tol, which leaves the LOCC criterion and the budget unknown too
    spectral = {(None, None, None)} | set(
        itertools.product((True, False), (True, None), (False, None))
    )
    assert set(outcome) == {
        (perfect, *others, obstruction)
        for perfect in (True, False)
        for others in spectral
        for obstruction in (True, False)
    }
    for key, verdict in outcome.items():
        if key[2] is True:
            assert outcome[key[:2] + (None,) + key[3:]] == verdict, key


def test_verdicts_stable_under_small_perturbation():
    rng = np.random.default_rng(167)
    cases = [
        (product_example(phi_plus()), random_density(rng, (2, 2, 2)), VANISHING),
        (robust_vanishing_family(0.1), random_density(rng, (2, 2, 2)), VANISHING),
        (_free_merge_state(), random_density(rng, (2, 2, 2)), PERFECT),
        (sep_no_merge_family(0), sep_no_merge_family(1).state, NO_PERFECT_MERGE),
    ]
    for base, direction, want in cases:
        assert classify(base).verdict == want
        moved = perturb(base, direction, 1e-6)
        assert classify(moved, tol=1e-4).verdict == want


def test_consistency_guard_trips_on_contradiction(monkeypatch):
    state = robust_vanishing_family(0.05)
    assert classify(state).verdict == VANISHING
    spectra = classify_mod._spectra
    monkeypatch.setattr(
        classify_mod, "_spectra", lambda s: spectra(s)._replace(conditional_entropy=-1.0)
    )
    with pytest.raises(InconsistentCriteriaError):
        classify_mod.classify(state)


def test_classify_runs_six_eigendecompositions(monkeypatch):
    # ABC, A, BC, C, AC and the AB:C partial transpose, each decomposed once
    states = [ghz(), random_tripartite(np.random.default_rng(181), (2, 3, 4))]
    calls = {"n": 0}

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    for state in states:
        calls["n"] = 0
        classify(state)
        assert calls["n"] == 6


def test_witnesses_match_oracle_on_permuted_party_layouts():
    rng = np.random.default_rng(191)
    layouts = [((2, 2, 2, 2), (0, 3), (2,), (1,)), ((3, 2, 2), (2,), (0,), (1,))]
    for dims, a, b, c in layouts:
        for rank in (None, 2, 1):
            state = TripartiteState(random_density(rng, dims, rank=rank), a, b, c)
            report = classify(state)
            got = (
                report.witnesses["conditional_entropy"],
                report.witnesses["hashing_a_bc"],
                report.witnesses["log_negativity_ab_c"],
                report.fidelity_lower_bound,
            )
            np.testing.assert_allclose(got, report_numbers(state), rtol=0, atol=1e-12)


def test_fidelity_lower_bound_range_and_values():
    rng = np.random.default_rng(173)
    for _ in range(100):
        state = random_tripartite(rng, (2, 2, 2))
        v = classify(state).fidelity_lower_bound
        assert 0.0 < v <= 1.0
    # rho_AC (x) rho_B: B carries nothing about A, so the bound is 1, and
    # rounding read up to 1 + 5 eps on 190 of these 500 states
    rng = np.random.default_rng(179)
    for _ in range(500):
        ac, b = random_density(rng, (2, 2)).data, random_density(rng, (2,)).data
        acb = np.kron(ac, b).reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
        state = TripartiteState(DensityMatrix((2, 2, 2), acb), (0,), (1,), (2,))
        assert 1.0 - 1e-12 <= classify(state).fidelity_lower_bound <= 1.0
    # dropping B costs exactly one bit of mutual information here
    assert abs(classify(product_example(phi_plus())).fidelity_lower_bound - 0.5) < 1e-9
    # nothing about A is lost when B is discarded
    assert abs(classify(classical_correlated()).fidelity_lower_bound - 1.0) < 1e-9
    assert abs(classify(product_pure((1, 0), (1, 1), (0, 1))).fidelity_lower_bound - 1.0) < 1e-9


# a bool is not a tolerance: True used to run as tol = 1; a string or None
# used to raise TypeError from the comparison
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, True, np.True_, "1e-9", None])
def test_tol_must_be_finite_and_non_negative(monkeypatch, tol):
    def no_spectra(state):
        raise AssertionError("spectra computed before the tol check")

    monkeypatch.setattr(classify_mod, "_spectra", no_spectra)
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        classify(ghz(), tol)
    # an infinite tol used to certify the separable family as PERFECT
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        classify(sep_no_merge_family(0), tol)
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        check_sep_family_obstruction(sep_no_merge_family(0), tol)


def test_merging_cost_pure_values():
    assert abs(merging_cost_pure(product_example(phi_plus())) - 1.0) < 1e-9
    assert abs(merging_cost_pure(ghz())) < 1e-9
    assert abs(merging_cost_pure(_free_merge_state()) - (-1.0)) < 1e-9
    with pytest.raises(ValueError, match="pure"):
        merging_cost_pure(robust_vanishing_family(0.5))


def test_merging_cost_pure_checks_atol():
    # an infinite atol used to let a state of purity 0.34 through, and a
    # negative one to report a pure state as mixed
    for atol in (float("inf"), float("nan"), -1.0, True):
        for state in (robust_vanishing_family(0.5), ghz()):
            with pytest.raises(ValueError, match="tol must be finite and non-negative"):
                merging_cost_pure(state, atol)


def test_merging_cost_invariant_under_local_unitaries():
    rng = np.random.default_rng(179)
    psi = tensor(
        PureState((2, 2), phi_plus().amplitudes),
        PureState((2,), np.array([0.6, 0.8])),
    )
    base = TripartiteState.from_pure(PureState((2, 2, 2), psi.amplitudes), (0,), (1,), (2,))
    cost = merging_cost_pure(base)
    for _ in range(10):
        u = np.kron(
            np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)), haar_unitary(rng, 2)
        )
        rotated = TripartiteState.from_pure(
            PureState((2, 2, 2), u @ psi.amplitudes), (0,), (1,), (2,)
        )
        assert abs(merging_cost_pure(rotated) - cost) < 1e-9


def test_report_shape():
    report = classify(ghz())
    assert report.consistent is True
    assert set(report.witnesses) == {
        "conditional_entropy",
        "hashing_a_bc",
        "log_negativity_ab_c",
    }
    assert len(report.criteria) == 5
    names = [c.name for c in report.criteria]
    assert names == [
        "perfect_merge_sufficient",
        "vanishing_ppt_merge",
        "vanishing_locc_merge",
        "necessary_entanglement_budget",
        "separable_family_obstruction",
    ]
    for c in report.criteria:
        assert c.condition
