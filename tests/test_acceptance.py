"""End-to-end acceptance checks.

Each test covers one headline behaviour at its stated tolerance and prints
one [PASS]/[FAIL] line outside pytest's capture, so the summary is always
visible in the run log.
"""

import time

import numpy as np
import pytest

from pptmerge import (
    Bipartition,
    DensityMatrix,
    PureState,
    TripartiteState,
    check_sep_family_obstruction,
    classify,
    fidelity,
    hashing_witness,
    is_ppt,
    max_overlap_ppt,
    merging_cost_pure,
    negativity_witness,
    perturb,
    phi_plus,
    product_example,
    rank_of_family,
    robust_vanishing_family,
    save_state,
    sep_no_merge_family,
    tensor,
    trace_distance,
)
from pptmerge.classify import NO_PERFECT_MERGE, PERFECT, VANISHING
from pptmerge.cli import main
from pptmerge.families import SEP_FAMILY_BLOCKS, SEP_FAMILY_WEIGHT_FLOOR
from helpers import isotropic, random_density, random_separable, random_pure, werner
from oracles import best_product_overlap, schmidt_overlap


@pytest.fixture
def criterion(capsys):
    def emit(name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _free_merge_state():
    amps = np.kron(np.array([1.0, 0.0]), phi_plus().amplitudes)
    return TripartiteState.from_pure(PureState((2, 2, 2), amps), (0,), (1,), (2,))


def test_c1_max_overlap_bell_pairs(criterion):
    t0 = time.perf_counter()
    one = max_overlap_ppt(phi_plus(), cut=Bipartition((0,), (1,)))
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    two = max_overlap_ppt(
        tensor(phi_plus(), phi_plus()), cut=Bipartition((0, 2), (1, 3))
    )
    t2 = time.perf_counter() - t0
    ok = (
        abs(one.value - 0.5) <= 1e-3
        and t1 < 5.0
        and abs(two.value - 0.25) <= 1e-3
        and t2 < 60.0
        and one.converged
        and two.converged
        # best achievable fidelity follows as sqrt of the certified overlap
        and np.sqrt(one.value) <= 2.0**-0.5 + 1e-3
        and np.sqrt(two.value) <= 2.0**-1.0 + 1e-3
    )
    criterion(
        "C1 max overlap with the PPT set halves per Bell pair",
        ok,
        f"n=1: {one.value:.6f} in {t1:.2f}s, n=2: {two.value:.6f} in {t2:.2f}s",
    )


def test_c2_geometric_distillability_cli(tmp_path, capsys, criterion):
    save_state(phi_plus(), tmp_path / "one.json")
    save_state(tensor(phi_plus(), phi_plus()), tmp_path / "two.json")
    assert main(["geodist", str(tmp_path / "one.json"), "--cut", "0:1"]) == 0
    v1 = float(capsys.readouterr().out.strip())
    assert main(["geodist", str(tmp_path / "two.json"), "--cut", "0,2:1,3"]) == 0
    v2 = float(capsys.readouterr().out.strip())
    ok = (
        abs(v1 - 0.29289321881345254) <= 1e-3
        and abs(v2 - 0.5) <= 1e-3
        and v1 < v2
    )
    criterion(
        "C2 geometric distillability via the CLI grows with Bell pair count",
        ok,
        f"n=1: {v1:.6f}, n=2: {v2:.6f}",
    )


def test_c3_separable_family_generation_and_verdict(criterion):
    failures = []
    for seed in range(100):
        try:
            fam = sep_no_merge_family(seed)
        except Exception as exc:  # any raise is a criterion failure
            failures.append(f"seed {seed}: {exc}")
            continue
        data = fam.state.data
        blocks = []
        weights = []
        for i in range(SEP_FAMILY_BLOCKS):
            blk = data[4 * i : 4 * i + 4, 4 * i : 4 * i + 4]
            w = float(np.trace(blk).real)
            weights.append(w)
            blocks.append(DensityMatrix((2, 2), blk / w))
        checks = (
            fam.dims == (15, 2, 2)
            and min(weights) >= SEP_FAMILY_WEIGHT_FLOOR - 1e-12
            and all(is_ppt(b, Bipartition((0,), (1,)), 1e-9) for b in blocks)
            and rank_of_family(blocks) == SEP_FAMILY_BLOCKS
            and check_sep_family_obstruction(fam).holds is True
            and classify(fam).verdict == NO_PERFECT_MERGE
        )
        if not checks:
            failures.append(f"seed {seed}: certificate or verdict failed")
    criterion(
        "C3 flagged separable families block merging for 100 seeds",
        not failures,
        failures[0] if failures else "100/100 generated and classified",
    )


def test_c4_product_payloads_split_by_entanglement(criterion):
    vec = np.zeros(4)
    vec[0] = 1.0
    plain = product_example(PureState((2, 2), vec))
    plain_report = classify(plain)
    ent = product_example(phi_plus())
    ent_report = classify(ent)
    h = hashing_witness(ent.state, ent.cut_a_bc()).value
    neg = negativity_witness(ent.state, ent.cut_ab_c()).value
    ok = (
        plain_report.verdict == PERFECT
        and abs(plain_report.witnesses["conditional_entropy"]) <= 1e-9
        and ent_report.verdict == VANISHING
        and abs(h - 1.0) <= 1e-9
        and neg <= 1e-9
    )
    criterion(
        "C4 a Bell payload flips the verdict from PERFECT to VANISHING",
        ok,
        f"plain: {plain_report.verdict}, entangled: {ent_report.verdict}, "
        f"hashing {h:.9f}, log-negativity {neg:.2e}",
    )


def test_c5_vanishing_verdict_is_noise_robust(criterion):
    base = robust_vanishing_family(0.1)
    verdicts = [classify(base).verdict]
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        moved = perturb(base, random_density(rng, (2, 2, 2)), 1e-3)
        verdicts.append(classify(moved).verdict)
    bad = sum(v != VANISHING for v in verdicts)
    criterion(
        "C5 VANISHING survives 100 random perturbations at eps=1e-3",
        bad == 0,
        f"{len(verdicts) - bad}/{len(verdicts)} classified VANISHING",
    )


def test_c6_fidelity_trace_distance_sandwich(criterion):
    rng = np.random.default_rng(515)
    violations = 0
    worst = 0.0
    for i in range(1000):
        dims = [(2,), (3,), (4,), (2, 2), (2, 3), (2, 2, 2), (2, 2, 4), (4, 4)][i % 8]
        total = int(np.prod(dims))
        a = random_density(rng, dims, rank=int(rng.integers(1, total + 1)))
        b = random_density(rng, dims, rank=int(rng.integers(1, total + 1)))
        f = fidelity(a, b)
        t = trace_distance(a, b)
        lo = (1.0 - f) - t
        hi = t - np.sqrt(max(0.0, 1.0 - f * f))
        worst = max(worst, lo, hi)
        if lo > 1e-8 or hi > 1e-8:
            violations += 1
    criterion(
        "C6 1 - F <= T <= sqrt(1 - F^2) on 1000 random pairs up to dim 16",
        violations == 0,
        f"violations: {violations}, worst excess: {worst:.2e}",
    )


def test_c7_merging_cost_signs(criterion):
    cost_pos = merging_cost_pure(product_example(phi_plus()))
    from pptmerge import ghz

    cost_zero = merging_cost_pure(ghz())
    cost_neg = merging_cost_pure(_free_merge_state())
    ok = (
        abs(cost_pos - 1.0) <= 1e-9
        and abs(cost_zero) <= 1e-9
        and abs(cost_neg + 1.0) <= 1e-9
    )
    criterion(
        "C7 merging cost hits +1, 0 and -1 on the three pure fixtures",
        ok,
        f"{cost_pos:.9f}, {cost_zero:.9f}, {cost_neg:.9f}",
    )


def test_c8_witness_ordering_and_ppt_vanishing(criterion):
    rng = np.random.default_rng(626)
    cut = Bipartition((0,), (1,))
    order_violations = 0
    for i in range(1000):
        dims = [(2, 2), (2, 3), (3, 3), (2, 4)][i % 4]
        total = int(np.prod(dims))
        rho = random_density(rng, dims, rank=int(rng.integers(1, total + 1)))
        if hashing_witness(rho, cut).value > negativity_witness(rho, cut).value + 1e-8:
            order_violations += 1
    ppt_violations = 0
    for i in range(150):
        dl, dr = [(2, 2), (2, 3)][i % 2]
        rho = random_separable(rng, dl, dr, terms=int(rng.integers(1, 8)))
        if (
            hashing_witness(rho, cut).value > 1e-8
            or negativity_witness(rho, cut).value > 1e-8
        ):
            ppt_violations += 1
    ok = order_violations == 0 and ppt_violations == 0
    criterion(
        "C8 lower bound never beats upper bound; both vanish on PPT states",
        ok,
        f"ordering violations: {order_violations}/1000, "
        f"PPT violations: {ppt_violations}/150",
    )


def test_c9_overlap_optimizer_matches_brute_force(criterion):
    rng = np.random.default_rng(737)
    cut = Bipartition((0,), (1,))
    worst = 0.0
    for _ in range(50):
        psi = random_pure(rng, (2, 2))
        opt = max_overlap_ppt(psi, cut=cut).value
        brute = best_product_overlap(psi.amplitudes, rng)
        exact = schmidt_overlap(psi.amplitudes)
        worst = max(worst, abs(opt - brute), abs(opt - exact))
    criterion(
        "C9 optimizer agrees with brute-force product search on 50 targets",
        worst <= 1e-3,
        f"worst deviation: {worst:.2e}",
    )


def test_c10_fidelity_lower_bound_range_and_value(criterion):
    rng = np.random.default_rng(848)
    out_of_range = 0
    for i in range(1000):
        dims = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)][i % 4]
        total = int(np.prod(dims))
        state = TripartiteState(
            random_density(rng, dims, rank=int(rng.integers(1, total + 1))),
            (0,),
            (1,),
            (2,),
        )
        v = classify(state).fidelity_lower_bound
        if not 0.0 < v <= 1.0:
            out_of_range += 1
    # rho_AC (x) rho_B, where the bound is 1 and rounding can read above it
    for _ in range(250):
        ac, b = random_density(rng, (2, 2)).data, random_density(rng, (2,)).data
        acb = np.kron(ac, b).reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
        state = TripartiteState(DensityMatrix((2, 2, 2), acb), (0,), (1,), (2,))
        if not 0.0 < classify(state).fidelity_lower_bound <= 1.0:
            out_of_range += 1
    frozen = classify(product_example(phi_plus())).fidelity_lower_bound
    ok = out_of_range == 0 and abs(frozen - 0.5) <= 1e-9
    criterion(
        "C10 fidelity lower bound stays in (0, 1] and hits 1/2 on the Bell payload",
        ok,
        f"out of range: {out_of_range}/1250, Bell payload: {frozen:.9f}",
    )


@pytest.mark.parametrize(
    "name, state, cut, exact",
    [
        ("Werner d = 7 (D = 49)", werner(7, 0.8), ["--cut", "0:1"], 0.8 - 0.5),
        ("isotropic d = 8 (D = 64)", isotropic(8, 0.8), ["--cut", "0:1"], 0.8 - 1 / 8),
        ("sep_no_merge_family(0) across AB:C (D = 60)", sep_no_merge_family(0), [], 0.0),
    ],
    ids=["werner-d7", "isotropic-d8", "sep-no-merge-ab-c"],
)
def test_c11_states_with_sectors_certify_above_the_dense_schur_cap(
    tmp_path, capsys, criterion, name, state, cut, exact
):
    # past the 1600-row cap as dense programs (2 D^2 - 1 rows), these fit on
    # their symmetry sectors: the trace distance, the upper end of the
    # geodist bracket, is p - 1/2, f - 1/d and 0
    save_state(state, tmp_path / "state.json")
    code = main(["geodist", str(tmp_path / "state.json"), *cut])
    high = float((capsys.readouterr().out.split() or ["nan"])[-1])
    ok = code == 0 and abs(high - exact) <= 1e-6
    criterion(f"C11 {name} exits 0 with T = {exact:.6f}", ok, f"exit {code}, T = {high:.9f}")
