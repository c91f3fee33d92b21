"""Optimisers over the PPT-constrained state set."""

import math
import warnings

import numpy as np
import pytest

from pptmerge import (
    Bipartition,
    DensityMatrix,
    GeoDistResult,
    PptOptConfig,
    PptOptResult,
    PureState,
    SizeLimitError,
    fidelity,
    geometric_distillability_ppt,
    is_ppt,
    max_overlap_ppt,
    min_trace_distance_ppt,
    project_ppt_state,
    tensor,
    trace_distance,
)
from pptmerge import pptopt
from pptmerge.families import phi_plus, robust_vanishing_family
from pptmerge.pptopt import _feasible_at_level
from helpers import random_pure, random_separable
from oracles import best_product_overlap, schmidt_overlap

CUT01 = Bipartition((0,), (1,))

# Frobenius projection of |phi+><phi+| onto the two-qubit PPT set, by hand:
# the projection is the isotropic mixture at weight 2/3, at distance
# 1/sqrt(3) and overlap exactly 1/2.
PROJ_DIST_PHI = 0.5773502691896258
# 1 - sqrt(1/2), the geometric distillability of one Bell pair
GEODIST_PHI = 0.29289321881345254


def _isotropic(d, f):
    """Isotropic state of fidelity f; its trace distance to PPT is f - 1/d."""
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(v, v)
    return DensityMatrix((d, d), f * proj + (1.0 - f) * (np.eye(d * d) - proj) / (d * d - 1))


def _werner(d, p):
    """Werner state of antisymmetric weight p; its trace distance to PPT is p - 1/2."""
    D = d * d
    swap = np.eye(D).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(D, D)
    anti, sym = (np.eye(D) - swap) / 2.0, (np.eye(D) + swap) / 2.0
    return DensityMatrix((d, d), p * anti / np.trace(anti) + (1.0 - p) * sym / np.trace(sym))


def test_config_validation():
    with pytest.raises(ValueError):
        PptOptConfig(max_iters=0)
    with pytest.raises(ValueError):
        PptOptConfig(tol=0.0)


def test_project_ppt_state_bell_pair():
    rho = phi_plus().to_density()
    proj = project_ppt_state(rho.data, (2, 2), cut=CUT01)
    dist = float(np.linalg.norm(proj.data - rho.data))
    assert abs(dist - PROJ_DIST_PHI) < 1e-6
    assert is_ppt(proj, CUT01, tol=1e-6)
    overlap = float(np.real(np.trace(proj.data @ rho.data)))
    assert abs(overlap - 0.5) < 1e-6


def test_project_ppt_state_fixed_points():
    eye = np.eye(4) / 4
    np.testing.assert_allclose(
        project_ppt_state(eye, (2, 2), cut=CUT01).data, eye, atol=1e-8
    )
    rng = np.random.default_rng(139)
    sep = random_separable(rng, 2, 2)
    np.testing.assert_allclose(
        project_ppt_state(sep.data, (2, 2), cut=CUT01).data, sep.data, atol=1e-6
    )


def test_project_ppt_state_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        project_ppt_state(np.triu(np.ones((4, 4))), (2, 2), cut=CUT01)
    with pytest.raises(ValueError, match="shape"):
        project_ppt_state(np.eye(8) / 8, (2, 2), cut=CUT01)
    with pytest.raises(TypeError, match="cut"):
        project_ppt_state(np.eye(4) / 4, (2, 2))


@pytest.mark.parametrize("m", [np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 0.0, 0.0])])
def test_project_ppt_state_rejects_non_finite(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            project_ppt_state(m, (2, 2), cut=CUT01)


def test_max_overlap_bell_pair():
    res = max_overlap_ppt(phi_plus(), cut=CUT01)
    assert isinstance(res, PptOptResult)
    assert abs(res.value - 0.5) < 1e-3
    assert res.converged
    cert = res.certificate
    assert is_ppt(cert, CUT01, tol=1e-6)
    direct = float(
        np.real(phi_plus().amplitudes.conj() @ cert.data @ phi_plus().amplitudes)
    )
    assert abs(direct - res.value) < 1e-12  # value is read off the certificate
    assert max(res.residuals.values()) <= 1e-6
    assert res.gap == math.inf  # no dual bound for the overlap yet


def test_max_overlap_product_state_reaches_one():
    rng = np.random.default_rng(149)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    res = max_overlap_ppt(PureState((2, 2), vec), cut=CUT01)
    assert res.value > 1.0 - 1e-5


def test_max_overlap_history_is_monotone_within_tol():
    res = max_overlap_ppt(phi_plus(), cut=CUT01)
    h = res.objective_history
    assert len(h) >= 2
    assert all(b >= a - 1e-6 for a, b in zip(h, h[1:]))


def test_max_overlap_budget_exhaustion_still_feasible():
    cfg = PptOptConfig(max_iters=3)
    res = max_overlap_ppt(phi_plus(), CUT01, cfg)
    assert not res.converged
    assert max(res.residuals.values()) <= 10 * cfg.tol
    assert 0.0 <= res.value <= 1.0


def test_max_overlap_dimension_cap():
    psi = PureState((2,) * 7, np.eye(128)[0])
    with pytest.raises(SizeLimitError):
        max_overlap_ppt(psi, cut=Bipartition.of((0, 1, 2), 7))


def test_level_set_probe():
    psi = phi_plus()
    P = np.outer(psi.amplitudes, psi.amplitudes.conj())
    start = np.eye(4, dtype=complex) / 4
    ok, point, _ = _feasible_at_level(P, (2, 2), (0,), 0.4, start, 1e-7, 4000)
    assert ok
    assert float(np.real(np.sum(P.conj() * point))) >= 0.4 - 1e-5
    bad, _, _ = _feasible_at_level(P, (2, 2), (0,), 0.7, start, 1e-7, 4000)
    assert not bad


def test_max_overlap_agrees_with_product_search():
    # two-qubit PPT states are separable, so the brute-force product search
    # and the Schmidt coefficient both pin the same answer
    rng = np.random.default_rng(151)
    for _ in range(10):
        psi = random_pure(rng, (2, 2))
        res = max_overlap_ppt(psi, cut=CUT01)
        oracle = best_product_overlap(psi.amplitudes, rng)
        assert abs(res.value - oracle) < 1e-3
        assert abs(oracle - schmidt_overlap(psi.amplitudes)) < 1e-9


def test_min_trace_distance_ppt_inputs():
    t = robust_vanishing_family(0.2)
    res = min_trace_distance_ppt(t.state, cut=t.cut_ab_c())
    assert res.value < 1e-6  # the state is already feasible across AB:C
    assert res.converged and res.gap <= PptOptConfig().tol  # T >= 0 closes it


def test_min_trace_distance_bell_pair():
    res = min_trace_distance_ppt(phi_plus().to_density(), cut=CUT01)
    assert abs(res.value - 0.5) < 1e-3
    assert is_ppt(res.certificate, CUT01, tol=1e-6)
    direct = trace_distance(phi_plus().to_density(), res.certificate)
    assert abs(direct - res.value) < 1e-9
    h = res.objective_history
    assert all(b <= a + 1e-6 for a, b in zip(h, h[1:]))
    assert res.converged and 0.0 <= res.gap <= PptOptConfig().tol


@pytest.mark.parametrize(
    "rho, exact",
    [
        (_isotropic(3, 0.6), 0.6 - 1 / 3),
        (_isotropic(3, 0.9), 0.9 - 1 / 3),
        (_werner(3, 0.7), 0.2),
        (_werner(3, 0.95), 0.45),
    ],
)
def test_trace_distance_dual_certifies_symmetric_states_early(rho, exact):
    # the first projection is already optimal; without the dual bound the
    # solver spent 800-1,500 sweeps on 100 stalled steps before stopping
    res = min_trace_distance_ppt(rho, cut=CUT01)
    assert res.converged and 0.0 <= res.gap <= PptOptConfig().tol
    assert res.iterations <= 60
    assert abs(res.value - exact) < 1e-6


def test_trace_distance_exits_without_a_certified_gap_are_not_converged(monkeypatch):
    # either way only the trivial bound T >= 0 is left, so the gap is the value
    rho = phi_plus().to_density()
    res = min_trace_distance_ppt(rho, CUT01, PptOptConfig(max_iters=3))
    assert res.iterations == 3  # budget spent on the first projection
    assert not res.converged and res.gap == res.value
    # with no usable bound the loop leaves on 100 stalled steps, inside the budget
    monkeypatch.setattr(pptopt, "_trace_distance_dual", lambda *args: -math.inf)
    res = min_trace_distance_ppt(rho, cut=CUT01)
    assert res.iterations < PptOptConfig().max_iters
    assert not res.converged and res.gap == res.value
    assert abs(res.value - 0.5) < 1e-3


def test_min_trace_distance_dimension_cap():
    big = DensityMatrix((2,) * 7, np.eye(128) / 128)
    with pytest.raises(SizeLimitError):
        min_trace_distance_ppt(big, cut=Bipartition.of((0,), 7))


def test_geodist_pure_bell_pair():
    res = geometric_distillability_ppt(phi_plus(), cut=CUT01)
    assert isinstance(res, GeoDistResult)
    assert res.low == res.high
    assert abs(res.low - GEODIST_PHI) < 1e-3


def test_geodist_pure_density_input_routes_to_overlap():
    res = geometric_distillability_ppt(phi_plus().to_density(), cut=CUT01)
    assert res.low == res.high
    assert abs(res.low - GEODIST_PHI) < 1e-3


def test_geodist_two_bell_pairs():
    pair = tensor(phi_plus(), phi_plus())
    cut = Bipartition((0, 2), (1, 3))
    res = geometric_distillability_ppt(pair, cut=cut)
    assert abs(res.low - 0.5) < 1e-3  # 1 - sqrt(1/4)
    assert res.low == res.high


def test_geodist_mixed_interval():
    t = robust_vanishing_family(0.2)
    res = geometric_distillability_ppt(t.state, cut=t.cut_ab_c())
    assert 0.0 <= res.low <= res.high <= 1e-5  # feasible already
    noisy = DensityMatrix(
        (2, 2), 0.8 * phi_plus().to_density().data + 0.2 * np.eye(4) / 4
    )
    res = geometric_distillability_ppt(noisy, cut=CUT01)
    assert 0.0 <= res.low <= res.high <= 1.0
    assert res.low > 0.0  # the state is visibly entangled
    # consistency of the bracket with an independent fidelity evaluation
    f = fidelity(noisy, res.detail.certificate)
    assert 1.0 - f <= res.high + 1e-6


def test_geodist_monotone_in_bell_pair_count():
    one = geometric_distillability_ppt(phi_plus(), cut=CUT01).low
    two = geometric_distillability_ppt(
        tensor(phi_plus(), phi_plus()), cut=Bipartition((0, 2), (1, 3))
    ).low
    assert one < two
