"""Optimisers over the PPT-constrained state set."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pptmerge import (
    DIMENSION_CAP,
    OPT_SCHUR_CAP,
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
    tensor,
    trace_distance,
)
from pptmerge import pptopt
from pptmerge.core import _pt_array
from pptmerge.pptopt import _Coords
from pptmerge.families import phi_plus, robust_vanishing_family
from helpers import isotropic, random_density, random_pure, werner
from oracles import best_product_overlap, least_eigenvalue_near_rank_one, schmidt_overlap

CUT01 = Bipartition((0,), (1,))
TOL = PptOptConfig().tol

# 1 - sqrt(1/2), the geometric distillability of one Bell pair
GEODIST_PHI = 0.29289321881345254


def test_config_validation():
    for tol in (0.0, -1e-7, float("inf"), float("nan"), True, np.True_, "1e-7", None):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            PptOptConfig(tol=tol)
    # the checks above hold for the config's life: no field can be reassigned
    config = PptOptConfig()
    for value in (float("nan"), float("inf")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.tol = value


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
    # s_1^2 = 1/2, which the product certificate reaches up to rounding
    assert 0.0 <= res.gap <= TOL
    assert res.value - 1e-12 <= 0.5 <= res.value + res.gap + 1e-12


def test_max_overlap_product_state_reaches_one():
    rng = np.random.default_rng(149)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    res = max_overlap_ppt(PureState((2, 2), vec), cut=CUT01)
    assert res.value > 1.0 - 1e-5


def _interior_margins(res, cut):
    """Least eigenvalues of the certificate and of its partial transpose."""
    sigma = res.certificate
    return (
        np.linalg.eigvalsh(sigma.data)[0],
        np.linalg.eigvalsh(_pt_array(sigma.data, sigma.dims, cut.left))[0],
    )


@pytest.mark.parametrize("real", [False, True])
def test_schur_matrix_matches_its_definition(monkeypatch, real):
    # every group pair of the trace-distance layout (4 blocks, 2 groups, block
    # 3 transposed) sums Re Tr(B_i X_k B_j Y_k) over the blocks k in both of
    # its groups, with B_i^Gamma for block 3, over the basis of the entries
    # kept; at D = 6 with all 15 entries above the diagonal, with the 4
    # inside sectors (0, 1, 4) and (2, 3), and with none, each in the
    # default row chunks and in chunks of 2^7 and of 1 matrix entries
    rng = np.random.default_rng(233)
    dims = (2, 3)
    transposed = (0, 0, 0, 1)
    g = rng.standard_normal((8, 6, 6)) + (0 if real else 1j) * rng.standard_normal((8, 6, 6))
    X, Y = np.split(g @ g.conj().transpose(0, 2, 1), 2)
    blocks = np.array([[1, 1], [0, 1], [1, 0], [1, 0]], bool)
    # the blocks in both groups of each pair
    pairs = [(0, 0, [0, 2, 3]), (0, 1, [0]), (1, 1, [0, 1])]
    i, j = np.triu_indices(6, 1)
    default = pptopt._SCHUR_CHUNK
    for sector, counts in (
        ((0,) * 6, (1, 5, 15)), ((0, 0, 1, 1, 0, 2), (1, 1, 4)), (range(6), (1, 1, 1))
    ):
        inside = np.array(sector)[i] == np.array(sector)[j]
        upper = (i[inside], j[inside])
        for chunk, count in zip((default, 2**7, 1), counts):
            monkeypatch.setattr(pptopt, "_SCHUR_CHUNK", chunk)
            coords = _Coords(dims, (0,), real, upper, blocks, transposed)
            assert len(coords.chunks) == count
            n = coords.n
            # the basis and its partial transpose: L of the unit vectors of
            # group 1 in a layout where two blocks hold it, the second transposed
            lin = _Coords(dims, (0,), real, upper, np.array([[0, 1], [0, 1]], bool), (0, 1)).lin
            bases = np.stack([lin(e) for e in np.eye(2 * n - 1)[n - 1 :]], axis=1)
            # schur returns the matrix less its first row and column, a view
            # of the whole one; each call writes every entry of it again
            coords.schur(X, Y).base.fill(np.nan)
            got = coords.schur(X, Y).base
            assert got.shape == (2 * n, 2 * n)
            for a, b, on in pairs:
                expected = sum(
                    np.einsum("iab,bc,jcd,da->ij", bases[transposed[k]], X[k],
                              bases[transposed[k]], Y[k]).real
                    for k in on
                )
                rows, cols = slice(a * n, (a + 1) * n), slice(b * n, (b + 1) * n)
                np.testing.assert_allclose(got[rows, cols], expected, rtol=0, atol=1e-12)
                if a != b:  # the mirrored block is the transpose, bit for bit
                    np.testing.assert_array_equal(got[cols, rows], got[rows, cols].T)


@pytest.mark.parametrize("real", [False, True])
def test_adjoint_matches_its_definition(real):
    # L*(Y)_i sums Re Tr(B_i Y_k) over the blocks k in group i's group, with
    # B_i^Gamma for block 3, over the basis of the entries kept, less the
    # first coordinate; for the trace-distance layout at D = 6 with all 15
    # entries above the diagonal, with the 4 inside sectors (0, 1, 4) and
    # (2, 3), and with none, in the default row chunks and in chunks of 2^7
    # and of 1 matrix entries
    rng = np.random.default_rng(239)
    dims = (2, 3)
    transposed = (0, 0, 0, 1)
    blocks = np.array([[1, 1], [0, 1], [1, 0], [1, 0]], bool)
    g = rng.standard_normal((4, 6, 6)) + (0 if real else 1j) * rng.standard_normal((4, 6, 6))
    Y = g + g.conj().transpose(0, 2, 1)
    i, j = np.triu_indices(6, 1)
    for sector in ((0,) * 6, (0, 0, 1, 1, 0, 2), range(6)):
        inside = np.array(sector)[i] == np.array(sector)[j]
        upper = (i[inside], j[inside])
        for chunk in (pptopt._SCHUR_CHUNK, 2**7, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pptopt, "_SCHUR_CHUNK", chunk)
                coords = _Coords(dims, (0,), real, upper, blocks, transposed)
            n = coords.n
            lin = _Coords(dims, (0,), real, upper, np.array([[0, 1], [0, 1]], bool), (0, 1)).lin
            bases = np.stack([lin(e) for e in np.eye(2 * n - 1)[n - 1 :]], axis=1)
            expected = np.concatenate([
                sum(np.einsum("iab,ba->i", bases[transposed[k]], Y[k]).real
                    for k in np.flatnonzero(blocks[:, group]))
                for group in range(2)
            ])[1:]
            np.testing.assert_allclose(coords.adj(Y), expected, rtol=0, atol=1e-13)


def test_certificates_are_unit_trace_states_feasible_to_rounding():
    # the overlap's certificate is a product of unit vectors, renormalised;
    # the trace distance's is I/D plus traceless coordinates, an iterate or
    # the point where a predictor step meets the cone boundary, so it needs
    # no polishing; 240 overlap targets (30 per layout) must all meet 1e-15
    rng = np.random.default_rng(211)
    cut = Bipartition((0,), (1, 2))
    solved = [(min_trace_distance_ppt(random_density(rng, (2, 2, 2), rank=2), cut), cut)]
    for dims, left in [
        ((2, 3), (0,)), ((2, 4), (0,)), ((3, 3), (0,)), ((3, 4), (0,)), ((4, 4), (0,)),
        ((2, 2, 2, 2), (0,)), ((2, 2, 2, 2), (0, 2)), ((2, 2, 2, 2), (1, 2, 3)),
    ] * 30:
        cut = Bipartition.of(left, len(dims))
        solved.append((max_overlap_ppt(random_pure(rng, dims), cut), cut))
    for res, cut in solved:
        assert res.converged
        assert max(res.residuals.values()) <= 1e-15
        assert min(_interior_margins(res, cut)) >= -1e-15
        # the constructor keeps the bits of the certificate's matrix
        cert = res.certificate.data
        again = DensityMatrix(res.certificate.dims, cert.copy()).data
        assert again.dtype == cert.dtype and again.tobytes() == cert.tobytes()
        assert not cert.flags.writeable


def test_overlap_takes_no_eigendecomposition(monkeypatch):
    # the certificate is a product vector, so a pure target costs one SVD
    # and no eigendecomposition, up to D = 4096
    calls = {"eig": 0, "svd": 0}
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        real, key = getattr(np.linalg, name), "svd" if name == "svd" else "eig"

        def counted(*a, _real=real, _key=key, **k):
            calls[_key] += 1
            return _real(*a, **k)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(241)
    layouts = [((3, 3), (0,)), ((2, 2, 2, 2), (0, 2)), ((32, 32), (0,)), ((64, 64), (0,))]
    for dims, left in layouts:
        psi, cut = random_pure(rng, dims), Bipartition.of(left, len(dims))
        for solve in (max_overlap_ppt, geometric_distillability_ppt):
            calls.update(eig=0, svd=0)
            res = solve(psi, cut)
            assert calls == {"eig": 0, "svd": 1}
            detail = res if isinstance(res, PptOptResult) else res.detail
            assert max(detail.residuals.values()) <= 1e-15


def test_overlap_memory_is_linear_in_the_dimension():
    # no D x D array is formed: at D = 4096 a call peaks far below the
    # 256 MiB of one complex D x D matrix
    psi, cut = random_pure(np.random.default_rng(243), (64, 64)), CUT01
    for solve in (max_overlap_ppt, geometric_distillability_ppt):
        tracemalloc.start()
        try:
            solve(psi, cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_overlap_certificate_is_a_product_vector():
    # the certificate is the vector v, whose state |v><v| / <v|v> is PSD and
    # PPT whatever its bits, so psd = ppt = 0; across the cut the stored
    # amplitudes are rank one to rounding, and value is their overlap with
    # the target, recomputed here in long double
    rng = np.random.default_rng(1009)
    layouts = [
        ((2, 2), (0,)), ((2, 3), (0,)), ((3, 2), (0,)), ((2, 4), (0,)), ((3, 3), (0,)),
        ((4, 3), (0,)), ((3, 4), (0,)), ((4, 4), (0,)), ((2, 2, 2), (0,)),
        ((2, 2, 2), (0, 1)), ((2, 2, 2, 2), (0, 2)), ((2, 2, 2, 2), (1, 2, 3)),
    ]
    eps = np.finfo(float).eps
    count = 0
    for _ in range(125):
        for dims, left in layouts:
            for real in (False, True):
                D = int(np.prod(dims))
                a = rng.standard_normal(D) + (0 if real else 1j) * rng.standard_normal(D)
                psi = PureState(dims, a / np.linalg.norm(a))
                cut = Bipartition.of(left, len(dims))
                res = max_overlap_ppt(psi, cut)
                assert isinstance(res.certificate, PureState)
                assert res.residuals["psd"] == res.residuals["ppt"] == 0.0
                v = res.certificate.amplitudes
                rows = int(np.prod([dims[i] for i in left]))
                across = v.reshape(dims).transpose(cut.left + cut.right).reshape(rows, -1)
                assert np.linalg.svd(across, compute_uv=False)[1] <= 4 * eps
                v, amps = v.astype(np.clongdouble), psi.amplitudes.astype(np.clongdouble)
                overlap = abs(np.sum(v.conj() * amps)) ** 2 / np.sum(abs(v) ** 2)
                assert abs(res.value - float(overlap)) <= 1e-15
                assert abs(res.residuals["trace"] - abs(float(np.sum(abs(v) ** 2)) - 1)) <= eps
                count += 1
    assert count == 3000


def _outer_argsort_certificate(psi, cut):
    """The overlap's certificate, value and gap by the formula written with
    ``np.outer`` and ``np.argsort``: the oracle the product built from
    ``U[:, :1] * Vh[0]`` and a Python inverse permutation must match bit for bit."""
    dims, order = psi.dims, cut.left + cut.right
    shape = [dims[i] for i in order]
    M = psi.amplitudes.reshape(dims).transpose(order).reshape(math.prod(shape[: len(cut.left)]), -1)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    v = np.outer(U[:, 0], Vh[0]).reshape(shape).transpose(np.argsort(order)).reshape(-1)
    v /= math.sqrt(np.vdot(v, v).real)
    value = min(1.0, float(abs(np.vdot(v, psi.amplitudes)) ** 2) / float(np.vdot(v, v).real))
    return v, value, max(0.0, float(s[0]) ** 2 - value)


@pytest.mark.parametrize(
    "dims, left",
    [((2, 2, 2, 2), (0, 2)), ((2, 3, 2), (1,)), ((3, 2), (1,)), ((2, 3, 4), (1, 2)),
     ((2, 2, 2, 2), (1, 3))],
)
def test_overlap_certificate_on_split_and_permuted_cuts_is_the_outer_product(dims, left):
    # a cut whose left block is not a prefix makes the certificate go
    # through the inverse permutation of the cut order, which differs from
    # that order for the last two cuts; real and complex targets alike
    rng = np.random.default_rng(7)
    cut = Bipartition.of(left, len(dims))
    D = math.prod(dims)
    for real in (True, False):
        for _ in range(50):
            a = rng.standard_normal(D) + (0 if real else 1j) * rng.standard_normal(D)
            psi = PureState(dims, a / np.linalg.norm(a))
            res = max_overlap_ppt(psi, cut)
            v, value, gap = _outer_argsort_certificate(psi, cut)
            assert res.certificate.amplitudes.tobytes() == v.tobytes()
            assert (res.value, res.gap) == (value, gap)


def test_overlap_of_a_product_target_is_at_most_one():
    # a product target overlaps its own certificate fully, and rounding read
    # the overlap up to 1 + 5 eps on 1,335 of these 3,000 targets: value is
    # clamped at 1, so the pure geodist never goes below 0
    rng = np.random.default_rng(1019)
    for _ in range(3000):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = PureState((3, 4), np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
        res = max_overlap_ppt(psi, CUT01)
        assert 1.0 - 1e-14 <= res.value <= 1.0 and res.gap <= 1e-14
        geo = geometric_distillability_ppt(psi, CUT01)
        assert 0.0 <= geo.low == geo.high <= 1e-14


@pytest.mark.parametrize("v", [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1j, 1j, 1]])
def test_exact_spectrum_oracle_on_known_spectra(v):
    # H = I - v v^dag / 2 is unitary with entries of modulus 1/2, so every
    # entry of H diag(lam) H^dag is a sum of +-lam_k / 4 (times 1 or i) and
    # is exact in float64 for these lam; float64 eigvalsh errs by up to about
    # 0.5 eps on them, the oracle must stay within 1e-19; padded with zeros
    # and permuted to D = 16, the least eigenvalue is min(0, lam)
    e = 2.0**-52
    v = np.array(v, dtype=complex)
    H = np.eye(4) - np.outer(v, v.conj()) / 2
    assert np.array_equal(H @ H.conj().T, np.eye(4))
    perm = np.random.default_rng(1013).permutation(16)
    for lam in ([1, -e, 0, 0], [1, -e, 2 * e, 0], [1 - e, -3 * e, e, 2 * e], [1, 0, 0, 0]):
        A = (H * np.array(lam)) @ H.conj().T
        assert abs(least_eigenvalue_near_rank_one(A) - min(lam)) <= 1e-19
        padded = np.kron(A, np.diag(np.eye(4)[0]))[np.ix_(perm, perm)]
        assert abs(least_eigenvalue_near_rank_one(padded) - min(0.0, *lam)) <= 1e-19


def test_max_overlap_dimension_cap(monkeypatch):
    # the first size past the exact-operation cap fails before the SVD
    def no_svd(*args, **kwargs):
        raise AssertionError("the SVD ran before the size check")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    psi = PureState((17, 241), np.eye(1, DIMENSION_CAP + 1)[0])
    with pytest.raises(SizeLimitError, match=f"dimension {DIMENSION_CAP + 1}"):
        max_overlap_ppt(psi, cut=CUT01)


@pytest.mark.parametrize("dims, left", [((6, 7), (0,)), ((2,) * 7, (0, 1, 2))])
def test_max_overlap_is_exact_above_the_old_caps(dims, left):
    # D = 42 and D = 128 used to exceed the Schur-row and dimension caps
    psi = random_pure(np.random.default_rng(229), dims)
    res = max_overlap_ppt(psi, Bipartition.of(left, len(dims)))
    assert res.iterations == 0 and res.converged and res.gap <= 1e-12
    assert abs(res.value - schmidt_overlap(psi.amplitudes, dims, left)) <= 1e-12
    assert max(res.residuals.values()) <= 1e-12


@pytest.mark.parametrize(
    "dims, left", [((2, 3), (0,)), ((3, 3), (0,)), ((2, 2, 2), (0, 1)), ((2, 2, 2, 2), (0, 2))]
)
def test_max_overlap_brackets_the_schmidt_value(dims, left):
    # the maximum is s_1^2, the largest squared Schmidt coefficient across the cut
    psi = random_pure(np.random.default_rng(223), dims)
    res = max_overlap_ppt(psi, Bipartition.of(left, len(dims)))
    exact = schmidt_overlap(psi.amplitudes, dims, left)
    assert res.converged and 0.0 <= res.gap <= TOL
    assert res.value - 1e-12 <= exact <= res.value + res.gap + 1e-12


def test_real_inputs_match_their_complex_rotations():
    # a real target runs on real coordinates; a local diagonal phase makes it
    # complex without changing the optimum
    rng = np.random.default_rng(227)
    phases = np.kron(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)), np.ones(3))
    rho = random_density(rng, (3, 3), rank=2).data.real
    rho = rho / np.trace(rho)
    amps = rng.standard_normal(9)
    amps /= np.linalg.norm(amps)
    for solve, real, rotated in (
        (max_overlap_ppt, PureState((3, 3), amps), PureState((3, 3), phases * amps)),
        (
            min_trace_distance_ppt,
            DensityMatrix((3, 3), rho),
            DensityMatrix((3, 3), phases[:, None] * rho * phases.conj()[None, :]),
        ),
    ):
        a, b = solve(real, CUT01), solve(rotated, CUT01)
        assert not a.certificate.data.imag.any() and b.certificate.data.imag.any()
        assert a.converged and b.converged
        assert abs(a.value - b.value) <= 2 * TOL


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
    assert res.converged and 0.0 <= res.gap <= TOL
    assert res.value - res.gap <= 0.5 <= res.value + 1e-12


@pytest.mark.parametrize(
    "rho, exact",
    [
        (isotropic(3, 0.6), 0.6 - 1 / 3),
        (isotropic(3, 0.9), 0.9 - 1 / 3),
        (werner(3, 0.7), 0.2),
        (werner(3, 0.95), 0.45),
    ],
)
def test_trace_distance_dual_certifies_symmetric_states_early(rho, exact):
    # T is f - 1/d (isotropic) or p - 1/2 (Werner); the value and the dual
    # bound meet it from either side
    res = min_trace_distance_ppt(rho, cut=CUT01)
    assert res.converged and 0.0 <= res.gap <= PptOptConfig().tol
    assert res.iterations <= 5
    assert abs(res.value - exact) < 1e-6


def test_trace_distance_exits_without_a_certified_gap_are_not_converged(monkeypatch):
    # one iteration leaves a bracket far wider than tol, but both ends hold;
    # from the start at rho's least PPT mixture, two already close it to 5e-5
    monkeypatch.setattr(pptopt, "_MAX_ITERS", 1)
    rho = phi_plus().to_density()
    res = min_trace_distance_ppt(rho, CUT01)
    assert res.iterations == 1
    assert not res.converged and res.gap > 1e3 * TOL
    assert res.value - res.gap <= 0.5 <= res.value + 1e-12
    assert res.value == trace_distance(rho, res.certificate)


def test_a_rounding_floor_exit_before_any_score_certifies_the_last_good_point(monkeypatch):
    # the kernel scores no point until its own gap is near tol; a Cholesky
    # failure after the first step then leaves it the start to score
    cholesky, calls = np.linalg.cholesky, []

    def failing_after_the_start(a):
        calls.append(a.shape)
        if len(calls) > 1:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing_after_the_start)
    rho = phi_plus().to_density()
    res = min_trace_distance_ppt(rho, CUT01)
    assert len(calls) == 2 and res.iterations == 1
    assert not res.converged and res.gap > TOL
    assert res.value == trace_distance(rho, res.certificate)
    assert res.value - res.gap <= 0.5 <= res.value + 1e-12


def test_a_tol_below_the_rounding_floor_stops_instead_of_raising():
    # at tol = 1e-12 a step near the optimum can leave S or X semidefinite in
    # floating point; 17 of these 20 solves raised LinAlgError from the
    # Cholesky factorisation, and each now returns its best certified point
    rng = np.random.default_rng(5)
    config = PptOptConfig(tol=1e-12)
    for _ in range(20):
        rho = random_density(rng, (2, 2), rank=2)
        res = min_trace_distance_ppt(rho, CUT01, config)
        assert res.converged == (res.gap <= config.tol)
        assert 0.0 <= res.gap <= 1e-9
        assert max(res.residuals.values()) <= 1e-15
        assert res.value == trace_distance(rho, res.certificate)


def test_trace_distance_gap_is_read_off_the_certificate(monkeypatch):
    # a certificate moved after the kernel (as a clamp would move it) keeps
    # value - gap at the kernel's certified lower bound -upper
    bounds = []
    kernel, density = pptopt._interior_point, pptopt._density_with_spectrum

    def recording_kernel(*args):
        out = kernel(*args)
        bounds.append(out[-2])
        return out

    def mixed(dims, data, spectrum):
        D = data.shape[0]
        return density(dims, (1.0 - 1e-6) * data + 1e-6 * np.eye(D) / D, spectrum)

    monkeypatch.setattr(pptopt, "_interior_point", recording_kernel)
    monkeypatch.setattr(pptopt, "_density_with_spectrum", mixed)
    for rho in (phi_plus().to_density(), isotropic(3, 0.8)):
        res = min_trace_distance_ppt(rho, CUT01)
        assert abs((res.value - res.gap) - (-bounds[-1])) <= 1e-15


def test_trace_distance_value_is_the_score_or_measured_on_a_moved_certificate(monkeypatch):
    # value is the kernel's score of the certificate's matrix, with no
    # eigendecomposition of its own; a certificate that validation moved (as
    # a clamp would move it) is measured again, so value is T(rho, cert) both ways
    density = pptopt._density_with_spectrum
    rho = isotropic(3, 0.8)
    plain = min_trace_distance_ppt(rho, CUT01)
    assert plain.value == trace_distance(rho, plain.certificate)

    def mixed(dims, data, spectrum):
        D = data.shape[0]
        return density(dims, (1.0 - 1e-6) * data + 1e-6 * np.eye(D) / D, spectrum)

    monkeypatch.setattr(pptopt, "_density_with_spectrum", mixed)
    moved = min_trace_distance_ppt(rho, CUT01)
    assert moved.value != plain.value
    assert moved.value == trace_distance(rho, moved.certificate)


def test_min_trace_distance_dimension_cap():
    big = random_density(np.random.default_rng(227), (2,) * 7, rank=2)
    with pytest.raises(SizeLimitError):
        min_trace_distance_ppt(big, cut=Bipartition.of((0,), 7))


def test_schur_row_cap_is_checked_before_any_work(monkeypatch):
    # a dense complex state has one sector and 2 D^2 - 1 rows; the smallest
    # size past the cap is D = 30, and D = 28 (the next size down) fits
    rng = np.random.default_rng(231)
    rows = 2 * 30**2 - 1
    assert 2 * 28**2 - 1 <= OPT_SCHUR_CAP < rows

    def no_work(*args):
        raise AssertionError("past the cap")

    monkeypatch.setattr(pptopt, "_Coords", no_work)
    with pytest.raises(SizeLimitError, match=f"{rows} Schur rows"):
        min_trace_distance_ppt(random_density(rng, (5, 6), rank=2), CUT01)
    with pytest.raises(AssertionError, match="past the cap"):
        min_trace_distance_ppt(random_density(rng, (4, 7), rank=2), CUT01)


def test_maximally_mixed_state_above_the_dense_cap_certifies_zero(monkeypatch):
    # I/30 is diagonal: every state is its own sector, so the program keeps
    # the 30 diagonal coordinates of sigma and of P, 59 rows
    monkeypatch.setattr(pptopt, "OPT_SCHUR_CAP", 58)
    rho = DensityMatrix((5, 6), np.eye(30) / 30)
    with pytest.raises(SizeLimitError, match="59 Schur rows"):
        min_trace_distance_ppt(rho, CUT01)
    monkeypatch.undo()
    res = min_trace_distance_ppt(rho, CUT01)
    assert res.converged and 0.0 <= res.value <= res.gap <= TOL


@pytest.mark.parametrize(
    "rho, cut, rows",
    [
        (isotropic(2, 0.8), CUT01, 9),
        (werner(2, 0.8), CUT01, 9),
        (isotropic(3, 0.8), CUT01, 23),
        (werner(3, 0.8), CUT01, 23),
        (robust_vanishing_family(0.2).state, Bipartition((0, 1), (2,)), 19),
    ],
    ids=["isotropic-d2", "werner-d2", "isotropic-d3", "werner-d3", "robust-vanishing"],
)
def test_schur_rows_are_those_of_the_sectors(monkeypatch, rho, cut, rows):
    # real states with sectors: D diagonal coordinates plus one per entry
    # inside a sector above the diagonal, for sigma and for P, less the
    # trace (19, 89 and 71 rows in the full program)
    monkeypatch.setattr(pptopt, "OPT_SCHUR_CAP", 0)
    with pytest.raises(SizeLimitError, match=f"need {rows} Schur rows"):
        min_trace_distance_ppt(rho, cut)


def test_geodist_pure_bell_pair():
    res = geometric_distillability_ppt(phi_plus(), cut=CUT01)
    assert isinstance(res, GeoDistResult)
    assert res.low == res.high
    assert abs(res.low - GEODIST_PHI) < 1e-3


def test_geodist_pure_density_input_routes_to_overlap():
    res = geometric_distillability_ppt(phi_plus().to_density(), cut=CUT01)
    assert res.low == res.high
    assert abs(res.low - GEODIST_PHI) < 1e-3


@pytest.mark.parametrize(
    "dims, left", [((2, 3), (0,)), ((3, 3), (0,)), ((2, 2, 2), (0, 1)), ((2, 2, 2, 2), (0, 2))]
)
def test_geodist_pure_is_exact(dims, left):
    # both ends are 1 - s_1, for a pure state and for its density matrix
    psi = random_pure(np.random.default_rng(239), dims)
    exact = 1.0 - np.sqrt(schmidt_overlap(psi.amplitudes, dims, left))
    cut = Bipartition.of(left, len(dims))
    for state in (psi, psi.to_density()):
        res = geometric_distillability_ppt(state, cut)
        assert res.low == res.high
        assert abs(res.low - exact) <= 1e-12


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
