"""Containers and linear algebra primitives."""

import itertools
import json
import re
import warnings

import numpy as np
import pytest

from pptmerge import (
    DIMENSION_CAP,
    Bipartition,
    DensityMatrix,
    PptOptConfig,
    PureState,
    SizeLimitError,
    TripartiteState,
    check_sep_family_obstruction,
    classify,
    conditional_entropy,
    dumps_state,
    geometric_distillability_ppt,
    ghz,
    fidelity,
    hashing_witness,
    is_ppt,
    loads_state,
    log_negativity,
    max_overlap_ppt,
    merging_cost_pure,
    min_trace_distance_ppt,
    mutual_information,
    negativity_witness,
    partial_trace,
    partial_transpose,
    perturb,
    product_example,
    product_pure,
    rank_of_family,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from pptmerge import core
from pptmerge.core import _density_with_spectrum
from helpers import haar_unitary, random_density, random_ket, random_pure
from oracles import partial_trace_einsum

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def test_density_matrix_accepts_valid_input():
    rho = DensityMatrix((2,), np.eye(2) / 2)
    assert rho.dims == (2,)
    assert rho.dim == 2
    assert abs(np.trace(rho.data) - 1.0) < 1e-14


def test_density_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.ones((2, 3)))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((2,), np.eye(2))


def test_density_matrix_rejects_negative_spectrum():
    m = np.diag([1.2, -0.2])
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix((2,), m)
    # just past the floor is still rejected
    m = np.diag([1.0 + 2e-9, -2e-9])
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix((2,), m)


def test_density_matrix_clamps_tiny_negative_eigenvalue():
    m = np.diag([0.6, 0.4 + 5e-10, -5e-10])
    rho = DensityMatrix((3,), m)
    w = np.linalg.eigvalsh(rho.data)
    assert w[0] >= 0.0
    assert abs(np.trace(rho.data).real - 1.0) < 1e-14


def _eigvalsh_counted(calls):
    def spectrum(a):
        calls.append(a)
        return np.linalg.eigvalsh(a)[None]

    return spectrum


@pytest.mark.parametrize(
    "m, measured",
    [
        (np.diag([0.6, 0.4, 0.0]), 1),
        # -5e-10 lies between the -1e-9 floor and the rounding floor, so the
        # constructor clamps it, and the clamped matrix is measured again
        (np.diag([0.6, 0.4 + 5e-10, -5e-10]), 2),
    ],
)
def test_density_with_spectrum_has_the_constructors_bits(m, measured):
    calls = []
    rho, w = _density_with_spectrum((3,), m, _eigvalsh_counted(calls))
    expected = DensityMatrix((3,), m).data
    assert rho.dims == (3,) and rho.data.dtype == expected.dtype
    assert rho.data.tobytes() == expected.tobytes()
    assert not rho.data.flags.writeable
    assert len(calls) == measured
    np.testing.assert_array_equal(w, np.linalg.eigvalsh(expected)[None])


@pytest.mark.parametrize(
    "m", [np.diag([1.0 + 2e-9, -2e-9, 0.0]), np.diag([0.5, 0.5 + 2e-10, 0.0])],
    ids=["below-eigenvalue-floor", "trace-off-by-2e-10"],
)
def test_density_with_spectrum_raises_the_constructors_errors(m):
    with pytest.raises(ValueError) as expected:
        DensityMatrix((3,), m)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        _density_with_spectrum((3,), m, _eigvalsh_counted([]))


def test_density_matrix_rejects_bad_dims():
    with pytest.raises(ValueError):
        DensityMatrix((), np.eye(1))
    with pytest.raises(ValueError):
        DensityMatrix((1, 2), np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityMatrix((2, 2), np.eye(2) / 2)  # shape mismatch


def test_density_matrix_rejects_non_finite():
    m = np.eye(2) / 2
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix((2,), m)


@pytest.mark.parametrize(
    "m",
    [
        [[1e308, 0.0], [0.0, -1e308]],  # the Hermitian part overflows to inf + nan j
        [[0.0, 1e308], [-1e308, 0.0]],  # M - M^dag overflows
        np.diag([6e307, 6e307, 6e307]),  # the trace overflows
        # M - M^dag is NaN, which the Hermiticity test lets through; only the
        # finite test of the Hermitian part catches it
        [[0.5, np.inf], [np.inf, 0.5]],
    ],
)
def test_density_matrix_rejects_entries_that_overflow(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            DensityMatrix((len(m),), np.array(m))


def test_containers_accept_strided_complex_input():
    # a transposed matrix or an eigenvector column is not C-contiguous
    rng = np.random.default_rng(5)
    rho = random_density(rng, (2, 2))
    assert np.array_equal(DensityMatrix((2, 2), rho.data.T).data, rho.data.T)
    col = np.linalg.eigh(rho.data)[1][:, -1]
    assert np.array_equal(PureState((2, 2), col).amplitudes, col)


def test_density_matrix_is_immutable():
    rho = DensityMatrix((2,), np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.data[0, 0] = 9.0
    # the input array is copied, mutating it later changes nothing
    m = np.eye(2) / 2
    rho = DensityMatrix((2,), m)
    m[0, 0] = 9.0
    assert rho.data[0, 0] == 0.5


def test_purity_and_is_pure():
    rng = np.random.default_rng(7)
    psi = random_pure(rng, (2, 2))
    assert psi.to_density().is_pure()
    assert abs(psi.to_density().purity() - 1.0) < 1e-12
    mixed = DensityMatrix((2,), np.eye(2) / 2)
    assert not mixed.is_pure()
    assert abs(mixed.purity() - 0.5) < 1e-14
    for atol in (float("inf"), float("nan"), -1.0, True):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            mixed.is_pure(atol)


def test_purity_matches_the_trace_of_the_square():
    # the O(D^2) sum of |rho_ij|^2 agrees with Tr(rho rho) to rounding
    rng = np.random.default_rng(263)
    for dims in [(2,), (2, 2), (3, 3), (2, 2, 2), (4, 4), (8, 8)]:
        for rank in (1, 2, None):
            rho = random_density(rng, dims, rank=rank)
            expected = np.trace(rho.data @ rho.data).real
            assert abs(rho.purity() - expected) <= 1e-15


def test_pure_state_validation():
    psi = PureState((2, 2), PHI_PLUS)
    assert psi.dim == 4
    with pytest.raises(ValueError, match="normalised"):
        PureState((2,), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PureState((2, 2), np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError, match="finite"):
        PureState((2,), np.array([np.inf, 0.0]))


def test_pure_state_rejects_amplitudes_whose_norm_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="normalised"):
            PureState((2, 2), np.array([1e308, 1e308, 0.0, 0.0]))


def test_a_valid_pure_state_takes_no_entry_by_entry_finite_pass(monkeypatch):
    # the squared norm from one vdot is finite, which rules out inf and NaN
    # entries, so only a vector that fails that test is scanned entry by entry
    calls = []
    isfinite = np.isfinite

    def counted(*args, **kwargs):
        calls.append(args)
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    psi = PureState((2, 2), PHI_PLUS)
    assert calls == []
    assert psi.amplitudes.tobytes() == PHI_PLUS.astype(complex).tobytes()
    assert not psi.amplitudes.flags.writeable
    for bad, message in [([np.nan, 1.0], "non-finite"), ([1e200, 1e200], "normalised")]:
        with pytest.raises(ValueError, match=message):
            PureState((2,), bad)
    assert len(calls) == 2


def test_pure_state_keeps_its_own_copy():
    amps = PHI_PLUS.astype(complex)
    psi = PureState((2, 2), amps)
    amps[0] = 0.0
    assert psi.amplitudes[0] == PHI_PLUS[0]


def test_pure_to_density_matches_outer_product():
    rng = np.random.default_rng(3)
    psi = random_pure(rng, (2, 3))
    rho = psi.to_density()
    expect = np.outer(psi.amplitudes, psi.amplitudes.conj())
    np.testing.assert_allclose(rho.data, expect, atol=1e-14)


def test_bipartition_validation():
    cut = Bipartition((2, 0), (1,))
    assert cut.left == (0, 2)  # sorted on construction
    assert cut.n_subsystems == 3
    with pytest.raises(ValueError):
        Bipartition((), (0, 1))
    with pytest.raises(ValueError):
        Bipartition((0,), (0, 1))  # overlap
    with pytest.raises(ValueError):
        Bipartition((0,), (2,))  # gap


def test_bipartition_of():
    cut = Bipartition.of((1,), 3)
    assert cut.left == (1,)
    assert cut.right == (0, 2)


def test_tripartite_state_validation():
    rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
    t = TripartiteState(rho, (0,), (1,), (2,))
    assert t.dims == (2, 2, 2)
    assert t.cut_a_bc() == Bipartition((0,), (1, 2))
    assert t.cut_ab_c() == Bipartition((0, 1), (2,))
    with pytest.raises(ValueError):
        TripartiteState(rho, (0,), (1,), ())
    with pytest.raises(ValueError):
        TripartiteState(rho, (0,), (0, 1), (2,))
    with pytest.raises(ValueError):
        TripartiteState(rho, (0,), (1,), (3,))
    with pytest.raises(ValueError, match="state must be a DensityMatrix, got PureState"):
        TripartiteState(PureState((2, 2, 2), np.eye(8)[0]), (0,), (1,), (2,))


def test_tripartite_from_pure():
    psi = PureState((2, 2, 2), np.eye(8)[0])
    t = TripartiteState.from_pure(psi, (0,), (1,), (2,))
    assert t.state.is_pure()


def test_tensor_matches_kron():
    rng = np.random.default_rng(11)
    a = random_density(rng, (2,))
    b = random_density(rng, (3,))
    ab = tensor(a, b)
    assert ab.dims == (2, 3)
    np.testing.assert_allclose(ab.data, np.kron(a.data, b.data), atol=1e-14)
    pa = random_pure(rng, (2,))
    pb = random_pure(rng, (2,))
    pab = tensor(pa, pb)
    np.testing.assert_allclose(
        pab.amplitudes, np.kron(pa.amplitudes, pb.amplitudes), atol=1e-14
    )


def test_tensor_type_and_size_guards(monkeypatch):
    rng = np.random.default_rng(5)
    rho = random_density(rng, (2, 2))
    psi = random_pure(rng, (2, 2))
    with pytest.raises(ValueError):
        tensor(rho, psi)
    # operands of one type that is not a state reach the type check, not .dim
    for a, b in ((1, 2), (ghz(), ghz())):
        with pytest.raises(ValueError, match="unsupported operand type"):
            tensor(a, b)

    def basis_state(d):
        return PureState((d,), np.eye(1, d)[0])

    def no_kron(*args, **kwargs):
        raise AssertionError("kron ran before the size check")

    # one level past the cap fails before the product is built; the cap itself passes
    with monkeypatch.context() as m:
        m.setattr(np, "kron", no_kron)
        with pytest.raises(SizeLimitError, match=f"{65 * 64} exceeds the cap {DIMENSION_CAP}"):
            tensor(basis_state(65), basis_state(64))
    assert 64 * 64 == DIMENSION_CAP
    assert tensor(basis_state(64), basis_state(64)).dims == (64, 64)


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(13)
    a = random_density(rng, (2,))
    b = random_density(rng, (3,))
    ab = tensor(a, b)
    np.testing.assert_allclose(partial_trace(ab, [0]).data, a.data, atol=1e-12)
    np.testing.assert_allclose(partial_trace(ab, [1]).data, b.data, atol=1e-12)


def test_partial_trace_matches_einsum_oracle():
    rng = np.random.default_rng(17)
    for dims in [(2, 2), (2, 3, 2), (2, 2, 2, 2)]:
        rho = random_density(rng, dims)
        n = len(dims)
        for r in range(1, n):
            keep = tuple(sorted(rng.choice(n, size=r, replace=False)))
            got = partial_trace(rho, keep).data
            want = partial_trace_einsum(rho.data, dims, keep)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_ptrace_array_matches_einsum_oracle_on_permuted_layouts():
    # one transpose to (kept, traced) order and one trace, for every subset
    # of subsystems kept, named in any order, on unequal dimensions
    rng = np.random.default_rng(23)
    for dims in [(2, 3), (3, 2, 2), (2, 3, 2), (2, 2, 3, 2)]:
        rho = random_density(rng, dims).data
        n = len(dims)
        for r in range(1, n + 1):
            for keep in itertools.combinations(range(n), r):
                named = tuple(rng.permutation(keep))
                got = core._ptrace_array(rho, dims, named)
                want = partial_trace_einsum(rho, dims, keep)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_partial_trace_keep_all_and_errors():
    rng = np.random.default_rng(19)
    rho = random_density(rng, (2, 2))
    assert partial_trace(rho, [0, 1]) is rho
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])


MIXED_4 = DensityMatrix((2, 2), np.eye(4) / 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TripartiteState(DensityMatrix((2, 2, 2), np.eye(8) / 8), (0.2,), (1.7,), (2,)),
        lambda: DensityMatrix((2.7, 2), np.eye(4) / 4),
        lambda: DensityMatrix(("2", "2"), np.eye(4) / 4),
        lambda: PureState((2.0, 2), np.eye(4)[0]),
        lambda: partial_trace(MIXED_4, [0.5]),
        lambda: Bipartition((0.0,), (1,)),
        lambda: Bipartition.of((1.0,), 3),
        lambda: Bipartition((False,), (True,)),
        lambda: Bipartition.of((True,), 2),
        lambda: partial_trace(MIXED_4, [True]),
        lambda: DensityMatrix((2, True), np.eye(2) / 2),
    ],
    ids=[
        "tripartite", "dims-float", "dims-str", "pure-dims", "keep", "bipartition", "of",
        "bipartition-bool", "of-bool", "keep-bool", "dims-bool",
    ],
)
def test_integer_inputs_are_checked_not_truncated(build):
    with pytest.raises(ValueError, match="expected integers"):
        build()


PURE_8 = PureState((2, 2, 2), np.eye(8)[0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: DensityMatrix(4, np.eye(4) / 4),
        lambda: PureState(4, np.eye(4)[0]),
        lambda: partial_trace(MIXED_4, 0),
        lambda: Bipartition.of(0, 2),
        lambda: Bipartition.of((0,), 2.5),
        lambda: Bipartition((0,), 1),
        lambda: TripartiteState(PURE_8.to_density(), 0, 1, 2),
        lambda: TripartiteState.from_pure(PURE_8, 0, 1, 2),
        lambda: partial_transpose(MIXED_4, (0,)),
        lambda: hashing_witness(MIXED_4, (0,)),
    ],
    ids=[
        "dims-int", "pure-dims-int", "keep-int", "of-left-int", "of-n-float",
        "bipartition-right-int", "tripartite-ints", "from-pure-ints", "pt-tuple-cut",
        "hashing-tuple-cut",
    ],
)
def test_inputs_of_the_wrong_kind_raise_value_error(build):
    # each raised TypeError or AttributeError from a len, a loop or an attribute
    with pytest.raises(ValueError):
        build()


CUT_4 = Bipartition((0,), (1,))
PURE_4 = PureState((2, 2), PHI_PLUS)
NOT_TRIPARTITE = "state must be a TripartiteState, got DensityMatrix"
ARRAY_4 = np.eye(4) / 4
NOT_A_STATE = "must be a DensityMatrix or PureState, got ndarray"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: max_overlap_ppt(MIXED_4, CUT_4), "psi must be a PureState, got DensityMatrix"),
        (lambda: max_overlap_ppt(MIXED_4.data, CUT_4), "psi must be a PureState, got ndarray"),
        (
            lambda: geometric_distillability_ppt(MIXED_4.data, CUT_4),
            "state must be a PureState or DensityMatrix, got ndarray",
        ),
        (
            lambda: geometric_distillability_ppt(MIXED_4, CUT_4, config=1e-7),
            "config must be a PptOptConfig, got float",
        ),
        # a pure input never reaches the mixed solver, and used to pass
        (
            lambda: geometric_distillability_ppt(PURE_4, CUT_4, config=1e-7),
            "config must be a PptOptConfig, got float",
        ),
        # a falsy config used to run as the default one
        (
            lambda: min_trace_distance_ppt(MIXED_4, CUT_4, config=0),
            "config must be a PptOptConfig, got int",
        ),
        (
            lambda: min_trace_distance_ppt(MIXED_4.data, CUT_4, PptOptConfig()),
            "rho must be a DensityMatrix or PureState, got ndarray",
        ),
        (lambda: classify(MIXED_4), NOT_TRIPARTITE),
        (lambda: conditional_entropy(MIXED_4), NOT_TRIPARTITE),
        (lambda: merging_cost_pure(MIXED_4), NOT_TRIPARTITE),
        (lambda: check_sep_family_obstruction(MIXED_4), NOT_TRIPARTITE),
        (lambda: PureState((2,), {"a": 1}), "expected an array of numbers, got dict"),
        (lambda: DensityMatrix((2,), {"a": 1}), "expected an array of numbers, got dict"),
        # an array is no state: the entropy read its buffer as a matrix and
        # returned 0.0, and the others raised AttributeError
        (lambda: von_neumann_entropy(ARRAY_4), "rho " + NOT_A_STATE),
        (lambda: mutual_information(ARRAY_4, CUT_4), "rho " + NOT_A_STATE),
        (lambda: fidelity(ARRAY_4, MIXED_4), "rho " + NOT_A_STATE),
        (lambda: fidelity(PURE_4, ARRAY_4), "sigma " + NOT_A_STATE),
        (lambda: trace_distance(ARRAY_4, MIXED_4), "rho " + NOT_A_STATE),
        (lambda: trace_distance(MIXED_4, ARRAY_4), "sigma " + NOT_A_STATE),
        (lambda: log_negativity(ARRAY_4, CUT_4), "rho " + NOT_A_STATE),
        (lambda: is_ppt(ARRAY_4, CUT_4), "rho " + NOT_A_STATE),
        (lambda: hashing_witness(ARRAY_4, CUT_4), "rho " + NOT_A_STATE),
        (lambda: negativity_witness(ARRAY_4, CUT_4), "rho " + NOT_A_STATE),
        (lambda: partial_trace(ARRAY_4, [0]), "rho " + NOT_A_STATE),
        (lambda: partial_transpose(ARRAY_4, CUT_4), "rho " + NOT_A_STATE),
        (lambda: rank_of_family([MIXED_4, ARRAY_4]), "states[1] " + NOT_A_STATE),
        # each of these raised AttributeError or TypeError
        (lambda: perturb(np.eye(8) / 8, ghz().state, 0.5), "state must be a TripartiteState, got ndarray"),
        (lambda: perturb(ghz(), np.eye(8) / 8, 0.5), "direction " + NOT_A_STATE),
        (lambda: product_example(np.eye(4)[0]), "psi must be a PureState, got ndarray"),
        (lambda: product_pure({"a": 1}, (1, 0), (1, 0)), "expected an array of numbers, got dict"),
        (
            lambda: TripartiteState.from_pure(ghz().state, (0,), (1,), (2,)),
            "psi must be a PureState, got DensityMatrix",
        ),
        (lambda: rank_of_family(3), "states must be an iterable of states, got int"),
        (lambda: loads_state(None), "malformed state file: invalid JSON"),
    ],
    ids=[
        "overlap-density", "overlap-array", "geodist-array", "geodist-float-config",
        "geodist-pure-float-config", "tdist-zero-config", "tdist-array", "classify-density",
        "conditional-entropy-density", "merging-cost-density", "obstruction-density",
        "pure-dict", "density-dict", "entropy-array", "mutual-information-array",
        "fidelity-rho-array", "fidelity-sigma-array", "trace-distance-rho-array",
        "trace-distance-sigma-array", "log-negativity-array", "is-ppt-array", "hashing-array",
        "negativity-array", "partial-trace-array", "partial-transpose-array", "bloch-rank-array",
        "perturb-state-array", "perturb-direction-array", "product-example-array",
        "product-pure-dict", "from-pure-density", "bloch-rank-int", "loads-none",
    ],
)
def test_states_and_configs_of_the_wrong_kind_raise_value_error(build, message):
    # each raised AttributeError or TypeError, or passed silently
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_array_data_is_read_as_numpy_1_reads_it(monkeypatch):
    # numpy before 2.0, which pyproject still allows, rejects np.array(copy=None)
    # and has no copy argument to np.asarray
    array, asarray = np.array, np.asarray

    def array_1x(obj, dtype=None, *, copy=True, **kwargs):
        if copy is None:
            raise ValueError("NoneType copy mode not allowed.")
        return array(obj, dtype, copy=copy, **kwargs)

    def asarray_1x(a, dtype=None, order=None):
        return asarray(a, dtype, order)

    monkeypatch.setattr(np, "array", array_1x)
    monkeypatch.setattr(np, "asarray", asarray_1x)
    assert PureState((2, 2), PHI_PLUS).amplitudes.dtype == complex
    assert DensityMatrix((2,), [[0.5, 0], [0, 0.5]]).data.dtype == complex


def test_pure_projector_is_capped_before_it_is_built(monkeypatch):
    # a pure state above the cap is fine as amplitudes, but its projector,
    # and everything built on it, fails before any D x D array exists
    def no_outer(*args, **kwargs):
        raise AssertionError("the projector was built before the size check")

    monkeypatch.setattr(core, "DIMENSION_CAP", 4)
    monkeypatch.setattr(np, "outer", no_outer)
    payload = json.loads(dumps_state(PURE_8))
    payload["labels"] = {"a": [0], "b": [1], "c": [2]}
    for build in (
        lambda: PURE_8.data,
        PURE_8.to_density,
        lambda: TripartiteState.from_pure(PURE_8, (0,), (1,), (2,)),
        lambda: loads_state(json.dumps(payload)),
    ):
        with pytest.raises(SizeLimitError, match="dimension 8 exceeds the cap 4"):
            build()
    assert loads_state(dumps_state(PURE_8)).dim == 8  # the amplitudes alone stay legal


def test_numpy_integers_are_integers():
    rho = DensityMatrix((np.int64(2), np.int32(2)), np.eye(4) / 4)
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    assert partial_trace(rho, np.array([1])).dims == (2,)
    assert Bipartition.of(np.array([1]), 2) == Bipartition((1,), (0,))
    t = TripartiteState(DensityMatrix((2, 2, 2), np.eye(8) / 8), *np.arange(3).reshape(3, 1))
    assert t.cut_ab_c() == Bipartition((0, 1), (2,))


def test_partial_transpose_phi_plus_spectrum():
    rho = PureState((2, 2), PHI_PLUS).to_density()
    pt = partial_transpose(rho, Bipartition((0,), (1,)))
    w = np.sort(np.linalg.eigvalsh(pt))
    np.testing.assert_allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(np.abs(np.linalg.eigvalsh(pt)).sum() - 2.0) < 1e-10


def test_partial_transpose_is_an_involution():
    from pptmerge.core import _pt_array

    rng = np.random.default_rng(23)
    rho = random_density(rng, (2, 3, 2))
    cut = Bipartition((0, 2), (1,))
    once = partial_transpose(rho, cut)
    # exact equality: the operation only permutes matrix entries
    back = _pt_array(once, (2, 3, 2), cut.left)
    assert np.array_equal(back, rho.data)
    # transposing the full identity changes nothing
    eye = DensityMatrix((2, 3, 2), np.eye(12) / 12)
    assert np.array_equal(partial_transpose(eye, cut), np.eye(12) / 12)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(29)
    rho = random_density(rng, (2, 2, 2))
    pt = partial_transpose(rho, Bipartition((1,), (0, 2)))
    assert abs(np.trace(pt).real - 1.0) < 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_partial_transpose_cut_mismatch():
    rng = np.random.default_rng(31)
    rho = random_density(rng, (2, 2))
    with pytest.raises(ValueError):
        partial_transpose(rho, Bipartition((0,), (1, 2)))


def test_unitary_helper_is_unitary():
    rng = np.random.default_rng(47)
    u = haar_unitary(rng, 4)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_random_ket_is_normalised():
    rng = np.random.default_rng(53)
    v = random_ket(rng, 7)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
