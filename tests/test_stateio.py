"""JSON state files: canonical form, validation, round trips."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptmerge import (
    DensityMatrix,
    PureState,
    TripartiteState,
    dumps_state,
    load_state,
    loads_state,
    save_state,
)
from pptmerge.families import (
    ghz,
    phi_plus,
    product_example,
    robust_vanishing_family,
    sep_no_merge_family,
)
from pptmerge.stateio import FORMAT_VERSION, _as_complex_list
from helpers import python_calls, random_density, random_pure
from oracles import state_file_pairs, state_file_text


def test_round_trip_pure():
    psi = phi_plus()
    text = dumps_state(psi)
    back = loads_state(text)
    assert isinstance(back, PureState)
    assert back.dims == psi.dims
    np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)
    assert dumps_state(back) == text  # byte-for-byte canonical


def test_round_trip_density():
    rng = np.random.default_rng(181)
    rho = random_density(rng, (2, 3))
    back = loads_state(dumps_state(rho))
    assert isinstance(back, DensityMatrix)
    np.testing.assert_array_equal(back.data, rho.data)


def test_round_trip_keeps_signed_zeros():
    # a -0.0 real part beside a negative imaginary part survives the
    # Hermitian part that the constructor takes on each load
    state = DensityMatrix((2,), [[0.5, complex(-0.0, -0.1)], [complex(-0.0, 0.1), 0.5]])
    text = dumps_state(state)
    assert "-0.0" in text
    assert dumps_state(loads_state(text)) == text


def test_round_trip_tripartite():
    for state in (
        ghz(),
        robust_vanishing_family(0.1),
        product_example(phi_plus()),
        sep_no_merge_family(0),
    ):
        text = dumps_state(state)
        back = loads_state(text)
        assert isinstance(back, TripartiteState)
        assert back.a_indices == state.a_indices
        assert back.b_indices == state.b_indices
        assert back.c_indices == state.c_indices
        np.testing.assert_array_equal(back.state.data, state.state.data)
        assert dumps_state(back) == text


def test_payload_shape():
    payload = json.loads(dumps_state(phi_plus()))
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["dims"] == [2, 2]
    assert len(payload["amplitudes"]) == 4
    assert payload["amplitudes"][0] == [pytest.approx(1 / np.sqrt(2)), 0.0]
    payload = json.loads(dumps_state(ghz()))
    assert payload["labels"] == {"a": [0], "b": [1], "c": [2]}
    assert len(payload["matrix"]) == 64


def test_save_and_load(tmp_path):
    path = tmp_path / "state.json"
    save_state(robust_vanishing_family(0.2), path)
    back = load_state(path)
    assert isinstance(back, TripartiteState)
    # file ends with a newline and parses as plain JSON
    raw = path.read_text()
    assert raw.endswith("\n")
    json.loads(raw)


def test_loads_rejects_malformed_inputs():
    good = json.loads(dumps_state(phi_plus()))

    def expect_error(mutate, match):
        payload = json.loads(dumps_state(phi_plus()))
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            loads_state(json.dumps(payload))

    with pytest.raises(ValueError, match="JSON"):
        loads_state("{not json")
    with pytest.raises(ValueError, match="object"):
        loads_state("[1, 2]")
    expect_error(lambda p: p.update(format_version=99), "format_version")
    expect_error(lambda p: p.pop("format_version"), "format_version")
    # only the integer 1, as dims takes only integers
    expect_error(lambda p: p.update(format_version=True), "unsupported format_version True")
    expect_error(lambda p: p.update(format_version=1.0), "unsupported format_version 1.0")
    expect_error(lambda p: p.update(dims=[]), "dims")
    expect_error(lambda p: p.update(dims=[2, 1]), "dims")
    expect_error(lambda p: p.update(dims=[2, True]), "dims")
    expect_error(lambda p: p.pop("amplitudes"), "exactly one")
    expect_error(
        lambda p: p.update(matrix=[[0.0, 0.0]] * 16), "exactly one"
    )
    expect_error(lambda p: p.update(amplitudes=[[1.0, 0.0]]), "entries")
    expect_error(lambda p: p.update(amplitudes=[[1.0]] * 4), "pair")
    expect_error(lambda p: p.update(amplitudes=[["x", 0.0]] * 4), "pair")
    expect_error(
        lambda p: p.update(amplitudes=[[np.inf, 0.0]] * 4)
        or p.update(amplitudes=[[1e400, 0.0]] * 4),
        "finite|JSON",
    )
    # a parseable file whose numbers do not form a state
    expect_error(lambda p: p.update(amplitudes=[[1.0, 0.0]] * 4), "normalised")
    assert good["format_version"] == FORMAT_VERSION


def test_loads_rejects_integers_too_large_for_a_float():
    # json parses a 400-digit integer exactly; converting it to a float overflows
    huge = 10**400
    for field, entries in (
        ("matrix", [[huge, 0], [0, 0], [0, 0], [0, 0]]),
        ("amplitudes", [[1, 0], [0, -huge]]),
    ):
        text = json.dumps({"format_version": FORMAT_VERSION, "dims": [2], field: entries})
        with pytest.raises(ValueError, match=r"malformed state file: .* must be finite"):
            loads_state(text)


def test_loads_rejects_deep_nesting():
    # json.loads recurses once per level and gives up with RecursionError
    with pytest.raises(ValueError, match="malformed state file: invalid JSON"):
        loads_state("[" * 100000)
    with pytest.raises(ValueError, match="malformed state file: invalid JSON"):
        loads_state('{"format_version": 1, "dims": ' + "[" * 100000)


def test_loads_rejects_integer_literals_beyond_the_conversion_limit():
    # Python refuses to parse integers of more than 4300 digits
    text = '{"format_version": 1, "dims": [2], "amplitudes": [[1' + "0" * 5000 + ", 0], [0, 0]]}"
    with pytest.raises(ValueError, match="malformed state file: invalid JSON"):
        loads_state(text)


# Fuzz: whatever the text, the reader either returns a state or raises
# ValueError, and no numpy overflow warning escapes on the way.
_extreme = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),  # json writes NaN, Infinity
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, 10**308, 2**1024]),
    st.integers(-(10**4000), 10**4000),  # within Python's 4300-digit limit
)
_huge = st.floats(1e150, 1.7976931348623157e308)  # finite, but the squares overflow
_numbers = st.one_of(
    st.sampled_from([0, 1, 0.5, -0.5]), st.floats(-2.0, 2.0), _huge, _huge.map(lambda x: -x), _extreme
)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _state_files(draw):
    # Mostly a well-formed frame, so that the numbers reach the state checks.
    def usually(strategy):
        return draw(strategy if draw(st.integers(0, 3)) else _json)

    dims = usually(st.sampled_from([[2], [3], [2, 2]]))
    field = draw(st.sampled_from(["amplitudes", "matrix"]))
    D = math.prod(dims) if isinstance(dims, list) and all(type(d) is int and 2 <= d <= 4 for d in dims) else 2
    n = D if field == "amplitudes" else D * D
    pair = st.lists(_numbers, min_size=2, max_size=2)
    payload = {
        "format_version": usually(st.just(1)),
        "dims": "DIMS",
        field: usually(st.lists(pair, min_size=n, max_size=n)),
    }
    if draw(st.booleans()):
        payload["labels"] = usually(
            st.fixed_dictionaries({k: st.lists(st.integers(-1, 3) | _numbers, max_size=2) for k in "abc"})
        )
    depth = 3000 if draw(st.integers(0, 7)) == 0 else 0  # beyond the recursion limit
    nested = "[" * depth + json.dumps(dims) + "]" * depth
    return json.dumps(payload).replace('"DIMS"', nested, 1)


def _read_or_reject(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loads_state(text)
        except ValueError:
            pass


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_loads_fuzz_arbitrary_text(text):
    _read_or_reject(text)


@settings(max_examples=300, deadline=None)
@given(text=_state_files())
def test_loads_fuzz_schema_shaped_extreme_numbers(text):
    _read_or_reject(text)


def test_loads_rejects_bad_labels():
    def with_labels(labels):
        payload = json.loads(dumps_state(ghz()))
        payload["labels"] = labels
        return json.dumps(payload)

    with pytest.raises(ValueError, match="labels"):
        loads_state(with_labels([0, 1, 2]))
    with pytest.raises(ValueError, match="labels"):
        loads_state(with_labels({"a": [0], "b": [1]}))
    with pytest.raises(ValueError, match="labels"):
        loads_state(with_labels({"a": [0], "b": [1], "c": ["x"]}))
    with pytest.raises(ValueError):
        loads_state(with_labels({"a": [0], "b": [1], "c": [5]}))


def test_pure_file_with_labels_becomes_tripartite():
    payload = json.loads(dumps_state(random_pure(np.random.default_rng(191), (2, 2, 2))))
    payload["labels"] = {"a": [0], "b": [1], "c": [2]}
    back = loads_state(json.dumps(payload))
    assert isinstance(back, TripartiteState)
    assert back.state.is_pure()


def test_dumps_rejects_unknown_types():
    with pytest.raises(ValueError, match="serialise"):
        dumps_state(np.eye(2))


# The writer and reader against json's own encoder and a pair-by-pair reader
# (tests/oracles.py).  States carry -0.0 and subnormal entries, real or complex.
_SPECIAL = (-0.0, 5e-324, -2.5e-310, 1e-308)


@st.composite
def _states(draw):
    dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = math.prod(dims)
    real = draw(st.booleans())
    special = rng.random(D) < draw(st.sampled_from([0.0, 0.3, 0.6]))
    special[0] = False
    if draw(st.booleans()):
        v = rng.standard_normal(D) + (0.0 if real else 1j * rng.standard_normal(D))
        v[special] = rng.choice(_SPECIAL, int(special.sum()))
        state = PureState(dims, v / np.linalg.norm(v))
    else:
        a = rng.standard_normal((D, D)) + (0.0 if real else 1j * rng.standard_normal((D, D)))
        a[special] = 0.0
        m = a @ a.conj().T
        re, im = m.real / np.trace(m).real, m.imag / np.trace(m).real
        # rows and columns of zeros take -0.0 and subnormal entries, symmetric
        for i, j in zip(*np.triu_indices(D)):
            if special[i] or special[j]:
                re[i, j] = re[j, i] = rng.choice(_SPECIAL) if i != j else -0.0
                im[i, j] = im[j, i] = 0.0
        state = DensityMatrix(dims, re + 1j * im if not real else re)
    if len(dims) == 3 and draw(st.booleans()):
        a, b, c = draw(st.permutations([(0,), (1,), (2,)]))
        if isinstance(state, PureState):
            state = TripartiteState.from_pure(state, a, b, c)
        else:
            state = TripartiteState(state, a, b, c)
    return state


@settings(max_examples=200, deadline=None)
@given(state=_states())
def test_dumps_matches_json_encoder_oracle(state):
    labels = None
    inner = state
    if isinstance(state, TripartiteState):
        labels = {"a": state.a_indices, "b": state.b_indices, "c": state.c_indices}
        inner = state.state
    if isinstance(inner, PureState):
        key, values = "amplitudes", inner.amplitudes
    else:
        key, values = "matrix", inner.data
    assert dumps_state(state) == state_file_text(state.dims, labels, key, values)


def test_dumps_matches_oracle_on_signed_zeros_and_subnormals():
    re = np.diag([0.5, 0.5, 0.0, 0.0])
    re[0, 2] = re[2, 0] = -0.0
    re[2, 3] = re[3, 2] = 5e-324
    psi = PureState((2, 2), [1.0, -0.0, 5e-324, -2.5e-310j])
    for state, key, values in (
        (DensityMatrix((2, 2), re), "matrix", re),
        (psi, "amplitudes", psi.amplitudes),
    ):
        text = dumps_state(state)
        assert "-0.0" in text and "5e-324" in text
        assert text == state_file_text(state.dims, None, key, values)


_MUTANTS = st.sampled_from([
    True, False, "x", None, [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0], 0.0], [0.0, [1.0]],
    [math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0], [10**400, 0], [0, -(10**400)],
    [True, 0.0], [0.0, "1"], [None, 0.0], [3, -2], [2**1024 - 1, 0], [0.5, -0.0], {"re": 1.0},
    [2**53 + 1, -(2**64 + 1)], [10**308, 2**1023],
])


@settings(max_examples=300, deadline=None)
@given(
    state=_states(),
    mutations=st.lists(st.tuples(st.integers(0, 10**6), _MUTANTS), max_size=3),
)
def test_loads_pairs_match_pair_by_pair_oracle(state, mutations):
    payload = json.loads(dumps_state(state))
    key = "matrix" if "matrix" in payload else "amplitudes"
    raw = payload[key]
    for index, mutant in mutations:
        raw[index % len(raw)] = mutant
    text = json.dumps(payload)
    parsed = json.loads(text)[key]  # what the reader sees: 10**400 stays an int
    try:
        want = state_file_pairs(parsed, len(raw), key)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _as_complex_list(parsed, len(raw), key)
        assert str(got.value) == str(exc)
        with pytest.raises(ValueError) as got:
            loads_state(text)
        assert str(got.value) == str(exc)
    else:
        assert _as_complex_list(parsed, len(raw), key).tobytes() == want.tobytes()


def test_loads_names_the_first_bad_pair_in_index_order():
    payload = json.loads(dumps_state(ghz()))
    payload["matrix"][1] = [math.nan, 0.0]
    payload["matrix"][2] = ["x", 0.0]
    with pytest.raises(ValueError, match=r"^malformed state file: matrix\[1\] must be finite$"):
        loads_state(json.dumps(payload))
    payload["matrix"][1] = [0.0, 0.0, 0.0]
    payload["matrix"][2] = [10**400, 0.0]
    with pytest.raises(ValueError, match=r"matrix\[1\] must be a \[re, im\] pair of numbers$"):
        loads_state(json.dumps(payload))


def test_reader_and_writer_calls_do_not_grow_with_the_state():
    # One array pass per pair list: a D = 64 state takes as many Python-level
    # calls as a D = 8 one (the per-entry writer and reader took 135,387 and
    # 82,126 calls at D = 64).
    rng = np.random.default_rng(64)
    pairs = []
    for small, large in (
        (random_density(rng, (2, 2, 2)), random_density(rng, (4, 4, 4))),
        (random_pure(rng, (2, 2, 2)), random_pure(rng, (4, 4, 4))),
        (TripartiteState(random_density(rng, (2, 2, 2)), (0,), (1,), (2,)),
         TripartiteState(random_density(rng, (4, 4, 4)), (0,), (1,), (2,))),
    ):
        texts = dumps_state(small), dumps_state(large)
        loads_state(texts[0]), loads_state(texts[1])  # first calls may import or cache
        pairs.append((python_calls(dumps_state, small), python_calls(dumps_state, large)))
        pairs.append((python_calls(loads_state, texts[0]), python_calls(loads_state, texts[1])))
    for small, large in pairs:
        assert small == large < 1000
