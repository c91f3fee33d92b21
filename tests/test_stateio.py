"""JSON state files: canonical form, validation, round trips."""

import json

import numpy as np
import pytest

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
from pptmerge.stateio import FORMAT_VERSION
from helpers import random_density, random_pure


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
