"""Versioned JSON files for states.

A file stores ``dims`` plus either ``amplitudes`` (pure state, D entries)
or ``matrix`` (density matrix, D^2 entries, row-major); every complex
number is a ``[re, im]`` pair.  An optional ``labels`` object assigns
subsystem indices to the parties a, b and c, turning the payload into a
tripartite state on load.  Serialisation is canonical: loading a file and
writing it back reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .core import DensityMatrix, PureState, TripartiteState, _check_dims, _partition

__all__ = [
    "FORMAT_VERSION",
    "dumps_state",
    "loads_state",
    "save_state",
    "load_state",
]

FORMAT_VERSION = 1

StateLike = DensityMatrix | PureState | TripartiteState


def dumps_state(state: StateLike) -> str:
    """Canonical JSON text for a state, trailing newline included.

    The text is that of ``json.dumps(payload, indent=2)``, but the pair list
    is written in one pass over the entries' reprs, which are what json's
    encoder writes for finite floats.
    """
    if not isinstance(state, (DensityMatrix, PureState, TripartiteState)):
        raise ValueError(f"cannot serialise object of type {type(state).__name__}")
    payload: dict = {"format_version": FORMAT_VERSION, "dims": list(state.dims)}
    if isinstance(state, TripartiteState):
        payload["labels"] = {
            "a": list(state.a_indices),
            "b": list(state.b_indices),
            "c": list(state.c_indices),
        }
        state = state.state
    if isinstance(state, PureState):
        key, values = "amplitudes", state.amplitudes
    else:
        key, values = "matrix", state.data
    payload[key] = "@pairs"  # a placeholder for the pair list's text
    floats = np.ascontiguousarray(values).view(float).ravel().tolist()
    entries = iter(map(float.__repr__, floats))
    pairs = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(entries, entries)))
    text = json.dumps(payload, indent=2).replace('"@pairs"', f"[\n    [\n      {pairs}\n    ]\n  ]")
    return text + "\n"


def save_state(state: StateLike, path) -> None:
    Path(path).write_text(dumps_state(state), encoding="utf-8")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"malformed state file: {message}")


def _field(name: str, check, *args):
    """``check(*args)``, with the ``ValueError`` of a core rule re-raised as
    a malformed file's error on field ``name``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"malformed state file: {name}: {exc}") from exc


def _numbers(pairs: list) -> np.ndarray | None:
    """The pairs as an (n, 2) float array, or None unless every one is a
    ``[re, im]`` list of finite numbers; one pass over the whole list (json
    gives exact types, so a bool is neither int nor float)."""
    if not (
        set(map(type, pairs)) == {list}
        and set(map(len, pairs)) == {2}
        and set(map(type, chain.from_iterable(pairs))) <= {int, float}
    ):
        return None
    try:
        out = np.array(pairs, dtype=float)
    except OverflowError:  # an integer too large for a float
        return None
    return out if np.isfinite(out).all() else None


def _as_complex_list(raw, expected: int, field: str) -> np.ndarray:
    _require(isinstance(raw, list), f"{field} must be a list")
    _require(
        len(raw) == expected, f"{field} must have {expected} entries, found {len(raw)}"
    )
    out = _numbers(raw)
    if out is None:  # name the first bad pair
        for i, pair in enumerate(raw):
            _require(
                isinstance(pair, list) and len(pair) == 2 and set(map(type, pair)) <= {int, float},
                f"{field}[{i}] must be a [re, im] pair of numbers",
            )
            _require(_numbers([pair]) is not None, f"{field}[{i}] must be finite")
    return out.view(complex).reshape(expected)


def loads_state(text: str) -> StateLike:
    """Parse canonical JSON back into a state object.

    Raises ``ValueError`` for anything that is not a well-formed, valid
    state file of the current format version.
    """
    try:
        payload = json.loads(text)
    # RecursionError: nesting too deep; TypeError: not text, such as None
    except (ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed state file: invalid JSON ({exc})") from exc
    _require(isinstance(payload, dict), "top level must be an object")
    version = payload.get("format_version")
    _require(
        type(version) is int and version == FORMAT_VERSION,
        f"unsupported format_version {version!r}",
    )
    dims = _field("dims", _check_dims, payload.get("dims"))
    D = math.prod(dims)
    has_matrix = "matrix" in payload
    has_amplitudes = "amplitudes" in payload
    _require(
        has_matrix != has_amplitudes,
        "exactly one of 'matrix' or 'amplitudes' is required",
    )

    if has_amplitudes:
        vec = _as_complex_list(payload["amplitudes"], D, "amplitudes")
        state: DensityMatrix | PureState = PureState(dims, vec)
    else:
        flat = _as_complex_list(payload["matrix"], D * D, "matrix")
        state = DensityMatrix(dims, flat.reshape(D, D))

    labels = payload.get("labels")
    if labels is None:
        return state
    _require(isinstance(labels, dict), "labels must be an object")
    _require(
        set(labels) == {"a", "b", "c"}, "labels must have exactly the keys a, b, c"
    )
    # checked before a pure state builds its projector
    groups = _field("labels", _partition, (labels["a"], labels["b"], labels["c"]), len(dims))
    if isinstance(state, PureState):
        return TripartiteState.from_pure(state, *groups)
    return TripartiteState(state, *groups)


def load_state(path) -> StateLike:
    return loads_state(Path(path).read_text(encoding="utf-8"))
