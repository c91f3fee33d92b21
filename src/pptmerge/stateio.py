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
from pathlib import Path

import numpy as np

from .core import DensityMatrix, PureState, TripartiteState

__all__ = [
    "FORMAT_VERSION",
    "dumps_state",
    "loads_state",
    "save_state",
    "load_state",
]

FORMAT_VERSION = 1

StateLike = DensityMatrix | PureState | TripartiteState


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def dumps_state(state: StateLike) -> str:
    """Canonical JSON text for a state, trailing newline included."""
    payload: dict = {"format_version": FORMAT_VERSION}
    if isinstance(state, TripartiteState):
        payload["dims"] = list(state.dims)
        payload["labels"] = {
            "a": list(state.a_indices),
            "b": list(state.b_indices),
            "c": list(state.c_indices),
        }
        payload["matrix"] = _pairs(state.state.data.reshape(-1))
    elif isinstance(state, PureState):
        payload["dims"] = list(state.dims)
        payload["amplitudes"] = _pairs(state.amplitudes)
    elif isinstance(state, DensityMatrix):
        payload["dims"] = list(state.dims)
        payload["matrix"] = _pairs(state.data.reshape(-1))
    else:
        raise ValueError(f"cannot serialise object of type {type(state).__name__}")
    return json.dumps(payload, indent=2) + "\n"


def save_state(state: StateLike, path) -> None:
    Path(path).write_text(dumps_state(state), encoding="utf-8")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"malformed state file: {message}")


def _finite(v: int | float) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _as_complex_list(raw, expected: int, field: str) -> np.ndarray:
    _require(isinstance(raw, list), f"{field} must be a list")
    _require(
        len(raw) == expected, f"{field} must have {expected} entries, found {len(raw)}"
    )
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(raw):
        _require(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair),
            f"{field}[{i}] must be a [re, im] pair of numbers",
        )
        _require(
            all(_finite(v) for v in pair), f"{field}[{i}] must be finite"
        )
        out[i] = complex(pair[0], pair[1])
    return out


def loads_state(text: str) -> StateLike:
    """Parse canonical JSON back into a state object.

    Raises ``ValueError`` for anything that is not a well-formed, valid
    state file of the current format version.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed state file: invalid JSON ({exc})") from exc
    _require(isinstance(payload, dict), "top level must be an object")
    _require(
        payload.get("format_version") == FORMAT_VERSION,
        f"unsupported format_version {payload.get('format_version')!r}",
    )
    dims_raw = payload.get("dims")
    _require(
        isinstance(dims_raw, list)
        and dims_raw
        and all(isinstance(d, int) and not isinstance(d, bool) and d >= 2 for d in dims_raw),
        "dims must be a non-empty list of integers >= 2",
    )
    dims = tuple(dims_raw)
    D = 1
    for d in dims:
        D *= d
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
    groups = {}
    for key in ("a", "b", "c"):
        raw = labels[key]
        _require(
            isinstance(raw, list)
            and all(isinstance(i, int) and not isinstance(i, bool) for i in raw),
            f"labels.{key} must be a list of integers",
        )
        groups[key] = tuple(raw)
    if isinstance(state, PureState):
        return TripartiteState.from_pure(state, groups["a"], groups["b"], groups["c"])
    return TripartiteState(state, groups["a"], groups["b"], groups["c"])


def load_state(path) -> StateLike:
    return loads_state(Path(path).read_text(encoding="utf-8"))
