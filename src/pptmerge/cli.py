"""Command-line front end.

Exit codes: 0 success (any verdict), 2 bad input (unknown name, malformed
file, invalid cut, missing labels), 3 resource or generation failure,
4 classifier consistency error.  Stdout carries only the data a script
would consume; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .classify import InconsistentCriteriaError, classify
from .core import (
    Bipartition,
    DensityMatrix,
    PureState,
    SizeLimitError,
    TripartiteState,
)
from .families import (
    GenerationError,
    classical_correlated,
    ghz,
    phi_plus,
    product_example,
    product_pure,
    robust_vanishing_family,
    sep_no_merge_family,
)
from .measures import (
    conditional_entropy,
    hashing_witness,
    is_ppt,
    log_negativity,
    mutual_information,
    negativity_witness,
    von_neumann_entropy,
)
from .pptopt import PptOptConfig, _as_pure, geometric_distillability_ppt, max_overlap_ppt
from .stateio import dumps_state, load_state


def _fmt(value: float) -> str:
    return f"{value:.12f}"


def _parse_cut(spec: str, state) -> Bipartition:
    """Parse 'A:BC' (party labels) or '0,1:2' (subsystem indices)."""
    parts = spec.split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"invalid cut {spec!r}: expected LEFT:RIGHT")
    left_raw, right_raw = parts
    if all(ch in "ABCabc" for ch in left_raw + right_raw):
        if not isinstance(state, TripartiteState):
            raise ValueError(
                f"cut {spec!r} uses party labels but the state file has no labels"
            )
        seen = (left_raw + right_raw).upper()
        if sorted(seen) != ["A", "B", "C"]:
            raise ValueError(
                f"invalid cut {spec!r}: the two sides must use each of A, B, C once"
            )
        groups = {
            "A": state.a_indices,
            "B": state.b_indices,
            "C": state.c_indices,
        }
        left: tuple[int, ...] = ()
        for ch in left_raw.upper():
            left += groups[ch]
        right: tuple[int, ...] = ()
        for ch in right_raw.upper():
            right += groups[ch]
        return Bipartition(left, right)
    try:
        left = tuple(int(tok) for tok in left_raw.split(","))
        right = tuple(int(tok) for tok in right_raw.split(","))
    except ValueError as exc:
        raise ValueError(
            f"invalid cut {spec!r}: sides must be party labels or comma-separated indices"
        ) from exc
    return Bipartition(left, right)


def _density_of(state) -> DensityMatrix:
    if isinstance(state, TripartiteState):
        return state.state
    if isinstance(state, PureState):
        return state.to_density()
    return state


def _conditional_entropy(state) -> float:
    if not isinstance(state, TripartiteState):
        raise ValueError("conditional-entropy needs a state file with party labels")
    return conditional_entropy(state)


# The tables behind `generate` and `measure`; their keys are the argparse
# choices.  Entries look names up when called, so a patched module attribute
# reaches them.

# family -> builder(args)
_FAMILIES = {
    "phi-plus": lambda args: phi_plus(),
    "ghz": lambda args: ghz(),
    "classical-correlated": lambda args: classical_correlated(),
    "product-pure": lambda args: product_pure((1, 0), (1, 0), (1, 0)),
    "product-example": lambda args: product_example(
        phi_plus() if args.psi == "phi-plus" else PureState((2, 2), np.eye(4)[0])
    ),
    "sep-no-merge": lambda args: sep_no_merge_family(args.seed),
    "robust-vanishing": lambda args: robust_vanishing_family(args.p),
}

# measure -> (needs --cut, evaluator(state, rho, cut, tol) -> stdout line)
_MEASURES = {
    "entropy": (False, lambda s, rho, cut, tol: _fmt(von_neumann_entropy(rho))),
    "conditional-entropy": (False, lambda s, rho, cut, tol: _fmt(_conditional_entropy(s))),
    "mutual-information": (True, lambda s, rho, cut, tol: _fmt(mutual_information(rho, cut))),
    "log-negativity": (True, lambda s, rho, cut, tol: _fmt(log_negativity(rho, cut))),
    "hashing-witness": (True, lambda s, rho, cut, tol: _fmt(hashing_witness(rho, cut).value)),
    "negativity-witness": (
        True, lambda s, rho, cut, tol: _fmt(negativity_witness(rho, cut).value)
    ),
    "is-ppt": (True, lambda s, rho, cut, tol: "true" if is_ppt(rho, cut, tol) else "false"),
}


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_generate(args) -> int:
    _write_output(dumps_state(_FAMILIES[args.family](args)), args.out)
    return 0


def _cmd_measure(args) -> int:
    state = load_state(args.state)
    needs_cut, evaluate = _MEASURES[args.measure]
    cut = None
    if needs_cut:
        if args.cut is None:
            raise ValueError(f"measure {args.measure!r} requires --cut")
        cut = _parse_cut(args.cut, state)
    print(evaluate(state, _density_of(state), cut, args.tol))
    return 0


def _holds_str(holds: bool | None) -> str:
    if holds is None:
        return "unknown"
    return "true" if holds else "false"


def _report_payload(path: str, report, args) -> dict:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return {
        "format_version": 1,
        "tool_version": __version__,
        "input": Path(path).name,
        "input_sha256": digest,
        "seed": args.seed,
        "config": {"tol": args.tol},
        "verdict": report.verdict,
        "criteria": [
            {
                "name": c.name,
                "holds": _holds_str(c.holds),
                "witness": c.witness,
                "condition": c.condition,
            }
            for c in report.criteria
        ],
        "witnesses": report.witnesses,
        "fidelity_lower_bound": report.fidelity_lower_bound,
        "consistent": report.consistent,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _cmd_classify(args) -> int:
    if args.json is not None and len(args.states) != 1:
        raise ValueError("--json requires exactly one input file")
    reports = []
    for path in args.states:
        state = load_state(path)
        if not isinstance(state, TripartiteState):
            raise ValueError(f"{path}: classification needs a state file with party labels")
        reports.append(classify(state, args.tol))
    if len(args.states) == 1:
        print(reports[0].verdict)
    else:
        for path, report in zip(args.states, reports):
            print(f"{path}\t{report.verdict}")
    if args.json is not None:
        payload = _report_payload(args.states[0], reports[0], args)
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


def _opt_config(args) -> PptOptConfig:
    return PptOptConfig(max_iters=args.max_iters, tol=args.tol)


def _opt_target(state) -> PureState | DensityMatrix:
    return state.state if isinstance(state, TripartiteState) else state


def _opt_cut(args, state) -> Bipartition:
    if args.cut is not None:
        return _parse_cut(args.cut, state)
    if isinstance(state, TripartiteState):
        return state.cut_ab_c()
    raise ValueError("--cut is required for state files without party labels")


def _print_diagnostics(result) -> None:
    residuals = ", ".join(f"{k}={v:.3e}" for k, v in result.residuals.items())
    print(
        f"iterations={result.iterations} converged={result.converged} "
        f"gap={result.gap:.3e} {residuals}",
        file=sys.stderr,
    )


def _cmd_geodist(args) -> int:
    state = load_state(args.state)
    cut = _opt_cut(args, state)
    result = geometric_distillability_ppt(_opt_target(state), cut, _opt_config(args))
    if result.low == result.high:
        print(_fmt(result.low))
    else:
        print(f"{_fmt(result.low)} {_fmt(result.high)}")
    _print_diagnostics(result.detail)
    return 0


def _cmd_overlap(args) -> int:
    state = load_state(args.state)
    cut = _opt_cut(args, state)
    target = _opt_target(state)
    psi = _as_pure(target)
    if psi is None:
        raise ValueError(f"expected a pure state, got purity {target.purity():.6f}")
    result = max_overlap_ppt(psi, cut, _opt_config(args))
    print(_fmt(result.value))
    _print_diagnostics(result)
    return 0


def _add_opt_flags(parser: argparse.ArgumentParser) -> None:
    defaults = PptOptConfig()
    parser.add_argument("--cut", help="bipartition, e.g. AB:C or 0,1:2")
    parser.add_argument("--tol", type=float, default=defaults.tol, help="optimiser tolerance")
    parser.add_argument(
        "--max-iters", type=int, default=defaults.max_iters, help="iteration budget"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pptmerge",
        description="Generate, measure and classify tripartite states for merging.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a named state family to JSON")
    p.add_argument("family", choices=tuple(_FAMILIES))
    p.add_argument("--seed", type=int, default=0, help="seed for randomised families")
    p.add_argument("--p", type=float, default=0.1, help="noise weight for robust-vanishing")
    p.add_argument(
        "--psi",
        choices=("phi-plus", "product"),
        default="phi-plus",
        help="AB payload for product-example",
    )
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("measure", help="evaluate one measure of a state file")
    p.add_argument("state")
    p.add_argument("measure", choices=tuple(_MEASURES))
    p.add_argument("--cut", help="bipartition, e.g. AB:C or 0,1:2")
    p.add_argument("--tol", type=float, default=1e-9, help="PPT tolerance")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("classify", help="run every criterion and print the verdict")
    p.add_argument("states", nargs="+")
    p.add_argument("--tol", type=float, default=1e-9, help="witness and PPT tolerance")
    p.add_argument("--json", help="also write a full report to this path")
    p.add_argument("--seed", type=int, default=None, help="echoed into the report")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("geodist", help="geometric distillability across a cut")
    p.add_argument("state")
    _add_opt_flags(p)
    p.set_defaults(func=_cmd_geodist)

    p = sub.add_parser("overlap", help="best overlap of a pure target with the PPT set")
    p.add_argument("state")
    _add_opt_flags(p)
    p.set_defaults(func=_cmd_overlap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenerationError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InconsistentCriteriaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
