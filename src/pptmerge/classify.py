"""Decide what merging B into C does to a tripartite state.

Each criterion is three-valued: ``holds`` is True, False or None (unknown),
because most of them lean on one-sided witnesses.  The final verdict takes
the first certified answer in the precedence order

    PERFECT > VANISHING > NO_PERFECT_MERGE > INCONCLUSIVE

and a state certifying both PERFECT and VANISHING is a hard error, since
no state can do that; seeing it means a bug or a broken tolerance.

:func:`classify` is the way to evaluate the criteria: it computes the six
spectra they read once per state and reports every criterion by name in
:attr:`ClassificationReport.criteria`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import _family_rank
from .core import TripartiteState, _DEFAULT_TOL, _check_tol, _pt_array, _ptrace_array
from .families import SEP_FAMILY_BLOCKS
from .measures import _entropy, conditional_entropy

__all__ = [
    "PERFECT",
    "VANISHING",
    "NO_PERFECT_MERGE",
    "INCONCLUSIVE",
    "VERDICTS",
    "InconsistentCriteriaError",
    "CriterionResult",
    "ClassificationReport",
    "check_sep_family_obstruction",
    "merging_cost_pure",
    "classify",
]

PERFECT = "PERFECT"
VANISHING = "VANISHING"
NO_PERFECT_MERGE = "NO_PERFECT_MERGE"
INCONCLUSIVE = "INCONCLUSIVE"
VERDICTS = (PERFECT, VANISHING, NO_PERFECT_MERGE, INCONCLUSIVE)

_OBSTRUCTION_WEIGHT_FLOOR = 1e-6


class InconsistentCriteriaError(RuntimeError):
    """Two mutually exclusive criteria both certified; never a valid output."""


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's outcome: certified true, certified false, or unknown.

    ``witness`` is the scalar the decision was made on and ``condition``
    states the decision rule in plain terms.
    """

    name: str
    holds: bool | None
    witness: float | None
    condition: str


@dataclass(frozen=True)
class ClassificationReport:
    """What :func:`classify` found for one state.

    ``verdict`` is one of :data:`VERDICTS`; ``criteria`` holds every
    criterion's result in report order; ``witnesses`` maps the conditional
    entropy S(BC) - S(C), the hashing witness across A:BC and the
    log-negativity across AB:C to their values.  ``fidelity_lower_bound``
    is the fidelity achievable by handing C the correlations it already
    holds, 2 ** ((I(A:C) - I(A:BC)) / 2).  Discarding B can only shrink
    mutual information with A, so it lies in (0, 1], reaching 1 exactly
    when B carries nothing about A that C lacks.
    """

    verdict: str
    criteria: tuple[CriterionResult, ...]
    witnesses: dict[str, float]
    fidelity_lower_bound: float
    consistent: bool = True


class _Spectra(NamedTuple):
    """What the criteria read off the spectra of ABC, A, BC, C, AC and the AB:C
    partial transpose, each computed once per state."""

    conditional_entropy: float
    hashing_a_bc: float
    log_negativity_ab_c: float
    min_pt_eigenvalue: float
    fidelity_lower_bound: float


def _a_blocks(state: TripartiteState) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """rho with its subsystems in A, B, C order viewed as (dA, m, dA, m), with
    m = dB dC; its dA diagonal blocks as a (dA, m, m) view; and (dA, dB, dC)."""
    dims = state.dims
    n = len(dims)
    parts = (state.a_indices, state.b_indices, state.c_indices)
    da, db, dc = (math.prod(dims[i] for i in part) for part in parts)
    order = [i for part in parts for i in part]
    arr = state.state.data.reshape(dims + dims).transpose(order + [n + i for i in order])
    arr = arr.reshape(da, db * dc, da, db * dc)
    return arr, np.diagonal(arr, axis1=0, axis2=2).transpose(2, 0, 1), (da, db, dc)


def _spectra(state: TripartiteState) -> _Spectra:
    """The six spectra, from a stack of blocks whose direct sum is rho.

    If every entry of rho outside its dA diagonal blocks (A, B, C order) is
    exactly zero, the state is classical on A and the stack is those blocks,
    each on (A', B, C) with dims (1, dB, dC).  Otherwise it is the single
    block rho on (dA, dB, dC).  The AB:C partial transpose and the A and AC
    marginals act block by block, the BC marginal is the trace over A (the
    sum of the blocks), and each entropy is taken over the union of the
    block eigenvalues.  Zero means exactly zero: there is no tolerance, and
    the two stacks give the same spectra.
    """
    arr, blocks, (da, db, dc) = _a_blocks(state)
    if np.count_nonzero(arr) == np.count_nonzero(blocks):
        stack, inner = blocks, (1, db, dc)
    else:
        stack, inner = arr.reshape(1, da * db * dc, -1), (da, db, dc)

    def entropy(matrices: np.ndarray) -> float:
        return _entropy(np.linalg.eigvalsh(matrices))

    s_abc = entropy(stack)
    ac = _ptrace_array(stack, inner, (0, 2))
    s_ac = entropy(ac)
    s_a = entropy(_ptrace_array(ac, inner[::2], (0,)))
    bc = np.trace(arr, axis1=0, axis2=2)
    s_bc = entropy(bc)
    s_c = entropy(_ptrace_array(bc, inner[1:], (1,)))
    pt = np.linalg.eigvalsh(_pt_array(stack, inner, (0, 1)))
    return _Spectra(
        conditional_entropy=s_bc - s_c,
        hashing_a_bc=max(s_a - s_abc, s_bc - s_abc),
        log_negativity_ab_c=max(0.0, float(np.log2(np.sum(np.abs(pt))))),
        min_pt_eigenvalue=float(pt.min()),
        # I(A:C) - I(A:BC), in which S(A) cancels
        fidelity_lower_bound=float(2.0 ** (0.5 * (s_c - s_ac - s_bc + s_abc))),
    )


def _vanishing_ppt(sp: _Spectra, tol: float) -> bool | None:
    if not sp.min_pt_eigenvalue >= -tol:
        return False
    return True if sp.hashing_a_bc > tol else None


# The criteria decided by the spectra alone, in report order:
# name -> (condition, rule), where rule(spectra, tol) gives (holds, witness).
_SPECTRAL_CRITERIA = {
    # Merging succeeds perfectly when S(BC) - S(C) is non-positive.
    "perfect_merge_sufficient": (
        "S(BC) - S(C) <= tol",
        lambda sp, tol: (bool(sp.conditional_entropy <= tol), sp.conditional_entropy),
    ),
    # The fidelity collapses to zero even with PPT assistance: certified when
    # the state is PPT across AB:C and provably distillable across A:BC.  PPT
    # with a silent distillability witness is unknown, not false.
    "vanishing_ppt_merge": (
        "PPT across AB:C and hashing witness across A:BC > tol",
        lambda sp, tol: (_vanishing_ppt(sp, tol), sp.hashing_a_bc),
    ),
    # The fidelity collapses to zero for unassisted LOCC: certified when the
    # state is distillable across A:BC and its AB:C log-negativity vanishes.
    # Anything else is unknown: a positive log-negativity does not certify
    # that merging succeeds.
    "vanishing_locc_merge": (
        "hashing witness across A:BC > tol and log-negativity across AB:C <= tol",
        lambda sp, tol: (
            True if sp.hashing_a_bc > tol and sp.log_negativity_ab_c <= tol else None,
            sp.hashing_a_bc,
        ),
    ),
    # Necessary condition: perfect merging cannot need more entanglement
    # across A:BC than the AB:C cut supplies.  Violated (False, perfect
    # merging impossible) when the certified lower bound across A:BC beats
    # the certified upper bound across AB:C; the witnesses cannot certify the
    # condition itself, so it is never True.
    "necessary_entanglement_budget": (
        "violated when hashing(A:BC) exceeds log-negativity(AB:C) + tol",
        lambda sp, tol: (
            False if sp.hashing_a_bc - sp.log_negativity_ab_c > tol else None,
            sp.hashing_a_bc - sp.log_negativity_ab_c,
        ),
    ),
}


def check_sep_family_obstruction(state: TripartiteState, tol: float = _DEFAULT_TOL) -> CriterionResult:
    """Detect the classically flagged separable structure that blocks merging.

    Looks for rho = sum_i p_i |i><i|_A (x) sigma_i_BC with B and C single
    qubits, all p_i above 1e-6, every sigma_i PPT across B:C, and the
    sigma_i spanning the full 15-dimensional Bloch space.  States with that
    structure admit no perfect merge even though they are unentangled.
    The da diagonal blocks of the validated state, divided by their weights,
    are checked as one (da, 4, 4) stack: one batched PPT spectrum and one
    Bloch-rank SVD.
    """
    _check_tol(tol)
    condition = (
        "A-diagonal mixture of B:C-separable qubit pairs with full Bloch rank"
    )

    def fail() -> CriterionResult:
        return CriterionResult(
            name="separable_family_obstruction",
            holds=False,
            witness=None,
            condition=condition,
        )

    dims = state.dims
    b, c = state.b_indices, state.c_indices
    if len(b) != 1 or len(c) != 1 or dims[b[0]] != 2 or dims[c[0]] != 2:
        return fail()
    if not SEP_FAMILY_BLOCKS <= math.prod(dims[i] for i in state.a_indices) <= 16:
        return fail()

    arr, blocks, (da, _, _) = _a_blocks(state)
    off = arr.copy()
    off[range(da), :, range(da), :] = 0.0
    if float(np.abs(off).max()) > tol:
        return fail()

    weights = np.trace(blocks, axis1=1, axis2=2).real
    if weights.min() < _OBSTRUCTION_WEIGHT_FLOOR:
        return fail()
    blocks = blocks / weights[:, None, None]
    if not np.linalg.eigvalsh(_pt_array(blocks, (2, 2), (0,)))[:, 0].min() >= -tol:
        return fail()
    rank = _family_rank(blocks)
    return CriterionResult(
        name="separable_family_obstruction",
        holds=bool(rank == SEP_FAMILY_BLOCKS),
        witness=float(rank),
        condition=condition,
    )


def merging_cost_pure(state: TripartiteState, atol: float = _DEFAULT_TOL) -> float:
    """Entanglement rate consumed (positive) or released (negative) by merging.

    Only meaningful for pure global states, where the rate is exactly
    S(BC) - S(C); mixed inputs are rejected.
    """
    if not state.state.is_pure(atol):
        raise ValueError(
            f"merging cost is defined for pure states; purity = {state.state.purity():.6f}"
        )
    return conditional_entropy(state)


def classify(state: TripartiteState, tol: float = _DEFAULT_TOL) -> ClassificationReport:
    """Run every criterion and combine them into a single verdict.

    Raises :class:`InconsistentCriteriaError` when the perfect and
    vanishing criteria both certify, which no state can do.
    """
    _check_tol(tol)
    sp = _spectra(state)
    perfect, vanishing_ppt, vanishing_locc, necessary = (
        CriterionResult(name, *rule(sp, tol), condition)
        for name, (condition, rule) in _SPECTRAL_CRITERIA.items()
    )
    obstruction = check_sep_family_obstruction(state, tol)

    if perfect.holds and vanishing_ppt.holds:
        raise InconsistentCriteriaError(
            "state certifies both a perfect merge and a vanishing merge; "
            f"conditional entropy = {perfect.witness!r}, "
            f"hashing witness = {vanishing_ppt.witness!r}"
        )

    if perfect.holds:
        verdict = PERFECT
    elif vanishing_ppt.holds:
        verdict = VANISHING
    elif obstruction.holds or necessary.holds is False:
        verdict = NO_PERFECT_MERGE
    else:
        verdict = INCONCLUSIVE

    witnesses = {
        "conditional_entropy": sp.conditional_entropy,
        "hashing_a_bc": sp.hashing_a_bc,
        "log_negativity_ab_c": sp.log_negativity_ab_c,
    }
    return ClassificationReport(
        verdict=verdict,
        criteria=(perfect, vanishing_ppt, vanishing_locc, necessary, obstruction),
        witnesses=witnesses,
        fidelity_lower_bound=sp.fidelity_lower_bound,
        consistent=True,
    )
