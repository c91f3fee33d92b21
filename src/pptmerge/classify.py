"""Decide what merging B into C does to a tripartite state.

Each criterion is three-valued: ``holds`` is True, False or None (unknown),
because most of them lean on one-sided witnesses.  One table lists the
criteria in report order, and each row names the value of ``holds`` on
which it certifies a verdict:

    perfect_merge_sufficient       True   PERFECT
    vanishing_ppt_merge            True   VANISHING
    vanishing_locc_merge           (reported, certifies no verdict)
    necessary_entanglement_budget  False  NO_PERFECT_MERGE
    separable_family_obstruction   True   NO_PERFECT_MERGE

The verdict is that of the first row whose ``holds`` is the value it
names, and INCONCLUSIVE when no row matches, so the precedence is
PERFECT > VANISHING > NO_PERFECT_MERGE > INCONCLUSIVE.  A state on which
both the PERFECT and the VANISHING row certify is a hard error, since no
state can do that; seeing it means a bug or a broken tolerance.

:func:`classify` is the way to evaluate the criteria: it computes the six
spectra they read once per state, in two batched eigendecompositions (ABC
with its AB:C partial transpose, then the AC, A, BC and C marginals
zero-padded to one size), and reports every criterion by name in
:attr:`ClassificationReport.criteria`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import _family_rank
from .core import TripartiteState, _DEFAULT_TOL, _check_kind, _check_tol, _pt_array
from .families import SEP_FAMILY_BLOCKS
from .measures import _entropies, _padded_eigvalsh, conditional_entropy

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
    partial transpose, each computed once per state, and the A-blocks the
    separable-family obstruction reads when the state is classical on A."""

    conditional_entropy: float
    hashing_a_bc: float
    log_negativity_ab_c: float
    min_pt_eigenvalue: float
    fidelity_lower_bound: float
    # for a state exactly classical on A: its unnormalised A-blocks (dA, m, m)
    # and their B:C partial-transpose spectra (dA, m), ascending; else None
    a_blocks_pt: tuple[np.ndarray, np.ndarray] | None = None


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
    """The six spectra, from a stack of blocks whose direct sum is rho, in two
    batched eigendecompositions.

    If every entry of rho outside its dA diagonal blocks (A, B, C order) is
    exactly zero, the state is classical on A and the stack is those blocks,
    each on (A', B, C) with dims (1, dB, dC).  Otherwise it is the single
    block rho on (dA, dB, dC).  The AB:C partial transpose and the A and AC
    marginals act block by block, and the BC marginal is the trace over A
    (the sum of the blocks).  Zero means exactly zero: there is no
    tolerance, and the two stacks give the same spectra.

    The first ``eigvalsh`` takes the stack and its partial transpose, which
    have the same size; the second takes the AC, A, BC and C marginals,
    zero-padded to the largest of them.  All five entropies are then read
    in one pass, each over the union of its blocks' eigenvalues.
    """
    arr, blocks, (da, db, dc) = _a_blocks(state)
    classical = np.count_nonzero(arr) == np.count_nonzero(blocks)
    if classical:
        stack, a = blocks, 1
    else:
        stack, a = arr.reshape(1, da * db * dc, -1), da
    k = len(stack)
    whole = np.linalg.eigvalsh(np.concatenate((stack, _pt_array(stack, (a, db, dc), (0, 1)))))
    pt = whole[k:]
    ac = np.trace(stack.reshape(k, a, db, dc, a, db, dc), axis1=2, axis2=5)
    bc = np.trace(arr, axis1=0, axis2=2).reshape(db, dc, db, dc)
    s_abc, s_ac, s_a, s_bc, s_c = _entropies(
        whole[:k],
        *_padded_eigvalsh(
            ac.reshape(k, a * dc, a * dc),
            np.trace(ac, axis1=2, axis2=4),
            bc.reshape(db * dc, db * dc),
            np.trace(bc, axis1=0, axis2=2),
        ),
    )
    return _Spectra(
        conditional_entropy=s_bc - s_c,
        hashing_a_bc=max(s_a - s_abc, s_bc - s_abc),
        log_negativity_ab_c=max(0.0, float(np.log2(np.sum(np.abs(pt))))),
        min_pt_eigenvalue=float(pt.min()),
        # I(A:C) - I(A:BC) <= 0, in which S(A) cancels; rounding can lift it
        # above 0, so the bound is clamped at 1
        fidelity_lower_bound=min(1.0, float(2.0 ** (0.5 * (s_c - s_ac - s_bc + s_abc)))),
        # with A' one-dimensional, the AB:C partial transpose of a block is its B:C one
        a_blocks_pt=(blocks, pt) if classical else None,
    )


def _vanishing_ppt(sp: _Spectra, tol: float) -> bool | None:
    if not sp.min_pt_eigenvalue >= -tol:
        return False
    return True if sp.hashing_a_bc > tol else None


_OBSTRUCTION = "A-diagonal mixture of B:C-separable qubit pairs with full Bloch rank"


def check_sep_family_obstruction(
    state: TripartiteState, tol: float = _DEFAULT_TOL, *, _a_blocks_pt: tuple | None = None
) -> CriterionResult:
    """Detect the classically flagged separable structure that blocks merging.

    Looks for rho = sum_i p_i |i><i|_A (x) sigma_i_BC with A a register of
    15 or 16 flag levels, B and C single qubits, every entry off the A
    diagonal blocks at most tol in modulus, all p_i above 1e-6, every
    sigma_i PPT across B:C, and the sigma_i spanning the full
    15-dimensional Bloch space.  States with that structure admit no
    perfect merge even though they are unentangled.  Any other layout,
    such as a register of 17 or more levels, gives ``holds`` False and no
    witness.  The da diagonal blocks of the validated state, divided by
    their weights, are checked as one (da, 4, 4) stack: one batched PPT
    spectrum and one Bloch-rank SVD.

    ``_a_blocks_pt`` is private to :func:`classify`, which passes the
    A-blocks of a state exactly classical on A and their B:C
    partial-transpose spectra from its one spectral pass.  The check then
    reads the PPT test off those spectra, each divided by its block's
    weight, and runs no eigendecomposition.  It never changes the result,
    except by rounding in a least eigenvalue that sits exactly at -tol.
    """
    _check_kind("state", state, TripartiteState)
    _check_tol(tol)
    dims, b, c = state.dims, state.b_indices, state.c_indices
    holds, witness = False, None
    if (
        len(b) == len(c) == 1
        and dims[b[0]] == dims[c[0]] == 2
        and SEP_FAMILY_BLOCKS <= math.prod(dims[i] for i in state.a_indices) <= 16
    ):
        if _a_blocks_pt is None:
            arr, blocks, (da, _, _) = _a_blocks(state)
            off = arr.copy()
            off[range(da), :, range(da), :] = 0.0
            pt, block_diagonal = None, float(np.abs(off).max()) <= tol
        else:
            (blocks, pt), block_diagonal = _a_blocks_pt, True
        weights = np.trace(blocks, axis1=1, axis2=2).real
        if block_diagonal and weights.min() >= _OBSTRUCTION_WEIGHT_FLOOR:
            blocks = blocks / weights[:, None, None]
            if pt is None:
                least = np.linalg.eigvalsh(_pt_array(blocks, (2, 2), (0,)))[:, 0]
            else:
                least = pt[:, 0] / weights
            if least.min() >= -tol:
                rank = _family_rank(blocks)
                holds, witness = bool(rank == SEP_FAMILY_BLOCKS), float(rank)
    return CriterionResult("separable_family_obstruction", holds, witness, _OBSTRUCTION)


_holds_witness = operator.attrgetter("holds", "witness")

# Every criterion in report order: name -> (condition, rule, decides), where
# rule(state, spectra, tol) gives (holds, witness) and decides is the
# (holds, verdict) pair on which the criterion certifies that verdict, or None
# for a criterion that is only reported.  The verdict is the one named by the
# first row whose holds matches, so the row order is the verdict precedence.
_CRITERIA = {
    # Merging succeeds perfectly when S(BC) - S(C) is non-positive.
    "perfect_merge_sufficient": (
        "S(BC) - S(C) <= tol",
        lambda state, sp, tol: (bool(sp.conditional_entropy <= tol), sp.conditional_entropy),
        (True, PERFECT),
    ),
    # The fidelity collapses to zero even with PPT assistance: certified when
    # the state is PPT across AB:C and provably distillable across A:BC.  PPT
    # with a silent distillability witness is unknown, not false.
    "vanishing_ppt_merge": (
        "PPT across AB:C and hashing witness across A:BC > tol",
        lambda state, sp, tol: (_vanishing_ppt(sp, tol), sp.hashing_a_bc),
        (True, VANISHING),
    ),
    # The fidelity collapses to zero for unassisted LOCC: certified when the
    # state is distillable across A:BC and its AB:C log-negativity vanishes.
    # Anything else is unknown: a positive log-negativity does not certify
    # that merging succeeds.  The verdict names the PPT-assisted statement,
    # so this criterion is reported but decides nothing.
    "vanishing_locc_merge": (
        "hashing witness across A:BC > tol and log-negativity across AB:C <= tol",
        lambda state, sp, tol: (
            True if sp.hashing_a_bc > tol and sp.log_negativity_ab_c <= tol else None,
            sp.hashing_a_bc,
        ),
        None,
    ),
    # Necessary condition: perfect merging cannot need more entanglement
    # across A:BC than the AB:C cut supplies.  Violated (False, perfect
    # merging impossible) when the certified lower bound across A:BC beats
    # the certified upper bound across AB:C; the witnesses cannot certify the
    # condition itself, so it is never True.
    "necessary_entanglement_budget": (
        "violated when hashing(A:BC) exceeds log-negativity(AB:C) + tol",
        lambda state, sp, tol: (
            False if sp.hashing_a_bc - sp.log_negativity_ab_c > tol else None,
            sp.hashing_a_bc - sp.log_negativity_ab_c,
        ),
        (False, NO_PERFECT_MERGE),
    ),
    # Called by its module-level name, so that a wrapper put there sees it.
    "separable_family_obstruction": (
        _OBSTRUCTION,
        lambda state, sp, tol: _holds_witness(
            check_sep_family_obstruction(state, tol, _a_blocks_pt=sp.a_blocks_pt)
        ),
        (True, NO_PERFECT_MERGE),
    ),
}


def merging_cost_pure(state: TripartiteState, atol: float = _DEFAULT_TOL) -> float:
    """Entanglement rate consumed (positive) or released (negative) by merging.

    Only meaningful for pure global states, where the rate is exactly
    S(BC) - S(C); mixed inputs are rejected.
    """
    _check_kind("state", state, TripartiteState)
    if not state.state.is_pure(atol):
        raise ValueError(
            f"merging cost is defined for pure states; purity = {state.state.purity():.6f}"
        )
    return conditional_entropy(state)


def classify(state: TripartiteState, tol: float = _DEFAULT_TOL) -> ClassificationReport:
    """Run every criterion and combine them into a single verdict.

    The six spectra every criterion reads are computed once, in two
    batched eigendecompositions: ABC with its AB:C partial transpose, and
    the AC, A, BC and C marginals zero-padded to the largest of them.  On a
    state exactly classical on A they are taken block by block, and the
    separable-family obstruction reads its blocks' B:C partial-transpose
    spectra from the first call rather than decomposing them again.

    Raises :class:`InconsistentCriteriaError` when the perfect and
    vanishing criteria both certify, which no state can do.
    """
    _check_kind("state", state, TripartiteState)
    _check_tol(tol)
    sp = _spectra(state)
    criteria, certified = [], []
    for name, (condition, rule, decides) in _CRITERIA.items():
        holds, witness = rule(state, sp, tol)
        criteria.append(CriterionResult(name, holds, witness, condition))
        if decides is not None and holds is decides[0]:
            certified.append(decides[1])
    if PERFECT in certified and VANISHING in certified:
        raise InconsistentCriteriaError(
            "state certifies both a perfect merge and a vanishing merge; "
            f"conditional entropy = {criteria[0].witness!r}, "
            f"hashing witness = {criteria[1].witness!r}"
        )
    return ClassificationReport(
        verdict=next(iter(certified), INCONCLUSIVE),
        criteria=tuple(criteria),
        witnesses={
            "conditional_entropy": sp.conditional_entropy,
            "hashing_a_bc": sp.hashing_a_bc,
            "log_negativity_ab_c": sp.log_negativity_ab_c,
        },
        fidelity_lower_bound=sp.fidelity_lower_bound,
        consistent=True,
    )
