"""Convex optimisation over states that stay positive under partial transpose.

The feasible set is

    F(cut) = { sigma : sigma >= 0, sigma^{T_cut} >= 0, Tr sigma = 1 }

an intersection of two cones and a hyperplane.  Projections onto F use
Dykstra's alternating method; on top of that sit a projected-ascent solver
for the linear overlap objective (with a level-set bisection fallback) and
a projected-subgradient solver for trace-distance minimisation.

The trace-distance solver is two-sided: from each projection's
partial-transpose increment it builds a dual point, hence a certified lower
bound on the minimum, and it stops once that bound is within ``tol`` of the
best iterate.  The overlap solver has no dual yet; its ``gap`` is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Bipartition,
    DensityMatrix,
    PureState,
    SizeLimitError,
    _OP_HERMITICITY_ATOL,
    _as_complex_matrix,
    _check_cut,
    _herm,
    _hermitian_part,
    _pt_array,
)

__all__ = [
    "OPT_DIMENSION_CAP",
    "PptOptConfig",
    "PptOptResult",
    "GeoDistResult",
    "project_ppt_state",
    "max_overlap_ppt",
    "min_trace_distance_ppt",
    "geometric_distillability_ppt",
]

OPT_DIMENSION_CAP = 64

# Consecutive accepted steps with gain below tol before ascent stops.
_STALL_LIMIT = 5
_MIN_STEP = 1e-8
# Most level-set bisection steps after the ascent stalls.
_BISECTION_DEPTH = 40


@dataclass
class PptOptConfig:
    """Knobs shared by the optimisers.

    ``max_iters`` caps the total number of Dykstra sweeps a call may spend,
    summed over every inner projection; ``tol`` is the stopping and
    feasibility tolerance.
    """

    max_iters: int = 5000
    tol: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass
class PptOptResult:
    """Outcome of one optimiser call.

    ``value`` is always recomputed from ``certificate``, so it is a valid
    one-sided bound even when ``converged`` is false.  ``gap`` is the
    distance from ``value`` to the best certified bound on the other side,
    ``math.inf`` when the solver has none.
    ``residuals`` holds the certificate's final constraint violations and
    ``objective_history`` the accepted objective values in order.
    """

    value: float
    certificate: DensityMatrix
    iterations: int
    converged: bool
    residuals: dict[str, float]
    objective_history: list[float] = field(default_factory=list)
    gap: float = math.inf


@dataclass(frozen=True)
class GeoDistResult:
    """Bracket [low, high] for the geometric distillability 1 - sup F.

    The two ends coincide for pure inputs, where the overlap optimiser is
    exact; for mixed inputs they come from the trace-distance optimum via
    1 - F <= T <= sqrt(1 - F^2).
    """

    low: float
    high: float
    detail: PptOptResult


def _check_opt_dim(dim: int) -> None:
    if dim > OPT_DIMENSION_CAP:
        raise SizeLimitError(
            f"dimension {dim} exceeds the optimiser cap {OPT_DIMENSION_CAP}"
        )


def _proj_psd(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(_herm(M))
    if w[0] >= 0.0:
        return M
    return (V * np.clip(w, 0.0, None)) @ V.conj().T


def _min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_herm(M))[0])


def _dykstra(
    matrix: np.ndarray,
    dims: Sequence[int],
    transpose: Sequence[int],
    tol: float,
    max_sweeps: int,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Project onto F(cut) from ``matrix``; returns (point, sweeps used, q).

    Cycle order ends on the plain PSD cone so the final iterate is exactly
    positive; the trace and partial-transpose residuals are both held to
    ``tol`` by the stopping rule.  ``q`` is the last increment of the
    partial-transpose cone: ``-q^Gamma`` is positive semidefinite, and at a
    converged projection it is that cone's share of the normal vector
    ``matrix - point``.
    """
    D = matrix.shape[0]
    eye = np.eye(D)
    x = _herm(matrix)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    prev = None
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        x = x - (np.trace(x).real - 1.0) / D * eye
        shifted = x + q
        y = _pt_array(_proj_psd(_pt_array(shifted, dims, transpose)), dims, transpose)
        q = shifted - y
        shifted = y + p
        x = _proj_psd(shifted)
        p = shifted - x
        if prev is not None and float(np.max(np.abs(x - prev))) < tol:
            if abs(np.trace(x).real - 1.0) < tol and _min_eig(
                _pt_array(x, dims, transpose)
            ) > -10.0 * tol:
                break
        prev = x
    return x, sweeps, q


def _finish_certificate(
    x: np.ndarray, dims: tuple[int, ...], transpose: Sequence[int], tol: float
) -> tuple[DensityMatrix, dict[str, float]]:
    """Polish the final iterate into a certificate that is feasible to ``tol``.

    Plain alternating projections between the two cones, ending on the PSD
    cone and a trace renormalisation, so the output is an exact state and
    only the partial-transpose residual can remain, bounded by ``tol``.
    Feasibility-only polishing keeps the certified-bound semantics honest
    even when the optimisation itself ran out of budget.
    """
    x = _herm(x)
    for _ in range(200):
        x = _pt_array(_proj_psd(_pt_array(x, dims, transpose)), dims, transpose)
        x = _proj_psd(x)
        x = x / np.trace(x).real
        if _min_eig(_pt_array(x, dims, transpose)) >= -tol:
            break
    cert = DensityMatrix(dims, x)
    residuals = {
        "trace": abs(float(np.trace(cert.data).real) - 1.0),
        "psd": max(0.0, -_min_eig(cert.data)),
        "ppt": max(0.0, -_min_eig(_pt_array(cert.data, dims, transpose))),
    }
    return cert, residuals


def project_ppt_state(
    matrix,
    dims: Sequence[int],
    cut: Bipartition,
    config: PptOptConfig | None = None,
) -> DensityMatrix:
    """Nearest state of F(cut) to a Hermitian matrix, in Frobenius norm."""
    config = config or PptOptConfig()
    dims = tuple(int(d) for d in dims)
    _check_cut(cut, len(dims))
    M = _as_complex_matrix(matrix)
    D = int(np.prod(dims))
    if M.shape != (D, D):
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    M = _hermitian_part(M, _OP_HERMITICITY_ATOL)
    x, _, _ = _dykstra(M, dims, cut.left, config.tol, config.max_iters)
    cert, _ = _finish_certificate(x, dims, cut.left, config.tol)
    return cert


def _overlap(P: np.ndarray, x: np.ndarray) -> float:
    return float(np.real(np.sum(P.conj() * x)))


def _feasible_at_level(
    P: np.ndarray,
    dims: tuple[int, ...],
    transpose: Sequence[int],
    level: float,
    start: np.ndarray,
    tol: float,
    budget: int,
) -> tuple[bool, np.ndarray, int]:
    """Alternating projections onto {overlap >= level} and F(cut).

    Returns (feasible, point, sweeps used).  Infeasibility is declared once
    the overlap stops improving while still short of the level; the
    feasible side is sound, the infeasible side is a numerical judgement.
    """
    x = start
    used = 0
    slack = max(10.0 * tol, 1e-9)
    stagnant = 0
    last = -np.inf
    while used < budget:
        gap = level - _overlap(P, x)
        if gap > 0.0:
            x = x + gap * P  # ||P||_F = 1 for a pure projector
        x, sweeps, _ = _dykstra(x, dims, transpose, tol, min(200, budget - used))
        used += sweeps
        val = _overlap(P, x)
        if val >= level - slack:
            return True, x, used
        if val <= last + tol:
            stagnant += 1
            if stagnant >= 5:
                return False, x, used
        else:
            stagnant = 0
        last = val
    return False, x, used


def max_overlap_ppt(
    psi: PureState,
    cut: Bipartition,
    config: PptOptConfig | None = None,
) -> PptOptResult:
    """Maximise <psi|sigma|psi> over sigma in F(cut).

    Projected ascent from the maximally mixed state, accepting only steps
    that do not lose more than ``tol``; once it stalls, a bisection over
    the level sets {overlap >= t} either certifies the stall as optimal or
    pushes past it.  The returned value is the overlap of the returned
    certificate, hence a lower bound on the true maximum regardless of the
    converged flag.
    """
    config = config or PptOptConfig()
    _check_opt_dim(psi.dim)
    dims = psi.dims
    _check_cut(cut, len(dims))
    D = psi.dim
    P = np.outer(psi.amplitudes, psi.amplitudes.conj())
    budget = config.max_iters
    used = 0

    x = np.eye(D, dtype=complex) / D
    f = _overlap(P, x)
    history = [f]
    nominal = 1.0
    alpha = nominal
    stall = 0
    exhausted = False
    while True:
        if used >= budget:
            exhausted = True
            break
        if stall >= _STALL_LIMIT or alpha < _MIN_STEP:
            break
        cand, sweeps, _ = _dykstra(
            x + alpha * P, dims, cut.left, config.tol, min(500, budget - used)
        )
        used += sweeps
        fc = _overlap(P, cand)
        if fc >= f - config.tol:
            stall = stall + 1 if fc <= f + config.tol else 0
            x = cand
            f = max(f, fc)
            history.append(fc)
            alpha = nominal
        else:
            alpha *= 0.5

    # Level-set bisection: first probe slightly above the stall value to
    # certify optimality cheaply; only bisect further if the probe passes.
    converged = False
    if not exhausted:
        lo, hi = f, 1.0
        probe = min(lo + max(100.0 * config.tol, 1e-4), hi)
        feasible, point, spent = _feasible_at_level(
            P, dims, cut.left, probe, x, config.tol, budget - used
        )
        used += spent
        if not feasible:
            converged = used < budget
        else:
            x, f = point, _overlap(P, point)
            history.append(f)
            lo = f
            for _ in range(_BISECTION_DEPTH):
                if hi - lo <= max(config.tol, 1e-5) or used >= budget:
                    break
                mid = 0.5 * (lo + hi)
                feasible, point, spent = _feasible_at_level(
                    P, dims, cut.left, mid, x, config.tol, budget - used
                )
                used += spent
                if feasible:
                    x = point
                    f = max(f, _overlap(P, point))
                    history.append(_overlap(P, point))
                    lo = mid
                else:
                    hi = mid
            converged = hi - lo <= max(config.tol, 1e-5) and used < budget

    cert, residuals = _finish_certificate(x, dims, cut.left, config.tol)
    value = float(np.real(psi.amplitudes.conj() @ cert.data @ psi.amplitudes))
    history.append(value)
    return PptOptResult(
        value=value,
        certificate=cert,
        iterations=used,
        converged=converged,
        residuals=residuals,
        objective_history=history,
    )


def _trace_distance_dual(
    rho: np.ndarray,
    sign: np.ndarray,
    q: np.ndarray,
    alpha: float,
    dims: tuple[int, ...],
    transpose: Sequence[int],
) -> float:
    """Certified lower bound on min T(rho, sigma) over F(cut).

    W = (I + sign)/2 and Z = -q^Gamma/alpha, with ``q`` the partial-transpose
    increment of projecting x + (alpha/2) * sign, where sign = sign(rho - x).
    """
    W = 0.5 * (np.eye(rho.shape[0]) + sign)
    Zg = -q / alpha
    delta = max(0.0, -_min_eig(_pt_array(Zg, dims, transpose)))
    top = float(np.linalg.eigvalsh(_herm(W + Zg))[-1])
    return _overlap(W, rho) - top - delta


def min_trace_distance_ppt(
    rho: DensityMatrix,
    cut: Bipartition,
    config: PptOptConfig | None = None,
) -> PptOptResult:
    """Minimise the trace distance from ``rho`` to F(cut).

    Projected subgradient descent seeded with the Frobenius projection of
    ``rho``; the best feasible iterate is kept, so the returned value is an
    upper bound on the true minimum.  Each non-improving step also yields a
    lower bound (``_trace_distance_dual``); the loop stops once the best
    iterate is within ``tol`` of it, or after 100 steps without progress.
    Bound: for 0 <= W <= I, any Z and delta = max(0, -lambda_min(Z)),
    T(rho, sigma) >= Tr W (rho - sigma) >= Tr W rho - lambda_max(W + Z^Gamma) - delta,
    as Tr sigma (Z + delta I)^Gamma >= 0 for PPT sigma and (delta I)^Gamma = delta I.
    ``gap`` is ``value`` minus the best bound and ``converged`` is ``gap <= tol``.
    """
    config = config or PptOptConfig()
    _check_opt_dim(rho.dim)
    dims = rho.dims
    _check_cut(cut, len(dims))
    budget = config.max_iters

    def tdist(x: np.ndarray) -> float:
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(_herm(rho.data - x)))))

    x, used, _ = _dykstra(rho.data, dims, cut.left, config.tol, min(500, budget))
    best = tdist(x)
    best_x = x
    history = [best]
    alpha = max(0.05, 0.5 * best)
    stale = 0
    lower = 0.0  # the dual point W = 0, Z = 0
    while used < budget:
        w, V = np.linalg.eigh(_herm(rho.data - x))
        subgrad = (V * np.sign(w)) @ V.conj().T
        x, sweeps, q = _dykstra(
            x + 0.5 * alpha * subgrad, dims, cut.left, config.tol, min(200, budget - used)
        )
        used += sweeps
        val = tdist(x)
        improved = val < best - config.tol
        if val < best:
            best, best_x = val, x
        if improved:
            history.append(val)
            stale = 0
            continue
        lower = max(
            lower, _trace_distance_dual(rho.data, subgrad, q, alpha, dims, cut.left)
        )
        stale += 1
        if best - lower <= config.tol or stale >= 100:
            break

    cert, residuals = _finish_certificate(best_x, dims, cut.left, config.tol)
    value = tdist(cert.data)
    history.append(value)
    gap = value - lower
    return PptOptResult(
        value=value,
        certificate=cert,
        iterations=used,
        converged=gap <= config.tol,
        residuals=residuals,
        objective_history=history,
        gap=gap,
    )


def _as_pure(state: PureState | DensityMatrix) -> PureState | None:
    """The state's top eigenvector if its purity is within 1e-9 of 1, else None."""
    if isinstance(state, PureState):
        return state
    if not state.is_pure():
        return None
    _, V = np.linalg.eigh(state.data)
    vec = V[:, -1]
    return PureState(state.dims, vec / np.linalg.norm(vec))


def geometric_distillability_ppt(
    state: PureState | DensityMatrix,
    cut: Bipartition,
    config: PptOptConfig | None = None,
) -> GeoDistResult:
    """Distance 1 - sup_{sigma in F(cut)} F(state, sigma), as a bracket.

    Pure inputs take the exact route through the overlap optimiser, where
    the fidelity is the square root of the overlap and the bracket
    collapses to a point.  Mixed inputs yield the interval
    ``[1 - sqrt(1 - T^2), T]`` with T the minimal trace distance to the
    feasible set.
    """
    _check_opt_dim(state.dim)
    pure = _as_pure(state)
    if pure is not None:
        res = max_overlap_ppt(pure, cut, config)
        value = 1.0 - float(np.sqrt(max(0.0, res.value)))
        return GeoDistResult(low=value, high=value, detail=res)
    res = min_trace_distance_ppt(state, cut, config)
    t = min(1.0, res.value)
    low = max(0.0, 1.0 - float(np.sqrt(max(0.0, 1.0 - t * t))))
    return GeoDistResult(low=low, high=t, detail=res)
