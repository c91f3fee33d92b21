"""Convex optimisation over states that stay positive under partial transpose.

The feasible set is

    F(cut) = { sigma : sigma >= 0, sigma^{T_cut} >= 0, Tr sigma = 1 }

Both optimisers are semidefinite programs over F(cut), solved by one dense
primal-dual interior-point kernel (:func:`_interior_point`).  sigma is
parametrised as ``I/D`` plus traceless coordinates, so every iterate is a
unit-trace state strictly inside both cones and is a valid certificate as
it stands, with no polishing step; so is, up to rounding, the point where
a predictor direction meets the cone boundary.  The kernel's primal point
gives a certified bound on the other side, and both solvers stop once the
two are within ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    Bipartition,
    DensityMatrix,
    PureState,
    SizeLimitError,
    _check_cut,
    _dag,
    _herm,
    _pt_array,
)

__all__ = [
    "OPT_SCHUR_CAP",
    "PptOptConfig",
    "PptOptResult",
    "GeoDistResult",
    "max_overlap_ppt",
    "min_trace_distance_ppt",
    "geometric_distillability_ppt",
]

# Most rows m of the kernel's Schur system: D^2 - 1 for a pure target and
# 2 D^2 - 1 for a mixed one.  An iteration costs O(m^3) time and O(m^2)
# memory; near this cap (D = 40 pure, D = 28 mixed) one solve took 3-4 s and
# 0.4-0.6 GB on two cores.
OPT_SCHUR_CAP = 1600

# Share of the step to the nearest cone boundary that the kernel takes.
_STEP_TO_BOUNDARY = 0.95


@dataclass
class PptOptConfig:
    """Knobs shared by the optimisers.

    ``max_iters`` caps the interior-point iterations of a call; ``tol`` is
    the largest certified gap at which a call stops.
    """

    max_iters: int = 100
    tol: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass
class PptOptResult:
    """Outcome of one optimiser call.

    ``value`` is recomputed from ``certificate``, a unit-trace state in
    F(cut) up to rounding, so it is a valid one-sided bound even when
    ``converged`` is false.  ``gap`` is the distance from ``value`` to a
    certified bound on the other side, and ``converged`` means
    ``gap <= tol``.  ``residuals`` holds the certificate's trace, PSD and
    PPT violations.
    """

    value: float
    certificate: DensityMatrix
    iterations: int
    converged: bool
    residuals: dict[str, float]
    gap: float


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


def _check_schur_rows(m: int) -> None:
    if m > OPT_SCHUR_CAP:
        raise SizeLimitError(
            f"the optimiser would need {m} Schur rows, above the cap {OPT_SCHUR_CAP}"
        )


class _Coords:
    """Orthonormal real coordinates of D x D Hermitian matrices.

    Coordinate j < D is the diagonal matrix ``diag(W[:, j])``, with W
    orthogonal and ``W[:, 0] = +-1/sqrt(D)``, so coordinate 0 alone carries
    the trace.  Then come sqrt(2) Re and, unless ``real``, sqrt(2) Im of the
    entries above the diagonal.  A real program (real target, real C) has a
    real symmetric optimum, since averaging a feasible sigma with its complex
    conjugate keeps it feasible and does not worsen the objective; its
    coordinates and arithmetic are then real.
    """

    def __init__(self, dims: tuple[int, ...], transpose: Sequence[int], real: bool):
        D = math.prod(dims)
        self.D, self.dims, self.transpose = D, dims, transpose
        self.upper = np.triu_indices(D, 1)
        self.h = self.upper[0].size
        self.imag = not real
        self.n = D + (2 if self.imag else 1) * self.h
        self.dtype = complex if self.imag else float
        ones_first = np.eye(D)
        ones_first[:, 0] = 1.0
        self.W = np.linalg.qr(ones_first)[0]
        # row and column of each matrix entry in the order diagonal, above,
        # below; then of the entry of the partial transpose that holds it
        i, j = self.upper
        flat = np.concatenate([np.arange(D) * (D + 1), i * D + j, j * D + i])
        pt = _pt_array(np.arange(D * D).reshape(D, D), dims, transpose).reshape(-1)
        self.entries = np.divmod(flat, D), np.divmod(pt[flat], D)

    def mat(self, h: np.ndarray) -> np.ndarray:
        """The Hermitian matrices of a stack of coordinate vectors (k, n)."""
        D, (i, j) = self.D, self.upper
        off = h[:, D : D + self.h] * 2**-0.5
        if self.imag:
            off = off + 1j * 2**-0.5 * h[:, D + self.h :]
        out = np.zeros((h.shape[0], D, D), dtype=self.dtype)
        out[:, i, j] = off
        out[:, j, i] = off.conj()
        out[:, range(D), range(D)] = h[:, :D] @ self.W.T
        return out

    def vec(self, Y: np.ndarray) -> np.ndarray:
        """Coordinates of a stack of Hermitian matrices (k, D, D)."""
        i, j = self.upper
        off = Y[:, i, j] * 2**0.5
        parts = [np.diagonal(Y, axis1=1, axis2=2).real @ self.W, off.real]
        return np.concatenate(parts + [off.imag] if self.imag else parts, axis=1)

    def schur(self, terms, out: np.ndarray) -> None:
        """``out = Re sum Tr(B_i X B_j Y)`` over the basis B, summed over
        ``terms`` (X, Y, transposed); B_i^Gamma replaces B_i where transposed.

        ``Tr(E_ba X E_dc Y) = X_ac Y_db``, and reading every entry (a, b) as
        (b, a) leaves the real part over a Hermitian basis unchanged; so this
        is a Kronecker product read at the entries in the order diagonal,
        above, below, and the change to coordinates is sums and differences
        of slices.  Rows go in chunks of about 2^11 entries: a whole
        D^2 x D^2 product would add more to the peak memory than the Schur
        matrix itself.
        """
        D, h, n, s, imag = self.D, self.h, self.n, 2**-0.5, self.imag
        step = max(1, 2**11 // D**2)
        for t0 in range(0, h, step):
            t1, lead = min(h, t0 + step), D if t0 == 0 else 0
            rows = np.r_[0:lead, D + t0 : D + t1, D + h + t0 : D + h + t1]
            K = None
            for X, Y, transposed in terms:
                (r, c) = self.entries[transposed]
                term = X[r[rows]][:, r]
                term *= Y[c][:, c[rows]].T
                K = term if K is None else np.add(K, term, out=K)
            above, below = K[:, D : D + h], K[:, D + h :]
            above += below
            if imag:
                below *= -2.0
                below += above
                below *= 1j * s
            above *= s
            K[:, :D] = K[:, :D] @ self.W
            K = K[:, :n]
            up, low = K[lead : lead + t1 - t0], K[lead + t1 - t0 :]
            up += low
            out[D + t0 : D + t1] = s * up.real
            if imag:
                low *= -2.0
                low += up
                out[D + h + t0 : D + h + t1] = s * low.imag
            if lead:
                out[:D] = (self.W.T @ K[:D]).real


def _interior_point(
    coords: _Coords,
    blocks: np.ndarray,
    transposed: np.ndarray,
    C: np.ndarray,
    b: np.ndarray,
    z: np.ndarray,
    value: Callable[[np.ndarray], float],
    bound: Callable[[np.ndarray], float],
    config: PptOptConfig,
) -> tuple[np.ndarray, float, float, int]:
    """Maximise ``b.z`` subject to ``S_k = C_k + L_k(z) >= 0`` for every block k.

    The variables are groups of ``coords.n`` coordinates (:class:`_Coords`)
    less the first, the trace of group 0, which is sigma's and held fixed in
    ``C``.  Block k sums the matrices of the groups set in ``blocks[k]``,
    partially transposed where ``transposed[k]`` is set.  ``z`` must be
    strictly feasible.  The primal is ``min <C, X>`` over ``X >= 0`` with
    ``L^*(X) = -b``.

    Each iteration is one Mehrotra predictor-corrector step along the HKM
    direction, with Schur matrix ``M_ij = Re Tr(L_i X L_j S^-1)`` summed
    over blocks, solved twice by LU (numpy has no triangular solve); both
    step lengths stop at ``_STEP_TO_BOUNDARY`` of the way to the cone
    boundary.  ``value(S)`` scores a dual point and ``bound(X)`` gives a
    certified upper bound from a positive definite primal point.  The dual
    points scored are the iterates and, on each predictor direction, the
    point where it meets the cone boundary (or its full step): that point
    is feasible up to rounding and nearly optimal, where an iterate lags
    the optimum by about its own gap.  The loop stops once the best value
    and the best bound are within ``config.tol``.  Returns the best dual
    point's blocks, its value, the best bound and the iterations taken.
    """
    D, n_c = coords.D, coords.n
    nb, groups = blocks.shape
    weight = blocks.astype(float)
    n = nb * D
    My = np.empty((groups * n_c, groups * n_c))

    def flip(Y):
        Y = Y.copy()
        Y[transposed] = _pt_array(Y[transposed], coords.dims, coords.transpose)
        return Y

    def lin(v):
        H = coords.mat(np.concatenate([[0.0], v]).reshape(groups, n_c))
        return flip((weight @ H.reshape(groups, -1)).reshape(nb, D, D))

    def adj(Y):
        return (weight.T @ coords.vec(flip(Y))).reshape(-1)[1:]

    X = np.repeat(np.eye(D, dtype=coords.dtype)[None], nb, axis=0)
    best_value, best_bound, best_S = -math.inf, math.inf, None

    def score(S):
        nonlocal best_value, best_S
        v = value(S)
        if v > best_value:
            best_value, best_S = v, S

    def capped(a):
        return min(1.0, _STEP_TO_BOUNDARY * a)

    for it in range(config.max_iters + 1):
        S = C + lin(z)
        # inverse Cholesky factors, S^-1 = Rs^dag Rs; they also prove S, X > 0
        Rs, Rx = np.split(np.linalg.inv(np.linalg.cholesky(np.concatenate([S, X]))), 2)
        score(S)
        best_bound = min(best_bound, bound(X))
        if best_bound - best_value <= config.tol or it == config.max_iters:
            break

        Sinv = _dag(Rs) @ Rs
        for g in range(groups):
            for h in range(g, groups):
                on = np.flatnonzero(blocks[:, g] & blocks[:, h])
                rows, cols = slice(g * n_c, (g + 1) * n_c), slice(h * n_c, (h + 1) * n_c)
                coords.schur([(X[k], Sinv[k], int(transposed[k])) for k in on], My[rows, cols])
                My[cols, rows] = My[rows, cols].T
        M = My[1:, 1:]
        mu = float(np.sum(X * S.conj()).real) / n

        def boundary(dX, dS):
            """The steps at which X + a dX and S + a dS reach their cone boundaries."""
            lam = np.linalg.eigvalsh(
                np.concatenate([Rx @ dX @ _dag(Rx), Rs @ dS @ _dag(Rs)])
            )[:, 0]
            return [-1.0 / x if x < 0.0 else math.inf for x in (lam[:nb].min(), lam[nb:].min())]

        # predictor: the affine-scaling direction
        dz = np.linalg.solve(M, b)
        dS = lin(dz)
        dX = -X - _herm(X @ dS @ Sinv)
        ap, ad = boundary(dX, dS)
        score(S + min(1.0, ad) * dS)
        ap, ad = capped(ap), capped(ad)
        mu_aff = float(np.sum((X + ap * dX) * (S + ad * dS).conj()).real) / n
        centring = (mu_aff / mu) ** 3 * mu
        # corrector: centring plus the second-order term of the predictor
        second = _herm(dX @ dS @ Sinv)
        dz = np.linalg.solve(M, b + adj(centring * Sinv - second))
        dS = lin(dz)
        dX = centring * Sinv - X - _herm(X @ dS @ Sinv) - second
        ap, ad = map(capped, boundary(dX, dS))
        X = X + ap * dX
        z = z + ad * dz
    return best_S, best_value, best_bound, it


def _result(
    sigma: np.ndarray,
    value: Callable[[np.ndarray], float],
    gap: float,
    iterations: int,
    dims: tuple[int, ...],
    transpose,
    tol: float,
) -> PptOptResult:
    cert = DensityMatrix(dims, sigma)
    low = np.linalg.eigvalsh(np.stack([cert.data, _pt_array(cert.data, dims, transpose)]))[:, 0]
    residuals = {
        "trace": abs(float(np.trace(cert.data).real) - 1.0),
        "psd": max(0.0, -float(low[0])),
        "ppt": max(0.0, -float(low[1])),
    }
    return PptOptResult(value(cert.data), cert, iterations, gap <= tol, residuals, gap)


def max_overlap_ppt(
    psi: PureState,
    cut: Bipartition,
    config: PptOptConfig | None = None,
) -> PptOptResult:
    """Maximise <psi|sigma|psi> over sigma in F(cut).

    Blocks ``sigma`` and ``sigma^Gamma``.  The upper bound is
    ``lambda_max(P + Z^Gamma)`` with ``P = |psi><psi|`` and ``Z`` the
    kernel's positive definite multiplier of ``sigma^Gamma``, valid for any
    ``Z >= 0`` as ``Tr Z sigma^Gamma >= 0`` on F(cut).  ``value`` is the
    overlap of the returned certificate.
    """
    config = config or PptOptConfig()
    _check_schur_rows(psi.dim**2 - 1)
    dims = psi.dims
    _check_cut(cut, len(dims))
    D = psi.dim
    real = not psi.amplitudes.imag.any()
    coords = _Coords(dims, cut.left, real)
    P = np.outer(psi.amplitudes, psi.amplitudes.conj())
    P = P.real if real else P

    def overlap(sigma):
        return float(np.real(psi.amplitudes.conj() @ sigma @ psi.amplitudes))

    def bound(X):
        return float(np.linalg.eigvalsh(P + _pt_array(X[1], dims, cut.left))[-1])

    C = np.repeat(np.eye(D, dtype=coords.dtype)[None] / D, 2, axis=0)
    b = coords.vec(P[None])[0, 1:]
    S, value, upper, iterations = _interior_point(
        coords, np.ones((2, 1), bool), np.array([False, True]), C, b,
        np.zeros(coords.n - 1), lambda S: overlap(S[0]), bound, config,
    )
    return _result(S[0], overlap, upper - value, iterations, dims, cut.left, config.tol)


def min_trace_distance_ppt(
    rho: DensityMatrix,
    cut: Bipartition,
    config: PptOptConfig | None = None,
) -> PptOptResult:
    """Minimise the trace distance from ``rho`` to F(cut).

    T(rho, sigma) is the least ``Tr P`` with ``P >= rho - sigma`` and
    ``P >= 0``, so the kernel runs on the blocks ``P - rho + sigma``, ``P``,
    ``sigma`` and ``sigma^Gamma``.  ``value`` is T(rho, certificate).  The
    lower bound is ``Tr W rho - lambda_max(W + Z^Gamma)``, with W the first
    block's multiplier clipped to ``[0, I]`` and Z the positive definite
    multiplier of ``sigma^Gamma``: for 0 <= W <= I and Z >= 0,
    T(rho, sigma) >= Tr W (rho - sigma) >= Tr W rho - Tr (W + Z^Gamma) sigma
    on F(cut).  ``gap`` is ``value`` minus that bound.
    """
    config = config or PptOptConfig()
    _check_schur_rows(2 * rho.dim**2 - 1)
    dims = rho.dims
    _check_cut(cut, len(dims))
    D = rho.dim
    real = not rho.data.imag.any()
    coords = _Coords(dims, cut.left, real)
    data = rho.data.real if real else rho.data
    eye = np.eye(D, dtype=coords.dtype)

    def tdist(sigma):
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(_herm(rho.data - sigma)))))

    def bound(X):
        w, V = np.linalg.eigh(X[0])
        W = (V * np.minimum(w, 1.0)) @ _dag(V)
        top = np.linalg.eigvalsh(W + _pt_array(X[3], dims, cut.left))[-1]
        return float(top) - float(np.sum(W * data.conj()).real)

    C = np.stack([eye / D - data, 0.0 * eye, eye / D, eye / D])
    ones = coords.vec(eye[None])[0]
    b = np.concatenate([np.zeros(coords.n - 1), -ones])
    z = np.concatenate([np.zeros(coords.n - 1), ones])  # sigma = I/D, P = I
    blocks = np.array([[1, 1], [0, 1], [1, 0], [1, 0]], bool)
    S, value, upper, iterations = _interior_point(
        coords, blocks, np.array([False, False, False, True]), C, b, z,
        lambda S: -tdist(S[2]), bound, config,
    )
    return _result(S[2], tdist, upper - value, iterations, dims, cut.left, config.tol)


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
    _check_schur_rows(state.dim**2 - 1)
    pure = _as_pure(state)
    if pure is not None:
        res = max_overlap_ppt(pure, cut, config)
        value = 1.0 - float(np.sqrt(max(0.0, res.value)))
        return GeoDistResult(low=value, high=value, detail=res)
    res = min_trace_distance_ppt(state, cut, config)
    t = min(1.0, res.value)
    low = max(0.0, 1.0 - float(np.sqrt(max(0.0, 1.0 - t * t))))
    return GeoDistResult(low=low, high=t, detail=res)
