"""Convex optimisation over states that stay positive under partial transpose.

The feasible set is

    F(cut) = { sigma : sigma >= 0, sigma^{T_cut} >= 0, Tr sigma = 1 }

The best overlap of a pure target with F(cut) has a closed form, one SVD
(:func:`max_overlap_ppt`).  The least trace distance to F(cut) is a
semidefinite program, solved by one dense primal-dual interior-point kernel
(:func:`_interior_point`).  sigma is parametrised as ``I/D`` plus traceless
coordinates, so every iterate is a unit-trace state strictly inside both
cones and is a valid certificate as it stands, with no polishing step; so
is, up to rounding, the point where a predictor direction meets the cone
boundary.  The kernel's primal point gives a certified bound on the other
side, and the solver stops once the two are within ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DIMENSION_CAP,
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

# Most rows m of the kernel's Schur system, 2 D^2 - 1 for the trace-distance
# program.  An iteration costs O(m^3) time and O(m^2) memory; near this cap
# (D = 28) one solve took 3.2 s and 0.4 GB on two cores.
OPT_SCHUR_CAP = 1600

# Shares of the step to the nearest cone boundary (see _interior_point):
# _STEP_FLOOR + _STEP_SLOPE min(1, a_p, a_d) for the corrector, so every
# iterate stays at least 0.1% of the way from the boundary, and
# _PREDICTOR_STEP for the predictor's estimate of the centring.
_STEP_FLOOR, _STEP_SLOPE = 0.9, 0.099
_PREDICTOR_STEP = 0.95

# Matrix entries per row chunk of the Schur assembly (see _Coords.schur).
_SCHUR_CHUNK = 2**16


@dataclass
class PptOptConfig:
    """Knobs of the trace-distance solver.

    ``max_iters`` caps the interior-point iterations of a call; ``tol`` is
    the largest certified gap at which a call stops.
    """

    max_iters: int = 100
    tol: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")


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

    For pure inputs both ends are ``1 - s_1``, with s_1 the largest Schmidt
    coefficient across the cut: the closed-form overlap is exact, so both
    ends are certified up to rounding.  For mixed inputs they come from the
    trace-distance optimum via 1 - F <= T <= sqrt(1 - F^2).
    """

    low: float
    high: float
    detail: PptOptResult


class _Coords:
    """Orthonormal real coordinates of D x D Hermitian matrices.

    Coordinate j < D is the diagonal matrix ``diag(W[:, j])``, with W
    orthogonal and ``W[:, 0] = +-1/sqrt(D)``, so coordinate 0 alone carries
    the trace.  Then come sqrt(2) Re and, unless ``real``, sqrt(2) Im of the
    entries above the diagonal.  A real program (real rho, real C) has a
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
        # the Schur rows of each chunk: the diagonal (first chunk only), then
        # t0:t1 of the entries above and of those below it
        step, h = max(1, _SCHUR_CHUNK // D**2), self.h
        self.chunks = []
        for t0 in range(0, h, step):
            t1, lead = min(h, t0 + step), D if t0 == 0 else 0
            rows = np.r_[0:lead, D + t0 : D + t1, D + h + t0 : D + h + t1]
            self.chunks.append((t0, t1, lead, rows))
        # work arrays for the largest chunk, so that schur allocates nothing
        # large: freed large temporaries let malloc trim the heap, and each
        # call then faulted it back in (2x the time per call at D = 9)
        self.work = np.empty((3, (D + 2 * min(step, h)) * D * D), self.dtype)

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
        of slices.  Rows go in chunks of about ``_SCHUR_CHUNK`` entries, one
        chunk for every D <= 16, through the work arrays made in
        ``__init__``: a whole D^2 x D^2 product near ``OPT_SCHUR_CAP`` would
        add more to the peak memory than the Schur matrix itself.
        """
        D, h, n, s, imag = self.D, self.h, self.n, 2**-0.5, self.imag
        for t0, t1, lead, rows in self.chunks:
            size = rows.size * D * D
            K, term = (w[:size].reshape(rows.size, -1) for w in self.work[:2])
            Yc = self.work[2, :size].reshape(-1, rows.size)
            for k, (X, Y, transposed) in enumerate(terms):
                (r, c) = self.entries[transposed]
                np.take(X[r[rows]], r, axis=1, out=term, mode="clip")
                np.take(Y[c], c[rows], axis=1, out=Yc, mode="clip")
                np.multiply(term, Yc.T, out=term if k else K)
                if k:
                    K += term
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
            np.multiply(up.real, s, out=out[D + t0 : D + t1])
            if imag:
                low *= -2.0
                low += up
                np.multiply(low.imag, s, out=out[D + h + t0 : D + h + t1])
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
    over blocks, solved twice by LU (numpy has no triangular solve).  The
    corrector's primal and dual steps go the share
    ``gamma = 0.9 + 0.099 min(1, a_p, a_d)`` of the way to the cone
    boundary, at most a full step, with a_p and a_d the predictor's step
    lengths to it (the adaptive rule of SDPT3: K.-C. Toh, M. J. Todd and
    R. H. Tutuncu, Optim. Methods Softw. 11, 545 (1999)).  Late iterations
    then cut the gap 500-1000x each on an isotropic state, where a fixed
    share of 0.95 held them to 20x.  The predictor's own steps, which only
    estimate the centring, keep the share 0.95.

    ``value(S)`` scores a dual point and ``bound(X)`` gives a certified
    upper bound from a positive definite primal point.  The dual points
    scored are the iterates and, on each predictor direction, the point
    where it meets the cone boundary (or its full step): that point is
    feasible up to rounding and nearly optimal, where an iterate lags the
    optimum by about its own gap.  The loop stops once the best value
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
        gamma = _STEP_FLOOR + _STEP_SLOPE * min(1.0, ap, ad)
        ap, ad = min(1.0, _PREDICTOR_STEP * ap), min(1.0, _PREDICTOR_STEP * ad)
        mu_aff = float(np.sum((X + ap * dX) * (S + ad * dS).conj()).real) / n
        centring = (mu_aff / mu) ** 3 * mu
        # corrector: centring plus the second-order term of the predictor
        second = _herm(dX @ dS @ Sinv)
        dz = np.linalg.solve(M, b + adj(centring * Sinv - second))
        dS = lin(dz)
        dX = centring * Sinv - X - _herm(X @ dS @ Sinv) - second
        ap, ad = (min(1.0, gamma * a) for a in boundary(dX, dS))
        X = X + ap * dX
        z = z + ad * dz
    return best_S, best_value, best_bound, it


def _result(
    cert: DensityMatrix,
    value: float,
    gap: float,
    iterations: int,
    transpose,
    tol: float,
) -> PptOptResult:
    low = np.linalg.eigvalsh(np.stack([cert.data, _pt_array(cert.data, cert.dims, transpose)]))
    residuals = {
        "trace": abs(float(np.trace(cert.data).real) - 1.0),
        "psd": max(0.0, -float(low[0, 0])),
        "ppt": max(0.0, -float(low[1, 0])),
    }
    return PptOptResult(value, cert, iterations, gap <= tol, residuals, gap)


def max_overlap_ppt(psi: PureState, cut: Bipartition) -> PptOptResult:
    """Maximise <psi|sigma|psi> over sigma in F(cut), in closed form.

    The maximum is s_1^2, the largest squared Schmidt coefficient of psi
    across the cut.  The product of the top Schmidt vectors attains it, and
    ``Tr sigma P = Tr sigma^Gamma P^Gamma <= lambda_max(P^Gamma) = s_1^2``
    with ``P = |psi><psi|`` bounds every sigma in F(cut) (E. M. Rains,
    IEEE TIT 47, 2921 (2001)).  The certificate is that product state and
    ``value`` its overlap; ``gap`` is the rounding by which ``value`` falls
    short of s_1^2.  Targets above ``DIMENSION_CAP`` raise
    :class:`SizeLimitError` before any work.
    """
    if psi.dim > DIMENSION_CAP:
        raise SizeLimitError(f"dimension {psi.dim} exceeds the cap {DIMENSION_CAP}")
    dims = psi.dims
    _check_cut(cut, len(dims))
    order = cut.left + cut.right
    shape = [dims[i] for i in order]
    amps = psi.amplitudes if psi.amplitudes.imag.any() else psi.amplitudes.real
    M = amps.reshape(dims).transpose(order).reshape(math.prod(shape[: len(cut.left)]), -1)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    top = np.outer(U[:, 0], Vh[0]).reshape(shape).transpose(np.argsort(order)).reshape(-1)
    top /= math.sqrt(np.vdot(top, top).real)  # |u|^2 |v|^2 can miss 1 by a few ulps
    cert = DensityMatrix(dims, np.outer(top, top.conj()))
    value = float(np.real(psi.amplitudes.conj() @ cert.data @ psi.amplitudes))
    return _result(cert, value, max(0.0, s[0] ** 2 - value), 0, cut.left, PptOptConfig.tol)


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
    m = 2 * rho.dim**2 - 1
    if m > OPT_SCHUR_CAP:
        raise SizeLimitError(
            f"the optimiser would need {m} Schur rows, above the cap {OPT_SCHUR_CAP}"
        )
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
    cert = DensityMatrix(dims, S[2])
    return _result(cert, tdist(cert.data), upper - value, iterations, cut.left, config.tol)


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

    Pure inputs take the closed-form overlap, where the fidelity is the
    square root of the overlap and the bracket collapses to the point
    ``1 - s_1``.  Mixed inputs yield the interval ``[1 - sqrt(1 - T^2), T]``
    with T the minimal trace distance to the feasible set; ``config`` tunes
    only that solver.
    """
    pure = _as_pure(state)
    if pure is not None:
        res = max_overlap_ppt(pure, cut)
        value = 1.0 - float(np.sqrt(max(0.0, res.value)))
        return GeoDistResult(low=value, high=value, detail=res)
    res = min_trace_distance_ppt(state, cut, config)
    t = min(1.0, res.value)
    low = max(0.0, 1.0 - float(np.sqrt(max(0.0, 1.0 - t * t))))
    return GeoDistResult(low=low, high=t, detail=res)
