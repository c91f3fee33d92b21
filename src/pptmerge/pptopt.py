"""Convex optimisation over states that stay positive under partial transpose.

The feasible set is

    F(cut) = { sigma : sigma >= 0, sigma^{T_cut} >= 0, Tr sigma = 1 }

The best overlap of a pure target with F(cut) has a closed form, one SVD
(:func:`max_overlap_ppt`).  The least trace distance to F(cut) is a
semidefinite program, solved by one dense primal-dual interior-point kernel
(:func:`_interior_point`) on the entries inside rho's symmetry sectors.
sigma is parametrised as ``I/D`` plus traceless coordinates, so every
iterate is a unit-trace state strictly inside both cones and is a valid
certificate as it stands, with no polishing step; so is, up to rounding,
the point where a predictor direction meets the cone boundary.  The
kernel's primal point gives a certified bound on the other side, and the
solver stops once the two are within ``tol``.
"""

from __future__ import annotations

import math
import numbers
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
    _density_with_spectrum,
    _herm,
    _pt_array,
    _sectors,
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

# Most rows m of the kernel's Schur system.  The trace-distance program uses
# m = 2 (D + h) - 1 for a real rho and 2 (D + 2 h) - 1 for a complex one, with
# h the entries above the diagonal inside rho's sectors: D (D - 1) / 2 for a
# dense rho, so 2 D^2 - 1 rows for a dense complex one.  An iteration costs
# O(m^3) time and O(m^2) memory; at D = 28 one dense rank-2 solve took
# 2.4-2.7 s and a 93 MB peak RSS (complex, 1567 rows) or 0.7-0.8 s and 57 MB
# (real, 811 rows), and at D = 39 a real one (1559 rows) 2.9 s and 89 MB, on
# two cores, 29 MB of each the interpreter and its imports.
OPT_SCHUR_CAP = 1600

# Shares of the step to the nearest cone boundary (see _interior_point):
# _STEP_FLOOR + _STEP_SLOPE min(1, a_p, a_d) for the corrector, so every
# iterate stays at least 0.1% of the way from the boundary, and
# _PREDICTOR_STEP for the predictor's estimate of the centring.
_STEP_FLOOR, _STEP_SLOPE = 0.9, 0.099
_PREDICTOR_STEP = 0.95

# Matrix entries per row chunk of the Schur assembly (see _Coords.schur).
_SCHUR_CHUNK = 2**16

# Proven spectrum of max_overlap_ppt's certificate sigma and of sigma^Gamma,
# derived in its docstring: least eigenvalues at least -_PSD_BOUND and
# -_PPT_BOUND, largest at least _TOP_BOUND; u = 2^-53, constants rounded up.
_PSD_BOUND, _PPT_BOUND, _TOP_BOUND = 2.3095 * 2.0**-53, 8.79 * 2.0**-53, 1.0 - 2.0**-38


@dataclass(frozen=True)
class PptOptConfig:
    """Knobs of the trace-distance solver.

    ``max_iters`` caps the interior-point iterations of a call; ``tol`` is
    the largest certified gap at which a call stops.
    """

    max_iters: int = 100
    tol: float = 1e-7

    def __post_init__(self):
        if (
            not isinstance(self.max_iters, numbers.Integral)
            or isinstance(self.max_iters, bool)
            or self.max_iters < 1
        ):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")
        if isinstance(self.tol, (bool, np.bool_)) or not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass
class PptOptResult:
    """Outcome of one optimiser call.

    ``value`` is recomputed from ``certificate``, a unit-trace state in
    F(cut) up to rounding, so it is a valid one-sided bound even when
    ``converged`` is false.  ``gap`` is the distance from ``value`` to a
    certified bound on the other side, and ``converged`` means
    ``gap <= tol``.  ``residuals`` holds the certificate's trace, PSD and
    PPT violations, from the spectrum that validated the certificate as a
    :class:`DensityMatrix`.  The trace residual is measured.  The PSD and
    PPT ones are proven rounding bounds for :func:`max_overlap_ppt`, and
    the least eigenvalues of one batched eigendecomposition for
    :func:`min_trace_distance_ppt`.
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
    """Orthonormal real coordinates of D x D Hermitian matrices that vanish
    off a given set of entries.

    Coordinate j < D is the diagonal matrix ``diag(W[:, j])``, with W
    orthogonal and ``W[:, 0] = +-1/sqrt(D)``, so coordinate 0 alone carries
    the trace.  Then come sqrt(2) Re and, unless ``real``, sqrt(2) Im of the
    h entries ``upper`` above the diagonal (all of them, or those inside
    rho's sectors), so ``n = D + h`` or ``D + 2h``.  A real program (real
    rho, real C) has a real symmetric optimum, since averaging a feasible
    sigma with its complex conjugate keeps it feasible and does not worsen
    the objective; its coordinates and arithmetic are then real.  Matrices
    stay D x D whatever the entries kept.
    """

    def __init__(
        self,
        dims: tuple[int, ...],
        transpose: Sequence[int],
        real: bool,
        upper: tuple[np.ndarray, np.ndarray],
    ):
        D = math.prod(dims)
        self.D, self.dims, self.transpose = D, dims, transpose
        self.upper = upper
        self.h = upper[0].size
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
        # t0:t1 of the entries above and of those below it; a row gathers
        # one product per entry, D + 2h of them
        h = self.h
        step = max(1, _SCHUR_CHUNK // flat.size)
        self.chunks = []
        for t0 in range(0, max(h, 1), step):
            t1, lead = min(h, t0 + step), D if t0 == 0 else 0
            rows = np.r_[0:lead, D + t0 : D + t1, D + h + t0 : D + h + t1]
            self.chunks.append((t0, t1, lead, rows))
        # work arrays for the largest chunk, so that schur allocates nothing
        # large: freed large temporaries let malloc trim the heap, and each
        # call then faulted it back in (2x the time per call at D = 9).  They
        # hold a block's gathered factors; the caller of schur makes one slab
        # of ``slab`` entries for each group pair's sum.
        self.slab = (D + 2 * min(step, h)) * flat.size
        self.work = np.empty((2, self.slab), self.dtype)

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

    def schur(self, terms, pairs, sums: np.ndarray, out: np.ndarray) -> None:
        """Fill block (g, h) of ``out``, whose blocks are n x n, with
        ``Re sum Tr(B_i X B_j Y)`` over the basis B, summed over the terms
        (X, Y, transposed) indexed by ``on``, for each group pair
        ``(g, h, on)`` of ``pairs``, and block (h, g) with its transpose;
        B_i^Gamma replaces B_i where transposed.  Every pair lists at least
        one term, and ``sums``, of shape ``(len(pairs), slab)``, is the work
        space for their sums.

        ``Tr(E_ba X E_dc Y) = X_ac Y_db``, and reading every entry (a, b) as
        (b, a) leaves the real part over a Hermitian basis unchanged; so a
        term is a Kronecker product read at the entries in the order
        diagonal, above, below, and the change to coordinates is sums and
        differences of slices.  A row of the gather holds one product per
        kept entry, D + 2h of them.  Each term is gathered once into a work
        slab and added in place to every pair that lists it, whose sum
        starts at zero in each chunk (4 gathers for the trace-distance
        program, where one pass per pair took 6), and the change to
        coordinates runs once over the stack of pair sums.  Rows go in
        chunks of about ``_SCHUR_CHUNK`` entries, one chunk for every
        D <= 16, through the work arrays made in ``__init__`` and ``sums``,
        made once per solve: a whole D^2 x D^2 product near
        ``OPT_SCHUR_CAP`` would add more to the peak memory than the Schur
        matrix itself.
        """
        D, h, n, s, imag = self.D, self.h, self.n, 2**-0.5, self.imag

        def block(g, g2):
            return out[g * n : (g + 1) * n, g2 * n : (g2 + 1) * n]

        for t0, t1, lead, rows in self.chunks:
            size = rows.size * (D + 2 * h)
            term = self.work[0, :size].reshape(rows.size, -1)
            Yc = self.work[1, :size].reshape(-1, rows.size)
            K = sums[:, :size].reshape(len(pairs), rows.size, -1)
            K[:] = 0.0
            for k, (X, Y, transposed) in enumerate(terms):
                (r, c) = self.entries[transposed]
                np.take(X[r[rows]], r, axis=1, out=term, mode="clip")
                np.take(Y[c], c[rows], axis=1, out=Yc, mode="clip")
                np.multiply(term, Yc.T, out=term)
                for p, (_, _, on) in enumerate(pairs):
                    if k in on:
                        K[p] += term
            above, below = K[:, :, D : D + h], K[:, :, D + h :]
            above += below
            if imag:
                below *= -2.0
                below += above
                below *= 1j * s
            above *= s
            K[:, :, :D] = K[:, :, :D] @ self.W
            K = K[:, :, :n]
            up, low = K[:, lead : lead + t1 - t0], K[:, lead + t1 - t0 :]
            up += low
            if imag:
                low *= -2.0
                low += up
            diag = (self.W.T @ K[:, :D]).real if lead else None
            for p, (g, g2, _) in enumerate(pairs):
                np.multiply(up[p].real, s, out=block(g, g2)[D + t0 : D + t1])
                if imag:
                    np.multiply(low[p].imag, s, out=block(g, g2)[D + h + t0 : D + h + t1])
                if lead:
                    block(g, g2)[:D] = diag[p]
        for g, g2, _ in pairs:
            if g != g2:
                block(g2, g)[:] = block(g, g2).T


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
) -> tuple[np.ndarray, float, int]:
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

    The primal starts on the central path: ``X_k = mu S_k^-1`` at the
    starting slack ``S = C + L(z)``, with ``mu = |S|_F^2 / n``, so
    ``X_k S_k = mu I`` in every block (and ``X = S`` where S is a multiple
    of I).  It reuses the Cholesky factor of S that the first iteration
    needs anyway, and X, a multiple of the Gram matrix of the inverse
    factor, is positive definite, so ``bound(X)`` holds from the start.
    Over the 220 geodist-mixed benchmark inputs of seeds 1-10 and 7919 it
    took 1,583 iterations, against 1,721 from ``X = I``.  The Schur matrix
    is assembled in one pass over the blocks (:meth:`_Coords.schur`).

    ``value(S)`` scores a dual point and ``bound(X)`` gives a certified
    upper bound from a positive definite primal point.  The dual points
    scored are the iterates and, on each predictor direction, the point
    where it meets the cone boundary (or its full step): that point is
    feasible up to rounding and nearly optimal, where an iterate lags the
    optimum by about its own gap.  The loop stops once the best value
    and the best bound are within ``config.tol``.  Returns the best dual
    point's blocks, the best bound and the iterations taken.
    """
    D, n_c = coords.D, coords.n
    nb, groups = blocks.shape
    weight = blocks.astype(float)
    n = nb * D
    pairs = [
        (g, h, on)
        for g in range(groups)
        for h in range(g, groups)
        if (on := [k for k in range(nb) if blocks[k, g] and blocks[k, h]])
    ]
    sums = np.empty((len(pairs), coords.slab), coords.dtype)
    My = np.zeros((groups * n_c, groups * n_c))

    def flip(Y):
        Y = Y.copy()
        Y[transposed] = _pt_array(Y[transposed], coords.dims, coords.transpose)
        return Y

    def lin(v):
        H = coords.mat(np.concatenate([[0.0], v]).reshape(groups, n_c))
        return flip((weight @ H.reshape(groups, -1)).reshape(nb, D, D))

    def adj(Y):
        return (weight.T @ coords.vec(flip(Y))).reshape(-1)[1:]

    # centred start X = mu S^-1; with S = L L^dag and Rs = L^-1,
    # X^-1 = Rx^dag Rx for Rx = L^dag / sqrt(mu)
    S = C + lin(z)
    L = np.linalg.cholesky(S)
    Rs = np.linalg.inv(L)
    mu = float(np.sum(np.abs(S) ** 2)) / n
    X, Rx = mu * (_dag(Rs) @ Rs), _dag(L) / math.sqrt(mu)
    best_value, best_bound, best_S = -math.inf, math.inf, None

    def score(S):
        nonlocal best_value, best_S
        v = value(S)
        if v > best_value:
            best_value, best_S = v, S

    for it in range(config.max_iters + 1):
        score(S)
        best_bound = min(best_bound, bound(X))
        if best_bound - best_value <= config.tol or it == config.max_iters:
            break

        Sinv = _dag(Rs) @ Rs
        coords.schur([(X[k], Sinv[k], int(transposed[k])) for k in range(nb)], pairs, sums, My)
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
        S = C + lin(z)
        # inverse Cholesky factors, S^-1 = Rs^dag Rs; they also prove S, X > 0
        Rs, Rx = np.split(np.linalg.inv(np.linalg.cholesky(np.concatenate([S, X]))), 2)
    return best_S, best_bound, it


def _result(
    dims: tuple[int, ...],
    matrix: np.ndarray,
    spectrum: Callable[[np.ndarray], np.ndarray],
    score: Callable[[np.ndarray], tuple[float, float]],
    iterations: int,
    tol: float,
) -> PptOptResult:
    """The result whose certificate is ``DensityMatrix(dims, matrix)``, validated
    by ``spectrum(sigma)``, the ascending spectra (2, D) of sigma and
    sigma^Gamma, which also give its residuals; ``score(sigma)`` returns the
    certificate's value and gap.  A row may be proven rather than measured
    (see :func:`core._checked`)."""
    cert, w = _density_with_spectrum(dims, matrix, spectrum)
    residuals = {
        "trace": abs(float(np.trace(cert.data).real) - 1.0),
        "psd": max(0.0, -float(w[0, 0])),
        "ppt": max(0.0, -float(w[1, 0])),
    }
    value, gap = score(cert.data)
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

    The certificate's spectrum is proved, not measured, so a call runs one
    SVD and O(D^2) work.  With u = 2^-53, for the stored bits of any
    singular vectors the SVD returns:

    1. ``top`` is t = fl(w r), with w = fl(U[:, 0] x Vh[0]) (permuting moves
       entries only), n the computed |w| and r one real scale for all
       entries: 1/n, or fl(1/n) where numpy divides by multiplying.  A
       complex product has relative error at most sqrt(5) u (R. Brent,
       C. Percival and P. Zimmermann, Math. Comp. 76, 1469 (2007); 2u with
       a fused multiply-add, C.-P. Jeannerod, P. Kornerup, N. Louvet and
       J.-M. Muller, Math. Comp. 86, 881 (2017)), and a real scale rounds
       each component once.  So t_i = p_i (1 + theta_i), where
       p = r U[:, 0] x Vh[0] is an exact product vector and
       |theta_i| <= theta = sqrt(5) u + u + sqrt(5) u^2 < 3.2361 u.  n^2 is
       the computed sum of 2D squares, within gamma_2D = 2Du / (1 - 2Du)
       < 1e-12 of |w|^2 for D <= DIMENSION_CAP, so |t|^2 is within 2^-39
       of 1.
    2. Each component of a computed product xy, x = a + ib and y = c + id
       (or of x conj(y)), with or without a fused multiply-add, is within
       (u + u^2)(P + |Re xy|) of Re xy, with P = |ac| + |bd|, and the
       imaginary part within (u + u^2)(Q + |Im xy|), Q = |ad| + |bc|.  As
       sign(ac bd) = sign(ad bc), the two products add in magnitude in one
       component, say |Re xy| = P, and cancel in the other,
       Q + |Im xy| = 2 max(|ad|, |bc|); so the error is at most
       2 (u + u^2) sqrt(P^2 + max(|ad|, |bc|)^2).
       With |a|, |b| = |x| (cos, sin) alpha, |c|, |d| = |y| (cos, sin) beta
       and s = sin|alpha - beta|, P = |x||y| sqrt(1 - s^2) and
       max(|ad|, |bc|) <= |x||y| (1 + s) / 2; ``1 - s^2 + (1 + s)^2 / 4``
       peaks at 4/3 (s = 1/3), so the error is at most
       kappa |xy|, kappa = 4/sqrt(3) (u + u^2) < 2.30941 u.
       The constructor's ``_herm`` sets entry (i, j) to
       0.5 fl(S_ij + conj(S_ji)), with S = fl(t t^dag); component by
       component that lies between the two roundings of t_i conj(t_j) it
       averages, so it obeys the same bounds (and is S_ij when S is already
       Hermitian).  So sigma = t t^dag + E with E Hermitian and
       |E_ij| <= kappa |t_i||t_j|.
    3. ``|x^dag E x| <= kappa (sum_i |x_i||t_i|)^2 <= kappa |t|^2 |x|^2``, so
       lambda_min(sigma) >= -kappa |t|^2 >= -b_sigma, b_sigma = 2.3095 u
       (1.15 eps), and lambda_max(sigma) >= (1 - kappa) |t|^2 >= 1 - 2^-38.
    4. By 1 and 2, |sigma_ij - p_i conj(p_j)| <= e |p_i||p_j| with
       e = (1 + theta)^2 (1 + kappa) - 1 < 8.7817 u.  The partial transpose
       moves entry (i, j) to some (i', j') and maps p p^dag to q q^dag,
       with q the product vector whose transposed factor is conjugated,
       exactly rank one, |q_i'||q_j'| = |p_i||p_j| and |q| = |p|.  As in 3,
       lambda_min(sigma^Gamma) >= -e |p|^2 >= -e |t|^2 / (1 - theta)^2
       >= -b_Gamma, b_Gamma = 8.79 u (4.4 eps, 9.76e-16), and
       lambda_max(sigma^Gamma) >= (1 - e) |q|^2 >= 1 - 2^-38.

    Underflow adds absolute errors of order 2^-1074 per rounding, far inside
    the margin by which the constants are rounded up.  These bounds are the
    ``psd`` and ``ppt`` residuals, and the spectrum rows
    ``[-b, 0, ..., 1 - 2^-38]`` validate the certificate: b_sigma lies
    below the clamp floor ``D eps lambda_max`` for every D >= 4, so the
    constructor's keep-the-bits decision is proved rather than measured.
    """
    if psi.dim > DIMENSION_CAP:
        raise SizeLimitError(f"dimension {psi.dim} exceeds the cap {DIMENSION_CAP}")
    dims = psi.dims
    _check_cut(cut, len(dims))
    order = cut.left + cut.right
    shape = [dims[i] for i in order]
    M = psi.amplitudes.reshape(dims).transpose(order).reshape(math.prod(shape[: len(cut.left)]), -1)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    top = np.outer(U[:, 0], Vh[0]).reshape(shape).transpose(np.argsort(order)).reshape(-1)
    top /= math.sqrt(np.vdot(top, top).real)  # |u|^2 |v|^2 can miss 1 by a few ulps
    proven = np.zeros((2, psi.dim))
    proven[:, 0], proven[:, -1] = (-_PSD_BOUND, -_PPT_BOUND), _TOP_BOUND

    def score(sigma):
        value = float(np.real(psi.amplitudes.conj() @ sigma @ psi.amplitudes))
        return value, max(0.0, s[0] ** 2 - value)

    return _result(
        dims, np.outer(top, top.conj()), lambda sigma: proven, score, 0, PptOptConfig.tol
    )


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

    sigma and P keep only the entries inside rho's symmetry sectors
    (:func:`core._sectors`), which loses nothing.  rho is fixed by a torus
    of local diagonal unitaries.  Conjugating sigma by a local unitary
    conjugates sigma^Gamma by another (its transposed factors complex
    conjugated), so it keeps F(cut); conjugating P too keeps
    ``P >= rho - sigma`` and ``Tr P``.  So the torus average of an optimal
    (sigma, P) is optimal, and it is zero off the sectors (symmetry
    reduction of an SDP: K. Gatermann and P. A. Parrilo, J. Pure Appl.
    Algebra 192, 95 (2004); the twirl of K. G. H. Vollbrecht and
    R. F. Werner, PRA 64, 062307 (2001)).  The blocks stay D x D, so the
    lower bound above is weak duality over all of F(cut) and needs no
    symmetry.  A dense rho has one sector and runs the full program.  The
    rows counted against ``OPT_SCHUR_CAP`` are those used, found before
    any other work.
    """
    config = config or PptOptConfig()
    dims = rho.dims
    _check_cut(cut, len(dims))
    D = rho.dim
    real = not rho.data.imag.any()
    sector = _sectors(rho.data, dims)
    sizes = np.bincount(sector)
    h = int(sizes @ (sizes - 1)) // 2  # entries above the diagonal inside a sector
    m = 2 * (D + (1 if real else 2) * h) - 1
    if m > OPT_SCHUR_CAP:
        raise SizeLimitError(
            f"the optimiser would need {m} Schur rows, above the cap {OPT_SCHUR_CAP}"
        )
    i, j = np.triu_indices(D, 1)
    inside = sector[i] == sector[j]
    coords = _Coords(dims, cut.left, real, (i[inside], j[inside]))
    data = rho.data.real if real else rho.data
    eye = np.eye(D, dtype=coords.dtype)

    def tdist(sigma):  # rho and sigma are Hermitian bit for bit, so is their difference
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho.data - sigma))))

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
    S, upper, iterations = _interior_point(
        coords, blocks, np.array([False, False, False, True]), C, b, z,
        lambda S: -tdist(S[2]), bound, config,
    )
    return _result(
        dims,
        S[2],
        lambda a: np.linalg.eigvalsh(np.stack([a, _pt_array(a, dims, cut.left)])),
        lambda sigma: (t := tdist(sigma), t + upper),
        iterations,
        config.tol,
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
