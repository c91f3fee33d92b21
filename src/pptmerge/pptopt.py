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
    _check_kind,
    _check_tol,
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

# Most iterations of one interior-point solve: a guard against a stalled
# solve, not a setting.  A solve stops on a certified gap at or below tol or
# at the gap's rounding floor, and no benchmark input needs more than 12.
_MAX_ITERS = 100

# The kernel scores its dual point and bounds its primal one only once its
# own duality gap Tr(XS) is at most _SCORE_FROM tol (see _interior_point).
_SCORE_FROM = 1e4

# min_trace_distance_ppt starts P at (rho - I/D)_+ + _START_MARGIN I/D.
_START_MARGIN = 0.1


@dataclass(frozen=True)
class PptOptConfig:
    """The one setting of the trace-distance solver: ``tol``, the largest
    certified gap at which a call stops.  The iteration count is bounded
    only by a fixed guard against a stalled solve (``_MAX_ITERS``)."""

    tol: float = 1e-7

    def __post_init__(self):
        _check_tol(self.tol, positive=True)


@dataclass
class PptOptResult:
    """Outcome of one optimiser call.

    ``value`` is the objective at ``certificate``, a unit-trace state in
    F(cut) up to rounding, so it is a valid one-sided bound even when
    ``converged`` is false.  ``gap`` is the distance from ``value`` to a
    certified bound on the other side, and ``converged`` means
    ``gap <= tol``.  ``residuals`` holds the certificate's trace, PSD and
    PPT violations.  The trace residual is measured.  For
    :func:`max_overlap_ppt` the certificate is a product vector
    (:class:`PureState`), PSD and PPT by construction, so the other two are
    0.  For :func:`min_trace_distance_ppt` it is a :class:`DensityMatrix`,
    and they are the least eigenvalues of the one batched
    eigendecomposition that validated it.
    """

    value: float
    certificate: DensityMatrix | PureState
    iterations: int
    converged: bool
    residuals: dict[str, float]
    gap: float


@dataclass(frozen=True)
class GeoDistResult:
    """Bracket [low, high] for the geometric distillability 1 - sup F.

    For pure inputs both ends are ``1 - s_1``, with s_1 the largest Schmidt
    coefficient across the cut: the closed-form overlap is exact, so both
    ends are certified up to rounding.  For mixed inputs both are computed
    from ``T = detail.value`` via 1 - F <= T <= sqrt(1 - F^2):
    ``high = T`` and ``low = 1 - sqrt(1 - T^2)``.  T is the upper end of
    the certified interval ``[value - gap, value]`` for the least trace
    distance, so ``high`` is certified, but ``low`` only up to about
    ``T gap / sqrt(1 - T^2)``.
    """

    low: float
    high: float
    detail: PptOptResult


class _Coords:
    """The kernel's program: orthonormal real coordinates of D x D Hermitian
    matrices that vanish off a given set of entries, and the linear map, its
    adjoint and the Schur matrix of a layout of blocks over groups of them.

    Coordinate j < D is the diagonal matrix ``diag(W[:, j])``, with W
    orthogonal and ``W[:, 0] = +-1/sqrt(D)``, so coordinate 0 alone carries
    the trace.  Then come sqrt(2) Re and, unless ``real``, sqrt(2) Im of the
    h entries ``upper`` above the diagonal (all of them, or those inside
    rho's sectors), so ``n = D + h`` or ``D + 2h``.  A real program (real
    rho, real C) has a real symmetric optimum, since averaging a feasible
    sigma with its complex conjugate keeps it feasible and does not worsen
    the objective; its coordinates and arithmetic are then real.  Matrices
    stay D x D whatever the entries kept.

    Block k of the layout sums the matrices of the groups set in
    ``blocks[k]``, partially transposed across ``transpose`` where
    ``transposed[k]`` is set.  The variables v are every group's n
    coordinates but the first, taken as 0.  The constructor builds the index
    maps, with each block's partial transpose folded in, the group pairs
    that the Schur matrix sums over, and every array the methods work in, so
    that a solve allocates nothing large after it: freed large temporaries
    let malloc trim the heap, and each call then faulted it back in (2x the
    time per call at D = 9).
    """

    def __init__(
        self,
        dims: tuple[int, ...],
        transpose: Sequence[int],
        real: bool,
        upper: tuple[np.ndarray, np.ndarray],
        blocks: np.ndarray,
        transposed: Sequence[bool],
    ):
        D = math.prod(dims)
        self.D, self.h = D, upper[0].size
        self.imag = not real
        self.n = D + (2 if self.imag else 1) * self.h
        self.dtype = complex if self.imag else float
        ones_first = np.eye(D)
        ones_first[:, 0] = 1.0
        self.W = np.linalg.qr(ones_first)[0]
        # flat position in a D x D block of each kept entry, in the order
        # diagonal, above, below; then of the entry of the block's partial
        # transpose that holds it (the partial transpose is an involution)
        i, j = upper
        flat = np.concatenate([np.arange(D) * (D + 1), i * D + j, j * D + i])
        pt = _pt_array(np.arange(D * D).reshape(D, D), dims, transpose).reshape(-1)
        flat = flat, pt[flat]
        self.entries = tuple(np.divmod(f, D) for f in flat)
        # each block's entries in the flattened stack of blocks, and the
        # group pairs (g, g2, on) with the blocks ``on`` in both groups
        nb, groups = blocks.shape
        self.transposed = [int(t) for t in transposed]
        self.weight = blocks.astype(float)
        self.pos = np.arange(nb)[:, None] * (D * D) + np.stack([flat[t] for t in self.transposed])
        self.pairs = [
            (g, g2, on)
            for g in range(groups)
            for g2 in range(g, groups)
            if (on := [k for k in range(nb) if blocks[k, g] and blocks[k, g2]])
        ]
        # the Schur rows of each chunk: the diagonal (first chunk only), then
        # t0:t1 of the entries above and of those below it; a row gathers
        # one product per entry, D + 2h of them
        h, size = self.h, flat[0].size
        step = max(1, _SCHUR_CHUNK // size)
        self.chunks = []
        for t0 in range(0, max(h, 1), step):
            t1, lead = min(h, t0 + step), D if t0 == 0 else 0
            rows = np.r_[0:lead, D + t0 : D + t1, D + h + t0 : D + h + t1]
            self.chunks.append((lead > 0, rows))
        # two slabs for a block's gathered factors and one per group pair
        # for its sum, sized for the largest chunk; then the Schur matrix
        self.work = np.empty((2 + len(self.pairs), (D + 2 * min(step, h)) * size), self.dtype)
        self.M = np.zeros((groups * self.n, groups * self.n))

    def lin(self, v: np.ndarray) -> np.ndarray:
        """L(v), the stack (nb, D, D) of the layout's blocks: a zero-fill, two
        products with the blocks' 0/1 weights and one scatter."""
        D, h, s = self.D, self.h, 2**-0.5
        V = np.concatenate([[0.0], v]).reshape(-1, self.n)
        off = V[:, D : D + h] * s
        if self.imag:
            off = off + 1j * s * V[:, D + h :]
        off = self.weight @ off
        Y = np.zeros(len(self.weight) * D * D, self.dtype)
        Y[self.pos] = np.concatenate([self.weight @ (V[:, :D] @ self.W.T), off, off.conj()], axis=1)
        return Y.reshape(-1, D, D)

    def adj(self, Y: np.ndarray) -> np.ndarray:
        """L*(Y), ``Re Tr(B Y_k)`` summed over the blocks k for each
        coordinate B of v, for a Hermitian stack Y (nb, D, D).

        It reads each block's diagonal and the entries above it, and takes
        the ones below as their conjugates: the kernel's Y is Hermitian only
        up to rounding, and its own lower entries would move the solve by
        that rounding.  So ``Re Tr(B Y_k)`` is a real inner product, folded
        from the real parts of the diagonal and the real and imaginary parts
        of the entries above, each twice: once for the entry and once for
        its mirror image.  The product with W stays real: a complex one
        rounds differently at some D (17-20 among others).
        """
        D, h = self.D, self.h
        G = Y.reshape(-1)[self.pos[:, : D + h]]
        up = [G[:, D:].real, G[:, D:].imag] if self.imag else [G[:, D:]]
        E = np.concatenate([G[:, :D].real, *up, *up], axis=1)
        return (self.weight.T @ self.fold(E)).reshape(-1)[1:]

    def fold(self, A: np.ndarray, diagonal: bool = True, conj: bool = False) -> np.ndarray:
        """Turn the entries along the last axis of A, in place, into the
        coordinates that hold them, and return those as a view of A.

        The entries are the diagonal (if ``diagonal``), then m above it and
        their m mirror images below it.  Coordinate B gets
        ``sum_e B[e] A[e]`` over the entries e, or ``sum_e conj(B[e]) A[e]``
        if ``conj``.  The diagonal coordinates come first, then m of
        sqrt(2) Re and, for a complex A, m of sqrt(2) Im.
        """
        D, s = self.D, 2**-0.5
        lead = D if diagonal else 0
        m = (A.shape[-1] - lead) // 2
        above, below = A[..., lead : lead + m], A[..., lead + m :]
        above += below
        imag = np.iscomplexobj(A)
        if imag:
            below *= -2.0
            below += above
            below *= (-1j if conj else 1j) * s
        above *= s
        if diagonal:
            A[..., :D] = A[..., :D] @ self.W
        return A[..., : lead + (2 if imag else 1) * m]

    def schur(self, X: np.ndarray, Sinv: np.ndarray) -> np.ndarray:
        """The Schur matrix ``M_ij = Re sum_k Tr(B_i X_k B_j Sinv_k)``, summed
        over the blocks k, for the matrices B_i of every group's coordinates
        (B_i^Gamma in transposed blocks), less its first row and column: a
        view of a buffer that the next call overwrites.

        ``Tr(E_ba X E_dc Y) = X_ac Y_db``, and reading every entry (a, b) as
        (b, a) leaves the real part over a Hermitian basis unchanged; so a
        block's term is a Kronecker product read at the entries, and
        :meth:`fold` turns its columns into coordinates, then its rows with
        conjugated coefficients.  A row of the gather holds one product per
        kept entry, D + 2h of them.  Each term is gathered once into a work
        slab and added in place to the sum of every group pair whose groups
        both hold its block, which starts at zero in each chunk, and the
        folds run once over the stack of pair sums.  Rows go in chunks of
        about ``_SCHUR_CHUNK`` entries, one chunk for every D <= 16: a whole
        D^2 x D^2 product near ``OPT_SCHUR_CAP`` would add more to the peak
        memory than the Schur matrix itself.
        """
        D, h, n = self.D, self.h, self.n

        def block(g, g2):
            return self.M[g * n : (g + 1) * n, g2 * n : (g2 + 1) * n]

        for diagonal, rows in self.chunks:
            size = rows.size * (D + 2 * h)
            term = self.work[0, :size].reshape(rows.size, -1)
            Yc = self.work[1, :size].reshape(-1, rows.size)
            K = self.work[2:, :size].reshape(len(self.pairs), rows.size, -1)
            K[:] = 0.0
            for k, t in enumerate(self.transposed):
                (r, c) = self.entries[t]
                np.take(X[k][r[rows]], r, axis=1, out=term, mode="clip")
                np.take(Sinv[k][c], c[rows], axis=1, out=Yc, mode="clip")
                np.multiply(term, Yc.T, out=term)
                for p, (_, _, on) in enumerate(self.pairs):
                    if k in on:
                        K[p] += term
            K = self.fold(self.fold(K).swapaxes(1, 2), diagonal, conj=True).real
            for p, (g, g2, _) in enumerate(self.pairs):
                block(g, g2)[rows[: K.shape[2]]] = K[p].T
        for g, g2, _ in self.pairs:
            if g != g2:
                block(g2, g)[:] = block(g, g2).T
        return self.M[1:, 1:]


def _interior_point(
    coords: _Coords,
    C: np.ndarray,
    b: np.ndarray,
    z: np.ndarray,
    value: Callable[[np.ndarray], float],
    bound: Callable[[np.ndarray], float],
    tol: float,
) -> tuple[np.ndarray, float, float, int]:
    """Maximise ``b.z`` subject to ``S_k = C_k + L_k(z) >= 0`` for every block k.

    ``coords`` owns the program (:class:`_Coords`): the block layout, L,
    L^* and the Schur matrix.  The variables are its groups of ``coords.n``
    coordinates less the first, the trace of group 0, which is sigma's and
    held fixed in ``C``.  ``z`` must be strictly feasible.  The primal is
    ``min <C, X>`` over ``X >= 0`` with ``L^*(X) = -b``.

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

    An iteration makes two LU solves, one batched Cholesky factorisation
    and inverse of the blocks of S and X (whose inverse factors, stacked
    as R, also scale both cone-boundary tests) and the two batched
    ``eigvalsh`` of those tests.  At D = 4-9 numpy's per-call overhead, not
    LAPACK, sets the time: on the traced geodist-mixed benchmark (seed 1,
    two cores) an iteration took 1.1-1.5 ms, median 1.17 ms over five
    8 s runs, scores and the call's own work included.

    ``value(S)`` scores a dual point and ``bound(X)`` gives a certified
    upper bound from a positive definite primal point.  The dual points
    scored are the iterates and, on each predictor direction, the point
    where it meets the cone boundary (or its full step): that point is
    feasible up to rounding and nearly optimal, where an iterate lags the
    optimum by about its own gap.  Scoring is paid only in iterations that
    can certify: those that start with the kernel's own duality gap
    ``Tr(XS)`` at most ``_SCORE_FROM tol``, and the last one allowed.  For
    the trace-distance program the scores cost three ``eigvalsh`` and one
    ``eigh`` an iteration.  On the 220 geodist-mixed inputs of seeds 1-10
    and 7919, ``Tr(XS)`` stayed within 0.97-3.2x the certified gap wherever
    both were read, and was at most 1.94e3 tol one iteration before the
    exit, so ``_SCORE_FROM = 1e4`` leaves every iteration count as it is
    with scores at every iteration.  Skipped scores can only cost
    iterations, never a wrong answer: the loop stops once the best value
    and the best bound are within ``tol``, or once a step leaves S or X
    only semidefinite in floating point, so that their Cholesky
    factorisation fails: the gap has reached its rounding floor, which
    happens when ``tol`` lies below it (at tol = 1e-12, on 17 of 20
    random 2 x 2 rank-2 states, whose gaps end at 7e-13 to 3e-10); if
    nothing was scored yet, the last pair that passed it is.  A solve
    that does neither within ``_MAX_ITERS`` iterations stops there too,
    with its gap above ``tol``.  Returns the best dual point's blocks, its
    score, the best bound and the iterations taken, the failed step
    included.
    """
    nb = len(C)
    n = nb * coords.D

    # centred start X = mu S^-1; with S = L L^dag and Rs = L^-1,
    # X^-1 = Rx^dag Rx for Rx = L^dag / sqrt(mu); R stacks Rs over Rx
    S = C + coords.lin(z)
    L = np.linalg.cholesky(S)
    Rs = np.linalg.inv(L)
    mu = float(np.sum(np.abs(S) ** 2)) / n
    X, R = mu * (_dag(Rs) @ Rs), np.concatenate([Rs, _dag(L) / math.sqrt(mu)])
    best_value, best_bound, best_S = -math.inf, math.inf, None

    def score(S):
        nonlocal best_value, best_S
        v = value(S)
        if v > best_value:
            best_value, best_S = v, S

    def certify(S, X):
        nonlocal best_bound
        score(S)
        best_bound = min(best_bound, bound(X))
        return best_bound - best_value <= tol

    for it in range(_MAX_ITERS + 1):
        duality = float(np.sum(X * S.conj()).real)  # Tr XS, the kernel's own gap
        scoring = duality <= _SCORE_FROM * tol or it == _MAX_ITERS
        if scoring and certify(S, X) or it == _MAX_ITERS:
            break

        Rs = R[:nb]
        Sinv = _dag(Rs) @ Rs
        M = coords.schur(X, Sinv)
        mu = duality / n

        def boundary(dX, dS):
            """The steps at which X + a dX and S + a dS reach their cone boundaries."""
            lam = np.linalg.eigvalsh(R @ np.concatenate([dS, dX]) @ _dag(R))[:, 0]
            return [-1.0 / x if x < 0.0 else math.inf for x in (lam[nb:].min(), lam[:nb].min())]

        # predictor: the affine-scaling direction
        dz = np.linalg.solve(M, b)
        dS = coords.lin(dz)
        dX = -X - _herm(X @ dS @ Sinv)
        ap, ad = boundary(dX, dS)
        if scoring:
            score(S + min(1.0, ad) * dS)
        gamma = _STEP_FLOOR + _STEP_SLOPE * min(1.0, ap, ad)
        ap, ad = min(1.0, _PREDICTOR_STEP * ap), min(1.0, _PREDICTOR_STEP * ad)
        mu_aff = float(np.sum((X + ap * dX) * (S + ad * dS).conj()).real) / n
        centring = (mu_aff / mu) ** 3 * mu
        # corrector: centring plus the second-order term of the predictor
        second = _herm(dX @ dS @ Sinv)
        dz = np.linalg.solve(M, b + coords.adj(centring * Sinv - second))
        dS = coords.lin(dz)
        dX = centring * Sinv - X - _herm(X @ dS @ Sinv) - second
        ap, ad = (min(1.0, gamma * a) for a in boundary(dX, dS))
        last = S, X
        X = X + ap * dX
        z = z + ad * dz
        S = C + coords.lin(z)
        # inverse Cholesky factors, S^-1 = Rs^dag Rs; they also prove S, X > 0,
        # and fail once the gap has reached its rounding floor
        try:
            R = np.linalg.inv(np.linalg.cholesky(np.concatenate([S, X])))
        except np.linalg.LinAlgError:
            if best_S is None:
                certify(*last)
            return best_S, best_value, best_bound, it + 1
    return best_S, best_value, best_bound, it


def max_overlap_ppt(psi: PureState, cut: Bipartition) -> PptOptResult:
    """Maximise <psi|sigma|psi> over sigma in F(cut), in closed form.

    The maximum is s_1^2, the largest squared Schmidt coefficient of psi
    across the cut.  The product of the top Schmidt vectors attains it, and
    ``Tr sigma P = Tr sigma^Gamma P^Gamma <= lambda_max(P^Gamma) = s_1^2``
    with ``P = |psi><psi|`` bounds every sigma in F(cut) (E. M. Rains,
    IEEE TIT 47, 2921 (2001)).  Targets above ``DIMENSION_CAP`` raise
    :class:`SizeLimitError` before any work.

    The certificate is that product vector, ``PureState(dims, v)`` with
    ``v = a (x) b`` in state order, from one SVD and O(D) further work; no
    D x D matrix is formed.  The state ``|v><v| / <v|v>`` of a product v is
    PSD, its partial transpose is again a product state (the transposed
    factor conjugated), and its trace is 1.  So the ``psd`` and ``ppt``
    residuals are 0 by construction, and the ``trace`` residual is the
    measured ``|<v|v> - 1|``.  The stored amplitudes are the product with
    each entry rounded: across the cut their second singular value s_2 is a
    few eps, and so is the least eigenvalue ``-s_1 s_2`` of the partial
    transpose of those exact bits, the order of a float64 eigensolver's own
    error.  ``value`` is the overlap ``|<psi|v>|^2 / <v|v>``, clamped at 1,
    and ``gap`` the rounding by which it falls short of s_1^2.
    """
    _check_kind("psi", psi, PureState)
    if psi.dim > DIMENSION_CAP:
        raise SizeLimitError(f"dimension {psi.dim} exceeds the cap {DIMENSION_CAP}")
    dims = psi.dims
    _check_cut(cut, len(dims))
    order = cut.left + cut.right
    shape = [dims[i] for i in order]
    M = psi.amplitudes.reshape(dims).transpose(order).reshape(math.prod(shape[: len(cut.left)]), -1)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    inverse = sorted(range(len(order)), key=order.__getitem__)
    v = (U[:, :1] * Vh[0]).reshape(shape).transpose(inverse).reshape(-1)  # np.outer's product
    v /= math.sqrt(np.vdot(v, v).real)  # |U[:, 0]|^2 |Vh[0]|^2 can miss 1 by ulps
    norm = float(np.vdot(v, v).real)
    value = min(1.0, float(abs(np.vdot(v, psi.amplitudes)) ** 2) / norm)
    gap = max(0.0, float(s[0]) ** 2 - value)
    residuals = {"trace": abs(norm - 1.0), "psd": 0.0, "ppt": 0.0}
    return PptOptResult(value, PureState(dims, v), 0, gap <= PptOptConfig.tol, residuals, gap)


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
    on F(cut).  ``gap`` is ``value`` minus that bound.  The kernel stops
    once its certified gap is at most ``config.tol`` or, short of that, at
    the gap's rounding floor or at the fixed guard of ``_MAX_ITERS``
    iterations; only those two exits can leave ``converged`` false.

    The kernel starts at sigma = I/D and
    ``P = (rho - I/D)_+ + _START_MARGIN I/D``.  ``(rho - I/D)_+`` is the
    least-trace P for that sigma, and the margin puts the start inside both
    of P's cones: ``P`` and ``P - rho + I/D = (rho - I/D)_- + I/(10 D)``
    are each at least ``I/(10 D)``.  Against the start P = I it saved 220
    of the 1,583 iterations over the 220 geodist-mixed inputs of seeds 1-10
    and 7919; margins of 1, 0.3, 0.03 and 0.01 gave 1,564, 1,402, 1,398
    and 1,514.

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
    _check_kind("rho", rho, DensityMatrix, PureState)
    if config is None:
        config = PptOptConfig()
    _check_kind("config", config, PptOptConfig)
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
    blocks = np.array([[1, 1], [0, 1], [1, 0], [1, 0]], bool)
    coords = _Coords(dims, cut.left, real, (i[inside], j[inside]), blocks, (0, 0, 0, 1))
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
    ones = np.zeros(coords.n)  # coordinates of I: W's column sums, +-sqrt(D) e_0 up to rounding
    ones[:D] = np.eye(D).diagonal() @ coords.W
    b = np.concatenate([np.zeros(coords.n - 1), -ones])
    # sigma = I/D and P = (rho - I/D)_+ + margin I/D, the least-trace P for
    # that sigma moved inside both of its cones; P's coordinates are L* of
    # a stack that holds it in block 1, so they keep only the sectors' entries
    w, V = np.linalg.eigh(data - eye / D)
    Y = np.zeros((len(blocks), D, D), coords.dtype)
    Y[1] = (V * (np.maximum(w, 0.0) + _START_MARGIN / D)) @ _dag(V)
    z = coords.adj(Y)
    S, score, upper, iterations = _interior_point(
        coords, C, b, z, lambda S: -tdist(S[2]), bound, config.tol
    )
    # validated from the spectra (2, D) of the certificate and its partial
    # transpose, which also give its residuals
    cert, w = _density_with_spectrum(
        dims, S[2], lambda a: np.linalg.eigvalsh(np.stack([a, _pt_array(a, dims, cut.left)]))
    )
    # the kernel scored S[2] as -T(rho, S[2]); only a certificate the check
    # moved (clamped) is measured again
    value = -score if np.array_equal(cert.data, S[2]) else tdist(cert.data)
    gap = value + upper
    residuals = {
        "trace": abs(float(np.trace(cert.data).real) - 1.0),
        "psd": max(0.0, -float(w[0, 0])),
        "ppt": max(0.0, -float(w[1, 0])),
    }
    return PptOptResult(value, cert, iterations, gap <= config.tol, residuals, gap)


def _as_pure(state: PureState | DensityMatrix) -> PureState | None:
    """The state's top eigenvector if its purity is within 1e-9 of 1, else None;
    ``ValueError`` if it is neither a :class:`PureState` nor a :class:`DensityMatrix`."""
    if isinstance(state, PureState):
        return state
    _check_kind("state", state, PureState, DensityMatrix)
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
    only that solver, but is checked for every input.
    """
    pure = _as_pure(state)
    if pure is not None:
        if config is not None:  # the mixed solver checks its own
            _check_kind("config", config, PptOptConfig)
        res = max_overlap_ppt(pure, cut)
        value = 1.0 - math.sqrt(res.value)
        return GeoDistResult(low=value, high=value, detail=res)
    res = min_trace_distance_ppt(state, cut, config)
    t = min(1.0, res.value)
    low = max(0.0, 1.0 - float(np.sqrt(max(0.0, 1.0 - t * t))))
    return GeoDistResult(low=low, high=t, detail=res)
