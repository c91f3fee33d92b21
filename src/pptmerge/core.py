"""Validated state containers and the linear algebra they rely on.

Composite systems use the big-endian Kronecker convention throughout:
subsystem 0 varies slowest, so ``np.kron(a, b)`` places ``a`` on the left
and the flat index of ``(i_0, ..., i_{n-1})`` is the row-major one.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DIMENSION_CAP",
    "SizeLimitError",
    "DensityMatrix",
    "PureState",
    "Bipartition",
    "TripartiteState",
    "tensor",
    "partial_trace",
    "partial_transpose",
]

# Largest composite dimension `tensor` will produce, and largest pure state
# whose D x D projector `PureState.data` will build.
DIMENSION_CAP = 4096

_HERMITICITY_ATOL = 1e-10
_TRACE_ATOL = 1e-10
_EIG_FLOOR = -1e-9
_PURE_NORM_ATOL = 1e-12


class SizeLimitError(ValueError):
    """An operation would exceed the configured dimension cap."""


def _complex_array(data, copy: bool = False) -> np.ndarray:
    """``data`` as a complex array, a new one if ``copy``; raises ``ValueError``
    on data that numpy cannot read as numbers, such as a dict."""
    try:
        return (np.array if copy else np.asarray)(data, dtype=complex)
    except TypeError as exc:
        raise ValueError(f"expected an array of numbers, got {type(data).__name__}") from exc


def _dag(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes, so a stack maps matrix by matrix."""
    return M.conj().swapaxes(-1, -2)


def _herm(M: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2, with no check of how far M is from Hermitian.  The
    real and imaginary parts are halved as reals: a complex product by 0.5
    would add ``0 * Im`` to each real part and turn a -0.0 into +0.0."""
    out = M + _dag(M)
    out.view(float)[...] *= 0.5
    return out


def _unit_trace_hermitian(M: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2, after the :class:`DensityMatrix` checks that need no
    spectrum: Hermitian within 1e-10 (max entry deviation), finite and unit trace."""
    # A NaN or inf entry makes the deviation NaN (which passes) or inf (which
    # fails), and huge finite entries can overflow; the one finite test below
    # catches what the deviation lets through.
    with np.errstate(over="ignore", invalid="ignore"):
        dev = float(np.max(np.abs(M - _dag(M))))
        if dev > _HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
        arr = _herm(M)
        if not np.isfinite(arr.view(float)).all():
            raise ValueError("matrix entries are not finite, or overflow to non-finite values")
        tr = np.trace(arr).real
    if not abs(tr - 1.0) <= _TRACE_ATOL:
        raise ValueError(f"trace must be 1 within {_TRACE_ATOL:.0e}, got {float(tr)!r}")
    return arr


def _needs_clamp(w: np.ndarray) -> bool:
    """Whether the :class:`DensityMatrix` check clamps a matrix with ascending
    spectrum w; raises ``ValueError`` if an eigenvalue is below the floor."""
    if not w[0] >= _EIG_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    # eigenvalues within rounding of zero (D eps max|lambda|) leave the bits as given
    return bool(w[0] < -(w.shape[-1] * np.finfo(float).eps * np.abs(w).max()))


def _checked(
    data: np.ndarray, spectrum: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The :class:`DensityMatrix` checks and clamp of one square matrix: returns
    the checked matrix and ``spectrum`` of it, or raises ``ValueError``.

    ``spectrum(arr)`` returns the ascending eigenvalues (k, D) of a stack whose
    first matrix is ``arr``; only its first row is read here.  A matrix that
    needs the clamp is rebuilt from its ``eigh`` with negative eigenvalues
    set to zero, renormalised, and measured by ``spectrum`` again.
    """
    arr = _unit_trace_hermitian(data)
    w = spectrum(arr)
    if _needs_clamp(w[0]):
        lam, V = np.linalg.eigh(arr)
        arr = _herm((V * np.clip(lam, 0.0, None)) @ _dag(V))
        arr /= np.trace(arr).real
        w = spectrum(arr)
    return arr, w


def _ints(values) -> tuple[int, ...]:
    """The values as Python ints; raises ``ValueError`` on a value that is not
    an integer, such as a float, a string or a bool.  numpy integers are
    accepted."""
    try:
        values = tuple(values)
        if any(isinstance(v, bool) for v in values):
            raise TypeError
        return tuple(operator.index(v) for v in values)
    except TypeError as exc:
        raise ValueError(f"expected integers, got {reprlib.repr(values)}") from exc


def _sectors(data: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """The symmetry sector of each basis state of a Hermitian matrix on
    subsystems ``dims``, numbered from 0: two states share a number exactly
    when they share a sector.

    Let ``ind(a)``, of length ``sum(dims)``, stack the level indicators of
    basis state a.  The matrix commutes with each local diagonal unitary
    ``(x)_s diag(exp(i theta_s))`` whose charge ``theta . ind(a)`` is equal
    at both ends of every nonzero entry (a, b).  A sector is a set of states
    with equal charges under all of those, so a and b share one exactly when
    ``ind(a) - ind(b)`` lies in the rational span of the rows
    ``ind(a') - ind(b')`` over the nonzero entries.  The span comes from
    exact, fraction-free integer elimination over the distinct rows, which
    stops once the rank reaches ``sum(d_s - 1)``: one sector, which a dense
    matrix reaches within its first row.  Otherwise a state's sector is the
    normal form of ``ind(a)`` modulo the span, scaled to integers.  Zero
    means exactly zero: there is no tolerance.
    """
    D = data.shape[0]
    digits = np.unravel_index(np.arange(D), dims)
    ind = np.concatenate([np.eye(d, dtype=int)[k] for d, k in zip(dims, digits)], axis=1).tolist()

    def clear(r, v, p):  # r with its column p cleared by v, whose pivot is p
        if not r[p]:
            return r
        c, e = v[p], r[p]
        r = [c * x - e * y for x, y in zip(r, v)]
        g = math.gcd(*r)
        return [x // g for x in r] if g > 1 else r

    basis, seen = [], set()  # (pivot, row): each row is 0 at the other pivots
    for a in range(D):
        for b in (np.flatnonzero(data[a, a + 1 :]) + a + 1).tolist():
            row = tuple(map(operator.sub, ind[a], ind[b]))
            if row in seen:
                continue
            seen.add(row)
            for p, v in basis:
                row = clear(row, v, p)
            if any(row):
                p = next(k for k, x in enumerate(row) if x)
                row = [x if row[p] > 0 else -x for x in row]
                basis = [(q, clear(v, row, p)) for q, v in basis] + [(p, row)]
                if len(basis) == sum(dims) - len(dims):
                    return np.zeros(D, dtype=int)
    scale = math.lcm(*(v[p] for p, v in basis))

    def charge(x):
        out = [scale * c for c in x]
        for p, v in basis:
            if x[p]:
                out = [o - scale // v[p] * y for o, y in zip(out, v)]
        return tuple(out)

    numbers = {}
    return np.array([numbers.setdefault(charge(x), len(numbers)) for x in ind])


def _check_dims(dims) -> tuple[int, ...]:
    out = _ints(dims)
    if not out:
        raise ValueError("dims must be non-empty")
    if any(d < 2 for d in out):
        raise ValueError(f"every subsystem dimension must be >= 2, got {out}")
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix on a tensor product of finite-dimensional subsystems.

    Parameters
    ----------
    dims : sequence of int
        Subsystem dimensions, each at least 2, in big-endian order.
    data : array_like
        Complex square matrix of size ``prod(dims)``.  It must be Hermitian
        to within 1e-10 (max entry deviation), have unit trace to within
        1e-10, and be positive semidefinite up to an eigenvalue floor of
        -1e-9.  A matrix that is PSD up to rounding, with no eigenvalue
        below ``-D eps max|lambda|``, is kept bit for bit (so exact zeros
        stay zero); otherwise eigenvalues in ``[-1e-9, 0)`` are clamped to
        zero and the matrix is renormalised.  Spectra below the floor are
        rejected.

    The stored array is a read-only copy, so instances are immutable.
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        arr = _complex_array(self.data)
        D = int(np.prod(dims))
        if arr.shape != (D, D):
            raise ValueError(
                f"matrix shape {arr.shape} does not match dims {dims} (D={D})"
            )
        arr, _ = _checked(arr, lambda a: np.linalg.eigvalsh(a)[None])
        arr.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.data.shape[0]

    def purity(self) -> float:
        """Tr rho^2, as the sum of |rho_ij|^2 (equal for Hermitian rho): O(D^2)."""
        return float(np.vdot(self.data, self.data).real)

    def is_pure(self, atol: float = 1e-9) -> bool:
        """Whether Tr rho^2 >= 1 - atol; ``atol`` is checked like any tolerance."""
        _check_tol(atol)
        return self.purity() >= 1.0 - atol


def _density_with_spectrum(
    dims: tuple[int, ...], data: np.ndarray, spectrum: Callable[[np.ndarray], np.ndarray]
) -> tuple[DensityMatrix, np.ndarray]:
    """``DensityMatrix(dims, data)``, checked against a spectrum the caller needs
    anyway (see :func:`_checked`), and that spectrum of the stored matrix.

    ``dims`` must already be checked and match ``data``.
    """
    arr, w = _checked(np.asarray(data, dtype=complex), spectrum)
    arr.flags.writeable = False
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "dims", dims)
    object.__setattr__(rho, "data", arr)
    return rho, w


@dataclass(frozen=True)
class PureState:
    """Unit vector on a tensor product of finite-dimensional subsystems.

    The amplitude vector must be finite, of length ``prod(dims)`` and
    normalised to within 1e-12, checked in that order.  The check reads the
    squared norm from one ``np.vdot``; the entry-by-entry finite test runs
    only when that norm is not finite, as it is when an entry is, or when
    huge finite entries overflow.  The stored amplitudes are a read-only
    complex copy.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        vec = _complex_array(self.amplitudes, copy=True).reshape(-1)
        D = math.prod(dims)
        norm2 = float(np.vdot(vec, vec).real)  # inf or NaN iff an entry is, or huge ones overflow
        if not math.isfinite(norm2) and not np.isfinite(vec).all():
            raise ValueError("amplitudes contain non-finite entries")
        if vec.shape != (D,):
            raise ValueError(
                f"amplitude length {vec.shape[0]} does not match dims {dims} (D={D})"
            )
        norm = math.sqrt(norm2) if norm2 < math.inf else math.inf  # vdot overflow: inf or NaN
        if abs(norm - 1.0) > _PURE_NORM_ATOL:
            raise ValueError(f"state vector is not normalised: |norm - 1| = {abs(norm - 1.0):.3e}")
        vec.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def data(self) -> np.ndarray:
        """The projector ``|psi><psi|``, a new read-only D x D array that is
        Hermitian bit for bit.  Raises :class:`SizeLimitError`, before
        allocating, when D exceeds :data:`DIMENSION_CAP`."""
        if self.dim > DIMENSION_CAP:
            raise SizeLimitError(f"projector dimension {self.dim} exceeds the cap {DIMENSION_CAP}")
        arr = _herm(np.outer(self.amplitudes, self.amplitudes.conj()))
        arr.flags.writeable = False
        return arr

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.dims, self.data)


def _partition(blocks, n: int) -> tuple[tuple[int, ...], ...]:
    """The blocks, each sorted; raises ``ValueError`` unless every block is
    non-empty and together they cover ``0..n-1`` once each."""
    out = tuple(tuple(sorted(_ints(block))) for block in blocks)
    if not all(out) or sorted(sum(out, ())) != list(range(n)):
        raise ValueError(
            f"blocks must be non-empty and cover 0..{n - 1} once each, "
            f"got {' | '.join(map(reprlib.repr, out))}"
        )
    return out


@dataclass(frozen=True)
class Bipartition:
    """Two-block partition of subsystem indices ``0..n-1``.

    Both blocks must be non-empty and together cover a contiguous index
    range starting at 0.  Blocks are stored sorted.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left, right = _ints(self.left), _ints(self.right)
        left, right = _partition((left, right), len(left) + len(right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def of(cls, left: Iterable[int], n_subsystems: int) -> "Bipartition":
        """Build a bipartition from the left block and the subsystem count."""
        left = tuple(sorted(_ints(left)))
        (n,) = _ints((n_subsystems,))
        right = tuple(i for i in range(n) if i not in left)
        return cls(left, right)

    @property
    def n_subsystems(self) -> int:
        return len(self.left) + len(self.right)


def _check_kind(name: str, value, *kinds: type) -> None:
    """Reject an argument ``name`` that is an instance of none of ``kinds``,
    with ``ValueError`` rather than a later ``AttributeError``."""
    if not isinstance(value, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{name} must be a {expected}, got {type(value).__name__}")


def _check_cut(cut: Bipartition, n: int) -> None:
    """Reject a cut that is not a :class:`Bipartition` or does not cover
    exactly the state's ``n`` subsystems."""
    _check_kind("cut", cut, Bipartition)
    if cut.n_subsystems != n:
        raise ValueError(f"cut covers {cut.n_subsystems} subsystems but the state has {n}")


# Default tolerance of the PPT test and of the classifier's criteria.
_DEFAULT_TOL = 1e-9


def _check_tol(tol: float, positive: bool = False) -> None:
    """Reject a tolerance that is not a real number, or is a bool, negative
    (or zero, if ``positive``), infinite or NaN."""
    if (
        not isinstance(tol, numbers.Real)
        or isinstance(tol, bool)
        or not (0.0 < tol if positive else 0.0 <= tol)
        or not tol < math.inf
    ):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"tol must be finite and {sign}, got {tol!r}")


@dataclass(frozen=True)
class TripartiteState:
    """Density matrix with its subsystems assigned to parties A, B and C."""

    state: DensityMatrix
    a_indices: tuple[int, ...]
    b_indices: tuple[int, ...]
    c_indices: tuple[int, ...]

    def __post_init__(self):
        _check_kind("state", self.state, DensityMatrix)
        a, b, c = _partition(
            (self.a_indices, self.b_indices, self.c_indices), len(self.state.dims)
        )
        object.__setattr__(self, "a_indices", a)
        object.__setattr__(self, "b_indices", b)
        object.__setattr__(self, "c_indices", c)

    @classmethod
    def from_pure(
        cls,
        psi: PureState,
        a_indices: Sequence[int],
        b_indices: Sequence[int],
        c_indices: Sequence[int],
    ) -> "TripartiteState":
        _check_kind("psi", psi, PureState)
        return cls(psi.to_density(), a_indices, b_indices, c_indices)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.state.dims

    def cut_a_bc(self) -> Bipartition:
        return Bipartition(self.a_indices, self.b_indices + self.c_indices)

    def cut_ab_c(self) -> Bipartition:
        return Bipartition(self.a_indices + self.b_indices, self.c_indices)


def tensor(a, b):
    """Tensor product of two states of the same kind.

    Accepts two :class:`DensityMatrix` or two :class:`PureState` instances
    and returns the same kind.  Raises :class:`SizeLimitError` when the
    product dimension would exceed :data:`DIMENSION_CAP`.
    """
    if type(a) is not type(b):
        raise ValueError("tensor requires two operands of the same type")
    if not isinstance(a, (PureState, DensityMatrix)):
        raise ValueError(f"unsupported operand type {type(a).__name__}")
    D = a.dim * b.dim
    if D > DIMENSION_CAP:
        raise SizeLimitError(
            f"tensor product dimension {D} exceeds the cap {DIMENSION_CAP}"
        )
    dims = a.dims + b.dims
    if isinstance(a, PureState):
        return PureState(dims, np.kron(a.amplitudes, b.amplitudes))
    return DensityMatrix(dims, np.kron(a.data, b.data))


def _ptrace_array(matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a D x D matrix over the subsystems not in ``keep``,
    which stay in their original order: one transpose to (kept, traced)
    order and one ``np.trace``."""
    n = len(dims)
    order = sorted(keep) + [i for i in range(n) if i not in keep]
    Dk = math.prod(dims[i] for i in keep)
    T = matrix.reshape(tuple(dims) * 2).transpose(order + [n + i for i in order])
    return T.reshape(Dk, len(matrix) // Dk, Dk, -1).trace(0, 1, 3)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` must be a non-empty collection of distinct subsystem indices;
    the result retains those subsystems in their original order.
    """
    _check_kind("rho", rho, DensityMatrix, PureState)
    keep = sorted(set(_ints(keep)))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    n = len(rho.dims)
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    if len(keep) == n:
        return rho
    reduced = _ptrace_array(rho.data, rho.dims, keep)
    return DensityMatrix(tuple(rho.dims[i] for i in keep), reduced)


def _pt_array(
    matrix: np.ndarray, dims: Sequence[int], transpose: Sequence[int]
) -> np.ndarray:
    """Partial transpose of the last two axes; leading axes index a stack."""
    n = len(dims)
    lead = matrix.shape[:-2]
    T = matrix.reshape(lead + tuple(dims) + tuple(dims))
    k = len(lead)
    perm = list(range(k + 2 * n))
    for i in transpose:
        perm[k + i], perm[k + n + i] = perm[k + n + i], perm[k + i]
    return T.transpose(perm).reshape(matrix.shape)


def partial_transpose(rho: DensityMatrix, cut: Bipartition) -> np.ndarray:
    """Transpose the left block of ``cut``; returns a plain Hermitian matrix.

    The result is generally not positive semidefinite, which is the point:
    its spectrum carries the entanglement information across the cut.
    Applying the same partial transpose twice gives back ``rho.data``.
    """
    _check_kind("rho", rho, DensityMatrix, PureState)
    _check_cut(cut, len(rho.dims))
    return _pt_array(rho.data, rho.dims, cut.left)
