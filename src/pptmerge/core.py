"""Validated state containers and the linear algebra they rely on.

Composite systems use the big-endian Kronecker convention throughout:
subsystem 0 varies slowest, so ``np.kron(a, b)`` places ``a`` on the left
and the flat index of ``(i_0, ..., i_{n-1})`` is the row-major one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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

# Largest composite dimension `tensor` will produce.
DIMENSION_CAP = 4096

_HERMITICITY_ATOL = 1e-10
_TRACE_ATOL = 1e-10
_EIG_FLOOR = -1e-9
_PURE_NORM_ATOL = 1e-12
_OP_HERMITICITY_ATOL = 1e-8


class SizeLimitError(ValueError):
    """An operation would exceed the configured dimension cap."""


def _as_complex_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    return arr


def _dag(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes, so a stack maps matrix by matrix."""
    return M.conj().swapaxes(-1, -2)


def _herm(M: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2, with no check of how far M is from Hermitian."""
    return 0.5 * (M + _dag(M))


def _hermitian_part(M: np.ndarray, atol: float) -> np.ndarray:
    """(M + M^dag) / 2, after checking that no entry of M - M^dag exceeds atol."""
    dev = float(np.max(np.abs(M - _dag(M))))
    if dev > atol:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
    return _herm(M)


def _density_stack(stack: np.ndarray) -> np.ndarray:
    """The :class:`DensityMatrix` checks and clamp over a stack (k, D, D), with
    one batched ``eigh``; returns the checked stack or raises ``ValueError``
    with the worst matrix's value."""
    # Huge finite entries can overflow below; the checks then fail on inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        arr = _hermitian_part(stack, _HERMITICITY_ATOL)
        if not np.isfinite(arr.view(float)).all():
            raise ValueError("matrix entries overflow to non-finite values")
        tr = np.trace(arr, axis1=-2, axis2=-1).real
    worst = int(np.argmax(np.abs(tr - 1.0)))
    if not abs(tr[worst] - 1.0) <= _TRACE_ATOL:
        raise ValueError(f"trace must be 1 within {_TRACE_ATOL:.0e}, got {float(tr[worst])!r}")
    w, V = np.linalg.eigh(arr)
    low = w[:, 0]
    if not low.min() >= _EIG_FLOOR:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {low.min():.3e}"
        )
    # eigenvalues within rounding of zero (D eps max|lambda|) leave the bits as given
    scale = arr.shape[-1] * np.finfo(float).eps * np.abs(w).max(axis=1)
    clamp = low < -scale
    if clamp.any():
        V = V[clamp]
        fixed = _herm((V * np.clip(w[clamp], 0.0, None)[:, None, :]) @ _dag(V))
        fixed /= np.trace(fixed, axis1=-2, axis2=-1).real[:, None, None]
        arr[clamp] = fixed
    return arr


def _check_dims(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
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
        arr = _as_complex_matrix(self.data)
        D = int(np.prod(dims))
        if arr.shape != (D, D):
            raise ValueError(
                f"matrix shape {arr.shape} does not match dims {dims} (D={D})"
            )
        arr = _density_stack(arr[None])[0]
        arr.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.data.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.data @ self.data)))

    def is_pure(self, atol: float = 1e-9) -> bool:
        return self.purity() >= 1.0 - atol


@dataclass(frozen=True)
class PureState:
    """Unit vector on a tensor product of finite-dimensional subsystems.

    The amplitude vector must be normalised to within 1e-12.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(vec).all():
            raise ValueError("amplitudes contain non-finite entries")
        D = int(np.prod(dims))
        if vec.shape != (D,):
            raise ValueError(
                f"amplitude length {vec.shape[0]} does not match dims {dims} (D={D})"
            )
        with np.errstate(over="ignore"):  # huge finite amplitudes give norm inf
            norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _PURE_NORM_ATOL:
            raise ValueError(f"state vector is not normalised: |norm - 1| = {abs(norm - 1.0):.3e}")
        vec = vec.copy()
        vec.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class Bipartition:
    """Two-block partition of subsystem indices ``0..n-1``.

    Both blocks must be non-empty and together cover a contiguous index
    range starting at 0.  Blocks are stored sorted.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = tuple(sorted(int(i) for i in self.left))
        right = tuple(sorted(int(i) for i in self.right))
        if not left or not right:
            raise ValueError("both sides of a bipartition must be non-empty")
        merged = sorted(left + right)
        if merged != list(range(len(merged))):
            raise ValueError(
                f"bipartition blocks must disjointly cover 0..n-1, got {left} | {right}"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def of(cls, left: Iterable[int], n_subsystems: int) -> "Bipartition":
        """Build a bipartition from the left block and the subsystem count."""
        left = tuple(sorted(int(i) for i in left))
        right = tuple(i for i in range(n_subsystems) if i not in left)
        return cls(left, right)

    @property
    def n_subsystems(self) -> int:
        return len(self.left) + len(self.right)


def _check_cut(cut: Bipartition, n: int) -> None:
    """Reject a cut that does not cover exactly the state's ``n`` subsystems."""
    if cut.n_subsystems != n:
        raise ValueError(f"cut covers {cut.n_subsystems} subsystems but the state has {n}")


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is negative, infinite or NaN."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


@dataclass(frozen=True)
class TripartiteState:
    """Density matrix with its subsystems assigned to parties A, B and C."""

    state: DensityMatrix
    a_indices: tuple[int, ...]
    b_indices: tuple[int, ...]
    c_indices: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(int(i) for i in self.a_indices))
        b = tuple(sorted(int(i) for i in self.b_indices))
        c = tuple(sorted(int(i) for i in self.c_indices))
        if not (a and b and c):
            raise ValueError("each of A, B, C must hold at least one subsystem")
        merged = sorted(a + b + c)
        n = len(self.state.dims)
        if merged != list(range(n)):
            raise ValueError(
                f"A/B/C blocks must disjointly cover all {n} subsystems, "
                f"got {a} | {b} | {c}"
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
        return cls(psi.to_density(), tuple(a_indices), tuple(b_indices), tuple(c_indices))

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
    D = a.dim * b.dim
    if D > DIMENSION_CAP:
        raise SizeLimitError(
            f"tensor product dimension {D} exceeds the cap {DIMENSION_CAP}"
        )
    dims = a.dims + b.dims
    if isinstance(a, PureState):
        return PureState(dims, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix):
        return DensityMatrix(dims, np.kron(a.data, b.data))
    raise ValueError(f"unsupported operand type {type(a).__name__}")


def _ptrace_array(
    matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Partial trace of the last two axes; leading axes index a stack."""
    n = len(dims)
    lead = matrix.shape[:-2]
    k = len(lead)
    T = matrix.reshape(lead + tuple(dims) + tuple(dims))
    remaining = n
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        T = np.trace(T, axis1=k + i, axis2=k + i + remaining)
        remaining -= 1
    Dk = math.prod(dims[i] for i in keep)
    return T.reshape(lead + (Dk, Dk))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` must be a non-empty collection of distinct subsystem indices;
    the result retains those subsystems in their original order.
    """
    keep = sorted(set(int(i) for i in keep))
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
    _check_cut(cut, len(rho.dims))
    return _pt_array(rho.data, rho.dims, cut.left)


def _eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a matrix assumed Hermitian; no contract checks."""
    return np.linalg.eigvalsh(_herm(matrix))
