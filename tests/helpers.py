"""Shared generators for randomized tests. Everything takes an explicit rng."""

import gc
import sys

import numpy as np

from pptmerge import Bipartition, DensityMatrix, PureState, TripartiteState


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pure(rng, dims):
    total = int(np.prod(dims))
    return PureState(tuple(dims), random_ket(rng, total))


def random_density(rng, dims, rank=None):
    """Wishart-style random state, optionally rank-deficient."""
    total = int(np.prod(dims))
    k = rank if rank is not None else total
    a = rng.standard_normal((total, k)) + 1j * rng.standard_normal((total, k))
    m = a @ a.conj().T
    return DensityMatrix(tuple(dims), m / np.trace(m).real)


def random_separable(rng, dim_left, dim_right, terms=6):
    """Convex mixture of product pure states across a two-party split."""
    total = dim_left * dim_right
    m = np.zeros((total, total), dtype=complex)
    w = rng.dirichlet(np.ones(terms))
    for i in range(terms):
        a = random_ket(rng, dim_left)
        b = random_ket(rng, dim_right)
        v = np.kron(a, b)
        m += w[i] * np.outer(v, v.conj())
    return DensityMatrix((dim_left, dim_right), m)


def haar_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def isotropic(d, f):
    """Isotropic state of fidelity f; its trace distance to PPT is f - 1/d."""
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(v, v)
    return DensityMatrix((d, d), f * proj + (1.0 - f) * (np.eye(d * d) - proj) / (d * d - 1))


def werner(d, p):
    """Werner state of antisymmetric weight p; its trace distance to PPT is p - 1/2."""
    D = d * d
    swap = np.eye(D).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(D, D)
    anti, sym = (np.eye(D) - swap) / 2.0, (np.eye(D) + swap) / 2.0
    return DensityMatrix((d, d), p * anti / np.trace(anti) + (1.0 - p) * sym / np.trace(sym))


def random_tripartite(rng, dims=(2, 2, 2), rank=None):
    rho = random_density(rng, dims, rank=rank)
    return TripartiteState(rho, (0,), (1,), (2,))


def laid_out(mat, dims_abc, n_a, position):
    """A tripartite state from a matrix in A, B, C order, with subsystem k of
    that order moved to ``position[k]``."""
    n = len(dims_abc)
    source = [0] * n
    for k, j in enumerate(position):
        source[j] = k
    tensor = mat.reshape(dims_abc * 2).transpose(source + [n + k for k in source])
    D = mat.shape[0]
    rho = DensityMatrix(tuple(dims_abc[k] for k in source), tensor.reshape(D, D))
    return TripartiteState(rho, position[:n_a], (position[n_a],), (position[n_a + 1],))


def split_0_rest(n):
    return Bipartition.of((0,), n)


def python_calls(fn, *args):
    """Number of calls that ``fn(*args)`` makes from Python code, to Python
    and to C functions alike (generator resumptions included), counted with
    ``sys.setprofile``.  Calls that C code makes on its own are not seen, and
    the garbage collector is paused, so that its callbacks are not seen
    either."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return count
