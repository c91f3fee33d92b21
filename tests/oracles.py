"""Independent reference implementations used to cross-check the library.

Deliberately written against plain numpy with no pptmerge imports, so a bug
in the package cannot hide inside its own oracle.
"""

import json
import math

import numpy as np


def best_product_overlap(amplitudes, rng, restarts=24, iters=400, tol=1e-13):
    """Brute-force max of |<a x b|psi>|^2 over product kets of two qubits.

    For two qubits the PPT states are exactly the separable states, whose
    extreme points are pure products, and a linear objective is maximized
    at an extreme point.  So this search bounds the PPT overlap problem
    from below and, at the optimum, meets it.  Alternating the closed-form
    single-site update is a power iteration on psi reshaped to a 2x2
    matrix; random restarts guard the (measure-zero) bad initializations.
    """
    mat = np.asarray(amplitudes, dtype=complex).reshape(2, 2)
    best = 0.0
    for _ in range(restarts):
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b /= np.linalg.norm(b)
        prev = 0.0
        for _ in range(iters):
            a = mat @ b.conj()
            norm_a = np.linalg.norm(a)
            if norm_a == 0.0:
                break
            a /= norm_a
            w = mat.T @ a.conj()
            norm_w = np.linalg.norm(w)
            if norm_w == 0.0:
                break
            b = w / norm_w
            val = norm_w**2
            if abs(val - prev) < tol:
                prev = val
                break
            prev = val
        best = max(best, prev)
    return best


def schmidt_overlap(amplitudes, dims=(2, 2), left=(0,)):
    """Largest squared Schmidt coefficient of a pure state across the cut
    ``left`` | rest (by default a two-qubit state across its two qubits)."""
    right = [i for i in range(len(dims)) if i not in left]
    tensor = np.asarray(amplitudes, dtype=complex).reshape(dims)
    mat = tensor.transpose(list(left) + right).reshape(int(np.prod([dims[i] for i in left])), -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[0] ** 2)


def partial_trace_einsum(matrix, dims, keep):
    """Partial trace via an einsum contraction string."""
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = list(letters[:n])
    cols = [letters[n + i] if i in keep else rows[i] for i in range(n)]
    out = "".join(rows[i] for i in keep) + "".join(letters[n + i] for i in keep)
    tensor = np.asarray(matrix).reshape(*dims, *dims)
    reduced = np.einsum("".join(rows) + "".join(cols) + "->" + out, tensor)
    kept = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(kept, kept)


def partial_transpose_einsum(matrix, dims, transpose):
    """Partial transpose of the subsystems in ``transpose`` via einsum."""
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows, cols = list(letters[:n]), list(letters[n : 2 * n])
    out_rows = [cols[i] if i in transpose else rows[i] for i in range(n)]
    out_cols = [rows[i] if i in transpose else cols[i] for i in range(n)]
    spec = "".join(rows + cols) + "->" + "".join(out_rows + out_cols)
    tensor = np.asarray(matrix).reshape(*dims, *dims)
    total = int(np.prod(dims))
    return np.einsum(spec, tensor).reshape(total, total)


def entropy_bits(eigenvalues):
    """Shannon entropy in bits of a cleaned spectrum."""
    p = np.asarray(eigenvalues, dtype=float)
    p = p[p > 1e-12]
    return float(-(p * np.log2(p)).sum())


def report_numbers(state):
    """Conditional entropy S(BC) - S(C), hashing witness across A:BC,
    log-negativity across AB:C and the fidelity lower bound of a tripartite
    state, from einsum marginals and partial transposes."""
    rho, dims = state.state.data, state.dims
    a, b, c = state.a_indices, state.b_indices, state.c_indices

    def s(keep):
        return entropy_bits(np.linalg.eigvalsh(partial_trace_einsum(rho, dims, sorted(keep))))

    pt = np.linalg.eigvalsh(partial_transpose_einsum(rho, dims, a + b))
    i_ac = s(a) + s(c) - s(a + c)
    i_abc = s(a) + s(b + c) - s(a + b + c)
    return (
        s(b + c) - s(c),
        max(s(a), s(b + c)) - s(a + b + c),
        max(0.0, float(np.log2(np.abs(pt).sum()))),
        2.0 ** ((i_ac - i_abc) / 2),
    )


_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def sep_family_obstruction(matrix, dims, a, b, c, tol=1e-9, weight_floor=1e-6):
    """(holds, witness) of the flagged separable-family test, one block at a time.

    The state must be block diagonal in A with 15 or 16 flags, B and C
    single qubits, every flag weight at least ``weight_floor`` and every
    normalised block PPT across B:C (einsum partial transpose).  The
    witness is the rank of the blocks' two-qubit Bloch vectors, taken in
    the Pauli-product basis, one coordinate Tr(sigma P x Q) at a time.
    """
    if len(b) != 1 or len(c) != 1 or dims[b[0]] != 2 or dims[c[0]] != 2:
        return False, None
    da = int(np.prod([dims[i] for i in a]))
    if not 15 <= da <= 16:
        return False, None
    n = len(dims)
    order = list(a) + list(b) + list(c)
    tensor = np.asarray(matrix).reshape(*dims, *dims)
    rho = tensor.transpose(order + [n + i for i in order]).reshape(da, 4, da, 4)
    for i in range(da):
        for j in range(da):
            if i != j and np.abs(rho[i, :, j, :]).max() > tol:
                return False, None
    rows = []
    for i in range(da):
        weight = np.trace(rho[i, :, i, :]).real
        if weight < weight_floor:
            return False, None
        sigma = rho[i, :, i, :] / weight
        if np.linalg.eigvalsh(partial_transpose_einsum(sigma, (2, 2), (0,)))[0] < -tol:
            return False, None
        rows.append([
            np.trace(sigma @ np.kron(p, q)).real
            for k, p in enumerate(_PAULIS)
            for l, q in enumerate(_PAULIS)
            if k or l
        ])
    rank = int(np.linalg.matrix_rank(np.array(rows)))
    return rank == 15, float(rank)


def least_eigenvalue_near_rank_one(matrix):
    """Least eigenvalue of a Hermitian matrix that is rank one up to rounding,
    resolved far below float64's own eigensolver error.

    A Householder reflector H, built in ``np.clongdouble`` from the float64
    top eigenvector v, maps v onto the e_0 axis.  ``H^dag A H`` is formed in
    long double (error about D 2^-64 |A|), so its trailing (D-1) x (D-1)
    block C holds every small eigenvalue; their coupling to the top row is
    of order eps |A|, which moves them by about its square over |A|.  C's
    entries are of order eps, so float64 ``eigvalsh`` of C errs by about
    eps^2.
    """
    A = np.asarray(matrix, dtype=complex)
    v = np.linalg.eigh(A)[1][:, -1].astype(np.clongdouble)
    v /= np.sqrt(np.sum(np.abs(v) ** 2))
    phase = v[0] / abs(v[0]) if v[0] != 0 else np.clongdouble(1)
    w = v.copy()
    w[0] += phase
    H = np.eye(len(v), dtype=np.clongdouble) - 2 * np.outer(w, w.conj()) / np.sum(np.abs(w) ** 2)
    B = H.conj().T @ A.astype(np.clongdouble) @ H
    return float(np.linalg.eigvalsh(B[1:, 1:].astype(complex))[0])


def same_torus_sector(matrix, dims, tol=1e-9):
    """(D, D) boolean matrix: whether basis states a and b share a sector of
    ``matrix``, that is, have equal charge ``theta . ind(a)`` under every
    local diagonal unitary ``(x)_s diag(exp(i theta_s))`` that fixes it.

    ``ind(a)`` stacks the level indicators of a's digits.  The charges theta
    are the null space of the rows ``ind(a) - ind(b)`` over the nonzero
    entries (a, b), read off a float SVD (a leading zero row keeps the
    matrix non-empty); a and b share a sector when their charges agree
    within ``tol``.
    """
    D = int(np.prod(dims))
    offsets = np.cumsum((0,) + tuple(dims[:-1]))
    ind = np.zeros((D, int(sum(dims))))
    for a, digits in enumerate(np.ndindex(*dims)):
        ind[a, offsets + np.array(digits)] = 1.0
    a, b = np.nonzero(np.asarray(matrix))
    rows = np.vstack([np.zeros(ind.shape[1]), ind[a] - ind[b]])
    _, s, vh = np.linalg.svd(rows)
    charges = ind @ vh[int(np.sum(s > tol * max(1.0, s[0]))) :].T
    return np.all(np.abs(charges[:, None, :] - charges[None, :, :]) <= tol, axis=2)


def state_file_text(dims, labels, key, values):
    """A state file's text as json's own indent-2 encoder writes it: the
    payload with one ``[re, im]`` list per entry of ``values`` (row-major),
    ``labels`` a dict of index lists or None, and a trailing newline."""
    payload = {"format_version": 1, "dims": list(dims)}
    if labels is not None:
        payload["labels"] = {k: list(v) for k, v in labels.items()}
    payload[key] = [[float(v.real), float(v.imag)] for v in np.asarray(values).reshape(-1)]
    return json.dumps(payload, indent=2) + "\n"


def state_file_pairs(raw, expected, field):
    """A state file's pair list as a complex array, checked one pair at a time
    in index order; raises ``ValueError`` with the reader's message at the
    first pair that is not a ``[re, im]`` pair of numbers or is not finite."""

    def require(condition, message):
        if not condition:
            raise ValueError(f"malformed state file: {message}")

    def finite(v):
        try:
            return math.isfinite(v)
        except OverflowError:  # an integer too large for a float
            return False

    require(isinstance(raw, list), f"{field} must be a list")
    require(len(raw) == expected, f"{field} must have {expected} entries, found {len(raw)}")
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(raw):
        require(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair),
            f"{field}[{i}] must be a [re, im] pair of numbers",
        )
        require(all(finite(v) for v in pair), f"{field}[{i}] must be finite")
        out[i] = complex(pair[0], pair[1])
    return out
