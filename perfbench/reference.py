"""Independent numpy reference for the benchmark's correctness checks.

Imports nothing from pptmerge, so a defect in the package cannot hide in
the value it is compared against.  Every function takes plain arrays plus
subsystem dimensions; parties A, B, C are one subsystem each.
"""

import numpy as np

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def ptrace(matrix, dims, keep):
    """Partial trace keeping the subsystems in ``keep``, via one einsum."""
    n = len(dims)
    rows = list(_LETTERS[:n])
    cols = [_LETTERS[n + i] if i in keep else rows[i] for i in range(n)]
    out = "".join(rows[i] for i in keep) + "".join(_LETTERS[n + i] for i in keep)
    tensor = np.asarray(matrix).reshape(*dims, *dims)
    reduced = np.einsum("".join(rows) + "".join(cols) + "->" + out, tensor)
    kept = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(kept, kept)


def ptranspose(matrix, dims, transpose):
    """Partial transpose of the subsystems in ``transpose``, via einsum."""
    n = len(dims)
    rows = list(_LETTERS[:n])
    cols = list(_LETTERS[n : 2 * n])
    out_rows = [cols[i] if i in transpose else rows[i] for i in range(n)]
    out_cols = [rows[i] if i in transpose else cols[i] for i in range(n)]
    spec = "".join(rows + cols) + "->" + "".join(out_rows + out_cols)
    D = int(np.prod(dims))
    return np.einsum(spec, np.asarray(matrix).reshape(*dims, *dims)).reshape(D, D)


def spectrum(matrix):
    m = np.asarray(matrix)
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def entropy(matrix):
    """Von Neumann entropy in bits."""
    p = spectrum(matrix)
    p = p[p > 1e-12]
    return float(-(p * np.log2(p)).sum())


def tripartite_witnesses(matrix, dims):
    """The classifier's reported witnesses for A|B|C, one subsystem each."""
    s = {
        key: entropy(ptrace(matrix, dims, keep))
        for key, keep in {
            "abc": [0, 1, 2], "a": [0], "bc": [1, 2], "c": [2], "ac": [0, 2],
        }.items()
    }
    pt_eigs = spectrum(ptranspose(matrix, dims, [2]))
    i_ac = s["a"] + s["c"] - s["ac"]
    i_abc = s["a"] + s["bc"] - s["abc"]
    return {
        "conditional_entropy": s["bc"] - s["c"],
        "hashing_a_bc": max(s["a"] - s["abc"], s["bc"] - s["abc"]),
        "log_negativity_ab_c": max(0.0, float(np.log2(np.abs(pt_eigs).sum()))),
        "ppt_ab_c_min_eig": float(pt_eigs[0]),
        "fidelity_lower_bound": float(2.0 ** (0.5 * (i_ac - i_abc))),
    }


def verdict_without_obstruction(w, tol):
    """Verdict rule of the paper for states outside the flagged family.

    Returns None when a decisive quantity sits within 1e-6 of its
    threshold, where rounding may legitimately tip either way.
    """
    margins = [w["conditional_entropy"] - tol, w["hashing_a_bc"] - tol,
               w["ppt_ab_c_min_eig"] + tol,
               w["hashing_a_bc"] - w["log_negativity_ab_c"] - tol]
    if min(abs(m) for m in margins) < 1e-6:
        return None
    if w["conditional_entropy"] <= tol:
        return "PERFECT"
    if w["ppt_ab_c_min_eig"] >= -tol and w["hashing_a_bc"] > tol:
        return "VANISHING"
    if w["hashing_a_bc"] - w["log_negativity_ab_c"] > tol:
        return "NO_PERFECT_MERGE"
    return "INCONCLUSIVE"


def top_schmidt_sq(amplitudes, dims, left):
    """Largest squared Schmidt coefficient of a pure state across a cut."""
    right = [i for i in range(len(dims)) if i not in left]
    dl = int(np.prod([dims[i] for i in left]))
    mat = np.asarray(amplitudes).reshape(dims).transpose(list(left) + right)
    s = np.linalg.svd(mat.reshape(dl, -1), compute_uv=False)
    return float(s[0] ** 2)


def certificate_residuals(sigma, dims, left):
    """Trace, PSD and PPT violations of a claimed PPT state."""
    return {
        "trace": abs(float(np.trace(sigma).real) - 1.0),
        "psd": max(0.0, -float(spectrum(sigma)[0])),
        "ppt": max(0.0, -float(spectrum(ptranspose(sigma, dims, left))[0])),
    }


def trace_distance(rho, sigma):
    return 0.5 * float(np.abs(spectrum(np.asarray(rho) - np.asarray(sigma))).sum())


def isotropic(d, fidelity):
    """Isotropic state; its trace distance to PPT is fidelity - 1/d."""
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(v, v)
    rest = (np.eye(d * d) - proj) / (d * d - 1)
    return fidelity * proj + (1.0 - fidelity) * rest


def werner(d, p_anti):
    """Werner state; its trace distance to PPT is p_anti - 1/2."""
    D = d * d
    swap = np.eye(D).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(D, D)
    anti = (np.eye(D) - swap) / 2.0
    sym = (np.eye(D) + swap) / 2.0
    return p_anti * anti / np.trace(anti) + (1.0 - p_anti) * sym / np.trace(sym)
