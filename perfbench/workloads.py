"""The benchmark's four workloads: seeded inputs, one call each, and checks.

``build(name, seed, workdir, cli_in_process)`` returns a list of
:class:`Op`.  Each op holds one input; ``prepare`` hands out a fresh
object with equal content (so no identity cache can hit), ``call`` is
the timed call into pptmerge, and ``check`` compares its result with
:mod:`reference` or with the in-process API.  Calls go through module attributes looked up
at call time, so the tracer's wrappers see them.

The seed changes every input but never the per-kind counts or
dimensions, so two seeds load the layers alike.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import pptmerge
import pptmerge.cli
import reference as ref

CLASSIFY_TOL = 1e-9  # pptmerge.classify's default tolerance
WITNESS_ATOL = 1e-9
OVERLAP_ATOL = 1e-6
SYMMETRIC_ATOL = 1e-3


@dataclass
class Op:
    kind: str
    dim: int
    prepare: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any], bool]
    # False when the call runs in a child process, which may get the
    # other core than the calibration loop does.
    in_process: bool = True


def _fresh(obj):
    return lambda: copy.deepcopy(obj)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_ket(rng, D):
    v = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    return v / np.linalg.norm(v)


def _random_density(rng, D, rank):
    a = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def _tripartite(matrix, dims):
    return pptmerge.TripartiteState(pptmerge.DensityMatrix(dims, matrix), (0,), (1,), (2,))


def _local_unitary(dims, rng):
    u = np.ones((1, 1))
    for d in dims:
        u = np.kron(u, _haar_unitary(rng, d))
    return u


def _rotated(state, rng):
    """The same tripartite state after seeded random local unitaries."""
    u = _local_unitary(state.dims, rng)
    return _tripartite(u @ state.state.data @ u.conj().T, state.dims)


# -- classify-mix -----------------------------------------------------------

def _classify_check(state, expected):
    """Fixture verdict (or the reference verdict) plus witnesses to 1e-9."""
    want = ref.tripartite_witnesses(state.state.data, state.dims)
    if expected is None:
        expected = ref.verdict_without_obstruction(want, CLASSIFY_TOL)

    def check(report):
        if expected is not None and report.verdict != expected:
            return False
        got = dict(report.witnesses, fidelity_lower_bound=report.fidelity_lower_bound)
        return all(abs(got[k] - want[k]) <= WITNESS_ATOL for k in
                   ("conditional_entropy", "hashing_a_bc", "log_negativity_ab_c",
                    "fidelity_lower_bound"))

    return check


def _classify_inputs(seed):
    """(kind, state, documented verdict or None) for 150 states, D = 8..64."""
    rng = _rng(seed, 1)
    zero_phi = pptmerge.TripartiteState.from_pure(
        pptmerge.PureState((2, 2, 2), np.kron([1.0, 0.0], pptmerge.phi_plus().amplitudes)),
        (0,), (1,), (2,))
    fixtures = [
        ("ghz", pptmerge.ghz(), "PERFECT"),
        ("zero-phi+", zero_phi, "PERFECT"),
        ("classical", pptmerge.classical_correlated(), "PERFECT"),
        ("product-phi+", pptmerge.product_example(pptmerge.phi_plus()), "VANISHING"),
    ]
    out = []
    for kind, state, verdict in fixtures:
        out += [(kind, _rotated(state, rng), verdict) for _ in range(10)]
    for _ in range(12):
        # p >= 0.05 keeps the AB:C partial transpose's smallest eigenvalue
        # (p/8) far above what a 1e-3 perturbation can remove.
        base = pptmerge.robust_vanishing_family(float(rng.uniform(0.05, 0.2)))
        noise = pptmerge.DensityMatrix((2, 2, 2), _random_density(rng, 8, 8))
        out.append(("robust-vanishing", pptmerge.perturb(base, noise, 1e-3), "VANISHING"))
    for dims, n_random in (((2, 2, 2), 18), ((2, 3, 4), 7), ((4, 4, 4), 7)):
        D = int(np.prod(dims))
        out += [("maximally-mixed", _tripartite(np.eye(D) / D, dims), "INCONCLUSIVE")] * 2
        for rank, label in ((D, "full-rank"), (2, "low-rank")):
            out += [(label, _tripartite(_random_density(rng, D, rank), dims), None)
                    for _ in range(n_random)]
    for _ in range(28):
        fam = pptmerge.sep_no_merge_family(int(rng.integers(0, 2**31)))
        out.append(("sep-no-merge", fam, "NO_PERFECT_MERGE"))
    return out


def classify_mix(seed, workdir, cli_in_process):
    return [
        Op(kind, state.state.dim, _fresh(state), lambda s: pptmerge.classify(s),
           _lazy(lambda s=state, v=verdict: _classify_check(s, v)))
        for kind, state, verdict in _classify_inputs(seed)
    ]


# -- overlap-pure -----------------------------------------------------------

# (dims, left block of the cut, number of Haar-random targets).  With
# four locally rotated copies of each fixture that is 31 inputs.  Sorted
# by time, the 12 fixtures come first (114-310 sweeps), then the seven
# 2x2 targets, then 12 slower ones.  So the median of all 31 is the
# median of the 2x2 group, and the 90th percentile is exactly the
# fastest of the four D = 16 targets, which dominate the time per pass.
PURE_KINDS = (
    ((2, 3), (0,), 4), ((2, 2, 2), (0,), 1), ((2, 2, 2), (0, 1), 1), ((3, 3), (0,), 2),
)
# The D = 16 and 2x2 targets are fixed Haar draws (the same for every
# seed) under seeded random local unitaries.  The solver's sweep count is
# invariant under local unitaries, so these keep their cost while the
# seed still changes every input.  With fresh draws the 90th percentile
# (2300-3900 sweeps at D = 16) moved by 25% from seed to seed, and the
# median (the middle 2x2 target, 497-809 sweeps over seeds 1-10) by 50%.
FIXED_PURE_KINDS = (((4, 4), (0,), 2), ((2, 2, 2, 2), (0, 2), 2), ((2, 2), (0,), 7))


def _certificate_ok(cert, dims, left, tol):
    res = ref.certificate_residuals(cert.data, dims, left)
    return max(res.values()) <= tol


def _overlap_check(psi, left, use_geodist):
    """Value within 1e-6 of s1^2 (or 1 - s1), certificate residuals <= tol."""
    dims, amp = psi.dims, psi.amplitudes
    s1 = ref.top_schmidt_sq(amp, dims, left)
    tol = pptmerge.PptOptConfig().tol

    def check_overlap(res):
        value = float(np.real(amp.conj() @ res.certificate.data @ amp))
        return (abs(res.value - s1) <= OVERLAP_ATOL and abs(res.value - value) <= 1e-9
                and _certificate_ok(res.certificate, dims, left, tol))

    def check_geodist(res):
        return (abs(res.high - (1.0 - np.sqrt(s1))) <= OVERLAP_ATOL
                and abs(res.high - res.low) <= 1e-12 and check_overlap(res.detail))

    return check_geodist if use_geodist else check_overlap


def _overlap_op(kind, psi, left, use_geodist):
    cut = pptmerge.Bipartition.of(left, len(psi.dims))
    solver = "geometric_distillability_ppt" if use_geodist else "max_overlap_ppt"
    return Op(kind, psi.dim, _fresh(psi), lambda p: getattr(pptmerge, solver)(p, cut),
              _lazy(lambda: _overlap_check(psi, left, use_geodist)))


def overlap_pure(seed, workdir, cli_in_process):
    rng = _rng(seed, 2)
    phi = pptmerge.phi_plus().amplitudes
    fixtures = (
        ("phi+", (2, 2), phi, (0,)),
        ("phi+phi+", (2, 2, 2, 2), np.kron(phi, phi), (0, 2)),
        ("ghz", (2, 2, 2), np.eye(8)[[0, 7]].sum(0) / np.sqrt(2), (0,)),
    )
    targets = [(kind, pptmerge.PureState(dims, _local_unitary(dims, rng) @ amp), left)
               for kind, dims, amp, left in fixtures for _ in range(4)]
    for dims, left, count in PURE_KINDS:
        targets += [(f"haar{dims}:{left}",
                     pptmerge.PureState(dims, _random_ket(rng, int(np.prod(dims)))), left)
                    for _ in range(count)]
    fixed = _rng(0, 5)
    for dims, left, count in FIXED_PURE_KINDS:
        targets += [(f"rotated-haar{dims}:{left}", pptmerge.PureState(
                         dims, _local_unitary(dims, rng) @ _random_ket(fixed, int(np.prod(dims)))),
                     left)
                    for _ in range(count)]
    return [_overlap_op(kind, psi, left, i % 2 == 1)
            for i, (kind, psi, left) in enumerate(targets)]


# -- geodist-mixed ----------------------------------------------------------

# (dims, count) of random rank-2 states.  Sweep counts at D <= 8 move a
# lot with the seed (1100-5000); at 3x3 every draw so far exhausts the
# 5000-sweep budget, so the four 3x3 states make a seed-stable top of the
# time distribution, where the 90th percentile of the 20 inputs falls.
RANK2_KINDS = (((2, 2), 1), ((2, 3), 1), ((2, 4), 1), ((2, 2, 2), 1), ((3, 3), 4))


def _geodist_check(rho, left, exact):
    """Feasible certificate, high/low recomputed to 1e-9, known values to 1e-3."""
    dims, data = rho.dims, rho.data
    tol = pptmerge.PptOptConfig().tol

    def check(res):
        cert = res.detail.certificate
        t = min(1.0, ref.trace_distance(data, cert.data))
        low = max(0.0, 1.0 - float(np.sqrt(max(0.0, 1.0 - t * t))))
        return (_certificate_ok(cert, dims, left, tol)
                and abs(res.high - t) <= 1e-9 and abs(res.low - low) <= 1e-9
                and res.low <= res.high
                and (exact is None or abs(res.high - exact) <= SYMMETRIC_ATOL))

    return check


def _geodist_op(kind, rho, exact=None):
    left = (0,)
    cut = pptmerge.Bipartition.of(left, len(rho.dims))
    return Op(kind, rho.dim, _fresh(rho),
              lambda r: pptmerge.geometric_distillability_ppt(r, cut),
              _lazy(lambda: _geodist_check(rho, left, exact)))


def geodist_mixed(seed, workdir, cli_in_process):
    rng = _rng(seed, 3)
    ops = []
    # Four 3x3 isotropic states (about 1500 sweeps whatever the seed) hold
    # the median of the 20 inputs.
    for d, n_isotropic in ((2, 2), (3, 4)):
        for _ in range(n_isotropic):
            f = float(rng.uniform(1.0 / d + 0.1, 0.95))
            ops.append(_geodist_op(f"isotropic-d{d}", pptmerge.DensityMatrix(
                (d, d), ref.isotropic(d, f)), exact=f - 1.0 / d))
        for _ in range(2):
            p = float(rng.uniform(0.6, 0.95))
            ops.append(_geodist_op(f"werner-d{d}", pptmerge.DensityMatrix(
                (d, d), ref.werner(d, p)), exact=p - 0.5))
    for _ in range(2):
        fam = pptmerge.robust_vanishing_family(float(rng.uniform(0.0, 0.3)))
        ops.append(_geodist_op("robust-vanishing", fam.state))
    for dims, count in RANK2_KINDS:
        D = int(np.prod(dims))
        ops += [_geodist_op(f"rank2{dims}", pptmerge.DensityMatrix(dims, _random_density(rng, D, 2)))
                for _ in range(count)]
    return ops


# -- cli-files --------------------------------------------------------------

# Largest peak resident set, in KiB, of a finished ``python -m pptmerge``
# child; the run's other children (calibration probes) are not counted.
cli_peak_rss_kib = 0


def run_cli_subprocess(argv):
    """Run ``python -m pptmerge`` cold; returns (exit code, stdout)."""
    global cli_peak_rss_kib
    env = dict(os.environ, PYTHONPATH=str(Path(pptmerge.__file__).parent.parent))
    with subprocess.Popen([sys.executable, "-m", "pptmerge", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    cli_peak_rss_kib = max(cli_peak_rss_kib, usage.ru_maxrss)
    return proc.returncode, out


def run_cli_in_process(argv):
    """Drive ``pptmerge.cli.main`` in this process; returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pptmerge.cli.main(argv)
    return code, out.getvalue()


def _api_classify(path):
    return pptmerge.classify(pptmerge.load_state(path))


def _expect_stdout(expected):
    return lambda result: result == (0, expected)


def _check_report(path, report_path):
    want = _api_classify(path)
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def check(result):
        if result != (0, want.verdict + "\n"):
            return False
        got = json.loads(Path(report_path).read_text())
        return (got["verdict"] == want.verdict and got["input_sha256"] == digest
                and all(abs(got["witnesses"][k] - v) <= 1e-12
                        for k, v in want.witnesses.items()))

    return check


def _check_generate(out_path, family_seed):
    want = pptmerge.dumps_state(pptmerge.sep_no_merge_family(family_seed))

    def check(result):
        text = Path(out_path).read_text()
        return (result == (0, "") and text == want
                and pptmerge.dumps_state(pptmerge.loads_state(text)) == text)

    return check


def _check_measure(value):
    def check(result):
        code, out = result
        return code == 0 and abs(float(out) - value) <= 1e-11
    return check


def _unlink(*paths):
    def prepare():
        for path in paths:
            Path(path).unlink(missing_ok=True)
    return prepare


def cli_files(seed, workdir, cli_in_process):
    """Eight CLI invocations over state files written here, default flags.

    Each runs as a cold ``python -m pptmerge`` subprocess, or through
    ``pptmerge.cli.main`` in this process when ``cli_in_process`` is set.
    """
    rng = _rng(seed, 4)
    work = Path(workdir)

    def write(name, state):
        path = work / name
        path.write_text(pptmerge.dumps_state(state), encoding="utf-8")
        return str(path)

    ghz = write("ghz.json", _rotated(pptmerge.ghz(), rng))
    d60 = write("d60.json", pptmerge.sep_no_merge_family(int(rng.integers(0, 2**31))))
    d64 = write("d64.json", _tripartite(_random_density(rng, 64, 64), (4, 4, 4)))
    batch_states = (
        [_rotated(pptmerge.ghz(), rng) for _ in range(4)]
        + [_tripartite(_random_density(rng, 8, r), (2, 2, 2)) for r in (8, 8, 8, 8, 2, 2, 2, 2)]
        + [_tripartite(_random_density(rng, 24, r), (2, 3, 4)) for r in (24,) * 4 + (2,) * 4]
        + [pptmerge.sep_no_merge_family(int(rng.integers(0, 2**31))) for _ in range(4)]
    )
    batch = [write(f"batch{i:02d}.json", s) for i, s in enumerate(batch_states)]
    gen_seed = int(rng.integers(0, 2**31))
    gen_out, report = str(work / "generated.json"), str(work / "report.json")
    invocations = [
        ("generate", 60, ["generate", "sep-no-merge", "--seed", str(gen_seed), "--out", gen_out]),
        ("classify-ghz", 8, ["classify", ghz]),
        ("classify-d60", 60, ["classify", d60]),
        ("classify-d64", 64, ["classify", d64]),
        ("classify-json", 8, ["classify", ghz, "--json", report]),
        ("measure-ce", 60, ["measure", d60, "conditional-entropy"]),
        ("measure-logneg", 64, ["measure", d64, "log-negativity", "--cut", "AB:C"]),
        ("classify-batch", 0, ["classify", *batch]),
    ]
    checks = {
        "generate": lambda: _check_generate(gen_out, gen_seed),
        "classify-ghz": lambda: _expect_stdout(_api_classify(ghz).verdict + "\n"),
        "classify-d60": lambda: _expect_stdout(_api_classify(d60).verdict + "\n"),
        "classify-d64": lambda: _expect_stdout(_api_classify(d64).verdict + "\n"),
        "classify-json": lambda: _check_report(ghz, report),
        "measure-ce": lambda: _check_measure(
            pptmerge.conditional_entropy(pptmerge.load_state(d60))),
        "measure-logneg": lambda: _check_measure(pptmerge.log_negativity(
            pptmerge.load_state(d64).state, pptmerge.Bipartition((0, 1), (2,)))),
        "classify-batch": lambda: _expect_stdout("".join(
            f"{p}\t{_api_classify(p).verdict}\n" for p in batch)),
    }
    runner = run_cli_in_process if cli_in_process else run_cli_subprocess
    return [Op(kind, dim, _unlink(gen_out, report), lambda _, a=argv: runner(a),
               _lazy(checks[kind]), in_process=cli_in_process)
            for kind, dim, argv in invocations]


def _lazy(make_check):
    """Build the check on first use, outside set-up and outside timing."""
    built = []

    def check(result):
        if not built:
            built.append(make_check())
        return built[0](result)

    return check


FACTORIES = {
    "classify-mix": classify_mix,
    "overlap-pure": overlap_pure,
    "geodist-mixed": geodist_mixed,
    "cli-files": cli_files,
}


def build(name, seed, workdir, cli_in_process=False):
    return FACTORIES[name](seed, workdir, cli_in_process)
