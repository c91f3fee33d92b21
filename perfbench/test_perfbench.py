"""Tests of the benchmark itself: checks, tracer and contract.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import pptmerge  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _measure_once(ops):
    samples, attempted, failed, _ = run.measure(ops, 0.0, 0, run.Clock())
    return samples, attempted, failed


def _corrupt(op, change):
    return dataclasses.replace(op, call=lambda arg, call=op.call: change(call(arg)))


@pytest.fixture(scope="module")
def classify_ops(tmp_path_factory):
    return workloads.build("classify-mix", 1, tmp_path_factory.mktemp("w"))


def test_correct_results_pass(classify_ops):
    ops = [op for op in classify_ops if op.kind in ("ghz", "sep-no-merge")][:2]
    samples, attempted, failed = _measure_once(ops)
    assert (attempted, failed) == (2 * run.MIN_PASSES, 0)
    assert len(samples) == attempted


def test_wrong_verdict_is_a_failure(classify_ops):
    op = next(op for op in classify_ops if op.kind == "ghz")
    bad = _corrupt(op, lambda r: dataclasses.replace(r, verdict="VANISHING"))
    _, attempted, failed = _measure_once([bad])
    assert failed == attempted > 0


def test_wrong_witness_is_a_failure(classify_ops):
    op = next(op for op in classify_ops if op.kind == "full-rank")
    bad = _corrupt(op, lambda r: dataclasses.replace(
        r, witnesses=dict(r.witnesses, hashing_a_bc=r.witnesses["hashing_a_bc"] + 1e-6)))
    _, attempted, failed = _measure_once([bad])
    assert failed == attempted > 0


def test_raising_call_is_a_failure(classify_ops):
    def boom(_):
        raise ValueError("injected")

    bad = dataclasses.replace(classify_ops[0], call=boom)
    samples, attempted, failed = _measure_once([bad])
    assert failed == attempted > 0 and not samples


def test_wrong_overlap_value_is_a_failure(tmp_path):
    op = workloads.build("overlap-pure", 1, tmp_path)[0]  # phi+, the cheapest
    assert _measure_once([op])[2] == 0
    bad = _corrupt(op, lambda r: dataclasses.replace(r, value=r.value + 1e-5))
    _, attempted, failed = _measure_once([bad])
    assert failed == attempted > 0


def test_infeasible_certificate_is_a_failure(tmp_path):
    op = workloads._geodist_op("werner-d2", pptmerge.DensityMatrix(
        (2, 2), workloads.ref.werner(2, 0.9)), exact=0.4)
    entangled = pptmerge.phi_plus().to_density()

    def swap_certificate(res):
        return dataclasses.replace(res, detail=dataclasses.replace(
            res.detail, certificate=entangled))

    _, attempted, failed = _measure_once([_corrupt(op, swap_certificate)])
    assert failed == attempted > 0


def test_cli_output_mismatch_is_a_failure(tmp_path):
    ops = workloads.build("cli-files", 1, tmp_path, cli_in_process=True)
    assert _measure_once(ops)[2] == 0
    bad = [_corrupt(op, lambda r: (r[0], r[1] + "x")) for op in ops]
    _, attempted, failed = _measure_once(bad)
    assert failed == attempted > 0


def test_cli_child_peak_rss_is_recorded(tmp_path):
    argv = ["generate", "sep-no-merge", "--seed", "1", "--out", str(tmp_path / "s.json")]
    assert workloads.run_cli_subprocess(argv)[0] == 0
    assert workloads.cli_peak_rss_kib > 10 * 1024  # the child imported numpy


def test_reference_matches_known_values():
    ghz = pptmerge.ghz().state.data
    w = workloads.ref.tripartite_witnesses(ghz, (2, 2, 2))
    assert w["conditional_entropy"] == pytest.approx(0.0, abs=1e-12)
    assert w["hashing_a_bc"] == pytest.approx(1.0, abs=1e-12)
    assert w["log_negativity_ab_c"] == pytest.approx(1.0, abs=1e-12)
    phi = pptmerge.phi_plus().amplitudes
    assert workloads.ref.top_schmidt_sq(np.kron(phi, phi), (2, 2, 2, 2), (0, 2)) == \
        pytest.approx(0.25, abs=1e-12)


def test_tracer_counts_match_a_direct_count_and_uninstall_restores():
    original = pptmerge.classify
    direct = {"n": 0}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def counting(fn):
        def wrapped(*a, **k):
            direct["n"] += 1
            return fn(*a, **k)
        return wrapped

    state = pptmerge.ghz()
    np.linalg.eigh, np.linalg.eigvalsh = counting(eigh), counting(eigvalsh)
    try:
        pptmerge.classify(state)
    finally:
        np.linalg.eigh, np.linalg.eigvalsh = eigh, eigvalsh

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        pptmerge.classify(state)
        tracer.end_op(8)
    finally:
        tracer.uninstall()
    assert tracer.calls["linalg.eig"] == direct["n"] == tracer.eig_calls_by_dim[8]
    assert tracer.calls["classify.classify"] == 1
    assert tracer.calls["measures.hashing_witness"] >= 1
    assert pptmerge.classify is original
    assert np.linalg.eigh is eigh


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer._wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer._wrap("outer", outer_body)
    tracer.begin_op(0)
    outer()
    tracer.end_op(0)
    assert tracer.incl_s["outer"] >= 0.03
    assert tracer.self_s["outer"] == pytest.approx(0.01, abs=0.008)
    assert tracer.self_s["inner"] == pytest.approx(tracer.incl_s["inner"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.FACTORIES) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer = spans.Tracer()
    tracer.ops = 1
    layer = run.layer_metrics(tracer, 1.0, (1.0, 1.0, 1.0))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in layer.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
