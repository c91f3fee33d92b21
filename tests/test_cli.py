"""Command-line interface, driven in process through main(argv)."""

import hashlib
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pptmerge
from pptmerge import DIMENSION_CAP, Bipartition, TripartiteState, dumps_state, loads_state, save_state
from pptmerge import core
from pptmerge.cli import main
from pptmerge.families import GenerationError
from helpers import random_density, random_pure
from oracles import schmidt_overlap

cli_mod = importlib.import_module("pptmerge.cli")

# Lets a child interpreter import the package from a plain checkout.
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(Path(pptmerge.__file__).parent.parent))
README = Path(__file__).resolve().parents[1] / "README.md"

FAMILIES = (
    "phi-plus",
    "ghz",
    "classical-correlated",
    "product-pure",
    "product-example",
    "sep-no-merge",
    "robust-vanishing",
)


def _generate(tmp_path, family, name=None, extra=()):
    path = tmp_path / f"{name or family}.json"
    assert main(["generate", family, "--out", str(path), *extra]) == 0
    return path


def test_generate_all_families_round_trip(tmp_path, capsys):
    for family in FAMILIES:
        path = _generate(tmp_path, family)
        text = path.read_text()
        state = loads_state(text)
        from pptmerge import dumps_state

        assert dumps_state(state) == text  # byte-identical round trip
    capsys.readouterr()


def test_generate_to_stdout(capsys):
    assert main(["generate", "phi-plus"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["dims"] == [2, 2]


def test_generate_deterministic_across_processes(tmp_path):
    a = _generate(tmp_path, "sep-no-merge", name="a", extra=("--seed", "3"))
    script = (
        "from pptmerge.cli import main; import sys; "
        "sys.exit(main(['generate', 'sep-no-merge', '--seed', '3']))"
    )
    second = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=SUBPROCESS_ENV
    )
    assert second.returncode == 0
    assert second.stdout == a.read_text()


def test_generate_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "bell-triple"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_generate_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "state.json"
    assert main(["generate", "sep-no-merge", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_generate_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(seed):
        raise GenerationError("injected failure")

    monkeypatch.setattr(cli_mod, "sep_no_merge_family", boom)
    assert main(["generate", "sep-no-merge"]) == 3
    assert "injected failure" in capsys.readouterr().err


def test_measure_frozen_strings(tmp_path, capsys):
    phi = _generate(tmp_path, "phi-plus")
    capsys.readouterr()
    assert main(["measure", str(phi), "log-negativity", "--cut", "0:1"]) == 0
    assert capsys.readouterr().out == "1.000000000000\n"
    assert main(["measure", str(phi), "entropy"]) == 0
    assert capsys.readouterr().out == "0.000000000000\n"
    assert main(["measure", str(phi), "hashing-witness", "--cut", "0:1"]) == 0
    assert capsys.readouterr().out == "1.000000000000\n"
    assert main(["measure", str(phi), "negativity-witness", "--cut", "0:1"]) == 0
    assert capsys.readouterr().out == "1.000000000000\n"
    assert main(["measure", str(phi), "is-ppt", "--cut", "0:1"]) == 0
    assert capsys.readouterr().out == "false\n"

    robust = _generate(tmp_path, "robust-vanishing", extra=("--p", "0.1"))
    capsys.readouterr()
    assert main(["measure", str(robust), "is-ppt", "--cut", "AB:C"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["measure", str(robust), "conditional-entropy"]) == 0
    assert capsys.readouterr().out == "1.000000000000\n"
    assert main(["measure", str(robust), "mutual-information", "--cut", "A:BC"]) == 0
    out = capsys.readouterr().out
    assert float(out) > 0.5


def test_entropy_of_a_pure_product_prints_no_minus_sign(tmp_path, capsys):
    # rounding puts the top eigenvalue just above 1; this printed -0.000000000000
    product = _generate(tmp_path, "product-pure")
    capsys.readouterr()
    assert main(["measure", str(product), "entropy"]) == 0
    assert capsys.readouterr().out == "0.000000000000\n"


def test_measure_error_paths(tmp_path, capsys):
    phi = _generate(tmp_path, "phi-plus")
    capsys.readouterr()
    # cut required
    assert main(["measure", str(phi), "log-negativity"]) == 2
    # party labels on an unlabelled file
    assert main(["measure", str(phi), "log-negativity", "--cut", "A:BC"]) == 2
    assert main(["measure", str(phi), "conditional-entropy"]) == 2
    # malformed cut strings
    assert main(["measure", str(phi), "log-negativity", "--cut", "0:"]) == 2
    assert main(["measure", str(phi), "log-negativity", "--cut", "0,1"]) == 2
    assert main(["measure", str(phi), "log-negativity", "--cut", "0:2"]) == 2
    # a measure that takes no cut rejects one, even a malformed one
    capsys.readouterr()
    assert main(["measure", str(phi), "entropy", "--cut", "zzz"]) == 2
    assert capsys.readouterr().err == "error: measure 'entropy' takes no --cut\n"
    ghz = _generate(tmp_path, "ghz")
    assert main(["measure", str(ghz), "conditional-entropy", "--cut", "AB:C"]) == 2
    assert capsys.readouterr().err == "error: measure 'conditional-entropy' takes no --cut\n"
    # missing and malformed files
    assert main(["measure", str(phi) + ".nope", "entropy"]) == 2
    bad = phi.parent / "bad.json"
    bad.write_text("{}")
    assert main(["measure", str(bad), "entropy"]) == 2
    capsys.readouterr()


def test_measure_label_cut_must_cover_parties(tmp_path, capsys):
    ghz = _generate(tmp_path, "ghz")
    capsys.readouterr()
    assert main(["measure", str(ghz), "log-negativity", "--cut", "A:BB"]) == 2
    assert main(["measure", str(ghz), "log-negativity", "--cut", "A:B"]) == 2
    assert main(["measure", str(ghz), "log-negativity", "--cut", "AB:C"]) == 0
    capsys.readouterr()


# Party of each subsystem of a (2, 3, 2) file whose labels are not in index order.
PERMUTED_LABELS = {"A": "2", "B": "0", "C": "1"}


@pytest.mark.parametrize("measure", ["log-negativity", "mutual-information"])
@pytest.mark.parametrize("cut", ["A:BC", "BC:A", "B:AC", "AC:B", "C:AB", "AB:C"])
@pytest.mark.parametrize("case", [str.upper, str.lower])
def test_label_cut_prints_what_its_index_cut_prints(tmp_path, capsys, measure, cut, case):
    rho = random_density(np.random.default_rng(23), (2, 3, 2))
    path = tmp_path / "permuted.json"
    save_state(TripartiteState(rho, (2,), (0,), (1,)), path)
    index_cut = ":".join(",".join(PERMUTED_LABELS[ch] for ch in side) for side in cut.split(":"))
    assert main(["measure", str(path), measure, "--cut", index_cut]) == 0
    want = capsys.readouterr().out
    assert main(["measure", str(path), measure, "--cut", case(cut)]) == 0
    assert capsys.readouterr().out == want


def test_classify_single_and_multi(tmp_path, capsys):
    robust = _generate(tmp_path, "robust-vanishing")
    ghz = _generate(tmp_path, "ghz")
    sep = _generate(tmp_path, "sep-no-merge")
    capsys.readouterr()

    assert main(["classify", str(robust)]) == 0
    assert capsys.readouterr().out == "VANISHING\n"

    assert main(["classify", str(ghz), str(sep)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{ghz}\tPERFECT", f"{sep}\tNO_PERFECT_MERGE"]

    assert main(["classify", str(ghz), str(sep), str(robust)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split("\t")[1] for l in lines] == [
        "PERFECT",
        "NO_PERFECT_MERGE",
        "VANISHING",
    ]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tol_exits_2(tmp_path, capsys, tol):
    ghz = _generate(tmp_path, "ghz")
    sep = _generate(tmp_path, "sep-no-merge")
    capsys.readouterr()
    assert main(["classify", str(ghz), f"--tol={tol}"]) == 2
    assert main(["classify", str(sep), f"--tol={tol}"]) == 2
    assert main(["measure", str(ghz), "is-ppt", "--cut", "AB:C", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("tol must be finite and non-negative") == 3


@pytest.mark.parametrize("tol", ["nan", "inf", "-5"])
@pytest.mark.parametrize(
    "measure, cut",
    [
        ("entropy", None),
        ("conditional-entropy", None),
        ("mutual-information", "AB:C"),
        ("log-negativity", "AB:C"),
        ("hashing-witness", "A:BC"),
        ("negativity-witness", "AB:C"),
        ("is-ppt", "AB:C"),
    ],
)
def test_every_measure_rejects_a_tol_that_is_not_finite_and_non_negative(
    tmp_path, capsys, measure, cut, tol
):
    # only is-ppt reads the tolerance, but every measure checks it
    ghz = _generate(tmp_path, "ghz")
    capsys.readouterr()
    argv = ["measure", str(ghz), measure] + ([] if cut is None else ["--cut", cut])
    assert main(argv + [f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be finite and non-negative, got {float(tol)!r}\n"
    assert main(argv + ["--tol=0"]) == 0
    capsys.readouterr()


def test_classify_requires_labels(tmp_path, capsys):
    phi = _generate(tmp_path, "phi-plus")
    capsys.readouterr()
    assert main(["classify", str(phi)]) == 2
    assert "labels" in capsys.readouterr().err


def test_bad_labels_exit_2_before_the_projector_is_built(tmp_path, capsys, monkeypatch):
    # labels that cover subsystem 0 twice are malformed input: they used to
    # reach the projector's size check first and exit 3
    def no_outer(*args, **kwargs):
        raise AssertionError("the projector was built before the labels were checked")

    payload = json.loads(dumps_state(random_pure(np.random.default_rng(331), (2, 2, 2))))
    payload["labels"] = {"a": [0], "b": [0], "c": [1, 2]}
    path = tmp_path / "bad-labels.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setattr(core, "DIMENSION_CAP", 4)
    monkeypatch.setattr(np, "outer", no_outer)
    assert main(["classify", str(path)]) == 2
    assert "malformed state file: labels" in capsys.readouterr().err


def test_classify_rejects_integer_too_large_for_a_float(tmp_path, capsys):
    # json reads the 400-digit integer exactly; it must not reach float()
    payload = json.loads(_generate(tmp_path, "ghz").read_text())
    payload["matrix"][0] = [10**400, 0]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["classify", str(bad)]) == 2
    assert "error: malformed state file: matrix[0] must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0])
def test_classify_rejects_a_format_version_that_is_not_the_integer_1(tmp_path, capsys, version):
    payload = json.loads(_generate(tmp_path, "ghz").read_text())
    payload["format_version"] = version
    bad = tmp_path / "version.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["classify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: malformed state file: unsupported format_version {version!r}" in err


def test_classify_rejects_deeply_nested_json(tmp_path, capsys):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100000)
    assert main(["classify", str(bad)]) == 2
    assert "error: malformed state file: invalid JSON" in capsys.readouterr().err


def test_classify_json_report(tmp_path, capsys):
    robust = _generate(tmp_path, "robust-vanishing")
    report_path = tmp_path / "report.json"
    capsys.readouterr()
    assert (
        main(
            [
                "classify",
                str(robust),
                "--json",
                str(report_path),
                "--seed",
                "11",
            ]
        )
        == 0
    )
    capsys.readouterr()
    payload = json.loads(report_path.read_text())
    assert payload["verdict"] == "VANISHING"
    assert payload["seed"] == 11
    assert payload["input"] == robust.name
    assert len(payload["input_sha256"]) == 64
    assert payload["consistent"] is True
    assert 0.0 < payload["fidelity_lower_bound"] <= 1.0
    names = [c["name"] for c in payload["criteria"]]
    assert "vanishing_ppt_merge" in names and "separable_family_obstruction" in names
    for c in payload["criteria"]:
        assert c["holds"] in ("true", "false", "unknown")
    assert set(payload["witnesses"]) == {
        "conditional_entropy",
        "hashing_a_bc",
        "log_negativity_ab_c",
    }

    # determinism: a second run differs only in its timestamp
    report2 = tmp_path / "report2.json"
    assert main(["classify", str(robust), "--json", str(report2), "--seed", "11"]) == 0
    capsys.readouterr()
    a = json.loads(report_path.read_text())
    b = json.loads(report2.read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_classify_json_hashes_the_bytes_it_classified(tmp_path, monkeypatch, capsys):
    robust = _generate(tmp_path, "robust-vanishing")
    original = robust.read_bytes()
    capsys.readouterr()
    classify = cli_mod.classify

    def rewrite_then_classify(state, tol):
        # the file changes after it was read and before the report is written
        robust.write_text(cli_mod.dumps_state(pptmerge.ghz()), encoding="utf-8")
        return classify(state, tol)

    monkeypatch.setattr(cli_mod, "classify", rewrite_then_classify)
    report_path = tmp_path / "report.json"
    assert main(["classify", str(robust), "--json", str(report_path)]) == 0
    assert capsys.readouterr().out == "VANISHING\n"
    assert robust.read_bytes() != original
    payload = json.loads(report_path.read_text())
    assert payload["input_sha256"] == hashlib.sha256(original).hexdigest()


def test_classify_json_single_input_only(tmp_path, capsys):
    ghz = _generate(tmp_path, "ghz")
    sep = _generate(tmp_path, "sep-no-merge")
    capsys.readouterr()
    assert main(["classify", str(ghz), str(sep), "--json", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_classify_consistency_exit_code(tmp_path, monkeypatch, capsys):
    robust = _generate(tmp_path, "robust-vanishing")
    capsys.readouterr()
    classify_mod = importlib.import_module("pptmerge.classify")
    spectra = classify_mod._spectra
    monkeypatch.setattr(
        classify_mod, "_spectra", lambda s: spectra(s)._replace(conditional_entropy=-1.0)
    )
    assert main(["classify", str(robust)]) == 4
    capsys.readouterr()


def test_geodist_bell_pair(tmp_path, capsys):
    phi = _generate(tmp_path, "phi-plus")
    capsys.readouterr()
    assert main(["geodist", str(phi), "--cut", "0:1"]) == 0
    captured = capsys.readouterr()
    value = float(captured.out.strip())
    assert abs(value - 0.29289321881345254) < 1e-3
    gap = float(captured.err.split("gap=")[1].split()[0])
    assert "converged=True" in captured.err and 0.0 <= gap <= 1e-12  # closed form, exact


def test_geodist_of_a_product_state_prints_zero(tmp_path, capsys):
    # rounding read the overlap of 7 of these 20 products above 1, and the
    # point bracket printed as -0.000000000000
    rng = np.random.default_rng(1019)
    for _ in range(20):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        save_state(pptmerge.PureState((3, 4), vec), tmp_path / "prod.json")
        assert main(["geodist", str(tmp_path / "prod.json"), "--cut", "0:1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0.000000000000\n"
        assert "psd=0.000e+00, ppt=0.000e+00" in captured.err


def test_geodist_tripartite_defaults_to_ab_c(tmp_path, capsys):
    robust = _generate(tmp_path, "robust-vanishing", extra=("--p", "0.3"))
    capsys.readouterr()
    assert main(["geodist", str(robust)]) == 0
    captured = capsys.readouterr()
    ends = [float(tok) for tok in captured.out.split()]
    assert all(v < 1e-5 for v in ends)  # the state is feasible across AB:C
    gap = float(captured.err.split("gap=")[1].split()[0])
    assert "converged=True" in captured.err and gap <= 1e-7


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-7"])
def test_geodist_rejects_a_tol_that_is_not_finite_and_positive(tmp_path, capsys, tol):
    # an infinite tol would report any bracket as converged
    robust = _generate(tmp_path, "robust-vanishing")
    capsys.readouterr()
    assert main(["geodist", str(robust), f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tol must be finite and positive" in captured.err


def test_geodist_with_a_tol_below_the_rounding_floor_exits_0(tmp_path, capsys):
    # this solve exited 2 with "Matrix is not positive definite"
    save_state(random_density(np.random.default_rng(2), (2, 2), rank=2), tmp_path / "rho.json")
    assert main(["geodist", str(tmp_path / "rho.json"), "--cut", "0:1", "--tol", "1e-12"]) == 0
    captured = capsys.readouterr()
    low, high = map(float, captured.out.split())
    gap = float(captured.err.split("gap=")[1].split()[0])
    assert 0.0 < low <= high and 0.0 <= gap <= 1e-9


def test_geodist_requires_cut_without_labels(tmp_path, capsys):
    phi = _generate(tmp_path, "phi-plus")
    capsys.readouterr()
    assert main(["geodist", str(phi)]) == 2
    assert "--cut" in capsys.readouterr().err


def test_overlap_bell_pair(tmp_path, capsys):
    phi = _generate(tmp_path, "phi-plus")
    capsys.readouterr()
    assert main(["overlap", str(phi), "--cut", "0:1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("0.5000")


def test_overlap_labelled_pure_matrix_file(tmp_path, capsys):
    # a labelled file stores even a pure state as a density matrix
    ghz = _generate(tmp_path, "ghz")
    assert "matrix" in json.loads(ghz.read_text())
    capsys.readouterr()
    assert main(["overlap", str(ghz)]) == 0
    assert abs(float(capsys.readouterr().out) - 0.5) < 1e-6


def test_overlap_rejects_mixed_states(tmp_path, capsys):
    robust = _generate(tmp_path, "robust-vanishing", extra=("--p", "0.5"))
    capsys.readouterr()
    assert main(["overlap", str(robust)]) == 2
    assert "pure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dims, labels, argv",
    [
        # D = 4097, the first size past the exact-operation cap
        ([17, 241], None, ["overlap", "--cut", "0:1"]),
        ([17, 241], None, ["measure", "entropy"]),
        # D = 4100 with labels: the file's load builds the tripartite state
        ([2, 2, 1025], {"a": [0], "b": [1], "c": [2]}, ["classify"]),
        ([2, 2, 1025], {"a": [0], "b": [1], "c": [2]}, ["overlap"]),
        ([2, 2, 1025], {"a": [0], "b": [1], "c": [2]}, ["geodist"]),
    ],
    ids=["overlap", "measure", "labelled-classify", "labelled-overlap", "labelled-geodist"],
)
def test_overlap_dimension_cap_exit_code(tmp_path, capsys, dims, labels, argv):
    # each fails fast, far below the 256 MiB of one complex D x D matrix
    D = math.prod(dims)
    payload = {
        "format_version": 1,
        "dims": dims,
        "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (D - 1),
    }
    if labels is not None:
        payload["labels"] = labels
    big = tmp_path / "big.json"
    big.write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        assert main([argv[0], str(big), *argv[1:]]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{D} exceeds the cap {DIMENSION_CAP}" in capsys.readouterr().err
    assert peak < 16 * 2**20


@pytest.mark.parametrize("dims, left", [((6, 7), (0,)), ((2,) * 7, (0, 1, 2))])
def test_overlap_is_exact_above_the_old_caps(tmp_path, capsys, dims, left):
    # D = 42 and D = 128 used to exit 3 (Schur-row and dimension caps)
    psi = random_pure(np.random.default_rng(241), dims)
    save_state(psi, tmp_path / "psi.json")
    right = Bipartition.of(left, len(dims)).right
    cut = ",".join(map(str, left)) + ":" + ",".join(map(str, right))
    assert main(["overlap", str(tmp_path / "psi.json"), "--cut", cut]) == 0
    exact = schmidt_overlap(psi.amplitudes, dims, left)
    assert abs(float(capsys.readouterr().out) - exact) <= 1e-12


def test_overlap_takes_no_solver_flags(tmp_path, capsys):
    phi = _generate(tmp_path, "phi-plus")
    with pytest.raises(SystemExit) as exc:
        main(["overlap", str(phi), "--cut", "0:1", "--tol", "1e-7"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_geodist_takes_no_iteration_budget(tmp_path, capsys):
    # the solver's iteration count is bounded by a fixed guard, not a flag
    robust = _generate(tmp_path, "robust-vanishing")
    with pytest.raises(SystemExit) as exc:
        main(["geodist", str(robust), "--max-iters", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_geodist_exits_3_just_above_the_schur_row_cap(tmp_path, capsys):
    # D = 30, dense and complex: one sector, 2 * 30^2 - 1 = 1799 Schur rows
    save_state(random_density(np.random.default_rng(243), (5, 6), rank=2), tmp_path / "big.json")
    assert main(["geodist", str(tmp_path / "big.json"), "--cut", "0:1"]) == 3
    assert "1799 Schur rows" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pptmerge" in capsys.readouterr().out


def test_cli_entry_point_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pptmerge", "generate", "ghz"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert result.returncode == 0
    state = loads_state(result.stdout)
    assert isinstance(state, TripartiteState)


def _readme_names(heading):
    match = re.search(re.escape(heading) + r":(.*?)\.\n", README.read_text(), re.DOTALL)
    assert match, heading
    return re.findall(r"`([^`]+)`", match.group(1))


def test_readme_lists_match_cli_tables():
    assert _readme_names("Families available to `generate`") == list(cli_mod._FAMILIES)
    assert _readme_names("Measures available to `measure`") == list(cli_mod._MEASURES)


def _parser_flags(command):
    sub = next(a for a in cli_mod.build_parser()._actions if command in (a.choices or ()))
    flags = (f for a in sub.choices[command]._actions for f in a.option_strings)
    return [f for f in flags if f.startswith("--") and f != "--help"]


@pytest.mark.parametrize("command", ["geodist", "overlap"])
def test_readme_names_the_parsers_flags(command):
    # the sentence "`command` takes ..." up to its first colon or full stop
    match = re.search(rf"`{command}` takes (.*?)[:.]", README.read_text(), re.DOTALL)
    assert match, command
    assert re.findall(r"`(--[\w-]+)`", match.group(1)) == _parser_flags(command)


def _same_token(got, want):
    """Equal as text, or as numbers (so ``1.0`` matches a comment's ``+1.0``)."""
    if got == want:
        return True
    try:
        return float(got) == float(want)
    except ValueError:
        return False


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    # the value is the comment up to a closing parenthetical remark
    expected = [re.sub(r"\s*\(.*\)$", "", line.split("  # ", 1)[1]).split() for line in prints]
    capsys.readouterr()
    exec(compile(code, str(README), "exec"), {})
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        assert len(got) == len(want) and all(map(_same_token, got, want)), (got, want)


def test_readme_cli_quick_start_prints_what_its_comments_say(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Quick start \(CLI\).*?```sh\n(.*?)```", README.read_text(), re.DOTALL)
    monkeypatch.chdir(tmp_path)
    checked = []
    for line in block.group(1).splitlines():
        command, _, comment = line.partition("#")
        if not command.startswith("pptmerge "):
            continue
        expected = comment.split()
        if len(expected) > 1:  # a description, such as the batch line's input files
            continue
        capsys.readouterr()
        assert main(shlex.split(command)[1:]) == 0, line
        if expected:
            assert capsys.readouterr().out == expected[0] + "\n", line
            checked.append(expected[0])
    assert len(checked) == 5
