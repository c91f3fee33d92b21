"""Command-line interface, driven in process through main(argv)."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pptmerge
from pptmerge import TripartiteState, loads_state
from pptmerge.cli import main
from pptmerge.families import GenerationError

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


def test_classify_requires_labels(tmp_path, capsys):
    phi = _generate(tmp_path, "phi-plus")
    capsys.readouterr()
    assert main(["classify", str(phi)]) == 2
    assert "labels" in capsys.readouterr().err


def test_classify_rejects_integer_too_large_for_a_float(tmp_path, capsys):
    # json reads the 400-digit integer exactly; it must not reach float()
    payload = json.loads(_generate(tmp_path, "ghz").read_text())
    payload["matrix"][0] = [10**400, 0]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["classify", str(bad)]) == 2
    assert "error: malformed state file: matrix[0] must be finite" in capsys.readouterr().err


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
    assert "converged=True" in captured.err and 0.0 <= gap <= 1e-7  # the overlap's dual


def test_geodist_tripartite_defaults_to_ab_c(tmp_path, capsys):
    robust = _generate(tmp_path, "robust-vanishing", extra=("--p", "0.3"))
    capsys.readouterr()
    assert main(["geodist", str(robust)]) == 0
    captured = capsys.readouterr()
    ends = [float(tok) for tok in captured.out.split()]
    assert all(v < 1e-5 for v in ends)  # the state is feasible across AB:C
    gap = float(captured.err.split("gap=")[1].split()[0])
    assert "converged=True" in captured.err and gap <= 1e-7


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


def test_overlap_dimension_cap_exit_code(tmp_path, capsys):
    payload = {
        "format_version": 1,
        "dims": [2] * 7,
        "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 127,
    }
    big = tmp_path / "big.json"
    big.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["overlap", str(big), "--cut", "0,1,2:3,4,5,6"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, payload",
    [
        # D = 42 pure: 42^2 - 1 = 1763 Schur rows
        ("overlap", {"dims": [6, 7], "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 41}),
        # D = 30 mixed: 2 * 30^2 - 1 = 1799 Schur rows
        ("geodist", {"dims": [5, 6], "matrix": [[v / 30, 0.0] for v in np.eye(30).ravel()]}),
    ],
)
def test_optimisers_exit_3_just_above_the_schur_row_cap(tmp_path, capsys, command, payload):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"format_version": 1, **payload}))
    assert main([command, str(path), "--cut", "0:1"]) == 3
    assert "Schur rows" in capsys.readouterr().err


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
