"""CLI behaviour: exit codes, text/JSON reports, schema and determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from nsdpcheck import SymMat, eigen_decompose, sosc
from nsdpcheck.cli import ERROR_SCHEMA, REPORT_SCHEMA, main

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return main(list(argv))


def test_check_sosc_verified(capsys):
    code = run_cli("check-sosc", str(DATA / "p1.json"), "--dirs", "64")
    out = capsys.readouterr().out
    assert code == 0
    assert "VERIFIED_SAMPLED" in out
    assert "min margin: 2" in out
    assert "omega: [1]" in out  # rank decision is auditable


def test_check_sosc_failed_with_witness(capsys):
    code = run_cli("check-sosc", str(DATA / "p1_negated.json"), "--dirs", "64")
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED_AT_DIRECTION" in out
    assert "worst direction: [0, 1]" in out


def test_check_sosc_trivial(capsys):
    code = run_cli("check-sosc", str(DATA / "trivial_cone.json"))
    assert code == 0
    assert "CRITICAL_CONE_TRIVIAL" in capsys.readouterr().out


def test_check_sosc_inconclusive_exit_code(monkeypatch, capsys):
    report = sosc.SoscReport(
        verdict=sosc.INCONCLUSIVE,
        directions_checked=1,
        min_margin=math.inf,
        worst_direction=np.array([1.0, 0.0]),
        certificates=[],
        diagnostics="stub",
        decomposition=eigen_decompose(SymMat.diagonal([1.0, 0.0])),
    )
    monkeypatch.setattr(sosc, "check_sosc", lambda *a, **k: report)
    code = run_cli("check-sosc", str(DATA / "p1.json"))
    assert code == 2
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_malformed_json_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "m": 2,')
    assert run_cli("check-sosc", str(bad)) == 3
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_3(capsys):
    assert run_cli("check-sosc", "/nonexistent/problem.json") == 3
    capsys.readouterr()


def test_infeasible_point_exits_3(tmp_path, capsys):
    obj = json.loads((DATA / "p1.json").read_text())
    obj["xbar"] = [0.0, -1.0]
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(obj))
    assert run_cli("check-sosc", str(path)) == 3
    assert "dist to PSD cone" in capsys.readouterr().err


def test_subderivative_report(capsys):
    code = run_cli("subderivative", str(DATA / "triple_basic.json"), "--samples", "8")
    out = capsys.readouterr().out
    assert code == 0
    assert "closed form: 2" in out
    assert "sampling estimate: 2" in out
    assert "recovery=2" in out


def test_subderivative_hypothesis_violation(tmp_path, capsys):
    obj = json.loads((DATA / "triple_basic.json").read_text())
    obj["Ystar"] = {"m": 2, "lower": [1.0, 0.0, 0.0]}  # pi-block mass
    path = tmp_path / "bad_triple.json"
    path.write_text(json.dumps(obj))
    assert run_cli("subderivative", str(path)) == 3
    assert "hypothesis violation" in capsys.readouterr().out


def test_numerical_anomaly_exits_4(tmp_path, capsys):
    # <Ystar, V> passes the absolute normal-cone test but fails the scaled
    # polarity test in second_subderivative: an internal tolerance anomaly,
    # which must not read as a refutation (exit 1) or escape as a traceback
    path = tmp_path / "anomaly.json"
    path.write_text(json.dumps({
        "Y": {"m": 2, "lower": [1, 0, 0]},
        "Ystar": {"m": 2, "lower": [5e-9, 0, -1e-3]},
        "V": {"m": 2, "lower": [1e4, 0, 0]},
    }))
    assert run_cli("subderivative", str(path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: numerical anomaly:")

    report_path = tmp_path / "anomaly_report.json"
    assert run_cli("subderivative", str(path), "--json", str(report_path)) == 4
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, ERROR_SCHEMA)
    assert report["command"] == "subderivative"
    assert report["error"]["kind"] == "numerical_anomaly"


def test_hypothesis_violation_json_report(tmp_path, capsys):
    obj = json.loads((DATA / "triple_basic.json").read_text())
    obj["Ystar"] = {"m": 2, "lower": [1.0, 0.0, 0.0]}
    path = tmp_path / "bad_triple.json"
    path.write_text(json.dumps(obj))
    report_path = tmp_path / "report.json"
    assert run_cli("subderivative", str(path), "--json", str(report_path)) == 3
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, ERROR_SCHEMA)
    assert report["error"]["kind"] == "hypothesis_violation"


def test_growth_exit_codes(capsys):
    assert (
        run_cli(
            "growth", str(DATA / "p1.json"),
            "--epsilon", "0.1", "--beta", "0.25", "--samples", "2000",
        )
        == 0
    )
    capsys.readouterr()
    assert (
        run_cli(
            "growth", str(DATA / "p1_negated.json"),
            "--epsilon", "0.1", "--beta", "0.25", "--samples", "500",
        )
        == 1
    )
    capsys.readouterr()
    # beta above the reported ratio floor must flip the verdict
    assert (
        run_cli(
            "growth", str(DATA / "p1.json"),
            "--epsilon", "0.1", "--beta", "1000.0", "--samples", "500",
        )
        == 1
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, command",
    [
        (("check-sosc", "p1.json", "--dirs", "32"), "check-sosc"),
        (("subderivative", "triple_basic.json", "--samples", "8"), "subderivative"),
        (
            ("growth", "p1.json", "--epsilon", "0.1", "--beta", "0.25",
             "--samples", "400"),
            "growth",
        ),
    ],
)
def test_json_reports_validate_and_repeat(tmp_path, capsys, argv, command):
    argv = list(argv)
    argv[1] = str(DATA / argv[1])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(*argv, "--seed", "7", "--json", str(out1)) in (0, 1)
    assert run_cli(*argv, "--seed", "7", "--json", str(out2)) in (0, 1)
    capsys.readouterr()
    payload1 = out1.read_text()
    assert payload1 == out2.read_text()  # byte-identical for a fixed seed
    report = json.loads(payload1)
    assert report["schema_version"] == "1"
    assert report["command"] == command
    jsonschema.validate(report, REPORT_SCHEMA[command])


def test_console_script_runs():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nsdpcheck.cli", "check-sosc", str(DATA / "p1.json"),
         "--dirs", "16"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "VERIFIED_SAMPLED" in proc.stdout


@pytest.mark.parametrize("option", ["--epsilon", "--beta"])
def test_growth_rejects_nan_parameters(option, capsys):
    values = {"--epsilon": "0.1", "--beta": "0.1", option: "nan"}
    argv = ["growth", str(DATA / "p1.json")]
    for name, value in values.items():
        argv += [name, value]
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option[2:]} must be finite" in captured.err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["f"].pop("g"), "problem JSON missing required field: f.g"),
        (lambda obj: obj.update(F=[]), "problem JSON missing required field: F.A0"),
        (lambda obj: obj["F"].update(A=5), "malformed problem JSON: 'int' object is not iterable"),
    ],
)
def test_malformed_problem_fields_exit_3(tmp_path, capsys, edit, message):
    obj = json.loads((DATA / "p1.json").read_text())
    edit(obj)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert run_cli("check-sosc", str(path)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
