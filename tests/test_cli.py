"""CLI behaviour: exit codes, text/JSON reports, schema and determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdpcheck import SymMat, cli, cone, eigen_decompose, eval_F, problem_from_json, sosc
from nsdpcheck.cli import ERROR_SCHEMA, REPORT_SCHEMA, main

from conftest import linalg_calls

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


def test_check_sosc_global_minimiser_verified(tmp_path, capsys):
    # f = |x|^2 / 2 at its global minimiser: alpha = 1, Ystar = 0 has margin
    # |u|^2 on every direction
    path = DATA / "false_refutation.json"
    assert run_cli("check-sosc", str(path), "--dirs", "16") == 0
    assert "VERIFIED_SAMPLED" in capsys.readouterr().out
    out = tmp_path / "report.json"
    assert run_cli("check-sosc", str(path), "--dirs", "16", "--json", str(out)) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA["check-sosc"])
    assert report["result"]["verdict"] == "VERIFIED_SAMPLED"


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


def test_point_below_minus_rank_tol_is_infeasible(tmp_path, capsys):
    # dist(F(xbar), PSD) = 1e-9 passes --tol, but the eigenvalue -1e-9 lies
    # below -rank_tol; this exited 3 with a tangent-cone error from the sampler
    obj = json.loads((DATA / "p1.json").read_text())
    obj["F"]["A0"]["lower"] = [1.0, 0.0, -1e-9]
    path = tmp_path / "below_rank_tol.json"
    path.write_text(json.dumps(obj))
    assert run_cli("check-sosc", str(path), "--rank-tol", "1e-12", "--dirs", "16") == 3
    assert capsys.readouterr().err == (
        "error: F(xbar) is not PSD at the rank tolerance (smallest eigenvalue "
        "-1.000000e-09 < -rank_tol = -1.000000e-12)\n"
    )


def p1_with_a0(tmp_path, lower):
    obj = json.loads((DATA / "p1.json").read_text())
    obj["F"]["A0"]["lower"] = lower
    path = tmp_path / f"p1_a0_{lower[0]:g}_{lower[2]:g}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_growth_applies_the_rank_rule_of_check_sosc(tmp_path, capsys):
    # dist(F(xbar), PSD) = 1e-4 passes --tol 1e-3, but the eigenvalue -1e-4
    # lies below -rank_tol; growth accepted this point and exited 0
    path = p1_with_a0(tmp_path, [1.0, 0.0, -1e-4])
    message = (
        "error: F(xbar) is not PSD at the rank tolerance (smallest eigenvalue "
        "-1.000000e-04 < -rank_tol = -1.000000e-08)\n"
    )
    for command, *flags in [("check-sosc",), ("growth", "--epsilon", "0.1", "--beta", "0.01")]:
        assert run_cli(command, path, "--tol", "1e-3", *flags) == 3
        assert capsys.readouterr().err == message


@pytest.mark.parametrize("entry", [1e175, 1e300])
@pytest.mark.parametrize(
    "argv", [("check-sosc", "--dirs", "16"), ("growth", "--epsilon", "0.1", "--beta", "0.25")]
)
def test_huge_psd_entries_decompose_without_overflow(entry, argv, tmp_path, capsys):
    # A0 = diag(entry, 0) is PSD: the reconstruction check of its
    # decomposition overflowed and exited 3, while 1e180 passed
    reports = []
    for value in (entry, 1e180):
        out = tmp_path / f"{value:g}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(
                argv[0], p1_with_a0(tmp_path, [value, 0.0, 0.0]), *argv[1:], "--json", str(out)
            )
        assert code == 1
        assert capsys.readouterr().err == ""
        reports.append(json.loads(out.read_text())["result"])
    if argv[0] == "check-sosc":
        assert reports[0]["verdict"] == reports[1]["verdict"] == "FAILED_AT_DIRECTION"
        assert reports[0]["worst_direction"] == reports[1]["worst_direction"]
    else:
        assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv", [("check-sosc", "--dirs", "16"), ("growth", "--epsilon", "0.1", "--beta", "0.25")]
)
def test_overflowing_eigenvalue_is_an_input_error(argv, tmp_path, capsys):
    # A0 = [[1e308, 1e308], [1e308, 1e308]] has the eigenvalue 2e308, which
    # reads inf: the decomposition cannot reproduce it.  Its defect was
    # measured against an overflowing norm bound and passed, and check-sosc
    # exited 0 (CRITICAL_CONE_TRIVIAL, at rank_tol inf with omega = [0, 1])
    path = p1_with_a0(tmp_path, [1e308, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(argv[0], path, *argv[1:]) == 3
    assert capsys.readouterr().err == (
        "error: decomposition does not reproduce source (defect inf)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("check-sosc", "p1.json", "--dirs", "16"),
        ("growth", "p1.json", "--epsilon", "0.1", "--beta", "0.25", "--samples", "50"),
    ],
)
def test_each_command_eigen_solves_f_xbar_once(argv, monkeypatch, capsys):
    # feasibility, the rank split and the growth screen share one
    # decomposition; each command solved F(xbar) twice
    problem, xbar = problem_from_json(json.loads((DATA / argv[1]).read_text()))
    f_xbar = eval_F(problem, xbar).dense()
    calls = linalg_calls(
        monkeypatch, lambda: run_cli(argv[0], str(DATA / argv[1]), *argv[2:]), of=f_xbar
    )
    capsys.readouterr()
    assert calls["eigh"] + calls["eigvalsh"] == 1


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
    # Ystar = tol passes the normal-cone test at Y = 0, and against V = 1e4
    # gives <Ystar, V> = 1e-4; the polarity test admits tol tr V_oo^+ of it,
    # where it used to exit 4, so the closed form reads 0
    path = tmp_path / "slack.json"
    path.write_text(json.dumps({
        "Y": {"m": 1, "lower": [0]},
        "Ystar": {"m": 1, "lower": [1e-8]},
        "V": {"m": 1, "lower": [1e4]},
    }))
    assert run_cli("subderivative", str(path)) == 0
    assert "closed form: 0\n" in capsys.readouterr().out

    # -2 <Ystar, V pinv(Y) V> = 2e400 overflows: an internal anomaly, which
    # must not read as a refutation (exit 1) or escape as a traceback
    path = tmp_path / "anomaly.json"
    path.write_text(json.dumps({
        "Y": {"m": 2, "lower": [1, 0, 0]},
        "Ystar": {"m": 2, "lower": [0, 0, -1]},
        "V": {"m": 2, "lower": [0, 1e200, 0]},
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
    # error reports carry every option of the subcommand, as results do
    assert report["options"] == {
        "tol": 1e-8, "rank_tol": None, "samples": 64, "radius": 1.0, "seed": 0,
    }


@pytest.mark.parametrize(
    "triple",
    [
        # lambda_max(Ystar_oo) = tol admits tol tr V_oo^+ = 1e-4
        {"Y": [0], "Ystar": [1e-8], "V": [1e4]},
        # lambda_min(V_oo) = -5e-9 admits tol tr (Ystar_oo)^- = 3e-8
        {
            "Y": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "Ystar": [0, 0, -1, 0, 0, -1, 0, 0, 0, -1],
            "V": [0, 0, -5e-9, 0, 0, -5e-9, 0, 0, 0, -5e-9],
        },
    ],
)
def test_omega_omega_slack_is_no_anomaly(triple, tmp_path, capsys):
    # both polarity reproducers exited 4 with a false "numerical anomaly"
    m = 1 if len(triple["Y"]) == 1 else 4
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({key: {"m": m, "lower": lower} for key, lower in triple.items()}))
    report_path = tmp_path / "report.json"
    assert run_cli("subderivative", str(path), "--json", str(report_path)) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["result"]["closed_form"] == {"tag": "finite", "value": 0.0}


def test_sampling_estimate_agrees_with_closed_form_at_an_admitted_multiplier(tmp_path, capsys):
    # Ystar = 1e-8 > 0 passes the normal-cone test at tol; sampled as given,
    # its quotients -2e-4 / t fell to -20 down the grid against a closed form 0
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "Y": {"m": 1, "lower": [0]},
        "Ystar": {"m": 1, "lower": [1e-8]},
        "V": {"m": 1, "lower": [1e4]},
    }))
    assert run_cli("subderivative", str(path)) == 0
    out = capsys.readouterr().out
    assert "closed form: 0\n" in out and "sampling estimate: 0\n" in out


def test_zero_closed_form_reads_0_not_minus_0(tmp_path, capsys):
    # Ystar = 0: -2 * 0 used to print "-0" and write -0.0, in every step too
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "Y": {"m": 2, "lower": [1, 0, 0]},
        "Ystar": {"m": 2, "lower": [0, 0, 0]},
        "V": {"m": 2, "lower": [0, 1, 0]},
    }))
    assert run_cli("subderivative", str(path)) == 0
    out = capsys.readouterr().out
    assert "closed form: 0\n" in out and "sampling estimate: 0\n" in out
    steps = [line for line in out.splitlines() if line.startswith("  t=")]
    assert steps and all(line.endswith("n=1  min=0  recovery=0") for line in steps)
    report_path = tmp_path / "report.json"
    assert run_cli("subderivative", str(path), "--json", str(report_path)) == 0
    capsys.readouterr()
    text = report_path.read_text()
    assert '"value": 0.0' in text and "-0.0" not in text


def test_admitted_normal_cone_slack_is_no_anomaly(tmp_path, capsys):
    # the normal-cone test admits a pi-pi block of Ystar of norm 5e-9 < tol,
    # which against V_pp = 1e4 makes <Ystar, V> = 5e-5; the polarity test
    # allows for that slack instead of exiting 4.  The closed form is taken
    # at the nearest normal-cone point, where the trace samples: at Ystar as
    # given it read -2 * 5e-9 * 1e8 = -1, below the range [0, inf]
    path = DATA / "triple_admitted_slack.json"
    assert run_cli("subderivative", str(path)) == 0
    out = capsys.readouterr().out
    assert "closed form: 0\n" in out and "sampling estimate: 0\n" in out
    report_path = tmp_path / "report.json"
    assert run_cli("subderivative", str(path), "--json", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["result"]["closed_form"] == {"tag": "finite", "value": 0.0}


def test_closed_form_checks_ystar_as_given(tmp_path, capsys):
    # a pi-pi block of 2e-8 > tol: the projection onto the normal cone would
    # pass, Ystar as given does not
    obj = json.loads((DATA / "triple_admitted_slack.json").read_text())
    obj["Ystar"]["lower"][0] = 2e-8
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(obj))
    assert run_cli("subderivative", str(path)) == 3
    out = capsys.readouterr().out
    assert out == "hypothesis violation: ystar is not in the normal cone at the base point\n"


def test_subderivative_tests_normal_cone_membership_twice(monkeypatch, capsys):
    # once for the projection of Ystar, in the closed form, and once for
    # Ystar as given, in the trace; the command used to test Ystar as given
    # a second time, ahead of both
    calls = []

    def counted(*args, _orig=cone.normal_cone_residual):
        calls.append(args)
        return _orig(*args)

    monkeypatch.setattr(cone, "normal_cone_residual", counted)
    assert run_cli("subderivative", str(DATA / "triple_basic.json")) == 0
    capsys.readouterr()
    assert len(calls) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check-sosc", str(DATA / "p1.json"), "--dirs", "8"],
        ["subderivative", str(DATA / "triple_basic.json"), "--samples", "8"],
    ],
)
def test_rank_decision_by_rounding_warns(argv, monkeypatch, tmp_path, capsys):
    # F(xbar) and Y have the eigenvalues 1 and 0; rank_tol = 1 + 1e-15
    # splits them by rounding, rank_tol = 1 + 1e-13 and the default do not
    def run(*flags):
        report = tmp_path / "report.json"
        code = run_cli(*argv, *flags, "--json", str(report))
        return code, report.read_text(), capsys.readouterr().err

    assert run()[2] == ""
    assert run("--rank-tol", repr(1.0 + 1e-13))[2] == ""
    code, report, err = run("--rank-tol", repr(1.0 + 1e-15))
    assert err.count("\n") == 1 and err.startswith("warning: ")
    # the warning is the only change: the same run without it
    monkeypatch.setattr(cli, "_RANK_ROUNDING", -1.0)
    assert run("--rank-tol", repr(1.0 + 1e-15)) == (code, report, "")


def _p1_with_hessian(tmp_path, lower):
    obj = json.loads((DATA / "p1.json").read_text())
    obj["f"]["h"] = lower
    path = tmp_path / "huge_hessian.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_huge_finite_hessian_gives_finite_growth_ratio(tmp_path, capsys):
    # averaging h + h.T overflowed to inf, and the NaN ratios read as a pass
    path = _p1_with_hessian(tmp_path, [1e308, 0, 0])
    report_path = tmp_path / "report.json"
    argv = ["growth", path, "--epsilon", "0.1", "--beta", "0.1"]
    assert run_cli(*argv, "--json", str(report_path)) == 0
    capsys.readouterr()
    result = json.loads(report_path.read_text())["result"]
    assert result["min_ratio"] == pytest.approx(10.0)
    assert result["violations"] == 0


def test_nan_in_a_report_exits_4(tmp_path, capsys):
    # x.h.x overflows to inf - inf = NaN on this ball; a NaN is never a pass
    path = _p1_with_hessian(tmp_path, [1e308, 1e308, 1e308])
    argv = ["growth", path, "--epsilon", "10", "--beta", "0.1"]
    assert run_cli(*argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: numerical anomaly:" in captured.err

    report_path = tmp_path / "report.json"
    assert run_cli(*argv, "--json", str(report_path)) == 4
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, ERROR_SCHEMA)
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


def test_report_keys_match_their_schemas():
    # jsonschema accepts extra keys, so a key missing from the schema would
    # pass validation unnoticed
    problem, xbar = problem_from_json(json.loads((DATA / "p1.json").read_text()))
    report = sosc.check_sosc(problem, xbar, n_dirs=8)
    growth = sosc.verify_growth(problem, xbar, epsilon=0.1, beta=0.1, n_samples=10)
    result = REPORT_SCHEMA["check-sosc"]["properties"]["result"]
    certificate = result["properties"]["certificates"]["items"]
    assert report.certificates
    assert set(report.to_json()) == set(result["properties"])
    assert set(report.certificates[0].to_json()) == set(certificate["properties"])
    growth_result = REPORT_SCHEMA["growth"]["properties"]["result"]
    assert set(growth.to_json()) == set(growth_result["properties"])


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
    "flag, value, message",
    [
        ("--radius", "nan", "radius must be finite and positive"),
        ("--radius", "inf", "radius must be finite and positive"),
        ("--radius", "-1", "radius must be finite and positive"),
        ("--radius", "0", "radius must be finite and positive"),
        ("--samples", "-1", "n_samples must be nonnegative"),
    ],
)
def test_subderivative_rejects_bad_sampling_parameters(flag, value, message, capsys):
    assert run_cli("subderivative", str(DATA / "triple_basic.json"), flag, value) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("radius", ["1e300", "1e307", "1.7e308"])
def test_overflowing_radius_exits_4(radius, tmp_path, capsys):
    # a finite radius whose samples overflow the norm: an infinite slack
    # used to pass every feasibility test and exit 0 with quotients near -1e300
    argv = ("subderivative", str(DATA / "triple_basic.json"), "--radius", radius, "--samples", "4")
    assert run_cli(*argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numerical anomaly:")

    report_path = tmp_path / "report.json"
    assert run_cli(*argv, "--json", str(report_path)) == 4
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, ERROR_SCHEMA)
    assert report["error"]["kind"] == "numerical_anomaly"
    assert report["options"]["radius"] == float(radius)


@pytest.mark.parametrize(
    "argv",
    [
        ("check-sosc", "p1.json", "--dirs", "16"),
        ("growth", "p1.json", "--epsilon", "0.1", "--beta", "0.01", "--samples", "50"),
        ("subderivative", "triple_basic.json", "--samples", "4"),
    ],
)
def test_unwritable_json_path_exits_3(argv, tmp_path, capsys):
    # the run completes; writing its report fails on a missing directory
    target = tmp_path / "missing" / "report.json"
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert run_cli(*argv, "--json", str(target)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["f"].pop("g"), "problem JSON missing required field: f.g"),
        (lambda obj: obj.update(F=[]), "problem JSON missing required field: F.A0"),
        (lambda obj: obj["F"].update(A=5), "malformed problem JSON: 'int' object is not iterable"),
        (lambda obj: obj["f"].update(g=None), "gradient/Hessian shapes inconsistent"),
        (lambda obj: obj.update(m=2.5), "m must be an integer, got 2.5"),
        (lambda obj: obj.update(xbar=[math.nan, 0.0]), "xbar must be finite"),
        (lambda obj: obj.update(xbar=[10**400, 0]),
         "malformed problem JSON: int too large to convert to float"),
    ],
)
def test_malformed_problem_fields_exit_3(tmp_path, capsys, edit, message):
    obj = json.loads((DATA / "p1.json").read_text())
    edit(obj)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert run_cli("check-sosc", str(path)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("check-sosc", "p1_negated.json", "--dirs", "16"),
        ("growth", "p1.json", "--epsilon", "0.1", "--beta", "0.1", "--samples", "50"),
        ("subderivative", "triple_basic.json", "--samples", "8"),
    ],
)
@pytest.mark.parametrize("flag", ["--tol", "--rank-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8"])
def test_non_finite_tolerances_exit_3(argv, flag, value, capsys):
    # a NaN --tol used to empty the critical cone and pass a refuted point
    with pytest.raises(SystemExit) as exc:
        run_cli(argv[0], str(DATA / argv[1]), *argv[2:], f"{flag}={value}")
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    if argv[0] == "growth" and flag == "--rank-tol":
        # growth decides rank at the default rank tolerance only
        assert "unrecognized arguments: --rank-tol" in captured.err
    else:
        assert f"argument {flag}: must be a finite number > 0" in captured.err


def test_check_sosc_rejects_cert_and_margin_tol_flags(capsys):
    # the multiplier search's and the margin's tolerances are constants
    for flag, value in (("--cert-tol", "1e-7"), ("--margin-tol", "1e-9")):
        with pytest.raises(SystemExit) as exc:
            run_cli("check-sosc", str(DATA / "p1.json"), flag, value)
        assert exc.value.code == 3
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixture, field, message",
    [
        ("p1.json", '"n": 2', "n must be an integer, got inf"),
        ("triple_basic.json", '"m": 2', "m must be an integer, got inf"),
    ],
)
def test_overflowing_integer_fields_exit_3(tmp_path, capsys, fixture, field, message):
    # json reads 1e999 as inf; int(inf) raised OverflowError, which exited 1
    text = (DATA / fixture).read_text()
    assert field in text
    path = tmp_path / fixture
    path.write_text(text.replace(field, field.replace("2", "1e999"), 1))
    command = "subderivative" if fixture.startswith("triple") else "check-sosc"
    assert run_cli(command, str(path)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "p1.json"),  # --epsilon and --beta are required
        ("check-sosc", "p1.json", "--dirs", "abc"),
        ("check-sosc", "p1.json", "--tol", "abc"),
        ("check-sosc", "p1.json", "--no-such-flag"),
        ("no-such-command",),
        (),
    ],
)
def test_usage_errors_exit_3(argv, capsys):
    # exit 2 is INCONCLUSIVE; argparse's own usage exit would collide with it
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 3
    assert "usage: nsdpcheck" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("--help",), ("check-sosc", "--help")])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 0
    assert "usage: nsdpcheck" in capsys.readouterr().out


def _subtree_paths(doc, prefix=()):
    """Key/index paths of every subtree of a JSON document, the root first."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, child in children:
        yield from _subtree_paths(child, prefix + (key,))


def _replace_subtree(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# values that have broken parsers before: huge, infinite, NaN, fractional
_EXTREMES = st.sampled_from([10**400, 1e308, -1e308, 5e-324, math.inf, math.nan, 2.5, -1, 0])
_JSON_VALUES = _EXTREMES | st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | _EXTREMES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)

_FUZZ_RUNS = [
    ("check-sosc", "p1.json", ["--dirs", "2"]),
    ("growth", "p1.json", ["--epsilon", "0.1", "--beta", "0.1", "--samples", "50"]),
    ("subderivative", "triple_basic.json", ["--samples", "50"]),
]


@pytest.mark.parametrize("command, fixture, flags", _FUZZ_RUNS)
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_arbitrary_json_subtree_exits_0_to_4(command, fixture, flags, data):
    # any input file ends in an exit code, never in an escaped exception, and
    # every report written validates: a result below exit 3, an error above
    doc = json.loads((DATA / fixture).read_text())
    path = data.draw(st.sampled_from(list(_subtree_paths(doc))), label="path")
    value = data.draw(_JSON_VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "input.json"
        problem.write_text(json.dumps(_replace_subtree(doc, path, value)))
        report_path = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(problem), *flags, "--json", str(report_path)])
        report = json.loads(report_path.read_text()) if report_path.exists() else None
    assert code in (0, 1, 2, 3, 4)
    if code <= 2:
        jsonschema.validate(report, REPORT_SCHEMA[command])
    elif report is not None:
        jsonschema.validate(report, ERROR_SCHEMA)
