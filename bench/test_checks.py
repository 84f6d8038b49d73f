"""Self-tests of the benchmark's output checks: each check accepts the
program's real report and rejects the same report with one field tampered.

    python3 -m pytest bench -q
"""

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import instances  # noqa: E402
from nsdpcheck import cli  # noqa: E402

SEED = 5


def report_for(inst, name):
    work = BENCH / "out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    problem, report = work / f"{name}-input.json", work / f"{name}-report.json"
    problem.write_text(json.dumps(inst.document))
    with redirect_stdout(io.StringIO()):
        cli.main([inst.argv[0], str(problem), *inst.argv[1:], "--json", str(report)])
    return json.loads(report.read_text())


@pytest.fixture(scope="module")
def cases():
    """(instance, report) of the first instance of every workload, plus the
    first rotated sosc-sampler instance."""
    out = {}
    for name, make in instances.WORKLOADS.items():
        insts = make(SEED)
        out[name] = (insts[0], report_for(insts[0], name))
        if name == "sosc-sampler":
            rotated = next(i for i in insts if i.expect["rotated"])
            out["rotated"] = (rotated, report_for(rotated, "rotated"))
    return out


def check(name, inst, report):
    workload = "sosc-sampler" if name == "rotated" else name
    checks.CHECKERS[workload](inst.document, inst.expect, report)


def rejects(cases, name, tamper, message):
    inst, report = cases[name]
    bad = copy.deepcopy(report)
    tamper(bad, inst)
    with pytest.raises(checks.CheckError, match=message):
        check(name, inst, bad)


@pytest.mark.parametrize("name", list(instances.WORKLOADS))
def test_real_reports_pass(cases, name):
    check(name, *cases[name])


def test_rotated_p1_is_the_known_fault(cases):
    inst, report = cases["rotated"]
    assert report["result"]["verdict"] == "CRITICAL_CONE_TRIVIAL"
    with pytest.raises(checks.KnownFault):
        check("rotated", inst, report)


def test_trivial_verdict_on_plain_p1_is_incorrect(cases):
    def tamper(r, inst):
        r["result"].update(verdict="CRITICAL_CONE_TRIVIAL", directions_checked=0, certificates=[])

    rejects(cases, "sosc-sampler", tamper, "verdict")


def cert(r):
    return r["result"]["certificates"][0]


def ystar_off_kernel(r, inst):
    """Add -1e-3 times the projector onto the range of F(xbar) to Ystar."""
    p = checks.Problem(inst.document)
    lam, vec = np.linalg.eigh(p.F(p.xbar))
    cols = vec[:, np.abs(lam) > 1e-8]
    cert(r)["ystar"] = instances.symmat_json(checks.dense(cert(r)["ystar"]) - 1e-3 * cols @ cols.T)


SOSC_TAMPERS = {
    "verdict": lambda r, inst: r["result"].update(verdict="FAILED_AT_DIRECTION"),
    "min_margin": lambda r, inst: r["result"].update(
        min_margin=r["result"]["min_margin"] * (1 + 1e-3)
    ),
    "one certificate per direction": lambda r, inst: r["result"].update(
        directions_checked=r["result"]["directions_checked"] + 1
    ),
    "smallest certificate margin": lambda r, inst: [
        c.update(margin=c["margin"] * (1 + 1e-9)) for c in r["result"]["certificates"]
    ],
    "alpha": lambda r, inst: cert(r).update(alpha=-1e-3),
    "Ystar has eigenvalue": lambda r, inst: cert(r)["ystar"].update(
        lower=[-v for v in cert(r)["ystar"]["lower"]]
    ),
    r"Ystar F\(xbar\)": ystar_off_kernel,
    "stationarity": lambda r, inst: cert(r).update(alpha=cert(r)["alpha"] * (1 + 1e-3)),
    "objective slope": lambda r, inst: cert(r).update(
        direction=list(np.array(cert(r)["direction"]) + 1e-3 * np.sign(inst.document["f"]["g"]))
    ),
    "tangent cone": lambda r, inst: cert(r).update(
        direction=list(np.array(cert(r)["direction"]) - 1e-3 * np.sign(inst.document["f"]["g"]))
    ),
    "certificate margin": lambda r, inst: cert(r).update(margin=cert(r)["margin"] + 1e-3),
}


@pytest.mark.parametrize("message", list(SOSC_TAMPERS))
def test_sosc_sampler_tampered(cases, message):
    rejects(cases, "sosc-sampler", SOSC_TAMPERS[message], message)


@pytest.mark.parametrize(
    "message, tamper",
    [
        ("one critical direction", lambda r, inst: r["result"].update(directions_checked=2)),
        ("min_margin", lambda r, inst: r["result"].update(
            min_margin=r["result"]["min_margin"] * (1 - 1e-3))),
        ("certificate margin", lambda r, inst: cert(r).update(margin=cert(r)["margin"] - 1e-3)),
    ],
)
def test_sosc_multiplier_tampered(cases, message, tamper):
    rejects(cases, "sosc-multiplier", tamper, message)


def largest_axis_point(r, inst):
    """Move the worst point to the axis point with the largest ratio, and
    report that ratio: consistent at the point, above the other axis points."""
    p = checks.Problem(inst.document)
    eps = inst.expect["epsilon"]
    points = [p.xbar + s * eps * e for e in np.eye(p.n) for s in (1, -1, 0.5, -0.5)]
    x = max(points, key=lambda x: checks.growth_ratio(p, x))
    r["result"].update(worst_point=list(x), min_ratio=checks.growth_ratio(p, x))


@pytest.mark.parametrize(
    "message, tamper",
    [
        ("samples", lambda r, inst: r["result"].update(samples=r["result"]["samples"] - 1)),
        ("min_ratio at worst_point", lambda r, inst: r["result"].update(
            min_ratio=r["result"]["min_ratio"] * (1 + 1e-6))),
        ("outside the epsilon-ball", lambda r, inst: r["result"].update(
            worst_point=list(1.5 * inst.expect["epsilon"] * np.ones(6) / np.sqrt(6)))),
        ("axis point", largest_axis_point),
        ("violations", lambda r, inst: r["result"].update(violations=1)),
        ("echoed", lambda r, inst: r["result"].update(beta=0.5)),
    ],
)
def test_growth_tampered(cases, message, tamper):
    rejects(cases, "growth", tamper, message)


def finest(r):
    return r["result"]["trace"][-1]


@pytest.mark.parametrize(
    "message, tamper",
    [
        ("closed form tagged", lambda r, inst: r["result"].update(
            closed_form={"tag": "plus_infinity", "value": None})),
        ("closed form", lambda r, inst: r["result"]["closed_form"].update(
            value=r["result"]["closed_form"]["value"] * (1 + 1e-6))),
        ("undercuts", lambda r, inst: r["result"].update(
            sampling_estimate=r["result"]["closed_form"]["value"] - 2e-6)),
        ("finest recovery quotient", lambda r, inst: finest(r).update(
            recovery_quotient=finest(r)["recovery_quotient"] + 2e-6)),
        ("min quotient above", lambda r, inst: finest(r).update(
            min_quotient=finest(r)["recovery_quotient"] + 1e-9)),
        ("not decreasing", lambda r, inst: r["result"]["trace"].reverse()),
        ("eigenvalues", lambda r, inst: r["triple"]["y_eigenvalues"].__setitem__(
            0, r["triple"]["y_eigenvalues"][0] + 1e-6)),
        (r"\|pi\|", lambda r, inst: r["triple"]["pi"].append(r["triple"]["omega"].pop(0))),
    ],
)
def test_subderivative_tampered(cases, message, tamper):
    rejects(cases, "subderivative", tamper, message)
