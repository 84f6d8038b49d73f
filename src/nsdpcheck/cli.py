"""Command-line front end.

Three subcommands: ``check-sosc`` (second-order sufficient condition at the
candidate point of a problem file), ``subderivative`` (closed form and
sampling oracle for a (Y, Ystar, V) triple) and ``growth`` (sampled quadratic
growth).  Reports go to stdout as text, or to a file as JSON with
``--json PATH``.

Exit codes: 0 success / condition verified, 1 condition refuted,
2 inconclusive search, 3 input or hypothesis error, 4 numerical anomaly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import sosc
from .cone import dist_psd
from .nlsdp import eval_F, problem_from_json
from .subderivative import (
    HypothesisViolation,
    NoFeasibleSampleError,
    SAMPLING_N,
    SAMPLING_RADIUS,
    SAMPLING_T_GRID,
    ToleranceAnomalyError,
    estimate_from_trace,
    second_subderivative,
    subderivative_sampling_trace,
)
from .symmat import JacobiConvergenceError, SymMat, eigen_decompose

SCHEMA_VERSION = "1"

_SYMMAT_SCHEMA = {
    "type": "object",
    "required": ["m", "lower"],
    "properties": {
        "m": {"type": "integer", "minimum": 1},
        "lower": {"type": "array", "items": {"type": "number"}},
    },
}

_NUMBER_OR_NULL = {"type": ["number", "null"]}

_CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": [
        "direction",
        "margin",
        "alpha",
        "ystar",
        "stationarity_residual",
        "normal_cone_slack",
    ],
    "properties": {
        "direction": {"type": "array", "items": {"type": "number"}},
        "margin": {"type": "number"},
        "alpha": {"type": "number"},
        "ystar": _SYMMAT_SCHEMA,
        "stationarity_residual": {"type": "number"},
        "normal_cone_slack": {"type": "number"},
    },
}

_BASE_PROPERTIES = {
    "schema_version": {"const": SCHEMA_VERSION},
    "command": {"type": "string"},
    "options": {"type": "object"},
}

REPORT_SCHEMA = {
    "check-sosc": {
        "type": "object",
        "required": ["schema_version", "command", "options", "problem", "result"],
        "properties": {
            **_BASE_PROPERTIES,
            "problem": {
                "type": "object",
                "required": ["n", "m", "xbar", "f_eigenvalues", "pi", "omega", "rank_tol"],
                "properties": {
                    "n": {"type": "integer"},
                    "m": {"type": "integer"},
                    "xbar": {"type": "array", "items": {"type": "number"}},
                    "f_eigenvalues": {"type": "array", "items": {"type": "number"}},
                    "pi": {"type": "array", "items": {"type": "integer"}},
                    "omega": {"type": "array", "items": {"type": "integer"}},
                    "rank_tol": {"type": "number"},
                },
            },
            "result": {
                "type": "object",
                "required": [
                    "verdict",
                    "directions_checked",
                    "min_margin",
                    "worst_direction",
                    "certificates",
                    "diagnostics",
                ],
                "properties": {
                    "verdict": {
                        "enum": [
                            sosc.VERIFIED_SAMPLED,
                            sosc.FAILED_AT_DIRECTION,
                            sosc.CRITICAL_CONE_TRIVIAL,
                            sosc.INCONCLUSIVE,
                        ]
                    },
                    "directions_checked": {"type": "integer"},
                    "min_margin": _NUMBER_OR_NULL,
                    "worst_direction": {
                        "type": ["array", "null"],
                        "items": {"type": "number"},
                    },
                    "certificates": {"type": "array", "items": _CERTIFICATE_SCHEMA},
                    "diagnostics": {"type": "string"},
                },
            },
        },
    },
    "growth": {
        "type": "object",
        "required": ["schema_version", "command", "options", "problem", "result"],
        "properties": {
            **_BASE_PROPERTIES,
            "problem": {"type": "object"},
            "result": {
                "type": "object",
                "required": [
                    "epsilon",
                    "beta",
                    "samples",
                    "violations",
                    "min_ratio",
                    "worst_point",
                    "feasible_samples",
                    "feasible_violations",
                    "feasible_min_ratio",
                ],
                "properties": {
                    "epsilon": {"type": "number"},
                    "beta": {"type": "number"},
                    "samples": {"type": "integer"},
                    "violations": {"type": "integer"},
                    "min_ratio": _NUMBER_OR_NULL,
                    "worst_point": {"type": "array", "items": {"type": "number"}},
                    "feasible_samples": {"type": "integer"},
                    "feasible_violations": {"type": "integer"},
                    "feasible_min_ratio": _NUMBER_OR_NULL,
                },
            },
        },
    },
    "subderivative": {
        "type": "object",
        "required": ["schema_version", "command", "options", "triple", "result"],
        "properties": {
            **_BASE_PROPERTIES,
            "triple": {
                "type": "object",
                "required": ["m", "y_eigenvalues", "pi", "omega", "rank_tol"],
            },
            "result": {
                "type": "object",
                "required": ["closed_form", "sampling_estimate", "trace"],
                "properties": {
                    "closed_form": {
                        "type": "object",
                        "required": ["tag", "value"],
                        "properties": {
                            "tag": {
                                "enum": ["finite", "plus_infinity", "minus_infinity"]
                            },
                            "value": _NUMBER_OR_NULL,
                        },
                    },
                    "sampling_estimate": _NUMBER_OR_NULL,
                    "trace": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "t",
                                "feasible_samples",
                                "min_quotient",
                                "recovery_quotient",
                            ],
                        },
                    },
                },
            },
        },
    },
}


# Reports of a run that stopped on an error instead of a result.
ERROR_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "options", "error"],
    "properties": {
        **_BASE_PROPERTIES,
        "error": {
            "type": "object",
            "required": ["kind", "message"],
            "properties": {
                "kind": {"enum": ["hypothesis_violation", "numerical_anomaly"]},
                "message": {"type": "string"},
            },
        },
    },
}

# Internal numerical failures: not a verdict on the input, so never exit 1.
_NUMERICAL_ANOMALIES = (
    ToleranceAnomalyError,
    JacobiConvergenceError,
    np.linalg.LinAlgError,
)


class _InputError(Exception):
    pass


def _json_safe(value):
    """Recursively convert report payloads to JSON-clean types."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"malformed JSON in {path}: {exc}") from exc


def _emit(report: dict, json_path: str | None, text_lines: list[str]) -> None:
    if json_path:
        payload = json.dumps(_json_safe(report), indent=2, sort_keys=True)
        with open(json_path, "w") as fh:
            fh.write(payload + "\n")
        print(f"report written to {json_path}")
    else:
        for line in text_lines:
            print(line)


def _error_report(args, kind: str, exc: Exception) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "options": {"tol": args.tol, "rank_tol": args.rank_tol},
        "error": {"kind": kind, "message": str(exc)},
    }


def _fmt_vec(vec) -> str:
    return "[" + ", ".join(f"{float(v):.9g}" for v in np.atleast_1d(vec)) + "]"


# -- subcommands ---------------------------------------------------------------


def _problem_summary(problem, xbar, d) -> dict:
    return {
        "n": problem.n,
        "m": problem.m,
        "xbar": list(xbar),
        "f_eigenvalues": list(d.eigenvalues),
        "pi": list(d.pi),
        "omega": list(d.omega),
        "rank_tol": d.rank_tol,
    }


def cmd_check_sosc(args) -> int:
    obj = _load_json_file(args.problem)
    try:
        problem, xbar = problem_from_json(obj)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    opts = sosc.SoscOptions(
        tol=args.tol,
        rank_tol=args.rank_tol,
        cert_tol=args.cert_tol,
        margin_tol=args.margin_tol,
        n_dirs=args.dirs,
        seed=args.seed,
    )
    try:
        report = sosc.check_sosc(problem, xbar, opts)
    except sosc.InfeasiblePointError as exc:
        raise _InputError(f"{exc} (dist to PSD cone: {exc.distance:.6e})") from exc
    d = report.decomposition

    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "check-sosc",
        "options": {
            "tol": opts.tol,
            "rank_tol": opts.rank_tol,
            "cert_tol": opts.cert_tol,
            "margin_tol": opts.margin_tol,
            "dirs": opts.n_dirs,
            "seed": opts.seed,
        },
        "problem": _problem_summary(problem, xbar, d),
        "result": {
            "verdict": report.verdict,
            "directions_checked": report.directions_checked,
            "min_margin": report.min_margin,
            "worst_direction": report.worst_direction,
            "certificates": [
                {
                    "direction": cert.direction,
                    "margin": cert.margin,
                    "alpha": cert.candidate.alpha,
                    "ystar": cert.candidate.ystar.to_json(),
                    "stationarity_residual": cert.candidate.stationarity_residual,
                    "normal_cone_slack": cert.candidate.normal_cone_slack,
                }
                for cert in report.certificates
            ],
            "diagnostics": report.diagnostics,
        },
    }
    lines = [
        f"problem: n={problem.n} m={problem.m} xbar={_fmt_vec(xbar)}",
        f"F(xbar) eigenvalues: {_fmt_vec(d.eigenvalues)}",
        f"pi: {list(d.pi)}  omega: {list(d.omega)}  (rank_tol {d.rank_tol:.3e})",
        f"verdict: {report.verdict}",
        f"directions checked: {report.directions_checked}",
    ]
    if math.isfinite(report.min_margin):
        lines.append(f"min margin: {report.min_margin:.9g}")
    if report.worst_direction is not None:
        lines.append(f"worst direction: {_fmt_vec(report.worst_direction)}")
    for cert in report.certificates:
        lines.append(
            f"  direction {_fmt_vec(cert.direction)}: margin {cert.margin:.9g}, "
            f"alpha {cert.candidate.alpha:.9g}, "
            f"stationarity {cert.candidate.stationarity_residual:.3e}, "
            f"slack {cert.candidate.normal_cone_slack:.3e}"
        )
    lines.extend("note: " + ln for ln in report.diagnostics.splitlines())
    _emit(payload, args.json, lines)
    return {
        sosc.VERIFIED_SAMPLED: 0,
        sosc.CRITICAL_CONE_TRIVIAL: 0,
        sosc.FAILED_AT_DIRECTION: 1,
        sosc.INCONCLUSIVE: 2,
    }[report.verdict]


def cmd_growth(args) -> int:
    obj = _load_json_file(args.problem)
    try:
        problem, xbar = problem_from_json(obj)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    fx = eval_F(problem, xbar)
    infeas = dist_psd(fx)
    if infeas > args.tol:
        raise _InputError(
            f"F(xbar) is not PSD (dist to PSD cone: {infeas:.6e}); "
            "growth at an infeasible point is not defined"
        )
    report = sosc.verify_growth(
        problem,
        xbar,
        epsilon=args.epsilon,
        beta=args.beta,
        n_samples=args.samples,
        seed=args.seed,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "growth",
        "options": {
            "epsilon": args.epsilon,
            "beta": args.beta,
            "samples": args.samples,
            "seed": args.seed,
            "tol": args.tol,
        },
        "problem": {"n": problem.n, "m": problem.m, "xbar": list(xbar)},
        "result": {
            "epsilon": report.epsilon,
            "beta": report.beta,
            "samples": report.samples,
            "violations": report.violations,
            "min_ratio": report.min_ratio,
            "worst_point": report.worst_point,
            "feasible_samples": report.feasible_samples,
            "feasible_violations": report.feasible_violations,
            "feasible_min_ratio": report.feasible_min_ratio,
        },
    }
    lines = [
        f"problem: n={problem.n} m={problem.m} xbar={_fmt_vec(xbar)}",
        f"epsilon: {report.epsilon:.9g}  beta: {report.beta:.9g}",
        f"samples: {report.samples}  violations: {report.violations}",
        f"min ratio max(f-gap, dist)/||x-xbar||^2: {report.min_ratio:.9g}",
        f"worst point: {_fmt_vec(report.worst_point)}",
        f"feasible samples: {report.feasible_samples}  "
        f"feasible violations: {report.feasible_violations}",
    ]
    if report.feasible_min_ratio is not None:
        lines.append(f"feasible-restricted min ratio: {report.feasible_min_ratio:.9g}")
    _emit(payload, args.json, lines)
    return 0 if report.violations == 0 else 1


def cmd_subderivative(args) -> int:
    obj = _load_json_file(args.triple)
    try:
        y = SymMat.from_json(obj["Y"])
        ystar = SymMat.from_json(obj["Ystar"])
        v = SymMat.from_json(obj["V"])
    except (KeyError, TypeError) as exc:
        raise _InputError(f'triple JSON needs "Y", "Ystar" and "V": {exc}') from exc
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if not (y.m == ystar.m == v.m):
        raise _InputError("Y, Ystar, V must share one dimension")
    try:
        d = eigen_decompose(y, args.rank_tol)
        closed = second_subderivative(d, ystar, v, args.tol)
        trace = subderivative_sampling_trace(
            y,
            ystar,
            v,
            t_grid=SAMPLING_T_GRID,
            radius=args.radius,
            n_samples=args.samples,
            seed=args.seed,
            rank_tol=args.rank_tol,
            tol=args.tol,
            d=d,
        )
    except HypothesisViolation as exc:
        _emit(
            _error_report(args, "hypothesis_violation", exc),
            args.json,
            [f"hypothesis violation: {exc}"],
        )
        return 3
    try:
        estimate = estimate_from_trace(trace)
    except NoFeasibleSampleError:
        estimate = None
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "subderivative",
        "options": {
            "tol": args.tol,
            "rank_tol": args.rank_tol,
            "samples": args.samples,
            "radius": args.radius,
            "seed": args.seed,
        },
        "triple": {
            "m": y.m,
            "y_eigenvalues": list(d.eigenvalues),
            "pi": list(d.pi),
            "omega": list(d.omega),
            "rank_tol": d.rank_tol,
        },
        "result": {
            "closed_form": closed.to_json(),
            "sampling_estimate": estimate,
            "trace": trace,
        },
    }
    lines = [
        f"Y eigenvalues: {_fmt_vec(d.eigenvalues)}",
        f"pi: {list(d.pi)}  omega: {list(d.omega)}  (rank_tol {d.rank_tol:.3e})",
        "closed form: "
        + (f"{closed.value:.12g}" if closed.is_finite else closed.tag),
        "sampling estimate: "
        + (f"{estimate:.12g}" if estimate is not None else "no feasible sample"),
        "trace (t, feasible, min quotient, recovery quotient):",
    ]
    for level in trace:
        minq = "-" if level["min_quotient"] is None else f"{level['min_quotient']:.9g}"
        recq = (
            "-"
            if level["recovery_quotient"] is None
            else f"{level['recovery_quotient']:.9g}"
        )
        lines.append(
            f"  t={level['t']:.3e}  n={level['feasible_samples']}  "
            f"min={minq}  recovery={recq}"
        )
    _emit(payload, args.json, lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsdpcheck",
        description="Second-order sufficient condition checks for nonlinear "
        "semidefinite programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", type=float, default=1e-8, help="membership tolerance")
        sp.add_argument(
            "--rank-tol",
            dest="rank_tol",
            type=float,
            default=None,
            help="eigenvalue rank tolerance (default: scaled automatic)",
        )
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", metavar="PATH", default=None, help="write JSON report")

    sp = sub.add_parser("check-sosc", help="verify the sufficient condition at xbar")
    sp.add_argument("problem", help="problem JSON file with xbar")
    common(sp)
    sp.add_argument("--cert-tol", dest="cert_tol", type=float, default=1e-7)
    sp.add_argument("--margin-tol", dest="margin_tol", type=float, default=1e-9)
    sp.add_argument("--dirs", type=int, default=512, help="random direction samples")
    sp.set_defaults(func=cmd_check_sosc)

    sp = sub.add_parser("subderivative", help="closed form vs sampling oracle")
    sp.add_argument("triple", help='JSON file with "Y", "Ystar", "V"')
    common(sp)
    sp.add_argument("--samples", type=int, default=SAMPLING_N, help="samples per step")
    sp.add_argument("--radius", type=float, default=SAMPLING_RADIUS)
    sp.set_defaults(func=cmd_subderivative)

    sp = sub.add_parser("growth", help="sampled quadratic growth around xbar")
    sp.add_argument("problem", help="problem JSON file with xbar")
    common(sp)
    sp.add_argument("--epsilon", type=float, required=True, help="ball radius")
    sp.add_argument("--beta", type=float, required=True, help="growth constant")
    sp.add_argument("--samples", type=int, default=10_000)
    sp.set_defaults(func=cmd_growth)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ANOMALIES as exc:
        # LinAlgError is a ValueError, so this clause comes first.
        print(f"error: numerical anomaly: {exc}", file=sys.stderr)
        if args.json:
            _emit(_error_report(args, "numerical_anomaly", exc), args.json, [])
        return 4
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
