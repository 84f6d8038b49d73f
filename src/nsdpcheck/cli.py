"""Command-line front end.

Three subcommands: ``check-sosc`` (second-order sufficient condition at the
candidate point of a problem file), ``subderivative`` (closed form and
sampling oracle for a (Y, Ystar, V) triple) and ``growth`` (sampled quadratic
growth).  Each run, a result or an error, makes one JSON report document.
``--json PATH`` writes it to a file; without it the document goes to stdout
as text, one ``path: value`` line per leaf (``_text_lines``).

Exit codes: 0 success / condition verified, 1 condition refuted,
2 inconclusive search, 3 input, usage, allocation, hypothesis or output
error (the report cannot be written), 4 numerical anomaly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import sosc
from .cone import DEFAULT_TOL, project_normal_cone
from .nlsdp import _field, problem_from_json
from .subderivative import (
    HypothesisViolation,
    NoFeasibleSampleError,
    SAMPLING_N,
    SAMPLING_RADIUS,
    ToleranceAnomalyError,
    estimate_from_trace,
    require_multiplier,
    second_subderivative,
    subderivative_sampling_trace,
)
from .symmat import SymMat, eigen_decompose

SCHEMA_VERSION = "1"

_NUMBER = {"type": "number"}
_INTEGER = {"type": "integer"}
_NUMBER_OR_NULL = {"type": ["number", "null"]}
_NUMBERS = {"type": "array", "items": _NUMBER}
_INTEGERS = {"type": "array", "items": _INTEGER}


def _object(**properties) -> dict:
    """Schema of an object that requires every property it lists."""
    return {"type": "object", "required": list(properties), "properties": properties}


_HEADER = {
    "schema_version": {"const": SCHEMA_VERSION},
    "command": {"type": "string"},
    "options": {"type": "object"},
}

REPORT_SCHEMA = {
    "check-sosc": _object(
        **_HEADER,
        problem=_object(
            n=_INTEGER,
            m=_INTEGER,
            xbar=_NUMBERS,
            f_eigenvalues=_NUMBERS,
            pi=_INTEGERS,
            omega=_INTEGERS,
            rank_tol=_NUMBER,
        ),
        result=_object(
            verdict={
                "enum": [
                    sosc.VERIFIED_SAMPLED,
                    sosc.FAILED_AT_DIRECTION,
                    sosc.CRITICAL_CONE_TRIVIAL,
                    sosc.INCONCLUSIVE,
                ]
            },
            directions_checked=_INTEGER,
            min_margin=_NUMBER_OR_NULL,
            worst_direction={"type": ["array", "null"], "items": _NUMBER},
            certificates={
                "type": "array",
                "items": _object(
                    direction=_NUMBERS,
                    margin=_NUMBER,
                    alpha=_NUMBER,
                    ystar=_object(m={"type": "integer", "minimum": 1}, lower=_NUMBERS),
                    stationarity_residual=_NUMBER,
                    normal_cone_slack=_NUMBER,
                ),
            },
            diagnostics={"type": "string"},
        ),
    ),
    "growth": _object(
        **_HEADER,
        problem=_object(n=_INTEGER, m=_INTEGER, xbar=_NUMBERS),
        result=_object(
            epsilon=_NUMBER,
            beta=_NUMBER,
            samples=_INTEGER,
            violations=_INTEGER,
            min_ratio=_NUMBER_OR_NULL,
            worst_point=_NUMBERS,
            feasible_samples=_INTEGER,
            feasible_violations=_INTEGER,
            feasible_min_ratio=_NUMBER_OR_NULL,
        ),
    ),
    "subderivative": _object(
        **_HEADER,
        triple=_object(
            m=_INTEGER,
            y_eigenvalues=_NUMBERS,
            pi=_INTEGERS,
            omega=_INTEGERS,
            rank_tol=_NUMBER,
        ),
        result=_object(
            closed_form=_object(
                tag={"enum": ["finite", "plus_infinity"]},
                value=_NUMBER_OR_NULL,
            ),
            sampling_estimate=_NUMBER_OR_NULL,
            trace={
                "type": "array",
                "items": _object(
                    t=_NUMBER,
                    feasible_samples=_INTEGER,
                    min_quotient=_NUMBER_OR_NULL,
                    recovery_quotient=_NUMBER_OR_NULL,
                ),
            },
        ),
    ),
}

# Reports of a run that stopped on an error instead of a result.
ERROR_SCHEMA = _object(
    **_HEADER,
    error=_object(
        kind={"enum": ["hypothesis_violation", "numerical_anomaly"]},
        message={"type": "string"},
    ),
)

# Internal numerical failures: not a verdict on the input, so never exit 1.
# FloatingPointError is an overflow in a computed value, or a NaN met while a
# report is written.
_NUMERICAL_ANOMALIES = (ToleranceAnomalyError, np.linalg.LinAlgError, FloatingPointError)

# Parsed arguments that are not options of the run.
_NOT_OPTIONS = {"command", "func", "json", "problem", "triple"}

# An eigenvalue whose modulus lies within this share of the largest modulus
# of the rank tolerance falls into pi or omega by rounding.
_RANK_ROUNDING = 1e-14


def _json_safe(value):
    """Recursively convert report payloads to JSON-clean types: infinities
    become null, and a NaN raises FloatingPointError."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            raise FloatingPointError("NaN in the report")
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _text_lines(node, path: str = ""):
    """The text encoding of a JSON document: one ``path: value`` line per
    leaf in sorted key order, the value being the leaf's JSON.  A list of
    objects (certificates, trace steps) gives one line per element, such as
    ``result.trace[3]: {...}``."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _text_lines(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node and all(isinstance(item, dict) for item in node):
        for i, item in enumerate(node):
            yield f"{path}[{i}]: {json.dumps(item, sort_keys=True)}"
    else:
        yield f"{path}: {json.dumps(node)}"


def _emit(args, body: dict) -> None:
    """Write one report document, result or error: as JSON to the --json
    path, else as text lines to stdout.  The document is built in both
    modes, so a NaN is a numerical anomaly in either."""
    options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    report = _json_safe(
        dict(schema_version=SCHEMA_VERSION, command=args.command, options=options, **body)
    )
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.json}: {exc.strerror or exc}") from exc
        print(f"report written to {args.json}", flush=True)
    else:  # one write: a reader that stops at a line it looks for meets no later write
        sys.stdout.write("".join(f"{line}\n" for line in _text_lines(report)))
        sys.stdout.flush()  # a closed stdout fails here, inside main


def _error(kind: str, exc: Exception) -> dict:
    return {"error": {"kind": kind, "message": str(exc)}}


def _rank_split(d, eigenvalues: str) -> dict:
    """The rank decision of the decomposition d: its eigenvalues, under the
    given key, with pi, omega and rank_tol."""
    return {eigenvalues: d.eigenvalues, "pi": d.pi, "omega": d.omega, "rank_tol": d.rank_tol}


def _warn_rank_rounding(d) -> None:
    """One stderr warning when some |eigenvalue| of d lies within
    _RANK_ROUNDING of the rank tolerance, relative to the largest one (to 1
    when all are 0): rounding, not the matrix, decides its side."""
    moduli = np.abs(d.eigenvalues)
    gap = float(np.abs(moduli - d.rank_tol).min(initial=math.inf))
    top = float(moduli.max(initial=0.0))
    if gap <= _RANK_ROUNDING * (top if top > 0 else 1.0):
        print(
            f"warning: an eigenvalue lies within {gap:.3e} of rank_tol = {d.rank_tol:.3e}; "
            "rounding decides whether it counts as zero",
            file=sys.stderr,
        )


# -- subcommands ---------------------------------------------------------------


def cmd_check_sosc(args) -> int:
    problem, xbar = problem_from_json(_load_json_file(args.problem))
    report = sosc.check_sosc(
        problem, xbar, tol=args.tol, rank_tol=args.rank_tol, n_dirs=args.dirs, seed=args.seed
    )
    d = report.decomposition
    _warn_rank_rounding(d)
    header = {"n": problem.n, "m": problem.m, "xbar": xbar, **_rank_split(d, "f_eigenvalues")}
    _emit(args, {"problem": header, "result": report.to_json()})
    return {
        sosc.VERIFIED_SAMPLED: 0,
        sosc.CRITICAL_CONE_TRIVIAL: 0,
        sosc.FAILED_AT_DIRECTION: 1,
        sosc.INCONCLUSIVE: 2,
    }[report.verdict]


def cmd_growth(args) -> int:
    problem, xbar = problem_from_json(_load_json_file(args.problem))
    report = sosc.verify_growth(
        problem,
        xbar,
        epsilon=args.epsilon,
        beta=args.beta,
        n_samples=args.samples,
        seed=args.seed,
        d=sosc.require_feasible(problem, xbar, args.tol),
    )
    header = {"n": problem.n, "m": problem.m, "xbar": xbar}
    _emit(args, {"problem": header, "result": report.to_json()})
    return 0 if report.violations == 0 else 1


def cmd_subderivative(args) -> int:
    obj = _load_json_file(args.triple)
    try:
        y, ystar, v = (
            SymMat.from_json(_field(obj, key, "triple JSON"), key) for key in ("Y", "Ystar", "V")
        )
    except KeyError as exc:
        raise ValueError(f"triple JSON missing required field: {exc.args[0]}") from exc
    if not (y.m == ystar.m == v.m):
        raise ValueError("Y, Ystar, V must share one dimension")
    try:
        d = eigen_decompose(y, args.rank_tol)
        _warn_rank_rounding(d)
        require_multiplier(d, ystar, args.tol)
        # at the projection of Ystar, where the trace samples
        closed = second_subderivative(d, project_normal_cone(d, ystar), v, args.tol)
        trace = subderivative_sampling_trace(
            d, ystar, v, radius=args.radius, n_samples=args.samples, seed=args.seed, tol=args.tol
        )
    except HypothesisViolation as exc:
        _emit(args, _error("hypothesis_violation", exc))
        return 3
    try:
        estimate = estimate_from_trace(trace)
    except NoFeasibleSampleError:
        estimate = None
    closed_form = {"tag": "finite" if math.isfinite(closed) else "plus_infinity", "value": closed}
    result = {"closed_form": closed_form, "sampling_estimate": estimate, "trace": trace}
    _emit(args, {"triple": {"m": y.m, **_rank_split(d, "y_eigenvalues")}, "result": result})
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # exit 2 means INCONCLUSIVE, so usage errors join the input errors
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def tolerance(text: str) -> float:
    """A finite, positive flag value (a tolerance, the sampling radius or
    the growth ball's radius); NaN would fail every comparison.  argparse
    names the flag in the usage error that either check raises."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def nonnegative(text: str) -> float:
    """A finite flag value >= 0 (the growth constant)."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _integer_at_least(text: str, low: int) -> int:
    """An integer flag value >= low.  argparse names the flag in the usage
    error that either check raises."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def seed(text: str) -> int:
    """A --seed flag: an integer >= 0, as numpy's generators take."""
    return _integer_at_least(text, 0)


def count(text: str) -> int:
    """A --dirs or growth --samples flag: an integer >= 1."""
    return _integer_at_least(text, 1)


def samples(text: str) -> int:
    """A subderivative --samples flag: an integer >= 0; v and its recovery
    points are candidates without any sample."""
    return _integer_at_least(text, 0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and cached for the process.
    parse_args starts each call from a fresh namespace, and the help
    formatter reads the terminal width when it formats."""
    parser = _Parser(
        prog="nsdpcheck",
        description="Second-order sufficient condition checks for nonlinear "
        "semidefinite programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, rank_tol=True):
        sp.add_argument("--tol", type=tolerance, default=DEFAULT_TOL, help="membership tolerance")
        if rank_tol:
            sp.add_argument(
                "--rank-tol",
                dest="rank_tol",
                type=tolerance,
                default=None,
                help="eigenvalue rank tolerance (default: scaled automatic)",
            )
        sp.add_argument("--seed", type=seed, default=0)
        sp.add_argument("--json", metavar="PATH", default=None, help="write JSON report")

    sp = sub.add_parser("check-sosc", help="verify the sufficient condition at xbar")
    sp.add_argument("problem", help="problem JSON file with xbar")
    common(sp)
    sp.add_argument("--dirs", type=count, default=sosc.N_DIRS, help="random direction samples")
    sp.set_defaults(func=cmd_check_sosc)

    sp = sub.add_parser("subderivative", help="closed form vs sampling oracle")
    sp.add_argument("triple", help='JSON file with "Y", "Ystar", "V"')
    common(sp)
    sp.add_argument("--samples", type=samples, default=SAMPLING_N, help="samples per step")
    sp.add_argument("--radius", type=tolerance, default=SAMPLING_RADIUS)
    sp.set_defaults(func=cmd_subderivative)

    sp = sub.add_parser("growth", help="sampled quadratic growth around xbar")
    sp.add_argument("problem", help="problem JSON file with xbar")
    common(sp, rank_tol=False)
    sp.add_argument("--epsilon", type=tolerance, required=True, help="ball radius")
    sp.add_argument("--beta", type=nonnegative, required=True, help="growth constant")
    sp.add_argument("--samples", type=count, default=sosc.GROWTH_SAMPLES)
    sp.set_defaults(func=cmd_growth)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except _NUMERICAL_ANOMALIES as exc:
            # LinAlgError is a ValueError, so this clause comes first.
            print(f"error: numerical anomaly: {exc}", file=sys.stderr)
            _emit(args, _error("numerical_anomaly", exc))
            return 4
    except (ValueError, KeyError) as exc:
        # includes an unwritable --json path, met after the run
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # an oversized --dirs or --samples: exit 1 would read as a refutation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the report is lost, as with an unwritable --json path; stdout now
        # writes to devnull, so its flush at interpreter exit fails no more
        print("error: cannot write the report: stdout is closed", file=sys.stderr)
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
