#!/usr/bin/env python3
"""Benchmark of the nsdpcheck command line.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Each operation is one in-process ``nsdpcheck.cli.main([..., "--json", PATH])``
call on a generated input file, run by one caller in a closed loop, with BLAS
pinned to one thread.  Every report is checked by ``checks.py`` against a
computation made apart from the program.  A run repeats whole rounds of its
workload's instances until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the package's
layers (``tracer.py``) and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, the metrics being those BENCHMARK.json names;
every metric, the unbounded ones too, also goes to
``out/<workload>-seed<N>/result.json``.  ``--workload all`` runs every
workload, each in its own process, and prints each one's metrics.  See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import instances

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One BLAS thread in this process and in the fresh interpreters it times.
BLAS_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 11
# Kernel runs timed on each side of a fresh import.
SETUP_REF_RUNS = 3
# setup_s is given in seconds at the machine speed at which the reference
# kernel takes this long (about its time on the 2-core VM of README.md).
REF_NOMINAL_S = 0.0025
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import nsdpcheck.cli; print(repr(time.perf_counter() - t))"
)
REF_MATRICES = 300
REF_LOOP = 3000
REF_SHARE = 0.1


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def parse_args(spec: dict, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    parser.add_argument("--workload", default="all", choices=["all", *instances.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# -- set-up ---------------------------------------------------------------------


def time_import() -> float:
    """Seconds to import nsdpcheck.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        fail(f"fresh import of nsdpcheck.cli failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- reference kernel -------------------------------------------------------------


class ReferenceKernel:
    """Fixed work timed between operations: a few hundred 4x4 eigvalsh calls
    plus Python arithmetic.  Its time tracks the machine's speed, not the
    program's."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        raw = rng.standard_normal((REF_MATRICES, 4, 4))
        self.mats = list(raw + raw.transpose(0, 2, 1))
        self.eigvalsh = np.linalg.eigvalsh
        self.expected = self.run()

    def run(self) -> float:
        acc = 0.0
        for a in self.mats:
            lam = self.eigvalsh(a)
            acc += float(lam[0]) - 0.5 * float(lam[-1])
        for i in range(REF_LOOP):
            acc += (i % 7) * 0.125 - (i % 3) * 0.25
        return acc

    def timed(self) -> float:
        t0 = time.perf_counter()
        value = self.run()
        elapsed = time.perf_counter() - t0
        if value != self.expected:
            fail("reference kernel gave a different value")
        return elapsed


# -- operations -------------------------------------------------------------------


class Runner:
    """Writes a workload's instances to disk and runs and checks operations."""

    def __init__(self, workload: str, seed: int):
        import checks
        import instances
        from nsdpcheck import cli

        self.cli = cli
        self.checks = checks
        self.checker = checks.CHECKERS[workload]
        work = OUT / f"{workload}-seed{seed}"
        work.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for k, inst in enumerate(instances.WORKLOADS[workload](seed)):
            path, report = work / f"input{k}.json", work / f"report{k}.json"
            path.write_text(json.dumps(inst.document))
            argv = [inst.argv[0], str(path), *inst.argv[1:], "--json", str(report)]
            self.ops.append((argv, report, inst))
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.last_report: dict | None = None

    def warm_up(self) -> None:
        """One uncounted operation: lazy imports and first-call set-up."""
        self.run(0)
        self.attempted = self.failed = 0

    def run(self, k: int, around=contextlib.nullcontext) -> float:
        """Run operation k inside ``around()`` and check its report; returns
        the operation's wall time."""
        argv, report_path, inst = self.ops[k]
        report_path.unlink(missing_ok=True)
        self.attempted += 1
        crash = None
        with around(), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                self.cli.main(argv)
            except Exception:  # a crash of the program is a failed operation
                crash = traceback.format_exc()
            elapsed = time.perf_counter() - t0
        if crash is not None:
            self.failed += 1
            print(f"bench: operation {k} raised:\n{crash}", file=sys.stderr)
            return elapsed
        try:
            self.last_report = json.loads(report_path.read_text())
            self.checker(inst.document, inst.expect, self.last_report)
        except self.checks.KnownFault:
            self.failed += 1
        except (self.checks.CheckError, OSError, LookupError, TypeError, ValueError) as exc:
            self.incorrect.append(f"operation {k}: {type(exc).__name__}: {exc}")
        return elapsed


def measure(runner: Runner, seconds: float) -> dict:
    """Closed loop over whole rounds; returns every metric of the run.

    The machine's speed drifts within a run and between runs, so each
    operation's time is divided by the median reference-kernel time
    measured just before and just after it: after each operation the kernel
    runs for ``REF_SHARE`` of that operation's time.  Fresh imports are
    spread over the run, one every ``seconds / SETUP_REPEATS``, and each is
    divided in the same way by ``SETUP_REF_RUNS`` kernel runs on either
    side of it; ``setup_s`` is the median of these ratios times
    ``REF_NOMINAL_S``."""
    kernel = ReferenceKernel()
    time_import()  # the first import in a checkout also writes bytecode caches
    runner.warm_up()

    def timed_import() -> tuple[float, float]:
        """Raw seconds of one fresh import, and its ratio to the kernel."""
        before = [kernel.timed() for _ in range(SETUP_REF_RUNS)]
        t = time_import()
        after = [kernel.timed() for _ in range(SETUP_REF_RUNS)]
        return t, t / statistics.median(before + after)

    def reference(budget: float) -> list[float]:
        samples = [kernel.timed()]
        while sum(samples) < budget:
            samples.append(kernel.timed())
        return samples

    per_op = [[] for _ in runner.ops]
    op_times, ratios, imports = [], [], []
    ref_before = reference(0.0)
    ref_all = list(ref_before)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for k in range(len(runner.ops)):
            t = runner.run(k)
            ref_after = reference(REF_SHARE * t)
            per_op[k].append(t)
            op_times.append(t)
            ratios.append(t / statistics.median(ref_before + ref_after))
            ref_all += ref_after
            ref_before = ref_after
            due = start + len(imports) * seconds / SETUP_REPEATS
            if len(imports) < SETUP_REPEATS and time.perf_counter() >= due:
                imports.append(timed_import())
        if time.perf_counter() >= deadline:
            break
    while len(imports) < SETUP_REPEATS:
        imports.append(timed_import())
    return {
        "setup_s": (statistics.median(r for _, r in imports) * REF_NOMINAL_S, "s"),
        "op_s.p50": (statistics.median(op_times), "s"),
        "op_ref.p50": (statistics.median(ratios), "ref"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "import_s.p50": (statistics.median(t for t, _ in imports), "s"),
        "reference_kernel_s.p50": (statistics.median(ref_all), "s"),
        "rounds": (len(op_times) // len(runner.ops), "count"),
        "instance_s.p50": ([round(statistics.median(ts), 6) for ts in per_op], "s"),
    }


def measure_traced(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    """Each operation runs untraced and then traced, in whole rounds; the
    per-layer figures come from the traced runs, whose counts repeat
    exactly, and the tracing overhead from each pair."""
    import tracer as tr

    tracer = tr.Tracer()
    runner.warm_up()
    calls, own = Counter(), Counter()
    overheads = []
    first_spans = None
    drawn = feasible = 0
    deadline = time.perf_counter() + seconds
    while True:
        for k in range(len(runner.ops)):
            plain = runner.run(k)
            traced = runner.run(k, tracer.installed)
            overheads.append(traced / plain - 1.0)
            spans = tracer.take_spans()
            if first_spans is None:
                first_spans = spans
            c, o = tr.self_times(spans)
            calls.update(c)
            own.update(o)
            if workload == "subderivative" and runner.last_report is not None:
                trace = runner.last_report["result"]["trace"]
                feasible += sum(level["feasible_samples"] for level in trace)
                drawn += len(trace) * (runner.last_report["options"]["samples"] + 2)
        if time.perf_counter() >= deadline:
            break
    n_ops = len(overheads)
    metrics = {}
    for name in tr.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / n_ops, "count")
        metrics[f"{name}.self_s"] = (own[name] / n_ops, "s")
    for name in tr.KERNELS:
        key = f"numpy.linalg.{name}"
        metrics[f"{key}.calls"] = (tracer.kernel_calls[key] / n_ops, "count")
    tested = calls["sosc.critical_cone_contains"]
    kept = tracer.kept_directions
    metrics["sosc.critical_yield"] = (kept / max(tested, kept) if kept else 0.0, "ratio")
    metrics["subderivative.feasible_yield"] = (feasible / drawn if drawn else 0.0, "ratio")
    metrics["trace.overhead"] = (statistics.median(overheads), "ratio")
    t0 = first_spans[0][1] if first_spans else 0.0
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "operations": n_ops,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "first_operation_spans": [
                    [name, start - t0, end - t0, parent]
                    for name, start, end, parent in first_spans
                ],
            }
        )
    )
    return metrics


# -- entry points -------------------------------------------------------------------


def run_workload(args, spec: dict) -> int:
    if not (SRC / "nsdpcheck" / "__init__.py").is_file():
        fail(f"no nsdpcheck sources under {SRC}")
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import nsdpcheck

    if Path(nsdpcheck.__file__).resolve().parent != SRC / "nsdpcheck":
        fail(f"imported nsdpcheck from {nsdpcheck.__file__}, not from {SRC}")
    OUT.mkdir(exist_ok=True)

    runner = Runner(args.workload, args.seed)
    if args.trace:
        metrics = measure_traced(runner, args.seconds, args.workload, args.seed)
    else:
        metrics = measure(runner, args.seconds)

    for message in runner.incorrect[:5]:
        print(f"bench: incorrect report: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{runner.attempted} attempted, {runner.failed} failed, "
          f"{len(runner.incorrect)} incorrect")
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, list) else f"{value:.6g}"
        print(f"  {name:<56} {shown} {unit}")
    result = {
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if not args.trace:
        (OUT / f"{args.workload}-seed{args.seed}" / "result.json").write_text(json.dumps(result))
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result["metrics"] = {name: result["metrics"][name] for name in listed}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    results, status = {}, 0
    for workload in instances.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
