#!/usr/bin/env python3
"""Two interleaved sets of benchmark runs of the same code.

    python3 bench/compare.py

For each workload of BENCHMARK.json, run i of set A (seed 1 + i) and run i
of set B (seed 101 + i) follow each other, alternating which set goes
first, for ten runs a set at BENCHMARK.json's run length.  For each metric
the command prints both sets' medians and quartiles, the spread (quartile
distance over median) of each set and the change of B's median against A's.
For each end-to-end metric of BENCHMARK.json it also says whether the two
sets agree within the metric's bound: both spreads within the bound, and
B's median within the bound of A's in either direction.  The metrics that
have no bound (op_s.p50, the raw import and reference-kernel times) are
shown for reference.  The command also checks that both sets report
correct outputs and the same share of failed operations.  The raw results
go to bench/out/compare.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_BASE = {"A": 1, "B": 101}
RUNS = 10


def one_run(workload: str, seed: int) -> dict:
    """Every metric of one untraced run, as run.py writes it to disk."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads((BENCH / "out" / f"{workload}-seed{seed}" / "result.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw: dict = {}
    agree = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name in ("AB" if i % 2 == 0 else "BA"):
                result = one_run(workload, SEED_BASE[name] + i)
                sets[name].append(result)
                print(f"{workload} set {name} run {i + 1}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                 if not isinstance(v["value"], list)),
                      file=sys.stderr, flush=True)
        raw[workload] = sets
        shares = {
            name: Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for name, runs in sets.items()
        }
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        ok = correct and shares["A"] == shares["B"]
        agree = agree and ok
        print(f"\n{workload}: correct={correct} failed share A={float(shares['A']):.4f} "
              f"B={float(shares['B']):.4f}")
        print(f"  {'metric':<24}{'unit':<6}{'A q1':>11}{'A median':>11}{'A q3':>11}"
              f"{'A spread':>10}{'B q1':>11}{'B median':>11}{'B q3':>11}{'B spread':>10}"
              f"{'B/A-1':>9}{'bound':>7}  verdict")
        for metric, info in sets["A"][0]["metrics"].items():
            if isinstance(info["value"], list):
                continue
            qa = quartiles([r["metrics"][metric]["value"] for r in sets["A"]])
            qb = quartiles([r["metrics"][metric]["value"] for r in sets["B"]])
            spreads = [(q[2] - q[0]) / q[1] for q in (qa, qb)]
            change = qb[1] / qa[1] - 1.0
            bound = bounds.get(metric)
            if bound is None:
                verdict = "not bounded"
            elif max(spreads) <= bound and abs(change) <= bound:
                verdict = "ok"
                if max(spreads) > bound / 3:
                    verdict = "ok, spread above a third of the bound"
            else:
                verdict = "DISAGREE"
                agree = False
            print(f"  {metric:<24}{info['unit']:<6}"
                  + "".join(f"{v:>11.5g}" for v in qa) + f"{spreads[0]:>10.3f}"
                  + "".join(f"{v:>11.5g}" for v in qb) + f"{spreads[1]:>10.3f}"
                  + f"{change:>+9.3f}{'-' if bound is None else f'{bound:.2f}':>7}  {verdict}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(raw, indent=1))
    print("\nagree" if agree else "\nDISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
