"""Fast self-test of the benchmark (about 15 seconds).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names appears with its unit, that counts repeat
exactly, and that the verdict gate flags a deliberately wrong expectation.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run

TINY = {"samples": 3, "r2n_planes": 3}


PASSED = []


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    PASSED.append(what)


def expect_metrics(result, spec, label):
    got = result["metrics"]
    for m in spec:
        check(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
              and math.isfinite(got[m["name"]]["value"]),
              f"{label}: {m['name']} reported in {m['unit']}")
    check(set(got) == {m["name"] for m in spec}, f"{label}: no metric outside BENCHMARK.json")


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json names every workload")
    symred = run.load_program()

    for name, full in run.WORKLOADS.items():
        tiny = dataclasses.replace(full, samples=TINY["samples"],
                                   r2n_planes=TINY["r2n_planes"] if full.r2n_planes else 0)
        result, record = run.bench(symred, tiny, seed=1, seconds=0, trace=False)
        check(result["correct"] and result["attempted"] >= 1, f"{name}: tiny untraced run is correct")
        expect_metrics(result, spec["end_to_end"], name)
        check(all(o["sha256"] or o["error"] for o in record["ops"]), f"{name}: every report digested")
        traced, _ = run.bench(symred, tiny, seed=1, seconds=0, trace=True)
        again, _ = run.bench(symred, tiny, seed=1, seconds=0, trace=True)
        expect_metrics(traced, spec["per_layer"], f"{name} traced")
        counts = [k for k in traced["metrics"] if k.endswith(".calls")]
        check(all(traced["metrics"][k] == again["metrics"][k] for k in counts),
              f"{name}: traced counts repeat exactly")

    report, code = symred.cli.run(symred.cli.RunConfig("hopf", seed=1, samples=3))
    check(run.verdict(report, code)[0], "gate accepts hopf passing")
    wrong = dict(run.EXPECTED, hopf=(1, ("compatibility",)))
    check(not run.verdict(report, code, expected=wrong)[0], "gate flags a wrong expected verdict")
    report, code = symred.cli.run(symred.cli.RunConfig("skewed_metric_hopf", seed=1, samples=3))
    check(run.verdict(report, code)[0], "gate accepts skewed_metric_hopf failing as expected")
    missing = dict(run.EXPECTED, skewed_metric_hopf=(1, ("compatibility",)))
    check(not run.verdict(report, code, expected=missing)[0],
          "gate flags failing checks beyond the expected ones")
    print(f"selftest passed: {len(PASSED)} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
