"""Compare the verify reports of this checkout with those of another source tree.

    python tests/report_sweep.py PARENT_SRC [--ignore KEY ...]

PARENT_SRC is the ``src`` directory of the other tree (a clone or an
exported copy of the parent commit).  The sweep runs ``symred verify`` on
every built-in at 20 samples with seeds 0-7, on hopf at 80 samples with
seeds 0 and 51, and on euclidean_r2n at 8 planes (from a scenario file) at
20 samples with seeds 5, 44, 55 and 61, each in JSON and in text.  Each
tree runs the whole sweep in one worker process with its ``src`` first on
the import path.  The JSON reports are compared without ``timestamp`` and
without any key named by ``--ignore``, and the text reports, exit codes
and stderr as they are.  The script prints one line per differing case and
exits 1 if any differs.  It is a tool, not a test: pytest does not collect
it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def sweep_cases(r2n_path: str) -> list[list[str]]:
    """The argv of every verify run of the sweep, JSON and text."""
    from symred.scenarios import builtin_names

    runs = [(name, 20, seed) for name in builtin_names() for seed in range(8)]
    runs += [("hopf", 80, 0), ("hopf", 80, 51)]
    runs += [(r2n_path, 20, seed) for seed in (5, 44, 55, 61)]
    return [["verify", scenario, "--samples", str(samples), "--seed", str(seed),
             "--format", fmt] for scenario, samples, seed in runs for fmt in ("json", "text")]


def worker(cases: list[list[str]]) -> None:
    """Run every case in this process; print code, stdout and stderr as JSON."""
    from symred.cli import main

    results = []
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    print(json.dumps(results))


def run_tree(src: Path, cases: list[list[str]]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--worker"], input=json.dumps(cases),
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _drop(obj, keys: set):
    if isinstance(obj, dict):
        return {k: _drop(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [_drop(v, keys) for v in obj]
    return obj


def comparable(argv: list[str], result: dict, ignore: set) -> dict:
    """The result with the JSON report's timestamp and ignored keys removed."""
    out = dict(result)
    if "json" in argv and result["stdout"]:
        report = json.loads(result["stdout"])
        report["meta"].pop("timestamp", None)
        out["stdout"] = json.dumps(_drop(report, ignore))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", nargs="?", help="src directory of the other tree")
    parser.add_argument("--ignore", action="append", default=[], metavar="KEY",
                        help="JSON key left out of the comparison, repeatable")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(json.loads(sys.stdin.read()))
        return 0
    if args.parent_src is None:
        parser.error("PARENT_SRC is required")

    sys.path.insert(0, str(SRC))
    from symred.scenarios import builtin_text

    with tempfile.TemporaryDirectory() as tmp:
        r2n_path = os.path.join(tmp, "euclidean_r2n_8.scen")
        with open(r2n_path, "w", encoding="utf-8") as handle:
            handle.write(builtin_text("euclidean_r2n", 8))
        cases = sweep_cases(r2n_path)
        parent = run_tree(Path(args.parent_src).resolve(), cases)
        change = run_tree(SRC, cases)

    ignore = set(args.ignore)
    differing = 0
    for argv, old, new in zip(cases, parent, change):
        old, new = comparable(argv, old, ignore), comparable(argv, new, ignore)
        fields = [key for key in ("code", "stdout", "stderr") if old[key] != new[key]]
        if fields:
            differing += 1
            print(f"DIFFERS ({', '.join(fields)}): symred {' '.join(argv)}")
    print(f"{len(cases) - differing} of {len(cases)} runs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
