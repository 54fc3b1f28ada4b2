"""Compare the verify reports of this checkout with those of another source tree.

    python tests/report_sweep.py PARENT_SRC [--ignore KEY ...]

PARENT_SRC is the ``src`` directory of the other tree (a clone or an
exported copy of the parent commit).  The sweep runs ``symred verify`` on
every built-in at 20 samples with seeds 0-7, on hopf at 80 and at 320
samples with seeds 0 and 51, on euclidean_r2n at 8 planes (from a scenario
file) at 20 samples with seeds 5, 44, 55 and 61, on hopf without its acs
line (from a scenario file written beside it, so J comes from
build_compatible_triple) at 20 samples with seeds 0-3, on the five
``FIXTURES`` of ``tests/util.py`` (from scenario files written beside
them) with the default suites at 20 samples with seeds 0-3: the 2-torus
``TORUS_T2_TEXT``, so the k = 2 paths are compared, and four witnesses
that fail rows, ``DOUBLE_SPEED_HOPF_TEXT`` (no momentum map for its
action: the pullback identity, the vertical degeneracy and the
main-theorem rows fail), ``SIXFOLD_METRIC_HOPF_TEXT`` (fibre independence
fails), ``SCALED_MU_T2_TEXT`` (the 2-torus with mu_2 and beta_2 scaled
by 0.6: the hamiltonian condition fails) and
``ASYMMETRIC_METRIC_HOPF_TEXT`` (the metric field row fails by its
symmetry term), so failing residuals are compared too; on every built-in with no flags (its
own sample spec: seed, count and any explicit quotient points), on hopf at 20 samples with the main-theorem, the reduction and
the action suite alone (the main-theorem suite alone builds the same
lift-frame table as a default run, fibre frames included, and its rows
must not move) and with all five suites (so the holomorphy
battery, which a default run leaves out, is compared too), and on twelve
failing variants (``FAILING``, whose text ``failing_text`` writes): ten
of hopf (the section off the level set at a middle sample, generators
degenerate at one sample, a division by zero at w1 = 0.50001, a row only
a stencil of the section would evaluate (the exact section Jacobian reads
no such row, so that variant's reduction runs complete), the metric entry
``sqrt(1.9 - x1)``, the first two at once, the degenerate sample before
the one off the level set, a level of mu holding a critical point of mu
beside a regular one, generators not tangent to the level set, a
generator normal to the level set inside the tangency slop, so that the
horizontal complement has another dimension, a metric that vanishes on
the horizontal directions at one sample, and a section whose derivative
vanishes at one sample, so that the lifts lose rank) and two of the
2-torus fixture (the second generator, of the two a batch takes at once,
degenerate at one sample, and both generators turning the first factor);
each with the structures, the action and the reduction and main-theorem
suites, so that the exit codes and error texts of failing runs, and which
error a failing batch meets first, are compared too; each run in JSON and
in text.  Each
tree runs the whole sweep in one worker process with its ``src`` first on
the import path.  Every report is compared as the text ``verify`` prints:
a JSON report without the line of its ``timestamp`` and without the lines
of any key named by ``--ignore`` (a key whose value is a list or an object
loses all of its lines), so a change of spacing, key order, number format
or escaping shows.  ``--ignore samples`` leaves out the main theorem's
per-point columns (``meta.samples`` of its report) and the sample count
in the root ``meta``, which bears the same key, and compares everything
else.  Exit codes and stderr are compared as they are.  The
script prints one line per differing case, under it the check rows one
tree's report has and the other's lacks (a row is keyed by its suite path
below the scenario and its name, in text and in JSON), and under a
differing JSON report every value that changed, as a path through the
report (a list entry with a ``name`` is named by it, and only entries
both lists have are compared) with before -> after (a value that changed
type to or from a list or an object by its kind and size, such as
``list of 80 -> object of 5 keys``), then the largest
|delta| over the numbers that are not point coordinates; a JSON report
whose text differs with no value changed is said to differ in layout.
The summary lines say how many runs are identical, the largest |delta|
over all runs and where, which rows were removed and added (each with
the number of runs), one line per run whose ``main theorem iff`` row
flipped where its hypothesis fails, and last whether any verdict
changed: an exit code, the PASS/FAIL of a row both text reports have
(the ``overall`` line among them), or a ``passed``, ``branch`` or
``hypothesis_violated`` value of a JSON report.  A removed or added row
is not a changed verdict, and neither is a flip of the ``main theorem
iff`` row, in text or in its JSON ``passed``, where the row ``ambient
compatibility hypothesis`` FAILs in both reports: the main theorem
asserts nothing there, so the row is free, as the benchmark's
``UNDETERMINED`` leaves it.  Where the hypothesis holds in either report
the flip counts, and so does any change of ``branch`` or
``hypothesis_violated``.  It exits 2 if any verdict changed, else 1 if
any run differs.
It is a tool, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
VERDICT_KEYS = ("passed", "branch", "hypothesis_violated")
# the main theorem's verdict row, free where its hypothesis fails (above)
IFF_ROW = "main-theorem/main theorem: main theorem iff"
HYPOTHESIS_ROW = "main-theorem/main theorem: ambient compatibility hypothesis"
IFF_PASSED = ".children[main-theorem].children[main theorem].checks[main theorem iff].passed"
POINT = re.compile(r"\.(worst_point|points?)\[")  # coordinates, not residuals


_POINTS = "sample.points = [[0.6, 0.3], [0.1, -0.7], [0.5, 0.2], [0.7, -0.6], [-0.3, -0.8]]"
_SECTION = "[1/sqrt(1 + w1^2 + w2^2),"
# the section lifted off the level set near w = (0.5, 0.2)
_OFF_LEVEL = (_SECTION, "[(1 + 0.01*exp(-1000*((w1 - 0.5)^2 + (w2 - 0.2)^2)))"
                        "/sqrt(1 + w1^2 + w2^2),")
# generators that vanish where x3 = x4 = 0, the section point of w = 0
_DEGENERATE = ("t1)", "t1*(x3^2 + x4^2))")
_FLOW = ("flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1),\n"
         "        x3*cos(t1) + x4*sin(t1), x4*cos(t1) - x3*sin(t1)]")
_TORUS_POINTS = ("sample.points = [[0.6, 0.3, 0.2, -0.1], [0.1, -0.7, 0.4, 0.5], "
                 "[0.5, 0.2, 0, 0], [0.7, -0.6, -0.3, 0.8]]")
_METRIC = "metric = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"

# failing variants: file stem -> (the scenario, "hopf" or "torus_t2", the
# (text in it, its replacement) pairs, a line of sample points or "")
FAILING = {
    "off_level": ("hopf", [_OFF_LEVEL], _POINTS),
    "degenerate": ("hopf", [_DEGENERATE],
                   "sample.points = [[0.6, 0.3], [0.1, -0.7], [0, 0], [0.7, -0.6]]"),
    "stencil": ("hopf", [(_SECTION, "[1/sqrt(1 + w1^2 + w2^2) + 0/(w1 - 0.50001),")], _POINTS),
    "sqrt_metric": ("hopf", [("metric = [[1,", "metric = [[sqrt(1.9 - x1),")], ""),
    # point 1 is degenerate and point 3 off the level set; a batch checks
    # the level of every point before the generators, so it raises point
    # 3's error
    "two_failures": ("hopf", [_DEGENERATE, _OFF_LEVEL], "sample.points = "
                     "[[0.6, 0.3], [0, 0], [0.1, -0.7], [0.5, 0.2], [0.7, -0.6]]"),
    # mu = (x1^2 + x2^2)/2 - (x3^2 + x4^2)^2/2 at the level 0, which the
    # section reaches through the origin, a critical point of mu, at the
    # second sample; the first sample is a regular point
    "mixed_rank": ("hopf", [("mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]",
                             "mu = [0.5*(x1^2 + x2^2) - 0.5*(x3^2 + x4^2)^2]"),
                            ("beta = [0.5]", "beta = [0]"),
                            (_SECTION + " 0,\n           w1/sqrt(1 + w1^2 + w2^2), "
                             "w2/sqrt(1 + w1^2 + w2^2)]", "[w1^2 + w2^2, 0, w1, w2]")],
                   "sample.points = [[0.5, 0.5], [0, 0]]"),
    # the second factor turns at speed x7^2 + x8^2, which vanishes at the
    # section point of w3 = w4 = 0, the third sample; the first generator
    # stays free there
    "torus_degenerate": ("torus_t2", [("t2)", "t2*(x7^2 + x8^2))")], _TORUS_POINTS),
    # t1 + t2 turns the first factor and nothing turns the second, so the two
    # generators are dependent at every point
    "torus_shared_circle": ("torus_t2", [("t2)", "0)"), ("t1)", "(t1 + t2))")], _TORUS_POINTS),
    # the generator 1e-6 e1 leaves the level set |x| = 1 at every point,
    # while a move by a fibre parameter stays within LEVEL_TOL of it (a
    # flow x1 + t1 would move the fibre frames off the level, which is
    # checked first)
    "not_tangent": ("hopf", [(_FLOW, "flow = [x1 + 0.000001*sin(10000*t1)/10000, x2, x3, x4]")],
                    _POINTS),
    # the generator 1e-9 e1 at the section point (0, 0.5, 0, 0) of the third
    # sample is normal to the level set x1 = 0, inside the tangency slop,
    # with a g-norm above FREE_TOL: it pairs to zero with the whole level
    # set, so the horizontal complement has dimension 3 there
    "normal_generator": ("hopf", [(_FLOW, "flow = [x1 + 0.000000001*t1, x2, x3, x4 + x3*t1]"),
                                  (_METRIC, _METRIC.replace("1", "10000")),
                                  ("mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]", "mu = [x1]"),
                                  ("beta = [0.5]", "beta = [0]"),
                                  (_SECTION + " 0,\n           w1/sqrt(1 + w1^2 + w2^2), "
                                   "w2/sqrt(1 + w1^2 + w2^2)]", "[0, w1, w2, 0]")],
                         "sample.points = [[0.6, 0.3], [0.1, -0.7], [0.5, 0], [0.7, -0.6]]"),
    # the metric diag(1, 1, s, s) with s = x3^2 + x4^2 vanishes on the
    # horizontal directions at the section point of w = 0, the second sample
    "horizontal_degenerate": ("hopf", [(_METRIC, "metric = [[1, 0, 0, 0], [0, 1, 0, 0], "
                                        "[0, 0, x3^2 + x4^2, 0], [0, 0, 0, x3^2 + x4^2]]")],
                              "sample.points = [[0.6, 0.3], [0, 0], [0.5, 0.2]]"),
    # the section's w1 enters as w1^3, so d sigma/d w1 = 0 where w1 = 0, at
    # the third sample
    "flat_section": ("hopf", [("w1/sqrt(", "w1^3/sqrt("), ("w1^2 + w2^2)", "w1^6 + w2^2)")],
                     "sample.points = [[0.6, 0.3], [0.1, -0.7], [0, 0.2], [0.7, -0.6]]"),
}
FAILING_SUITES = ("structures", "action", "reduction,main-theorem")

# scenario texts of tests/util.py run with the default suites: file stem ->
# the name of the text there
FIXTURES = {"torus_t2": "TORUS_T2_TEXT", "double_speed_hopf": "DOUBLE_SPEED_HOPF_TEXT",
            "sixfold_metric_hopf": "SIXFOLD_METRIC_HOPF_TEXT",
            "scaled_mu_t2": "SCALED_MU_T2_TEXT",
            "asymmetric_metric_hopf": "ASYMMETRIC_METRIC_HOPF_TEXT"}


def failing_text(stem: str) -> str:
    """The scenario text of the FAILING variant ``stem``."""
    from symred.scenarios import builtin_text
    import util

    base, replacements, points = FAILING[stem]
    text = {"hopf": builtin_text("hopf"), "torus_t2": util.TORUS_T2_TEXT}[base]
    for old, new in replacements:
        assert old in text, stem
        text = text.replace(old, new)
    return text + "\n" + points + "\n"


def write_scenarios(tmp: str) -> tuple[str, str, list[str], list[str]]:
    """Write the scenario files of the sweep into ``tmp``: euclidean_r2n at
    8 planes, hopf without its acs line, the FIXTURES and the FAILING
    variants; return their paths, the FIXTURES' and the FAILING variants'
    as one list each."""
    from symred.scenarios import builtin_text
    import util

    texts = {"euclidean_r2n_8": builtin_text("euclidean_r2n", 8),
             "hopf_no_acs": "\n".join(line for line in builtin_text("hopf").splitlines()
                                      if not line.startswith("acs")),
             **{stem: getattr(util, name) for stem, name in FIXTURES.items()},
             **{stem: failing_text(stem) for stem in FAILING}}
    paths = []
    for stem, text in texts.items():
        paths.append(os.path.join(tmp, f"{stem}.scen"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            handle.write(text)
    fixtures = 2 + len(FIXTURES)
    return paths[0], paths[1], paths[2:fixtures], paths[fixtures:]


def sweep_cases(r2n_path: str, no_acs_path: str, fixture_paths: list[str],
                failing_paths: list[str]) -> list[list[str]]:
    """The argv of every verify run of the sweep, JSON and text."""
    from symred.scenarios import builtin_names

    runs = [[name, "--samples", "20", "--seed", str(seed)]
            for name in builtin_names() for seed in range(8)]
    runs += [["hopf", "--samples", str(samples), "--seed", str(seed)]
             for samples in (80, 320) for seed in (0, 51)]
    runs += [[r2n_path, "--samples", "20", "--seed", str(seed)] for seed in (5, 44, 55, 61)]
    runs += [[no_acs_path, "--samples", "20", "--seed", str(seed)] for seed in range(4)]
    runs += [[path, "--samples", "20", "--seed", str(seed)]
             for path in fixture_paths for seed in range(4)]
    runs += [[name] for name in builtin_names()]  # the scenario's own sample spec
    runs += [["hopf", "--samples", "20", "--suites", suite]
             for suite in ("main-theorem", "reduction", "action",
                           "structures,action,reduction,main-theorem,holomorphy")]
    runs += [[path, "--suites", suite] for path in failing_paths for suite in FAILING_SUITES]
    return [["verify", *run, "--format", fmt] for run in runs for fmt in ("json", "text")]


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


def without_keys(text: str, keys: set) -> str:
    """A JSON report's text without the lines of every key in ``keys``: the
    key's own line and, if its value is a list or an object, every line up
    to the one closing it at the key's indent (the report puts each key and
    each list entry on a line of its own)."""
    kept, closing = [], None
    for line in text.splitlines():
        if closing is not None:
            if line.rstrip(",") == closing:
                closing = None
            continue
        body = line.lstrip(" ")
        key = body[1:body.index('": ')] if body.startswith('"') and '": ' in body else None
        if key in keys:
            if body.endswith(("[", "{")):
                closing = line[:len(line) - len(body)] + ("]" if body.endswith("[") else "}")
            continue
        kept.append(line)
    return "\n".join(kept)


def comparable(argv: list[str], result: dict, ignore: set) -> dict:
    """The result with the lines of the JSON report's timestamp and of the
    ignored keys removed."""
    out = dict(result)
    if "json" in argv and result["stdout"]:
        out["stdout"] = without_keys(result["stdout"], {"timestamp", *ignore})
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _by_name(entries: list) -> dict | None:
    """A list's entries by name, if each is an object with a name of its own."""
    names = [entry.get("name") if isinstance(entry, dict) else None for entry in entries]
    if None in names or len(set(names)) < len(names):
        return None
    return dict(zip(names, entries))


def changed_values(old, new, path: str = ""):
    """(path, before, after) for every value that differs between two JSON
    values, walking dicts by key, lists of named entries (the checks and
    the children of a report) by the names both have, and other
    equal-length lists by entry.  A named entry only one list has is an
    added or a removed row (``report_rows``), not a changed value."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_values(old.get(key), new.get(key), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) \
            and None not in (named := (_by_name(old), _by_name(new))):
        for name in (name for name in named[0] if name in named[1]):
            yield from changed_values(named[0][name], named[1][name], f"{path}[{name}]")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from changed_values(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


# a text report's check row: name, residual, tolerance, verdict, identity
TEXT_ROW = re.compile(r"^ *(.*?) +\S+  <= +\S+  (PASS|FAIL)   \[.*\]$")


def _row_key(suites: list[str], name: str, seen: dict) -> str:
    """'suite/sub-suite: check', with '#2', '#3', ... on a repeated one."""
    key = f"{'/'.join(suites)}: {name}"
    seen[key] = seen.get(key, 0) + 1
    return key if seen[key] == 1 else f"{key} #{seen[key]}"


def report_rows(argv: list[str], stdout: str) -> dict[str, bool]:
    """Every check row of a report, keyed by its suite path below the
    scenario and its name, with whether it passed; a text report's
    ``overall`` line is a row too."""
    rows, seen = {}, {}
    if not stdout:
        return rows
    if "json" in argv:
        def walk(node: dict, suites: list[str]) -> None:
            for check in node["checks"]:
                rows[_row_key(suites, check["name"], seen)] = check["passed"]
            for child in node["children"]:
                walk(child, [*suites, child["name"]])

        walk(json.loads(stdout), [])
        return rows
    suites = []  # the report headers above the current line, outermost first
    for line in stdout.splitlines():
        depth = (len(line) - len(line.lstrip(" "))) // 2
        if line.startswith("overall: "):
            rows["overall"] = line.endswith("PASS")
        elif (row := TEXT_ROW.match(line)) is not None:
            rows[_row_key(suites[1:depth], row[1], seen)] = row[2] == "PASS"
        elif not line.lstrip(" ").startswith("worst point: "):
            suites[depth:] = [line.strip()]
    return rows


def free_iff_flip(before: dict[str, bool], after: dict[str, bool]) -> bool:
    """Whether the ``main theorem iff`` row flipped between two reports'
    ``report_rows`` while the ambient hypothesis FAILs in both."""
    return before.get(HYPOTHESIS_ROW) is False and after.get(HYPOTHESIS_ROW) is False \
        and IFF_ROW in before and IFF_ROW in after and before[IFF_ROW] != after[IFF_ROW]


def verdict_changed(argv: list[str], old: dict, new: dict) -> bool:
    """An exit code, the verdict of a row both reports have, or a
    ``passed``, ``branch`` or ``hypothesis_violated`` value of a JSON report
    changed, a ``free_iff_flip`` aside."""
    if old["code"] != new["code"]:
        return True
    before, after = report_rows(argv, old["stdout"]), report_rows(argv, new["stdout"])
    free = {IFF_ROW, IFF_PASSED} if free_iff_flip(before, after) else set()
    if "json" not in argv:
        return any(before[key] != after[key] for key in before.keys() & after.keys() - free)
    if not (old["stdout"] and new["stdout"]):
        return old["stdout"] != new["stdout"]
    return any(path.rsplit(".", 1)[-1] in VERDICT_KEYS and path not in free for path, _, _ in
               changed_values(json.loads(old["stdout"]), json.loads(new["stdout"])))


def _kind(value) -> str:
    """A list or an object by its size, any other value as it is."""
    if isinstance(value, list):
        return f"list of {len(value)}"
    if isinstance(value, dict):
        return f"object of {len(value)} keys"
    return repr(value)


def print_changes(old: str, new: str, ignore: set) -> tuple[float, str | None]:
    """Print every changed value of two JSON reports but the timestamp and
    the ignored keys (a value whose type changed to or from a list or an
    object by its kind and size, e.g. ``list of 80 -> object of 5 keys``),
    and the largest |delta| of a number that is not a point coordinate;
    return that delta and its path (None if no such number changed)."""
    worst, worst_path = 0.0, None
    keys = {"timestamp", *ignore}
    changes = list(changed_values(_drop(json.loads(old), keys), _drop(json.loads(new), keys)))
    if not changes:
        print("    no value changed: the JSON text differs in layout")
    for path, before, after in changes:
        show = repr if type(before) is type(after) else _kind
        print(f"    {path}: {show(before)} -> {show(after)}")
        if _is_number(before) and _is_number(after) and not POINT.search(path) \
                and abs(after - before) >= worst:
            worst, worst_path = abs(after - before), path
    if worst_path is not None:
        print(f"    largest |delta| {worst:.3e} at {worst_path}")
    return worst, worst_path


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
    with tempfile.TemporaryDirectory() as tmp:
        cases = sweep_cases(*write_scenarios(tmp))
        parent = run_tree(Path(args.parent_src).resolve(), cases)
        change = run_tree(SRC, cases)
    return compare(cases, parent, change, set(args.ignore))


def compare(cases: list[list[str]], parent: list[dict], change: list[dict],
            ignore: set) -> int:
    """Print the differences of the two trees' results of ``cases`` and the
    summary lines; return the exit code."""
    differing = verdicts = 0
    worst, worst_at = 0.0, None
    moved = {"removed": Counter(), "added": Counter()}  # row -> runs
    free_flips = []
    for argv, old, new in zip(cases, parent, change):
        verdicts += verdict_changed(argv, old, new)
        before, after = report_rows(argv, old["stdout"]), report_rows(argv, new["stdout"])
        if free_iff_flip(before, after):
            free_flips.append(argv)
        rows = {"removed": [key for key in before if key not in after],
                "added": [key for key in after if key not in before]}
        seen_old, seen_new = comparable(argv, old, ignore), comparable(argv, new, ignore)
        fields = [key for key in ("code", "stdout", "stderr") if seen_old[key] != seen_new[key]]
        if fields:
            differing += 1
            print(f"DIFFERS ({', '.join(fields)}): symred {' '.join(argv)}")
            for kind, keys in rows.items():
                moved[kind].update(keys)
                if keys:
                    print(f"    rows {kind}: {'; '.join(keys)}")
            if "json" in argv and "stdout" in fields and old["stdout"] and new["stdout"]:
                delta, path = print_changes(old["stdout"], new["stdout"], ignore)
                if path is not None and delta >= worst:
                    worst, worst_at = delta, f"{path} in symred {' '.join(argv)}"
    print(f"{len(cases) - differing} of {len(cases)} runs identical")
    print(f"largest |delta| over all runs {worst:.3e} at {worst_at}" if worst_at
          else "no number changed but point coordinates")
    print("; ".join(f"rows {kind}: " + (", ".join(f"{key} ({runs} runs)"
                                                  for key, runs in counts.items()) or "none")
                    for kind, counts in moved.items()))
    for argv in free_flips:
        print("main theorem iff flipped where the ambient hypothesis fails in both, "
              f"no changed verdict: symred {' '.join(argv)}")
    print(f"verdicts changed in {verdicts} of {len(cases)} runs" if verdicts
          else "no verdict changed")
    return 2 if verdicts else 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
