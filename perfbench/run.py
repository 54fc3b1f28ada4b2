"""symred benchmark: closed-loop `verify` workloads with a verdict gate.

    python3 perfbench/run.py --workload hopf_dense --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  One op is one verification,
``symred.cli.run(RunConfig(...))`` followed by rendering the report as the
CLI does.  Ops run one after another in this process (one caller, no extra
threads) in whole cycles; op ``i`` gets seed ``--seed + i``.  The number of
cycles follows from ``--seconds`` and the workload's nominal op time, never
from the clock, so a seed always runs the same ops and fails the same ones.
A failed op is counted and never retried.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced pass and
the tracing overhead against an untraced pass over the same ops.  The line
before it is the full record: every op with its seed, verdict, error,
margin and report digest, plus the environment and the machine noise.
Times are scaled to a reference machine speed read by calibrate.py while
each op runs.  NOTES.md explains the workloads, the metrics and the scaling.
"""

from __future__ import annotations

import os

# One caller and no extra threads: pin the BLAS pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_MS, SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402

MARGIN_CAP = 16.0        # log10 margin credited to a residual of exactly 0
SETUP_REPEATS = 7        # fresh interpreters timed per run for setup_s
HARD_LIMIT_S = 150.0     # never start a cycle after this, to exit within 180 s
TRACE_RATIO = 1.25       # nominal traced / untraced wall time, to size traced runs

# Expected verdict per scenario name: exit code and the failing checks in
# report order.  "main theorem iff" is asserted only under the ambient
# compatibility hypothesis; noninvariant_metric_hopf violates it, so that
# check may go either way there (it fails at a few sample sets, such as
# the scenario's own seed 7, and passes at most).
EXPECTED = {
    "hopf": (0, ()),
    "linear_translation": (0, ()),
    "euclidean_r2n": (0, ()),
    "skewed_metric_hopf": (1, (
        "compatibility", "almost complex mapping defect", "reduced compatibility",
        "reduced acs identity", "ambient compatibility hypothesis")),
    "noninvariant_metric_hopf": (1, (
        "compatibility", "isometry", "fiber independence", "almost complex mapping defect",
        "reduced compatibility", "ambient compatibility hypothesis", "main theorem iff")),
}
UNDETERMINED = {"noninvariant_metric_hopf": ("main theorem iff",)}


@dataclass(frozen=True)
class Workload:
    """Scenarios cycled in order, all at one sample count and report format.

    ``op_s`` is the nominal wall seconds of one op at reference speed.  It
    fixes how many ops a run of given ``--seconds`` makes; it is not a
    measurement.
    """

    samples: int
    fmt: str
    op_s: float
    scenarios: tuple | None = None   # None: every built-in, list-scenarios order
    r2n_planes: int = 0              # euclidean_r2n goes through a file at this size

    def cycles(self, seconds: float, cycle_len: int, ratio: float = 1.0) -> int:
        """Whole cycles that fill ``seconds`` at nominal speed, at least one."""
        return max(1, round(seconds / (self.op_s * cycle_len * ratio)))


WORKLOADS = {
    "hopf_dense": Workload(samples=80, fmt="json", op_s=2.9, scenarios=("hopf",)),
    "r2n_wide": Workload(samples=20, fmt="json", op_s=6.8, scenarios=("euclidean_r2n",),
                         r2n_planes=8),
    "scenario_sweep": Workload(samples=20, fmt="text", op_s=0.75),
}

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "verify_p50_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CALL_KEYS = (
    "geometry.eval_field", "exprlang.eval_expr", "geometry.fd_jacobian",
    "geometry.fd_directional", "actions.apply_flow", "actions.generator",
    "actions.momentum_jacobian", "geometry.kernel_basis", "reduction.split_tangent",
)
TIME_KEYS = (
    "geometry.eval_field", "exprlang.eval_expr", "geometry.fd_jacobian",
    "geometry.fd_directional", "geometry.sample_ball", "reduction.split_tangent",
    "holomorphy.almost_complex_residual", "holomorphy.cauchy_riemann_residual",
    "scenarios.parse_scenario", "scenarios.compile_scenario",
    "report.to_json", "report.format_text",
    "structures.check_metric", "structures.check_symplectic_pointwise",
    "structures.check_closed", "structures.check_acs", "structures.check_compatibility",
    "actions.check_action_axioms", "actions.check_isometry", "actions.check_symplectomorphism",
    "actions.check_field_invariance", "actions.check_momentum_invariance",
    "actions.momentum_residual",
    "reduction.verify_submersion", "reduction.verify_reduction_identity",
    "reduction.verify_main_theorem",
    "cli.suite.structures", "cli.suite.action", "cli.suite.reduction",
    "cli.suite.main-theorem", "cli.suite.holomorphy", "cli.sampling",
)
PER_LAYER_UNITS = {
    **{f"{k}.calls": "count" for k in CALL_KEYS},
    **{f"{k}_s": "s" for k in TIME_KEYS},
    "geometry.evals_per_point": "count",
    "reduction.frames_per_point": "count",
    "report.bytes": "B",
    "reduction.leak_warnings": "count",
    "trace.overhead_ratio": "ratio",
}

SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import symred.cli
for ref in sys.argv[3:]:
    symred.cli.resolve_scenario(ref)
elapsed = perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibrate import reference_ms
print(elapsed, reference_ms())
"""


def load_program():
    """Import symred from the sources beside the benchmark, or exit non-zero."""
    if not (SRC / "symred" / "__init__.py").is_file():
        raise SystemExit(f"error: no symred sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import symred.cli
    if Path(symred.__file__).resolve().parent != (SRC / "symred").resolve():
        raise SystemExit(f"error: imported symred from {symred.__file__}, not {SRC}")
    return symred


def scenario_refs(symred, workload: Workload) -> list[str]:
    """What each op passes as RunConfig.scenario, in cycle order.

    The CLI resolves euclidean_r2n at its default two planes only, so wider
    members go through a scenario file written from builtin_text.
    """
    refs = []
    for name in workload.scenarios or symred.builtin_names():
        if name == "euclidean_r2n" and workload.r2n_planes:
            WORK.mkdir(exist_ok=True)
            path = WORK / f"euclidean_r2n_{workload.r2n_planes}.scen"
            path.write_text(symred.builtin_text(name, workload.r2n_planes), encoding="utf-8")
            refs.append(str(path))
        else:
            refs.append(name)
    return refs


# ---------------------------------------------------------------------------
# one op and its verdict


@dataclass
class Op:
    ref: str
    seed: int
    samples: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    scenario: str = ""
    code: int = 2
    error: str | None = None
    wrong_verdict: bool = False
    failing: list = field(default_factory=list)
    margin: float | None = None
    sha256: str | None = None
    bytes: int = 0
    leak_warnings: int = 0
    reference_ms: float = REFERENCE_MS   # mean machine speed reading during the op

    @property
    def completed(self) -> bool:
        return self.error is None and not self.wrong_verdict

    @property
    def scale(self) -> float:
        return REFERENCE_MS / self.reference_ms

    def record(self) -> dict:
        return {
            "scenario": self.scenario or self.ref, "seed": self.seed, "samples": self.samples,
            "wall_s": self.wall_s, "cpu_s": self.cpu_s, "exit_code": self.code,
            "error": self.error, "wrong_verdict": self.wrong_verdict, "failing": self.failing,
            "min_margin_log10": self.margin, "sha256": self.sha256, "bytes": self.bytes,
            "leak_warnings": self.leak_warnings, "reference_ms": self.reference_ms,
        }


def verdict(report, code, expected=EXPECTED):
    """(matches, failing check names) of a report against its expected verdict.

    Besides the failing checks, the main-theorem branch must agree: both
    controls take the negative branch with the hypothesis flagged, every
    other scenario the positive one.
    """
    failing = [c.name for _, c in report.all_checks() if not c.passed]
    if report.name not in expected:
        return False, failing
    want_code, want_failing = expected[report.name]
    free = UNDETERMINED.get(report.name, ())
    if code != want_code or [n for n in failing if n not in free] != \
            [n for n in want_failing if n not in free]:
        return False, failing
    try:
        extras = report.find("main theorem iff").extras
    except KeyError:
        return False, failing
    control = bool(want_failing)
    ok = extras.get("branch") == ("negative" if control else "positive") \
        and extras.get("hypothesis_violated") is control
    return ok, failing


def min_margin(report, skip) -> float:
    """Smallest log10(tolerance / residual) over the checks expected to pass."""
    margins = [MARGIN_CAP if c.max_residual <= 0
               else min(MARGIN_CAP, math.log10(c.tolerance / c.max_residual))
               for _, c in report.all_checks() if c.name not in skip]
    return min(margins)


def digest(report) -> str:
    """SHA-256 of the JSON report as to_json writes it, minus meta.timestamp."""
    d = report.to_dict()
    d["meta"].pop("timestamp", None)
    return hashlib.sha256(json.dumps(d, indent=2, sort_keys=True).encode()).hexdigest()


def run_op(symred, op: Op, fmt: str) -> Op:
    cli = symred.cli
    cfg = cli.RunConfig(scenario=op.ref, seed=op.seed, samples=op.samples, format=fmt)
    with warnings.catch_warnings(record=True) as caught, SpeedMeter() as meter:
        warnings.simplefilter("always")
        t0, c0 = perf_counter(), process_time()
        try:
            report, op.code = cli.run(cfg)
            text = report.to_json() if cfg.format == "json" else report.format_text()
        except Exception as exc:  # noqa: BLE001 - a raising op is counted, not fatal
            report, text = None, ""
            op.error = f"{type(exc).__name__}: {exc}"
        op.wall_s, op.cpu_s = perf_counter() - t0, process_time() - c0
    op.wall_s -= meter.wall_s
    op.cpu_s -= meter.cpu_s
    op.reference_ms = meter.mean_ms()
    op.leak_warnings = sum(issubclass(w.category, symred.VerticalLeakWarning) for w in caught)
    if report is None:
        return op
    op.scenario = report.name
    if op.code == 2:
        op.error = f"exit 2: {report.meta.get('error', 'could not load scenario')}"
        return op
    op.bytes = len(text.encode("utf-8"))
    ok, op.failing = verdict(report, op.code)
    op.wrong_verdict = not ok
    op.sha256 = digest(report)
    if ok:
        op.margin = min_margin(report, EXPECTED[report.name][1])
    return op


# ---------------------------------------------------------------------------
# runs


def run_cycle(symred, refs, workload, seed0) -> list[Op]:
    """One op per scenario, seeds counting up from ``seed0``."""
    return [run_op(symred, Op(ref, seed0 + j, workload.samples), workload.fmt)
            for j, ref in enumerate(refs)]


def past_limit(start) -> bool:
    """True once the run is too long to start another cycle."""
    return perf_counter() - start >= HARD_LIMIT_S


def time_setup(refs, repeats) -> list[tuple[float, float]]:
    """Fresh interpreter: import symred and load every scenario the workload
    uses.  Returns (seconds, machine-speed reading taken in the child)."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), *refs],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, ref_ms = proc.stdout.split()
        out.append((float(seconds), float(ref_ms)))
    return out


def measure(symred, workload, refs, seed, seconds):
    """Untraced closed loop; returns (ops, end-to-end metrics or None).

    Set-up samples are taken between cycles, so that their median spans
    the run like the ops do rather than one moment of a drifting machine.
    """
    setup, ops = [], []
    start = perf_counter()
    for c in range(workload.cycles(seconds, len(refs))):
        if c and past_limit(start):
            break
        if len(setup) < SETUP_REPEATS:
            setup += time_setup(refs, 1)
        ops += run_cycle(symred, refs, workload, seed + c * len(refs))
    setup += time_setup(refs, SETUP_REPEATS - len(setup))
    done = [o for o in ops if o.completed]
    extra = {"setup_samples": [{"seconds": s, "reference_ms": r} for s, r in setup]}
    if not done:
        return ops, None, extra
    points = sum(o.samples for o in done)
    extra["unscaled"] = {
        "points_per_s": points / sum(o.wall_s for o in done),
        "verify_p50_s": statistics.median(o.wall_s for o in done),
        "cpu_s": statistics.median(o.cpu_s for o in done),
        "setup_s": statistics.median(s for s, _ in setup),
    }
    extra["min_margin_log10"] = {"value": statistics.median(o.margin for o in done),
                                 "unit": "log10"}
    metrics = {
        "points_per_s": points / sum(o.wall_s * o.scale for o in done),
        "verify_p50_s": statistics.median(o.wall_s * o.scale for o in done),
        "cpu_s": statistics.median(o.cpu_s * o.scale for o in done),
        "setup_s": statistics.median(s * REFERENCE_MS / r for s, r in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return ops, metrics, extra


def measure_traced(symred, workload, refs, seed, seconds):
    """Alternate an untraced and a traced pass over the same first cycle.

    Counts come from the first traced pass and repeat exactly; times are
    medians over the passes of the per-op mean.  The overhead compares the
    passes' wall times at reference speed.
    """
    ops, passes = [], []
    start = perf_counter()
    for c in range(workload.cycles(seconds, len(refs), 1.0 + TRACE_RATIO)):
        if c and past_limit(start):
            break
        plain = run_cycle(symred, refs, workload, seed)
        with Tracer() as tracer:
            traced = run_cycle(symred, refs, workload, seed)
        ops += plain + traced
        passes.append((sum(o.wall_s * o.scale for o in plain),
                       sum(o.wall_s * o.scale for o in traced), tracer))
    n = len(refs)
    first, first_ops = passes[0][2], ops[n:2 * n]
    metrics = {f"{k}.calls": first.calls[k] / n for k in CALL_KEYS}
    for k in TIME_KEYS:
        metrics[f"{k}_s"] = statistics.median(p[2].seconds[k] / n for p in passes)
    metrics["geometry.evals_per_point"] = first.calls["geometry.eval_field"] / n / workload.samples
    metrics["reduction.frames_per_point"] = \
        first.calls["reduction.split_tangent"] / n / workload.samples
    metrics["report.bytes"] = statistics.fmean(o.bytes for o in first_ops)
    metrics["reduction.leak_warnings"] = statistics.fmean(o.leak_warnings for o in first_ops)
    metrics["trace.overhead_ratio"] = statistics.median(p[1] / p[0] for p in passes)
    extra = {"passes": [{"untraced_s": p[0], "traced_s": p[1]} for p in passes]}
    return ops, metrics, extra


# ---------------------------------------------------------------------------
# environment and noise


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(np) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((ln.split(":", 1)[1].strip() for ln in handle
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
    }


def cpu_ticks() -> list[int] | None:
    """Aggregate /proc/stat cpu line (user nice system idle iowait irq softirq steal ...)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def noise(before, after, load_before) -> dict:
    out = {"loadavg_before": load_before, "loadavg_after": list(os.getloadavg())}
    if before and after and len(before) > 7:
        delta = [b - a for a, b in zip(before, after)]
        out.update(steal_ticks=delta[7], total_ticks=sum(delta),
                   steal_share=delta[7] / sum(delta) if sum(delta) else 0.0)
    return out


# ---------------------------------------------------------------------------


def bench(symred, workload: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, full record)."""
    import numpy as np

    refs = scenario_refs(symred, workload)
    load_before, ticks_before = list(os.getloadavg()), cpu_ticks()
    ops, metrics, extra = (measure_traced if trace else measure)(
        symred, workload, refs, seed, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(not o.completed for o in ops)
    record = {
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "workload": {"samples": workload.samples, "format": workload.fmt, "scenarios": refs},
        "environment": environment(np),
        "noise": noise(ticks_before, cpu_ticks(), load_before),
        "ops_attempted": len(ops),
        "ops_completed": len(ops) - failed,
        "failed_op_share": {"value": failed / len(ops), "unit": "share"},
        "failures": [{"scenario": o.scenario or o.ref, "seed": o.seed, "error": o.error,
                      "wrong_verdict": o.wrong_verdict, "failing": o.failing}
                     for o in ops if not o.completed],
        "ops": [o.record() for o in ops],
        **extra,
    }
    result = {
        "correct": metrics is not None and not any(o.wrong_verdict for o in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
        if metrics is not None else {},
    }
    return result, record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    symred = load_program()
    result, record = bench(symred, WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    record["workload"]["name"] = args.workload
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
