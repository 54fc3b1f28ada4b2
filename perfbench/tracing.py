"""Per-layer tracing for the benchmark, done from outside the package.

symred's modules import each other's functions by name
(``from .geometry import eval_field``), so wrapping a function means
rebinding that name in every module that calls it.  A :class:`Tracer`
does that, counts calls and accumulates inclusive wall time per key, and
puts every original binding back on :meth:`Tracer.restore`.

Times are inclusive: a key's seconds cover everything its function calls,
and a re-entrant call is counted but not timed twice.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (key, defining module, attribute, also rebind in the defining module)
# eval_expr recurses through its own module global; only the calls the
# scenario closures make are wanted, so exprlang's binding is left alone.
FUNCTIONS = (
    ("geometry.eval_field", "geometry", "eval_field", True),
    ("exprlang.eval_expr", "exprlang", "eval_expr", False),
    ("geometry.fd_jacobian", "geometry", "fd_jacobian", True),
    ("geometry.fd_directional", "geometry", "fd_directional", True),
    ("geometry.kernel_basis", "geometry", "kernel_basis", True),
    ("actions.apply_flow", "actions", "apply_flow", True),
    ("actions.generator", "actions", "generator", True),
    ("actions.momentum_jacobian", "actions", "momentum_jacobian", True),
    ("reduction.split_tangent", "reduction", "split_tangent", True),
    ("holomorphy.almost_complex_residual", "holomorphy", "almost_complex_residual", True),
    ("holomorphy.cauchy_riemann_residual", "holomorphy", "cauchy_riemann_residual", True),
    ("scenarios.parse_scenario", "scenarios", "parse_scenario", True),
    ("scenarios.compile_scenario", "scenarios", "compile_scenario", True),
    ("structures.check_metric", "structures", "check_metric", True),
    ("structures.check_symplectic_pointwise", "structures", "check_symplectic_pointwise", True),
    ("structures.check_closed", "structures", "check_closed", True),
    ("structures.check_acs", "structures", "check_acs", True),
    ("structures.check_compatibility", "structures", "check_compatibility", True),
    ("actions.check_action_axioms", "actions", "check_action_axioms", True),
    ("actions.check_isometry", "actions", "check_isometry", True),
    ("actions.check_symplectomorphism", "actions", "check_symplectomorphism", True),
    ("actions.check_field_invariance", "actions", "check_field_invariance", True),
    ("actions.check_momentum_invariance", "actions", "check_momentum_invariance", True),
    ("actions.momentum_residual", "actions", "momentum_residual", True),
    ("reduction.verify_submersion", "reduction", "verify_submersion", True),
    ("reduction.verify_reduction_identity", "reduction", "verify_reduction_identity", True),
    ("reduction.verify_main_theorem", "reduction", "verify_main_theorem", True),
)

# The suites are private functions of symred.cli; they are the only
# boundary at which a suite's time can be taken without changing the op.
SUITES = (
    ("structures", "_suite_structures"),
    ("action", "_suite_action"),
    ("reduction", "_suite_reduction"),
    ("main-theorem", "_suite_main_theorem"),
    ("holomorphy", "_suite_holomorphy"),
)

RENDERERS = (("report.to_json", "to_json"), ("report.format_text", "format_text"))


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "symred" or name.startswith("symred."))]


class Tracer:
    """Counts and times calls into symred's layers while installed."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self._depth = Counter()
        self._saved = []

    def _wrap(self, keys, fn):
        def traced(*args, **kwargs):
            outer = [k for k in keys if not self._depth[k]]
            for k in keys:
                self.calls[k] += 1
                self._depth[k] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                for k in keys:
                    self._depth[k] -= 1
                for k in outer:
                    self.seconds[k] += dt
        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr, wrapper, modules):
        original = getattr(owner, attr)
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        modules = _modules()
        pkg = sys.modules["symred"]
        for key, home, attr, rebind_home in FUNCTIONS:
            owner = getattr(pkg, home)
            targets = [m for m in modules if rebind_home or m is not owner]
            self._rebind(owner, attr, self._wrap((key,), getattr(owner, attr)), targets)
        cli = pkg.cli
        self._rebind(cli, "sample_box", self._wrap(("cli.sampling",), cli.sample_box), [cli])
        self._rebind(cli, "sample_ball",
                     self._wrap(("cli.sampling", "geometry.sample_ball"), cli.sample_ball), [cli])
        for suite, attr in SUITES:
            self._rebind(cli, attr, self._wrap((f"cli.suite.{suite}",), getattr(cli, attr)), [cli])
        report_cls = pkg.report.VerificationReport
        for key, attr in RENDERERS:
            original = report_cls.__dict__[attr]
            self._saved.append((report_cls, attr, original))
            setattr(report_cls, attr, self._wrap((key,), original))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()
