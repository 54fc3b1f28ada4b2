"""Scenario files and the built-in scenario registry.

A scenario file is a line-oriented ``key = value`` format whose values are
expressions in the language of :mod:`symred.exprlang`.  Chart coordinates
are named x1..xn, group parameters t1..tk and quotient coordinates w1..wq;
matrices may span several lines as long as their brackets stay open.  The
built-in scenarios are defined in this same format and compiled through the
same code path as user files.  A ``tol.<name>`` key overrides the tolerance
``name`` of ``structures.DEFAULT_TOLERANCES`` in the scenario's runs.
"""

from __future__ import annotations

import math

import numpy as np

from .actions import GroupAction, MomentumMap
from .errors import (NonFiniteError, Record, ScenarioFormatError, UnknownIdentifierError,
                     UnknownScenarioError, ValidationError)
from .exprlang import (Expr, ExprParser, Program, compile_exprs, eval_expr, token_positions,
                       tokenize)
from .geometry import RowMap, TensorField
from .reduction import ReductionScenario, SampleSpec
from .structures import DEFAULT_TOLERANCES, build_compatible_triple, check_tolerance

__all__ = [
    "DEFAULT_TOLERANCES",
    "check_tolerance",
    "ScenarioFile",
    "parse_scenario",
    "compile_scenario",
    "load_scenario_file",
    "builtin",
    "builtin_names",
    "MAX_SAMPLES",
]

# the most sample points a run may ask for, by ``sample.count`` or
# ``--samples``; work and memory grow with the count
MAX_SAMPLES = 10_000

_KNOWN_KEYS = {
    "name", "dim", "group_dim", "quotient_dim", "abelian",
    "omega", "metric", "acs", "flow", "mu", "beta", "section",
    "sample.count", "sample.seed", "sample.radius", "sample.points",
}
_KEY_ALIASES = {"g": "metric", "j": "acs", "J": "acs", "w": "omega"}
_TOL_PREFIX = "tol."


class ScenarioFile(Record):
    """Parsed and statically validated scenario description: each map's
    expressions, and its program (``programs``, by key)."""

    __slots__ = ("name", "dim", "group_dim", "omega", "metric", "acs", "flow", "mu", "beta",
                 "section", "tolerances", "sample_spec", "programs")

    @property
    def quotient_dim(self) -> int:
        return self.dim - 2 * self.group_dim


def _statements(lexemes: list[str]) -> tuple[list[str], list[int]]:
    """The statements of a scan's lexemes back to back, each closed by the
    empty lexeme, and the index in ``lexemes`` of every lexeme kept; a
    closing empty lexeme has the index of its statement's last token.

    One parser reads the statements in turn, and this index map gives the
    position of every error it raises (see ``parse_scenario``).  A
    statement runs from a line that holds a token to the first line whose
    end leaves no bracket open, or to the end of the text, so matrices can
    span lines; the newlines inside it are dropped, and lines with no token
    between statements add nothing.
    """
    end = len(lexemes) - 1  # the empty lexeme
    body: list[str] = []
    where: list[int] = []
    depth = start = 0
    while start <= end:
        try:
            stop = lexemes.index("\n", start, end)
        except ValueError:
            stop = end
        line = lexemes[start:stop]
        body += line
        where += range(start, stop)
        brackets = "".join(line)  # a bracket is a lexeme of its own
        depth += brackets.count("[") + brackets.count("(") \
            - brackets.count("]") - brackets.count(")")
        if body and body[-1] and (depth <= 0 or stop == end):  # an open statement ends
            body.append("")
            where.append(where[-1])
            depth = 0
        start = stop + 1
    return body, where


def _parse_key(parser: ExprParser) -> str:
    parts = [parser.expect_ident("key name")]
    while parser.lexemes[parser.pos] == ".":
        parser.pos += 1
        parts.append(parser.expect_ident("key name"))
    return ".".join(parts)


def _const_value(expr: Expr, key: str) -> float:
    try:
        value = float(eval_expr(expr, {}, key))
    except UnknownIdentifierError:
        raise ValidationError(f"value of {key!r} must be constant") from None
    except (NonFiniteError, ValueError) as exc:  # ValueError: sin or cos of an infinity
        raise ValidationError(f"value of {key!r} cannot be evaluated: {exc}") from None
    if not math.isfinite(value):
        raise ValidationError(f"value of {key!r} is not finite: {value}")
    return value


def parse_scenario(text: str) -> ScenarioFile:
    """Parse scenario text into a validated ScenarioFile.

    Each map is compiled here, once, to its program (``compile_exprs``).
    Raises ParseError with position on malformed syntax and ValidationError
    for semantic problems (dimension mismatches, unknown identifiers, odd
    symplectic dimension, missing keys, a constant that raises or is not
    finite, ``abelian`` other than true, a ``group_dim`` below 1, a
    ``sample.count`` outside 1 to ``MAX_SAMPLES``, a negative ``sample.seed``
    or a ``sample.radius`` that is not positive).
    """
    lexemes = tokenize(text)
    body, where = _statements(lexemes)

    def locate(index: int) -> tuple[int, int]:
        """The position in text of the parser's index-th lexeme; for a
        statement's closing empty lexeme, just after its last token."""
        line, column = token_positions(text)[where[index]]
        return (line, column) if body[index] else (line, column + len(lexemes[where[index]]))

    parser = ExprParser(body, locate)
    raw: dict[str, object] = {}
    while parser.pos < len(body):
        start = parser.pos
        key = _parse_key(parser)
        key = _KEY_ALIASES.get(key, key)
        parser.expect("=", "'='")
        if key in ("name", "abelian"):
            value: object = parser.expect_ident("bare word")
        else:
            # parse before validating the key so malformed values (unclosed
            # brackets and the like) surface as ParseError with a position
            value = parser.parse_value()
        if body[parser.pos] != "":
            raise parser.error(f"trailing {parser.describe()} after value of {key!r}",
                               parser.pos, ("end of line",))
        parser.pos += 1
        if not (key in _KNOWN_KEYS or key.startswith(_TOL_PREFIX)):
            raise ValidationError(f"unknown key {key!r} at line {locate(start)[0]}")
        if key in raw:
            raise ValidationError(f"duplicate key {key!r} at line {locate(start)[0]}")
        raw[key] = value

    for required in ("name", "dim", "omega", "metric", "flow", "mu", "beta", "section"):
        if required not in raw:
            raise ValidationError(f"missing required key {required!r}")

    def number(key: str, default=None, integer: bool = False):
        """The constant value of ``key``, an integer if ``integer``, or
        ``default`` if the text does not set the key."""
        if key not in raw:
            return default
        value = _const_value(_as_expr(raw[key], key), key)
        if integer and value != int(value):
            raise ValidationError(f"value of {key!r} must be an integer, got {value}")
        return int(value) if integer else value

    name = str(raw["name"])
    dim = number("dim", integer=True)
    if dim <= 0:
        raise ValidationError(f"dim must be positive, got {dim}")
    if dim % 2 != 0:
        raise ValidationError(f"odd symplectic dimension {dim}")

    beta_exprs = _as_vector(raw["beta"], "beta")
    beta = tuple(_const_value(e, "beta") for e in beta_exprs)
    group_dim = number("group_dim", len(beta), integer=True)
    if group_dim < 1:
        raise ValidationError(f"group_dim must be at least 1, got {group_dim}")
    # the reduction is by a free abelian action, so the quotient has
    # dimension dim - 2 * group_dim; the two keys only declare that scope
    quotient_dim = dim - 2 * group_dim
    if quotient_dim < 0:
        raise ValidationError(f"quotient dimension {quotient_dim} is negative")
    declared = number("quotient_dim", quotient_dim, integer=True)
    if declared != quotient_dim:
        raise ValidationError(f"quotient_dim = {declared} but dim - 2*group_dim = {quotient_dim}")
    if raw.get("abelian", "true") != "true":
        raise ValidationError(
            f"abelian must be true, got {raw['abelian']!r}: only abelian actions are reduced")

    # the coordinate names of a map are built once its shape has been
    # checked against dim and group_dim, so no declared size costs more
    # than the file's own length before it is refused
    programs: dict = {}

    def matrix_key(key: str):
        rows = _as_matrix(raw[key], key)
        if len(rows) != dim or len(rows[0]) != dim:
            raise ValidationError(
                f"{key} must be {dim}x{dim}, got {len(rows)}x{len(rows[0])}"
            )
        programs[key] = compile_exprs([e for row in rows for e in row], _coords("x", dim), key)
        return rows

    omega = matrix_key("omega")
    metric = matrix_key("metric")
    acs = matrix_key("acs") if "acs" in raw else None

    flow = _as_vector(raw["flow"], "flow")
    if len(flow) != dim:
        raise ValidationError(f"flow must have {dim} components, got {len(flow)}")
    programs["flow"] = compile_exprs(flow, _coords("x", dim) + _coords("t", group_dim), "flow")

    mu = _as_vector(raw["mu"], "mu")
    if len(mu) != group_dim:
        raise ValidationError(f"mu must have {group_dim} components, got {len(mu)}")
    programs["mu"] = compile_exprs(mu, _coords("x", dim), "mu")
    if len(beta) != group_dim:
        raise ValidationError(f"beta must have {group_dim} entries, got {len(beta)}")

    section = _as_vector(raw["section"], "section")
    if len(section) != dim:
        raise ValidationError(f"section must have {dim} components, got {len(section)}")
    programs["section"] = compile_exprs(section, _coords("w", quotient_dim), "section")

    tolerances = {}
    for key in raw:
        if key.startswith(_TOL_PREFIX):
            name = key[len(_TOL_PREFIX):]
            try:
                tolerances[name] = check_tolerance(name, number(key))
            except ValueError as exc:
                raise ValidationError(f"{key}: {exc}") from None

    points: tuple = ()
    if "sample.points" in raw:
        rows = _as_matrix(raw["sample.points"], "sample.points")
        if len(rows[0]) != quotient_dim:
            raise ValidationError(
                f"sample points must have {quotient_dim} coordinates, got {len(rows[0])}"
            )
        points = tuple(tuple(_const_value(e, "sample.points") for e in row) for row in rows)
    defaults = SampleSpec()
    count = number("sample.count", defaults.count, integer=True)
    if count < 1:
        raise ValidationError(f"sample.count must be at least 1, got {count}")
    if count > MAX_SAMPLES:
        raise ValidationError(f"sample.count must be at most {MAX_SAMPLES}, got {count}")
    seed = number("sample.seed", defaults.seed, integer=True)
    if seed < 0:
        raise ValidationError(f"sample.seed must be a non-negative integer, got {seed}")
    radius = number("sample.radius", defaults.radius)
    if radius <= 0:
        raise ValidationError(f"sample.radius must be positive, got {radius}")
    sample_spec = SampleSpec(count=count, seed=seed, radius=radius, points=points)

    return ScenarioFile(
        name=name, dim=dim, group_dim=group_dim, omega=omega, metric=metric, acs=acs,
        flow=flow, mu=mu, beta=beta, section=section, tolerances=tolerances, sample_spec=sample_spec,
        programs=programs,
    )


def _coords(prefix: str, count: int) -> tuple:
    """The coordinate names prefix1..prefix<count>."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _as_expr(value, key: str) -> Expr:
    if isinstance(value, Expr):
        return value
    raise ValidationError(f"value of {key!r} must be a single expression")


def _as_vector(value, key: str) -> tuple:
    if isinstance(value, tuple) and value and isinstance(value[0], Expr):
        return value
    if isinstance(value, Expr):
        return (value,)
    raise ValidationError(f"value of {key!r} must be a vector [..]")


def _as_matrix(value, key: str) -> tuple:
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return value
    raise ValidationError(f"value of {key!r} must be a matrix [[..], ..]")


def _row_map(program: Program, shape: tuple, name: str) -> RowMap:
    """The RowMap ``name`` of a map's program over the rows of an
    (N, width) array, values stacked to (N, *shape), with exact
    derivatives.  The entries the compile walk folded are one constant
    array; one program run per batch fills in the others, on the
    coordinate columns of its rows.  ``tangents`` runs the program once in
    forward mode on the columns and keeps the values of that run; a folded
    entry has a zero derivative, so a fully folded map runs nothing."""
    folded = program.folded
    constant = np.array([0.0 if v is None else v for v in folded])
    varying = [i for i, v in enumerate(folded) if v is None]
    slots = [program.outputs[i] for i in varying]

    def filled(X: np.ndarray, values: list) -> np.ndarray:
        """The (N, *shape) values, the varying entries from a run's slots."""
        out = np.repeat(constant[np.newaxis], len(X), axis=0)
        if varying:
            out[:, varying] = np.array([values[s] for s in slots]).reshape(len(slots), len(X)).T
        return out.reshape(len(X), *shape)

    def rows(X: np.ndarray) -> np.ndarray:
        program.check_width(X.shape[1])  # a fully folded map never runs its program
        columns = np.ascontiguousarray(X.T, dtype=float)
        return filled(X, program.run(list(columns)) if varying else [])

    def tangents(X: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        program.check_width(X.shape[1])
        D = np.zeros((len(X), len(folded), seeds.shape[1]))
        values: list = []
        if varying:
            columns = np.ascontiguousarray(X.T, dtype=float)[:, :, np.newaxis]
            values, tangent = program.tangents(list(columns), seeds)
            for i, slot in zip(varying, slots):
                if tangent[slot] is not None:
                    D[:, i] = tangent[slot]
        return filled(X, values), D.reshape(len(X), *shape, seeds.shape[1])

    return RowMap(rows, tangents, name)


def compile_scenario(sf: ScenarioFile) -> ReductionScenario:
    """Turn a parsed scenario's programs into evaluable fields, action and
    section.

    Each map (every matrix field, the ``mu`` map, the flow and the section)
    is a RowMap over its program from ``parse_scenario``: one
    program run per batch of rows, with every row's bits those of running
    it on that row alone, and entries folded at load filled in from one
    constant array.  Its derivatives are exact, from one forward-mode run
    of the program when they are asked for; loading computes none.
    No quadrature over the group is built, so loading costs the same for a
    circle and a high-dimensional torus; ``average_metric`` takes its rule
    as an argument.
    """
    dim, programs = sf.dim, sf.programs

    def field(key: str, shape: tuple) -> TensorField:
        name = f"{sf.name} {key}"
        return TensorField(shape, _row_map(programs[key], shape, name), name)

    omega, metric = field("omega", (dim, dim)), field("metric", (dim, dim))
    acs = (field("acs", (dim, dim)) if sf.acs is not None
           else build_compatible_triple(omega, metric).acs)
    return ReductionScenario(
        name=sf.name,
        omega=omega,
        metric=metric,
        acs=acs,
        action=GroupAction(group_dim=sf.group_dim,
                           flow=_row_map(programs["flow"], (dim,), f"{sf.name} flow")),
        mu=MomentumMap(field("mu", (sf.group_dim,)), sf.beta),
        section=_row_map(programs["section"], (dim,), f"{sf.name} section"),
        tolerances=dict(sf.tolerances),
        sample_spec=sf.sample_spec,
    )


def _read_scenario_text(path) -> str:
    """The text of the scenario file at ``path``; a file that is not UTF-8
    text raises ScenarioFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path} is not UTF-8 text ({exc.reason})") from None


def load_scenario_file(path) -> ReductionScenario:
    return compile_scenario(parse_scenario(_read_scenario_text(path)))


# ---------------------------------------------------------------------------
# built-in registry, written in the scenario file format itself

_HOPF_TEXT = """
# circle reduction of the flat two-plane chart at the unit-sphere level
name = hopf
dim = 4
group_dim = 1
quotient_dim = 2
abelian = true

omega = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
metric = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
acs = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]

# clockwise phase rotation of both coordinate planes
flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1),
        x3*cos(t1) + x4*sin(t1), x4*cos(t1) - x3*sin(t1)]
mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]
beta = [0.5]

# normalized graph w -> (1, w) of the affine quotient chart
section = [1/sqrt(1 + w1^2 + w2^2), 0,
           w1/sqrt(1 + w1^2 + w2^2), w2/sqrt(1 + w1^2 + w2^2)]

sample.count = 20
sample.seed = 7
sample.radius = 2
"""

_LINEAR_TRANSLATION_TEXT = """
# free translation of the first position coordinate; momentum is its conjugate
name = linear_translation
dim = 4
group_dim = 1
quotient_dim = 2
abelian = true

omega = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
metric = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
acs = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]

flow = [x1 + t1, x2, x3, x4]
mu = [x2]
beta = [0]
section = [0, 0, w1, w2]

sample.count = 20
sample.seed = 11
sample.radius = 2
"""

_SKEWED_METRIC_TEXT = """
# hopf data with a stretched metric: the triple is deliberately incompatible
name = skewed_metric_hopf
dim = 4
group_dim = 1
quotient_dim = 2
abelian = true

omega = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
metric = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]]
acs = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]

flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1),
        x3*cos(t1) + x4*sin(t1), x4*cos(t1) - x3*sin(t1)]
mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]
beta = [0.5]
section = [1/sqrt(1 + w1^2 + w2^2), 0,
           w1/sqrt(1 + w1^2 + w2^2), w2/sqrt(1 + w1^2 + w2^2)]

sample.count = 20
sample.seed = 7
sample.radius = 2
"""

_NONINVARIANT_METRIC_TEXT = """
# hopf data with a position-dependent metric that the circle does not preserve
name = noninvariant_metric_hopf
dim = 4
group_dim = 1
quotient_dim = 2
abelian = true

omega = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
metric = [[1 + x3^2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
acs = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]

flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1),
        x3*cos(t1) + x4*sin(t1), x4*cos(t1) - x3*sin(t1)]
mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]
beta = [0.5]
section = [1/sqrt(1 + w1^2 + w2^2), 0,
           w1/sqrt(1 + w1^2 + w2^2), w2/sqrt(1 + w1^2 + w2^2)]

sample.count = 20
sample.seed = 7
sample.radius = 2
"""


def _euclidean_text(planes: int) -> str:
    dim = 2 * planes
    q = dim - 2

    def blocks(diagonal, upper, lower):
        """The dim x dim block-diagonal matrix with one 2 x 2 block
        [[diagonal, upper], [lower, diagonal]] per plane."""
        def entry(r, c):
            if r // 2 != c // 2:
                return "0"
            return diagonal if r == c else upper if r < c else lower
        return "[" + ", ".join("[" + ", ".join(entry(r, c) for c in range(dim)) + "]"
                               for r in range(dim)) + "]"

    flow_entries = []
    for j in range(planes):
        a, b = f"x{2 * j + 1}", f"x{2 * j + 2}"
        flow_entries.append(f"{a}*cos(t1) + {b}*sin(t1)")
        flow_entries.append(f"{b}*cos(t1) - {a}*sin(t1)")
    squares = " + ".join(f"x{i + 1}^2" for i in range(dim))

    if q:
        w_sq = " + ".join(f"w{i + 1}^2" for i in range(q))
        denom = f"sqrt(1 + {w_sq})"
        section_entries = [f"1/{denom}", "0"] + [f"w{i + 1}/{denom}" for i in range(q)]
    else:
        section_entries = ["1", "0"]

    return "\n".join([
        "# flat standard structures with the diagonal circle reduction",
        "name = euclidean_r2n",
        f"dim = {dim}",
        "group_dim = 1",
        f"quotient_dim = {q}",
        "abelian = true",
        f"omega = {blocks('0', '1', '-1')}",
        f"metric = {blocks('1', '0', '0')}",
        f"acs = {blocks('0', '-1', '1')}",
        f"flow = [{', '.join(flow_entries)}]",
        f"mu = [0.5*({squares})]",
        "beta = [0.5]",
        f"section = [{', '.join(section_entries)}]",
        "sample.count = 20",
        "sample.seed = 5",
        "sample.radius = 2",
    ])


_BUILTIN_TEXTS = {
    "hopf": _HOPF_TEXT,
    "linear_translation": _LINEAR_TRANSLATION_TEXT,
    "skewed_metric_hopf": _SKEWED_METRIC_TEXT,
    "noninvariant_metric_hopf": _NONINVARIANT_METRIC_TEXT,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_TEXTS)) + ("euclidean_r2n",)


def builtin_text(name: str, planes: int = 2) -> str:
    """Scenario-file source of a built-in, exactly as it is compiled."""
    if name == "euclidean_r2n":
        return _euclidean_text(planes)
    try:
        return _BUILTIN_TEXTS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; built-ins are {', '.join(builtin_names())}"
        ) from None


def builtin(name: str, planes: int = 2) -> ReductionScenario:
    """Fully populated built-in scenario.

    ``planes`` selects the member of the euclidean_r2n family (chart
    dimension 2 * planes) and is ignored by the other built-ins.
    """
    return compile_scenario(parse_scenario(builtin_text(name, planes)))
