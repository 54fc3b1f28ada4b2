"""Scenario file parsing, validation and the built-in registry."""

import hashlib
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from symred import exprlang, scenarios
from symred.actions import apply_flow
from symred.errors import NonFiniteError, ParseError, UnknownScenarioError, ValidationError
from symred.geometry import eval_field
from symred.reduction import SampleSpec
from symred.scenarios import (
    MAX_SAMPLES,
    builtin,
    builtin_names,
    builtin_text,
    compile_scenario,
    parse_scenario,
)
from symred.structures import (
    CompatibleTriple,
    check_acs,
    check_compatibility,
    check_metric,
    check_symplectic_pointwise,
)
from symred.geometry import sample_box

from util import TORUS_T2_TEXT, one, reference_eval_expr

MINIMAL = """
name = toy
dim = 2
omega = [[0, 1], [-1, 0]]
metric = [[1, 0], [0, 1]]
acs = [[0, -1], [1, 0]]
flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1)]
mu = [0.5*(x1^2 + x2^2)]
beta = [0.5]
section = [1, 0]
"""


def test_parse_minimal_scenario():
    sf = parse_scenario(MINIMAL)
    assert sf.name == "toy"
    assert sf.dim == 2 and sf.group_dim == 1 and sf.quotient_dim == 0
    assert sf.beta == (0.5,)


def test_parse_fragment_examples():
    sf = parse_scenario(MINIMAL)
    scen = compile_scenario(sf)
    om = eval_field(scen.omega, one([0.0, 0.0]))[0]
    np.testing.assert_array_equal(om, [[0.0, 1.0], [-1.0, 0.0]])
    assert eval_field(scen.mu.field, one([1.0, 0.0]))[0].tolist() == [0.5]


def test_parse_error_unclosed_bracket():
    with pytest.raises(ParseError) as excinfo:
        parse_scenario("g = [[1,0],[0,1]")
    assert excinfo.value.line == 1


@pytest.mark.parametrize("text, message", [
    ("dim = 4\n2 = 3", "unexpected NUMBER '2' at line 2, column 1 (expected key name)"),
    ("tol.3 = 1", "unexpected NUMBER '3' at line 1, column 5 (expected key name)"),
    ("name = 5", "unexpected NUMBER '5' at line 1, column 8 (expected bare word)"),
    ("name = hopf\nabelian = 1e5",
     "unexpected NUMBER '1e5' at line 2, column 11 (expected bare word)"),
])
def test_a_number_is_no_key_or_bare_word(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_scenario(text)
    assert str(excinfo.value) == message


_HOPF = builtin_text("hopf")


@pytest.mark.parametrize("text, message", [
    (_HOPF.replace("mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]",
                   "mu = [" + " + ".join(["x1"] * 201) + "]"),
     "expression nests too deeply (201 levels, at most 200) at line 16, column 7"),
    (_HOPF.replace("beta = [0.5]", "beta = [" + "(" * 300 + "1" + ")" * 300 + "]"),
     "expression nests too deeply at line 17, column 49"),
    ("omega = [[0, 1],\n\n   [-1 0]]",
     "unexpected NUMBER '0' at line 3, column 8 (expected ']')"),
    ("name = x\nomega = [[0, 1],\n   [-1, 0]  # open\n",
     "unexpected EOF '' at line 3, column 11 (expected ']')"),
    ("dim = 4 5\n",
     "trailing NUMBER '5' after value of 'dim' at line 1, column 9 (expected end of line)"),
])
def test_parse_error_positions_in_long_and_multiline_statements(text, message):
    # the texts and positions of the token-object parser the lexeme parser replaced
    with pytest.raises(ParseError) as excinfo:
        parse_scenario(text)
    assert str(excinfo.value) == message


def test_metric_alias_and_multiline_matrices():
    text = MINIMAL.replace("metric = [[1, 0], [0, 1]]",
                           "g = [[1, 0],\n     [0, 1]]")
    sf = parse_scenario(text)
    assert len(sf.metric) == 2


def test_validation_errors():
    with pytest.raises(ValidationError, match="missing required key"):
        parse_scenario("name = x\ndim = 2")
    with pytest.raises(ValidationError, match="odd symplectic"):
        parse_scenario(MINIMAL.replace("dim = 2", "dim = 3"))
    with pytest.raises(ValidationError, match="unknown key"):
        parse_scenario(MINIMAL + "\nwhatever = 3")
    with pytest.raises(ValidationError, match="duplicate key"):
        parse_scenario(MINIMAL + "\nbeta = [0.5]")
    with pytest.raises(ValidationError, match="unknown identifier"):
        parse_scenario(MINIMAL.replace("mu = [0.5*(x1^2 + x2^2)]", "mu = [x9]"))
    with pytest.raises(ValidationError, match="must be"):
        parse_scenario(MINIMAL.replace("omega = [[0, 1], [-1, 0]]",
                                       "omega = [[0, 1, 0], [-1, 0, 0]]"))
    with pytest.raises(ValidationError, match="ragged"):
        parse_scenario(MINIMAL.replace("omega = [[0, 1], [-1, 0]]",
                                       "omega = [[0, 1], [-1]]"))
    with pytest.raises(ValidationError, match="constant"):
        parse_scenario(MINIMAL.replace("beta = [0.5]", "beta = [x1]"))
    with pytest.raises(ValidationError, match="sample.count must be at least 1"):
        parse_scenario(MINIMAL + "\nsample.count = 0\n")
    with pytest.raises(ValidationError, match="^group_dim must be at least 1, got 0$"):
        parse_scenario(MINIMAL.replace("dim = 2", "dim = 2\ngroup_dim = 0"))
    assert parse_scenario(MINIMAL + f"\nsample.count = {MAX_SAMPLES}\n").sample_spec.count \
        == MAX_SAMPLES
    for old, new, message in [
        ("dim = 2", "dim = 0", "dim must be positive, got 0"),
        ("dim = 2", "dim = 2.5", "value of 'dim' must be an integer, got 2.5"),
        ("dim = 2", "dim = [2]", "value of 'dim' must be a single expression"),
        ("dim = 2", "dim = 2\ngroup_dim = 2", "quotient dimension -2 is negative"),
        ("mu = [0.5*(x1^2 + x2^2)]", "mu = [x1, x2]", "mu must have 1 components, got 2"),
        ("beta = [0.5]", "group_dim = 1\nbeta = [0.5, 1]", "beta must have 1 entries, got 2"),
        ("flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1)]", "flow = [[x1, x2]]",
         "value of 'flow' must be a vector [..]"),
        ("omega = [[0, 1], [-1, 0]]", "omega = [0, 1]",
         "value of 'omega' must be a matrix [[..], ..]"),
    ]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_scenario(MINIMAL.replace(old, new))


def test_a_vector_key_may_be_written_bare():
    # a bare expression is the one-entry vector [expression]
    bracketed = parse_scenario(MINIMAL)
    bare = parse_scenario(MINIMAL.replace("beta = [0.5]", "beta = 0.5")
                          .replace("mu = [0.5*(x1^2 + x2^2)]", "mu = 0.5*(x1^2 + x2^2)"))
    assert bare.beta == bracketed.beta == (0.5,)
    assert bare.mu == bracketed.mu
    X = sample_box(2, 5, radius=2.0, seed=1)
    np.testing.assert_array_equal(eval_field(compile_scenario(bare).mu.field, X),
                                  eval_field(compile_scenario(bracketed).mu.field, X))


@pytest.mark.parametrize("name", builtin_names() + ("MINIMAL",))
def test_one_parser_reads_a_whole_file(name, monkeypatch):
    # the statements are read back to back by one parser
    text = MINIMAL if name == "MINIMAL" else builtin_text(name)
    parsers = []
    init = exprlang.ExprParser.__init__

    def counted(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(exprlang.ExprParser, "__init__", counted)
    parse_scenario(text)
    assert len(parsers) == 1


@pytest.mark.parametrize("line,message", [
    ("dim = 2000000", "^omega must be 2000000x2000000, got 2x2$"),
    # a negative group dimension makes the quotient dimension large
    ("dim = 2\ngroup_dim = -1000000", "^group_dim must be at least 1, got -1000000$"),
    # verify would draw a (10^12, n) array of sample points
    ("dim = 2\nsample.count = 1000000000000",
     f"^sample.count must be at most {MAX_SAMPLES}, got 1000000000000$"),
], ids=["dim", "group_dim", "sample.count"])
def test_a_declared_size_is_refused_before_anything_scales_with_it(line, message):
    # the coordinate names of every declared size used to be built before
    # any map's shape was compared with it: dim = 2000000 peaked at 259 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=message):
            parse_scenario(MINIMAL.replace("dim = 2", line))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_section_uses_quotient_names_only():
    text = MINIMAL.replace("section = [1, 0]", "section = [w1, 0]")
    with pytest.raises(ValidationError, match="unknown identifier"):
        parse_scenario(text)  # quotient dim is 0, so w1 is out of range


def test_tolerance_and_sample_keys():
    text = MINIMAL + "\ntol.reduction.identity = 1e-4\nsample.count = 7\nsample.seed = 3\n"
    sf = parse_scenario(text)
    assert sf.tolerances == {"reduction.identity": 1e-4}
    assert sf.sample_spec.count == 7 and sf.sample_spec.seed == 3
    assert parse_scenario(MINIMAL).sample_spec == SampleSpec()  # no sample keys: the defaults
    scen = compile_scenario(sf)
    assert scen.tolerances["reduction.identity"] == 1e-4


def test_explicit_sample_points():
    hopf_text = builtin_text("hopf") + "\nsample.points = [[0, 0], [1, 0]]\n"
    sf = parse_scenario(hopf_text)
    assert [list(p) for p in sf.sample_spec.points] == [[0.0, 0.0], [1.0, 0.0]]


def test_builtin_names_and_unknown():
    # in the order of list-scenarios, which the benchmark's sweep runs
    assert builtin_names() == ("hopf", "linear_translation", "noninvariant_metric_hopf",
                               "skewed_metric_hopf", "euclidean_r2n")
    with pytest.raises(UnknownScenarioError):
        builtin("not_a_scenario")


def test_builtin_hopf_momentum_value():
    scen = builtin("hopf")
    assert abs(eval_field(scen.mu.field, one([1.0, 0.0, 0.0, 0.0]))[0, 0] - 0.5) < 1e-15
    m = scen.section.rows(one([0.3, -1.1]))
    assert abs(eval_field(scen.mu.field, m)[0, 0] - 0.5) < 1e-12


def test_builtin_euclidean_r2_exact_triple():
    scen = builtin("euclidean_r2n", planes=1)
    assert scen.chart_dim == 2 and scen.quotient_dim == 0
    pts = sample_box(2, 5, radius=2.0, seed=1)
    triple = CompatibleTriple(scen.omega, scen.metric, scen.acs)
    assert check_metric(scen.metric, pts).max_residual == 0.0
    assert check_symplectic_pointwise(scen.omega, pts).max_residual == 0.0
    assert check_acs(scen.acs, pts).max_residual == 0.0
    assert check_compatibility(triple, pts).max_residual == 0.0


def test_builtin_euclidean_default_matches_hopf_dims():
    scen = builtin("euclidean_r2n")
    assert scen.chart_dim == 4 and scen.quotient_dim == 2


def test_builtin_hopf_passes_hypothesis_checks_at_1e6():
    scen = builtin("hopf")
    pts = sample_box(4, 8, radius=1.5, seed=12)
    params = [np.array([a]) for a in (0.3, 2.0, np.pi)]
    from symred.actions import (
        check_field_invariance,
        check_isometry,
        check_momentum_invariance,
        check_symplectomorphism,
        momentum_residual,
        pushforward_table,
    )
    table = pushforward_table(scen.action, params, pts)
    triple = CompatibleTriple(scen.omega, scen.metric, scen.acs)
    assert check_compatibility(triple, pts).max_residual < 1e-6
    assert check_isometry(scen.metric, table).max_residual < 1e-6
    assert check_symplectomorphism(scen.omega, table).max_residual < 1e-6
    assert momentum_residual(scen.action, scen.mu, scen.omega, pts).max_residual < 1e-6
    assert check_momentum_invariance(scen.mu, table).max_residual < 1e-6
    assert check_field_invariance(scen.acs, table).max_residual < 1e-6


def test_builtin_text_round_trips_through_parser():
    for name in builtin_names():
        sf = parse_scenario(builtin_text(name))
        assert sf.name == name


# SHA-256 of builtin_text(name, planes): every built-in at its default two
# planes and euclidean_r2n at planes 1-8.  The benchmark runs hopf and the
# controls by name and writes euclidean_r2n to a scenario file, so each text
# stays byte for byte
_TEXT_SHA256 = {
    ("hopf", 2): "a1c40939b9f3c1581d5d37e04c49caaa1f17451d95c916dcb5c6100ad4c3573b",
    ("linear_translation", 2): "95faae69c54caed76824593b6d00f87b8e2a40e45e05a2f721ddc201335c4087",
    ("noninvariant_metric_hopf", 2):
        "5ce43f6e1677efc59d1a036bb7709c852cfbc5ffb72e89a1d9d5f66a795a98b3",
    ("skewed_metric_hopf", 2): "c089b74aa4d82bec75432fc7073d767f0457030f5f829d9717c87aeb14e1a01f",
    ("euclidean_r2n", 1): "9ad9e81bae14c10be0f26351f85df47a241136d248bf0b0c33cdb945dd84d5c7",
    ("euclidean_r2n", 2): "4bd83fa574a7355b0ade9296d8d220cf3bb8457453cab166a5a9276273546ae1",
    ("euclidean_r2n", 3): "08499371dd0c1aa365bf2ee5e7e508796c8ee9be1d6a5fb0787244163d13b652",
    ("euclidean_r2n", 4): "70ad1de4ea925374dc417d7b5600f5da43c88c61191650ab8e7718266305035c",
    ("euclidean_r2n", 5): "cbd7a632b5b02fe85d07eb9e7683d62dc802eea3451a7dc9cd5cc3770501d4fc",
    ("euclidean_r2n", 6): "a5bbcad3eb0bc901655dd1c10e4630780d197faedea5aebe11bd13ab8a40e1df",
    ("euclidean_r2n", 7): "ba1e5e64f005418702890bc035a6f28496892ee68ba47e973105fc1aa97bb1d1",
    ("euclidean_r2n", 8): "fa89b01a6e8849b1d0ebd30a6712db6dd73a9a38015e0105e792093f0473279c",
}


def _text_sha256(name, planes=2):
    return hashlib.sha256(builtin_text(name, planes).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_text_is_pinned_byte_for_byte(name):
    assert _text_sha256(name) == _TEXT_SHA256[name, 2]


@pytest.mark.parametrize("planes", range(1, 9))
def test_euclidean_text_is_pinned_byte_for_byte(planes):
    assert _text_sha256("euclidean_r2n", planes) == _TEXT_SHA256["euclidean_r2n", planes]


@pytest.mark.parametrize("name", ["skewed_metric_hopf", "noninvariant_metric_hopf"])
def test_a_control_parses_to_hopf_but_for_its_name_and_metric(name):
    hopf, control = parse_scenario(builtin_text("hopf")), parse_scenario(builtin_text(name))
    assert (control.name, hopf.name) == (name, "hopf") and control.metric != hopf.metric
    # a program is a record, equal only to itself: it is compiled from the
    # expressions compared here, so its keys are compared alone
    for field in set(hopf._fields) - {"name", "metric", "programs"}:
        assert getattr(control, field) == getattr(hopf, field), field
    assert control.programs.keys() == hopf.programs.keys()


def test_the_complete_example_of_the_readme_is_hopf_without_its_comments():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("A complete example (the built-in `hopf`", 1)[1]
    example = example.split("\n```\n", 2)[1]
    lines = [line for line in builtin_text("hopf").split("\n") if not line.startswith("#")]
    assert example == "\n".join(lines).strip("\n")


_FIELD_CHECK = """
name = mixed
dim = 4
omega = [[0, 1 + x3^2, 0, 0], [-1 - x3^2, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]
metric = [[exp(x1), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1 + sin(x2)^2, 0.5], [0, 0, 0.5, 1]]
acs = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1), x3, x4/(1 + t1^2)]
mu = [0.5*(x1^2 + x2^2) - x4]
beta = [0.5]
section = [1/sqrt(1 + w1^2), w1, -w2, 0]
"""


@pytest.mark.parametrize("text", [_FIELD_CHECK, builtin_text("hopf"),
                                  builtin_text("noninvariant_metric_hopf"),
                                  builtin_text("euclidean_r2n", 3)])
def test_compiled_fields_match_reference_evaluation(text):
    sf = parse_scenario(text)
    scen = compile_scenario(sf)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=sf.dim)
        env = {f"x{i + 1}": float(c) for i, c in enumerate(x)}
        t = float(rng.uniform(-3.0, 3.0))
        w = rng.uniform(-1.5, 1.5, size=sf.quotient_dim)
        w_env = {f"w{i + 1}": float(c) for i, c in enumerate(w)}
        p = one(x)
        for rows, field in ((sf.omega, scen.omega), (sf.metric, scen.metric),
                            (sf.acs, scen.acs)):
            want = np.array([[reference_eval_expr(e, env) for e in row] for row in rows])
            assert eval_field(field, p)[0].tobytes() == want.tobytes()
        flow_want = np.array([reference_eval_expr(e, {**env, "t1": t}) for e in sf.flow])
        assert apply_flow(scen.action, np.array([t]), p)[0].tobytes() == flow_want.tobytes()
        mu_want = np.array([reference_eval_expr(e, env) for e in sf.mu])
        assert eval_field(scen.mu.field, p)[0].tobytes() == mu_want.tobytes()
        section_want = np.array([reference_eval_expr(e, w_env) for e in sf.section])
        assert scen.section.rows(one(w))[0].tobytes() == section_want.tobytes()


@pytest.mark.parametrize("text", [_FIELD_CHECK, builtin_text("hopf"),
                                  builtin_text("noninvariant_metric_hopf"),
                                  builtin_text("euclidean_r2n", 8)])
def test_compiled_rows_match_reference_evaluation(text):
    # one batch call per map gives every row the bits of its tree walks
    sf = parse_scenario(text)
    scen = compile_scenario(sf)
    rng = np.random.default_rng(23)
    X = rng.uniform(-1.5, 1.5, size=(40, sf.dim))
    T = rng.uniform(-3.0, 3.0, size=(40, 1))
    W = rng.uniform(-1.5, 1.5, size=(40, sf.quotient_dim))
    envs = [{f"x{i + 1}": c for i, c in enumerate(x)} for x in X.tolist()]
    for rows, field in ((sf.omega, scen.omega), (sf.metric, scen.metric), (sf.acs, scen.acs)):
        want = [[[reference_eval_expr(e, env) for e in row] for row in rows] for env in envs]
        assert field.func.rows(X).tobytes() == np.array(want).tobytes()
    want = [[reference_eval_expr(e, {**env, "t1": t}) for e in sf.flow]
            for env, (t,) in zip(envs, T.tolist())]
    assert scen.action.flow.rows(np.hstack([X, T])).tobytes() == np.array(want).tobytes()
    want = [[reference_eval_expr(e, env) for e in sf.mu] for env in envs]
    assert scen.mu.field.func.rows(X).tobytes() == np.array(want).tobytes()
    want = [[reference_eval_expr(e, {f"w{i + 1}": c for i, c in enumerate(w)})
             for e in sf.section] for w in W.tolist()]
    assert scen.section.rows(W).tobytes() == np.array(want).tobytes()


def _count_functions(monkeypatch):
    """Count calls of the expression functions by name and argument type;
    patched before compiling, since programs bind them at compile time."""
    seen = Counter()
    for name, fn in list(exprlang.FUNCTIONS.items()):
        def counted(x, _name=name, _fn=fn):
            seen[_name, type(x).__name__] += 1
            return _fn(x)

        monkeypatch.setitem(exprlang.FUNCTIONS, name, counted)
    return seen


def _compiled_maps(text):
    """(name, map, width) of every compiled map of a scenario: the matrix
    fields, mu, the flow over (point, parameter) rows and the section."""
    scen = compile_scenario(parse_scenario(text))
    n, k, q = scen.chart_dim, scen.action.group_dim, scen.quotient_dim
    maps = [(key, getattr(scen, key).func, n) for key in ("omega", "metric", "acs")]
    maps += [("mu", scen.mu.field.func, n), ("flow", scen.action.flow, n + k),
             ("section", scen.section, q)]
    return [(name, f, width) for name, f, width in maps if f.tangents is not None]


@pytest.mark.parametrize("text", [*(builtin_text(name) for name in builtin_names()),
                                  TORUS_T2_TEXT], ids=[*builtin_names(), "torus_t2"])
@pytest.mark.parametrize("count", [1, 20])
def test_tangent_values_have_the_bits_of_rows(text, count):
    # a derivative batch returns the values it computed on (N, 1) columns
    # beside the derivatives, and every caller reads them in place of a run
    # of rows on (N,) columns: they must be the same bits, signed zeros
    # included
    for name, f, width in _compiled_maps(text):
        X = sample_box(width, count, radius=1.5, seed=width + count)
        X[0, ::2] = -0.0
        values, D = f.tangents(X, np.eye(width))
        assert values.tobytes() == f.rows(X).tobytes(), name
        assert D.shape == values.shape + (width,), name


def test_flow_batch_calls_cos_and_sin_once_per_batch(monkeypatch):
    # one kernel call on the t1 column serves every row of the stencil
    seen = _count_functions(monkeypatch)
    flow = builtin("hopf").action.flow
    inputs = Counter()  # what each program run is given: floats or columns, and their shape
    run = exprlang.Program.run

    def recording(program, values):
        inputs[type(values[0]).__name__, np.shape(values[0])] += 1
        return run(program, values)

    monkeypatch.setattr(exprlang.Program, "run", recording)
    rows = np.random.default_rng(4).uniform(-1.0, 1.0, size=(64, 5))
    batch = flow.rows(rows)
    assert seen == {("cos", "ndarray"): 1, ("sin", "ndarray"): 1}
    assert inputs == {("ndarray", (64,)): 1}
    # a single row is a batch of one: a length-1 column per coordinate,
    # with the bits of that row in the batch
    seen.clear()
    inputs.clear()
    one = flow.rows(rows[:1])
    assert seen == {("cos", "ndarray"): 1, ("sin", "ndarray"): 1}
    assert inputs == {("ndarray", (1,)): 1}
    assert one.tobytes() == batch[:1].tobytes()


def test_coordinate_free_matrix_entries_are_folded_once(monkeypatch):
    seen = _count_functions(monkeypatch)
    text = MINIMAL.replace("metric = [[1, 0], [0, 1]]", "metric = [[sqrt(4), -0], [-0, 1]]")
    scen = compile_scenario(parse_scenario(text))
    assert seen == {("sqrt", "float"): 1}
    values = scen.metric.func.rows(np.ones((8, 2)))
    assert seen == {("sqrt", "float"): 1}  # evaluating runs no program
    assert values.tobytes() == np.array([[[2.0, -0.0], [-0.0, 1.0]]] * 8).tobytes()


@pytest.mark.parametrize("entry, message", [
    ("1/(1 - 1)", "division by zero"),
    ("exp(1000)", "exp overflows"),
    ("sqrt(0 - 1)", "sqrt of negative value -1.0"),
])
def test_failing_constant_matrix_entries_raise_per_point(entry, message):
    # an entry whose one-off evaluation raises stays per point, so loading
    # succeeds and every evaluation raises as it would unfolded
    text = MINIMAL.replace("metric = [[1, 0], [0, 1]]", f"metric = [[{entry}, 0], [0, 1]]")
    scen = compile_scenario(parse_scenario(text))
    for X in (np.ones((1, 2)), np.ones((5, 2))):
        with pytest.raises(NonFiniteError, match=re.escape(message)):
            scen.metric.func.rows(X)


def test_constant_subtrees_of_coordinate_entries_are_folded(monkeypatch):
    # sqrt(4) inside an entry that reads x1 is computed once, at load
    seen = _count_functions(monkeypatch)
    text = MINIMAL.replace("metric = [[1, 0], [0, 1]]", "metric = [[x1*sqrt(4), 0], [0, 1]]")
    sf = parse_scenario(text)
    scen = compile_scenario(sf)
    assert seen == {("sqrt", "float"): 1}
    X = np.random.default_rng(8).uniform(-2.0, 2.0, size=(6, 2))
    for batch in (X[:1], X):
        want = [[[reference_eval_expr(e, {"x1": a, "x2": b}) for e in row] for row in sf.metric]
                for a, b in batch.tolist()]
        assert scen.metric.func.rows(batch).tobytes() == np.array(want).tobytes()
    assert seen == {("sqrt", "float"): 1}  # and never per evaluation


@pytest.mark.parametrize("key, check", [
    ("metric", check_metric), ("omega", check_symplectic_pointwise), ("acs", check_acs)])
def test_rows_of_the_wrong_width_raise_for_a_folded_map(key, check):
    # every entry of hopf's structures folds to a constant, so no program
    # runs: the width is checked all the same, with the program's message
    field = getattr(builtin("hopf"), key)
    for X in (np.zeros((1, 3)), np.zeros((4, 5))):
        with pytest.raises(ValueError, match=re.escape(f"expected 4 values, got {X.shape[1]}")):
            field.func.rows(X)
    with pytest.raises(ValueError, match=re.escape("expected 4 values, got 3")):
        check(field, [[0.1, 0.2, 0.3]])


def test_raising_constant_subtrees_of_coordinate_entries_raise_per_point():
    text = MINIMAL.replace("metric = [[1, 0], [0, 1]]", "metric = [[x1*sqrt(0 - 1), 0], [0, 1]]")
    scen = compile_scenario(parse_scenario(text))
    for X in (np.ones((1, 2)), np.ones((5, 2))):
        with pytest.raises(NonFiniteError, match=re.escape("sqrt of negative value -1.0")):
            scen.metric.func.rows(X)
