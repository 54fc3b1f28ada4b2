"""The package's records: plain ``__slots__`` classes that build no code at
import, every one immutable, the run configuration and the report
included, with value equality for the AST nodes and the sampling request,
and one constructor on the base that stores a record's fields."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symred
from symred.actions import PushforwardTable, pushforward_table
from symred.cli import DEFAULT_SUITES, RunConfig, run
from symred.errors import Record, _set
from symred.exprlang import BinOp, Call, Coord, Neg, Num, Pow, Program, parse_expression
from symred.reduction import (ReducedStructures, SampleSpec, SplitTangentSpace, _FrameTable,
                              _LiftFrames, lift_frames, split_tangent)
from symred.report import VerificationReport
from symred.scenarios import ScenarioFile, builtin
from symred.structures import CompatibleTriple, StructureCheckResult
from util import replaced

HOPF = builtin("hopf")

# a fresh interpreter: the modules that importing symred.cli adds after numpy
_IMPORT_DELTA = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
before = set(sys.modules)
import symred.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_builds_no_dataclass_and_loads_no_argparse():
    src = str(Path(symred.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _IMPORT_DELTA, src], capture_output=True,
                         text=True, timeout=120, check=True)
    added = set(out.stdout.split())
    assert "symred.cli" in added
    assert added.isdisjoint({"dataclasses", "argparse", "gettext"}), sorted(added)


# a fresh interpreter: the compile_exprs calls that importing symred.cli makes
_IMPORT_COMPILES = """
import sys
sys.path.insert(0, sys.argv[1])
import symred.exprlang, symred.scenarios
calls = []
original = symred.exprlang.compile_exprs

def counted(*args, **kwargs):
    calls.append(args[-1])
    return original(*args, **kwargs)

for module in (symred.exprlang, symred.scenarios):
    module.compile_exprs = counted
import symred.cli
print(len(calls), *calls)
"""


def test_importing_the_cli_compiles_nothing():
    # the holomorphy suite's reference maps are compiled when it runs
    src = str(Path(symred.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _IMPORT_COMPILES, src], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["0"]


def _package_classes():
    modules = [importlib.import_module(f"symred.{info.name}")
               for info in pkgutil.iter_modules(symred.__path__)]
    return [c for m in modules for _, c in inspect.getmembers(m, inspect.isclass)
            if c.__module__ == m.__name__]


def test_no_class_of_the_package_is_a_dataclass():
    classes = _package_classes()
    assert len(classes) > 21
    assert [c for c in classes if dataclasses.is_dataclass(c)] == []


NODES = [Num(1.0), Coord("x1"), Neg(Coord("x1")), BinOp("+", Num(1.0), Coord("x1")),
         Pow(Coord("x1"), 2), Call("sin", Coord("x1"))]


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_equal_nodes_compare_and_hash_equal(node):
    twin = type(node)(*node._values())
    assert twin is not node
    assert twin == node and not twin != node
    assert hash(twin) == hash(node)
    assert len({node, twin}) == 1


def test_nodes_of_different_types_never_compare_equal():
    x1 = Coord("x1")
    assert Num(1.0) != Coord("x1")
    # the same field values, in two node types
    assert Pow(x1, 2) != Call(x1, 2) and Call(x1, 2) != Pow(x1, 2)
    assert Neg(x1) != Call("neg", x1)
    assert len({Pow(x1, 2), Call(x1, 2)}) == 2
    # and a node is never equal to the tuple of its fields
    assert BinOp("+", x1, x1) != ("+", x1, x1)


def test_node_repr_names_the_type_and_every_field():
    # an error message can quote a node (``abelian must be true, got ...``)
    assert repr(parse_expression("-(x1 + 2)^2 * sin(y)")) == (
        "BinOp(op='*', left=Neg(arg=Pow(base=BinOp(op='+', left=Coord(name='x1'), "
        "right=Num(value=2.0)), power=2)), right=Call(fn='sin', arg=Coord(name='y')))")


def test_sample_specs_compare_by_value():
    assert SampleSpec() == SampleSpec()
    assert hash(SampleSpec()) == hash(SampleSpec())
    assert SampleSpec(points=((0.5, 0.2),)) == SampleSpec(20, 0, 2.0, ((0.5, 0.2),))
    assert SampleSpec(count=5) != SampleSpec()
    assert HOPF.sample_spec == SampleSpec(**dict(zip(SampleSpec._fields,
                                                     HOPF.sample_spec._values())))


def _records():
    table = pushforward_table(HOPF.action, [[0.3]], HOPF.section.rows(np.array([[0.1, 0.2]])))
    frames = lift_frames(HOPF, np.array([[0.1, 0.2]])).base
    check = StructureCheckResult("c", 0.0, 1.0, None)
    return {"node": BinOp("+", Num(1.0), Coord("x1")), "scenario": HOPF, "frames": frames,
            "check": check, "table": table}


@pytest.mark.parametrize("kind", ["node", "scenario", "frames", "check", "table"])
def test_records_refuse_assignment(kind):
    record = _records()[kind]
    name = record._fields[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    assert getattr(record, name) is value


def test_copy_and_pickle_rebuild_a_record_through_its_constructor():
    node = parse_expression("-(x1 + 2)^2 * sin(y)")
    assert copy.deepcopy(node) == node and pickle.loads(pickle.dumps(node)) == node
    spec = SampleSpec(5, 1, 0.5, ((0.5, 0.2),))
    assert copy.copy(spec) == spec and pickle.loads(pickle.dumps(spec)) == spec
    check = pickle.loads(pickle.dumps(StructureCheckResult("c", 0.5, 1e-8, (0.1,), "id", {"k": 2})))
    assert repr(check) == ("StructureCheckResult(name='c', max_residual=0.5, tolerance=1e-08, "
                           "worst_point=(0.1,), identity='id', extras={'k': 2})")


def test_run_config_checks_its_suites_and_refuses_assignment():
    refused = "^suites must be a sequence of suite names, got 'action'$"
    with pytest.raises(ValueError, match=refused):
        RunConfig("hopf", suites="action")
    cfg = RunConfig("hopf", suites=iter(["action"]))
    assert cfg.suites == ("action",) and cfg.tolerances == {}
    with pytest.raises(AttributeError):
        cfg.samples = 3
    assert cfg.samples is None


def test_every_class_of_the_package_but_its_errors_and_the_parser_is_a_record():
    classes = [c for c in _package_classes() if not issubclass(c, (Exception, Warning))]
    assert RunConfig in classes and VerificationReport in classes
    # the parser is a cursor over lexemes, which moves as it reads
    assert [c.__qualname__ for c in classes if not issubclass(c, Record)] == ["ExprParser"]


def test_no_field_of_a_run_config_can_be_reassigned():
    cfg = RunConfig("hopf", samples=3, seed=1)
    for name, value in zip(cfg._fields, cfg._values()):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(cfg, name, value)
    # a config checked once and then pointed at no suite would pass having
    # checked nothing, and a tolerance of no check would be ignored
    with pytest.raises(AttributeError):
        cfg.suites = ("nonsense",)
    with pytest.raises(AttributeError):
        cfg.tolerances = {"no.such": 1.0}
    assert cfg.suites == DEFAULT_SUITES and cfg.tolerances == {}


def test_the_tolerances_of_a_run_config_are_a_read_only_copy():
    given = {"structures.metric": 1e-9}
    cfg = RunConfig("hopf", samples=3, seed=1, tolerances=given)
    given["structures.metric"] = 1.0
    # an entry set afterwards would skip check_tolerance: an unknown name
    # would be ignored, and a negative value refused only when judged
    for name, value in (("no.such", 1.0), ("structures.metric", -1.0)):
        with pytest.raises(TypeError):
            cfg.tolerances[name] = value
    assert cfg.tolerances == {"structures.metric": 1e-9}
    for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert twin.tolerances == cfg.tolerances
        with pytest.raises(TypeError):
            twin.tolerances["no.such"] = 1.0
    assert run(cfg)[0].find("metric field").tolerance == 1e-9


def test_copy_and_pickle_of_a_report_reproduce_its_json():
    report, code = run(RunConfig("hopf"))
    assert code == 0
    for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert type(twin) is VerificationReport and twin is not report
        assert twin.to_json() == report.to_json()


def test_a_pickled_run_config_is_rebuilt_through_its_checks():
    cfg = RunConfig("hopf", samples=3, seed=1, tolerances={"structures.metric": 1e-9})
    assert pickle.loads(pickle.dumps(cfg))._values() == cfg._values()
    _set(cfg, "suites", ("nonsense",))  # past the checks, as no caller can
    with pytest.raises(ValueError, match=r"^unknown suites \['nonsense'\]"):
        pickle.loads(pickle.dumps(cfg))


# the records that store their fields through the base constructor alone
PLAIN = [PushforwardTable, Program, SplitTangentSpace, ReducedStructures, _LiftFrames,
         _FrameTable, ScenarioFile, CompatibleTriple]


def _fields_and_values(cls):
    return cls._fields, tuple(f"value of {name}" for name in cls._fields)


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_store_the_same_fields(cls):
    fields, values = _fields_and_values(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position._values() == by_keyword._values() == values
    assert [getattr(by_keyword, name) for name in fields] == list(values)
    # keywords after positions, in any order
    half = len(fields) // 2
    mixed = cls(*values[:half], **dict(reversed(list(zip(fields, values))[half:])))
    assert mixed._values() == values


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_a_missing_unknown_or_repeated_field_is_refused_naming_the_class(cls):
    fields, values = _fields_and_values(cls)
    name = cls.__qualname__
    with pytest.raises(TypeError, match=f"^{name} is missing field '{fields[-1]}'$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"^{name} is missing field '{fields[0]}', '{fields[1]}'$"):
        cls(**dict(zip(fields[2:], values[2:])))
    with pytest.raises(TypeError, match=f"^{name} has no field 'extra'$"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"^{name} takes {len(fields)} fields, "
                                        f"got {len(fields) + 1} positional$"):
        cls(*values, 1)
    with pytest.raises(TypeError, match=f"^{name} got field '{fields[0]}' twice$"):
        cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_copy_pickle_and_replaced_rebuild_a_plain_record(cls):
    fields, values = _fields_and_values(cls)
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin is not record
        assert twin._values() == values
    changed = replaced(record, **{fields[-1]: "new"})
    assert type(changed) is cls and changed._values() == values[:-1] + ("new",)


def test_lift_frames_extend_a_split_by_keyword():
    X = np.array([[0.1, 0.2], [0.4, -0.3]])
    split = split_tangent(HOPF, HOPF.section.rows(X))
    frames = lift_frames(HOPF, X).base
    extra = {name: getattr(frames, name) for name in _LiftFrames.__slots__}
    rebuilt = _LiftFrames(*split._values(), **extra)
    assert rebuilt._fields == SplitTangentSpace._fields + _LiftFrames.__slots__
    assert all(a is b for a, b in zip(rebuilt._values(), split._values() + tuple(extra.values())))
    for mine, theirs in zip(rebuilt._values(), frames._values()):
        np.testing.assert_array_equal(mine, theirs)
    assert rebuilt[1:]._values()[0].shape == (1, 4)
