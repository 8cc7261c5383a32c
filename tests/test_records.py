"""Value semantics of kdilate's immutable records: equality and hash over
the fields, exact class matching, immutability, constructor defaults and
validation messages."""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from kdilate.abelian import (
    FGAbelianGroup,
    GroupHom,
    IncompatibleShapesError,
    IntMatrix,
    SNFResult,
    smith_normal_form,
)
from kdilate.colimit import (
    ColimitDescription,
    DilationProblem,
    classify_colimit,
)
from kdilate.graphalg import Graph, PosetDiagram, ideal_lattice_hasse
from kdilate.kcrossed import (
    CrossedProductK,
    CuntzClosedForm,
    KTheoryData,
    cuntz_closed_form,
    cuntz_k_data,
    pv_crossed_product,
)
from oracles import conjugate, parse_outcome, random_unimodular, reference_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
Z = FGAbelianGroup.free(1)


def _build(cls, rng):
    """One seeded value of each record class."""
    group = FGAbelianGroup(rng.randint(0, 2), (2, 2 * rng.randint(1, 4)))
    endo = GroupHom.multiplication(group, rng.randint(-3, 3))
    m = rng.randint(1, 4)
    n = rng.randint(m + 1, 9)
    names = ("a", "b", "c")
    adjacency = [[rng.randint(1, 2) if i == j else rng.randint(0, 1) * (i < j)
                  for j in range(3)] for i in range(3)]
    builders = {
        IntMatrix: lambda: IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(3)] for _ in range(2)]),
        SNFResult: lambda: smith_normal_form(
            IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])),
        FGAbelianGroup: lambda: group,
        GroupHom: lambda: endo,
        DilationProblem: lambda: DilationProblem(group, endo),
        ColimitDescription: lambda: classify_colimit(DilationProblem(group, endo)),
        KTheoryData: lambda: KTheoryData(group, Z, endo, GroupHom.multiplication(Z, m)),
        CrossedProductK: lambda: pv_crossed_product(cuntz_k_data(None, m)),
        CuntzClosedForm: lambda: cuntz_closed_form(n, m),
        Graph: lambda: Graph.from_adjacency(names, adjacency),
        PosetDiagram: lambda: ideal_lattice_hasse(Graph.from_adjacency(names, adjacency)),
    }
    return builders[cls]()


RECORDS = [IntMatrix, SNFResult, FGAbelianGroup, GroupHom, DilationProblem,
           ColimitDescription, KTheoryData, CrossedProductK, CuntzClosedForm, Graph,
           PosetDiagram]


def _fields(value):
    return tuple(getattr(value, f) for f in type(value)._fields)


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def values(request):
    return [_build(request.param, random.Random(seed)) for seed in range(6)]


class TestValueSemantics:
    def test_eq_and_hash_follow_the_tuple_of_fields(self, values):
        for a in values:
            assert hash(a) == hash(_fields(a))
            for b in values:
                assert (a == b) is (_fields(a) == _fields(b))
                assert (a != b) is (_fields(a) != _fields(b))

    def test_construction_from_the_fields_rebuilds_an_equal_value(self, values):
        for value in values:
            cls = type(value)
            by_keyword = cls(**{f: getattr(value, f) for f in cls._fields})
            by_position = cls(*_fields(value))
            for copy in (by_keyword, by_position):
                assert copy is not value
                assert copy == value and hash(copy) == hash(value)
                assert {copy: 1}[value] == 1

    def test_a_missing_unknown_or_surplus_field_raises(self, values):
        value = values[0]
        cls, fields = type(value), _fields(value)
        with pytest.raises(TypeError):  # the first field never has a default
            cls(**dict(zip(cls._fields[1:], fields[1:])))
        with pytest.raises(TypeError):
            cls(*fields, unknown=None)
        with pytest.raises(TypeError):
            cls(*fields, None)

    def test_another_class_with_equal_fields_is_unequal(self, values):
        value = values[0]
        twin = object.__new__(type("Twin", (type(value),), {}))
        vars(twin).update(vars(value))
        assert _fields(twin) == _fields(value)
        assert value != twin and twin != value
        assert value.__eq__(twin) is NotImplemented
        assert value != _fields(value)

    def test_assignment_and_deletion_raise(self, values):
        value = values[0]
        before = _fields(value)
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert _fields(value) == before

    def test_repr_names_every_field(self, values):
        value = values[0]
        args = ", ".join(f"{f}={getattr(value, f)!r}" for f in type(value)._fields)
        assert repr(value) == f"{type(value).__name__}({args})"

    def test_repr_of_a_group(self):
        assert (repr(FGAbelianGroup(1, (2,)))
                == "FGAbelianGroup(free_rank=1, invariant_factors=(2,))")


class TestDefaults:
    def test_group_defaults_to_no_torsion(self):
        assert FGAbelianGroup(3) == FGAbelianGroup(free_rank=3, invariant_factors=())
        assert FGAbelianGroup(free_rank=0, invariant_factors=[2, 4]).invariant_factors == (2, 4)

    def test_snf_result_holds_no_inverse(self):
        identity = IntMatrix.identity(2)
        result = SNFResult(U=identity, S=identity, V=identity)
        assert _fields(result) == (identity,) * 3
        with pytest.raises(TypeError, match="unknown field 'U_inv'"):
            SNFResult(U=identity, S=identity, V=identity, U_inv=identity)

    def test_description_has_no_defaults(self):
        with pytest.raises(TypeError, match="missing field 'fg_part'"):
            ColimitDescription(tag="extension")
        desc = ColimitDescription.finite(Z)
        assert desc == ColimitDescription(tag="finite_or_fg", fg_part=Z, loc_matrix=None,
                                          sub=None, quot=None, resolved=None)
        assert _fields(desc) == ("finite_or_fg", Z) + (None,) * 4

    def test_closed_form_rebuilds_from_its_eight_fields(self):
        form = cuntz_closed_form(7, 2)
        fields = dict(n=7, m=2, k=form.k, order_gcd=form.order_gcd,
                      order_quotient=form.order_quotient, k0=form.k0,
                      k1=form.k1, label=form.label)
        assert CuntzClosedForm(**fields) == form
        assert "emitted" not in CuntzClosedForm._fields
        with pytest.raises(TypeError):
            CuntzClosedForm(**fields, emitted="gcd")


class TestValidationMessages:
    def test_ragged_matrix(self):
        with pytest.raises(ValueError, match="^ragged matrix rows$"):
            IntMatrix(2, 2, ((1, 2), (3,)))

    def test_broken_divisibility_chain(self):
        with pytest.raises(ValueError,
                           match="^invariant factors must form a divisibility chain$"):
            FGAbelianGroup(0, (2, 3))

    def test_hom_of_the_wrong_shape(self):
        with pytest.raises(IncompatibleShapesError,
                           match=r"^matrix shape 2x1 does not match codomain x domain \(1x1\)$"):
            GroupHom(Z, Z, IntMatrix.from_rows([[1], [0]]))

    def test_problem_without_an_endomorphism(self):
        hom = GroupHom(Z, FGAbelianGroup.free(2), IntMatrix.from_rows([[0], [0]]))
        with pytest.raises(IncompatibleShapesError,
                           match="^endomorphism must map the base group to itself$"):
            DilationProblem(Z, hom)

    def test_duplicate_vertex(self):
        with pytest.raises(ValueError, match="^duplicate vertex names$"):
            Graph.from_adjacency(["a", "a"], [[1, 0], [0, 1]])

    def test_poset_cycle(self):
        with pytest.raises(ValueError, match="^cover relation contains a cycle$"):
            PosetDiagram(("a", "b"), (("a", "b"), ("b", "a")))


def test_stored_diagonal_leaves_eq_and_hash_alone():
    p, p_inv = random_unimodular(random.Random(5), 3)
    matrix = conjugate(p, [[2, 0, 0], [0, 3, 0], [0, 0, 5]], p_inv)
    desc = ColimitDescription.localized(matrix)
    twin = ColimitDescription.localized(matrix)
    before = hash(desc)
    assert desc.localized_diagonal() == (2, 3, 5)
    assert "_diagonal" in vars(desc) and "_diagonal" not in vars(twin)
    assert desc == twin and hash(desc) == hash(twin) == before


def test_poset_construction_calls_post_init_by_name(monkeypatch):
    calls = []
    original = PosetDiagram.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(PosetDiagram, "__post_init__", counted)
    diagram = PosetDiagram(["a", 1], [("a", 1)])
    assert calls == [diagram]
    assert diagram.elements == ("a", "1") and diagram.covers == (("a", "1"),)


def _record_classes(tree):
    """(class node, its _fields) for each class that assigns _fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and [ast.unparse(t) for t in stmt.targets] == ["_fields"]):
                    yield node, ast.literal_eval(stmt.value)


def test_fields_are_set_only_by_the_record_constructor():
    # object.__setattr__(x, "<field>", ...) in a record class would store
    # one of its fields outside _Record.__init__
    records, found = set(), []
    for path in sorted((SRC / "kdilate").glob("*.py")):
        for cls, fields in _record_classes(ast.parse(path.read_text(), str(path))):
            records.add(cls.name)
            found += [(path.name, cls.name, call.lineno) for call in ast.walk(cls)
                      if isinstance(call, ast.Call)
                      and ast.unparse(call.func) == "object.__setattr__"
                      and isinstance(call.args[1], ast.Constant)
                      and call.args[1].value in fields]
    assert records == {cls.__name__ for cls in RECORDS}
    assert found == []


def test_cli_import_loads_no_introspection_modules():
    # Without site, the interpreter starts with few modules, so whatever
    # importing the CLI pulls in beyond its standard-library imports shows
    # up here.
    code = ("import sys, argparse, json, re; before = set(sys.modules); "
            "import kdilate.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib', 'typing'}"
            " & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_well_formed_call_loads_no_argparse(monkeypatch):
    # argparse, and gettext and locale with it, load only for help and
    # usage errors, whose text must be argparse's own, byte for byte.
    code = ("import contextlib, io, json, sys; from kdilate.cli import main\n"
            "def call(argv):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    return [code, out.getvalue(), err.getvalue()]\n"
            "colim = call(['colim', '--input', 'fixtures/z_times_3.json', '--format', 'json'])\n"
            "loaded = sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
            "print(json.dumps([colim[0], loaded, call(['colim']), call(['--help'])]))\n")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    colim_code, loaded, usage, help_text = json.loads(out)
    assert colim_code == 0 and loaded == []
    reference = reference_parser()
    assert ("exit", *usage) == parse_outcome(reference, ["colim"])
    assert ("exit", *help_text) == parse_outcome(reference, ["--help"])
    assert usage[0] == 2 and usage[1] == "" and "required: --input" in usage[2]
    assert help_text[0] == 0 and help_text[1].startswith("usage: kdilate")


# malformed documents, one for each step of the reader that can fail
MALFORMED = ["", "  \n", "\ufeff{}", '{"kind": "graph"} {}', '{"kind": "gra\x01ph"}',
             '{"kind": "graph", "vertices": ["a" "b"]}', '{"kind: 1}', '{"kind": "graph",}',
             '{"kind": "graph", "adjacency": [[1, 2], [3 x]]}', '{"adjacency": }',
             "[" * 100_000]


def test_well_formed_call_loads_no_json_or_re(tmp_path):
    # A well-formed colim or graph-hs call reads and writes JSON through
    # _json's C functions, and checks decimal strings with str methods.
    # json.decoder (and re with it) loads only to raise a JSONDecodeError,
    # so a malformed document's diagnostic is still json.loads's, for the
    # group and the graph readers alike.  Each child reads one malformed
    # document, first in its process, and imports json only after it has
    # recorded the modules the well-formed calls loaded.
    code = ("import contextlib, io, sys; from kdilate.cli import main\n"
            "def call(argv):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = main(argv)\n"
            "    return [code, out.getvalue(), err.getvalue()]\n"
            "codes = [call(['colim', '--input', 'fixtures/z_times_3.json'])[0],\n"
            "         call(['graph-hs', '--input', 'fixtures/E.json', '--format', 'json'])[0]]\n"
            "loaded = sorted(name for name in sys.modules\n"
            "                if name.split('.')[0] in ('json', 're', '_json'))\n"
            "error = call([sys.argv[1], '--input', sys.argv[2]])\n"
            "import json\n"
            "print(json.dumps([codes, loaded, error]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for i, text in enumerate(MALFORMED):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises((json.JSONDecodeError, RecursionError)) as expected:
            json.loads(text)
        for command in ("colim", "graph-hs"):
            out = subprocess.run([sys.executable, "-S", "-c", code, command, str(path)],
                                 env=env, cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout
            codes, loaded, error = json.loads(out)
            assert codes == [0, 0] and loaded == ["_json"]
            assert error == [2, "", f"error: malformed JSON in {path}: {expected.value}\n"]
