"""Which kdilate modules each command line and each import loads.

The graph subcommands run on `kdilate.matrix` and `kdilate.graphalg`
alone; the group subcommands load the group, colimit and six-term layers
together, through `kdilate.group_commands`; the package loads a layer
only when one of its names is first used.  Each check runs in a child
interpreter without site, which starts with no kdilate module loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdilate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
E = "fixtures/E.json"
GRAPH_LAYER = ["kdilate", "kdilate.cli", "kdilate.graphalg", "kdilate.matrix"]
GROUP_LAYERS = {"kdilate.abelian", "kdilate.colimit", "kdilate.kcrossed", "kdilate.graphalg"}

# Prints the kdilate modules loaded after the import, then after each call
# of main on the argument lists given as JSON in argv[1]; output is dropped.
CHILD = """\
import contextlib, io, json, sys
def loaded():
    return sorted(name for name in sys.modules if name.split('.')[0] == 'kdilate')
import kdilate.cli
report = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = kdilate.cli.main(argv)
    report.append([code, loaded()])
print(json.dumps(report))
"""


def _child(code: str, *args: str):
    out = subprocess.run([sys.executable, "-S", "-c", code, *args], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _loaded_by(*calls: list):
    return _child(CHILD, json.dumps(calls))


def test_cli_import_loads_only_the_graph_layer():
    [(_, loaded)] = _loaded_by()
    assert loaded == GRAPH_LAYER


@pytest.mark.parametrize("command", ["graph-hs", "graph-lattice", "graph-prim"])
def test_graph_commands_load_no_other_layer(command):
    calls = [[command, "--input", E, "--format", fmt] for fmt in ("text", "json", "dot")]
    report = _loaded_by(*calls)
    codes = [code for code, _ in report[1:]]
    # graph-hs has no DOT form, and says so before reading its input
    assert codes == ([0, 0, 2] if command == "graph-hs" else [0, 0, 0])
    assert [loaded for _, loaded in report] == [GRAPH_LAYER] * 4


def test_graph_k_adds_only_the_group_layer():
    report = _loaded_by(["graph-k", "--input", E, "v2,v3,v4"],
                        ["graph-k", "--input", E, "v2,v3,v4", "--format", "json"])
    assert [code for code, _ in report[1:]] == [0, 0]
    assert report[1][1] == report[2][1] == sorted(GRAPH_LAYER + ["kdilate.abelian"])


@pytest.mark.parametrize("argv", [
    ["snf", "--input", "fixtures/mixed_unresolved.json"],
    ["colim", "--input", "fixtures/z_times_3.json"],
    ["kercoker", "--input", "fixtures/z_times_3.json"],
    ["pv", "--input", "fixtures/kdata_trivial_circle.json"],
    ["cuntz", "7", "2"],
    ["cuntz", "--input", "fixtures/cuntz/n7_m2.json"],
    ["graph-crossed-k", "--input", E, "v2,v3,v4"],
], ids=lambda argv: argv[0] + ("-file" if argv[1:2] == ["--input"] else ""))
def test_group_command_loads_the_group_layers_together(argv):
    # each is the first call of a fresh process
    [_, (code, loaded)] = _loaded_by(argv)
    assert code == 0
    assert set(loaded) == GROUP_LAYERS | set(GRAPH_LAYER) | {"kdilate.group_commands"}


def test_input_error_of_a_group_command_exits_2():
    # the handlers raise the InputError that main catches
    report = _loaded_by(["colim", "--input", "fixtures/E.json"], ["cuntz", "1", "2"],
                        ["pv", "--input", "no/such/file.json"])
    assert [code for code, _ in report[1:]] == [2, 2, 2]


def test_group_commands_module_works_imported_first():
    # kdilate.group_commands imported before kdilate.cli, each handler
    # called directly
    code = """\
import json
from types import SimpleNamespace
from kdilate import group_commands as g
def args(**kw):
    return SimpleNamespace(**{"input": None, "format": "json", "n": None, "m": None, **kw})
results = [
    g._cmd_snf(args(input="fixtures/mixed_unresolved.json"))[0]["status"],
    g._cmd_colim(args(input="fixtures/z_times_3.json"))[0]["status"],
    g._cmd_kercoker(args(input="fixtures/z_times_3.json"))[0]["status"],
    g._cmd_pv(args(input="fixtures/kdata_unresolved.json"))[0]["status"],
    g._cmd_cuntz(args(n="inf", m="2"))[0]["label"],
    g._cmd_graph_crossed_k(args(input="fixtures/E.json", zset="v2,v3,v4", yset=""))[0]["status"],
]
try:
    g._load_group_endo("fixtures/E.json", need_endo=True)
except g.InputError as exc:
    results.append(type(exc).__module__)
print(json.dumps(results))
"""
    assert _child(code) == ["ok", "ok", "ok", "unresolved", "O_2",
                            "ok", "kdilate.cli"]


def test_package_import_loads_no_layer():
    code = ("import json, sys; import kdilate; "
            "print(json.dumps(sorted(n for n in sys.modules if n.startswith('kdilate'))))")
    assert _child(code) == ["kdilate"]


def test_star_import_binds_each_name_from_its_defining_module():
    namespace = {}
    exec("from kdilate import *", namespace)
    assert set(kdilate.__all__) <= set(namespace)
    for name in kdilate.__all__:
        value = namespace[name]
        home = value.__module__
        assert home.startswith("kdilate.") and home != "kdilate.cli", (name, home)
        assert getattr(sys.modules[home], name) is value, name
        assert getattr(kdilate, name) is value, name


def test_dir_lists_every_public_name():
    assert set(kdilate.__all__) <= set(dir(kdilate))
    assert "__version__" in dir(kdilate)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kdilate.no_such_name  # noqa: B018
    assert not hasattr(kdilate, "direct_sum_endo")
    with pytest.raises(ImportError):
        exec("from kdilate import no_such_name", {})
