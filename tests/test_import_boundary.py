"""Which kdilate modules each command line and each import loads.

`kdilate.cli` loads no layer.  Each subcommand loads the front-end module
of its own family and that family's layers: graph-hs, graph-lattice and
graph-prim load `kdilate.graph_commands`, `kdilate.graphalg` and the
record base on every graph file; graph-k adds the group layer.  The group
subcommands load the group, colimit, six-term and graph layers together,
through `kdilate.group_commands`, and none of the graph front end but
graph-crossed-k, which reads a graph.  The package loads a layer only
when one of its names is first used.  Each check runs in a child
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
KBENCH = ROOT / "kbench"
E = "fixtures/E.json"
MULTIDIGIT = "fixtures/multidigit.json"
FRONT = ["kdilate", "kdilate.cli"]
GRAPH_SIDE = sorted(FRONT + ["kdilate.graph_commands", "kdilate.graphalg", "kdilate.record"])
GROUP_SIDE = sorted(FRONT + ["kdilate.abelian", "kdilate.colimit", "kdilate.graphalg",
                             "kdilate.group_commands", "kdilate.kcrossed", "kdilate.matrix",
                             "kdilate.record"])
# the modules the benchmark's tracer looks up after one untraced round
TRACED = {"kdilate.abelian", "kdilate.colimit", "kdilate.kcrossed", "kdilate.graphalg",
          "kdilate.cli"}

# Prints the kdilate modules loaded after the import, then after each call
# of main on the argument lists given as JSON in argv[1], each with the
# loaded modules that hold the graph reader; output is dropped.
CHILD = """\
import contextlib, io, json, sys
def loaded():
    return sorted(name for name in sys.modules if name.split('.')[0] == 'kdilate')
def readers():
    return [name for name in loaded() if hasattr(sys.modules[name], '_decode_graph')]
import kdilate.cli
report = [[None, loaded(), readers()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = kdilate.cli.main(argv)
    report.append([code, loaded(), readers()])
print(json.dumps(report))
"""

# Runs the seed-1 round of the benchmark workload argv[1], with its input
# files written under argv[2], through main, and prints the exit codes and
# the kdilate modules loaded afterwards.
ROUND = """\
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, {kbench!r})
import inputs
import kdilate.cli
work, codes = Path(sys.argv[2]), []
for op in inputs.make_ops(sys.argv[1], 1):
    path = work / (op.stem + ".json")
    path.write_text(json.dumps(op.doc), encoding="utf-8")
    argv = [op.argv[0], "--input", str(path), "--format", "json", *op.argv[1:]]
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(kdilate.cli.main(argv))
print(json.dumps([codes, sorted(n for n in sys.modules if n.split('.')[0] == 'kdilate')]))
""".format(kbench=str(KBENCH))


def _child(code: str, *args: str):
    out = subprocess.run([sys.executable, "-S", "-c", code, *args], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _loaded_by(*calls: list):
    return _child(CHILD, json.dumps(calls))


def test_cli_import_loads_no_layer():
    [(_, loaded, readers)] = _loaded_by()
    assert loaded == FRONT and readers == []


@pytest.mark.parametrize("command", ["graph-hs", "graph-lattice", "graph-prim"])
def test_graph_commands_load_no_other_layer(command):
    calls = [[command, "--input", E, "--format", fmt] for fmt in ("text", "json", "dot")]
    report = _loaded_by(*calls)
    codes = [code for code, _, _ in report[1:]]
    # graph-hs has no DOT form, and says so before reading its input
    assert codes == ([0, 0, 2] if command == "graph-hs" else [0, 0, 0])
    # a graph needs no IntMatrix, and no group layer
    assert [loaded for _, loaded, _ in report[1:]] == [GRAPH_SIDE] * 3
    assert report[-1][2] == ["kdilate.graph_commands"]


@pytest.mark.parametrize("command", ["graph-hs", "graph-lattice", "graph-prim"])
def test_a_multiplicity_of_ten_loads_only_the_graph_side(command):
    # multi-digit rows take the general reader, and then the same
    # constructor as single-digit rows, with no IntMatrix
    [_, (code, loaded, _)] = _loaded_by([command, "--input", MULTIDIGIT])
    assert code == 0
    assert loaded == GRAPH_SIDE


def test_graph_k_adds_only_the_group_layer():
    report = _loaded_by(["graph-k", "--input", E, "v2,v3,v4"],
                        ["graph-k", "--input", MULTIDIGIT, "a,b", "--format", "json"])
    assert [code for code, _, _ in report[1:]] == [0, 0]
    assert report[1][1] == report[2][1] == sorted(
        GRAPH_SIDE + ["kdilate.abelian", "kdilate.matrix"])


GROUP_CALLS = [
    ["snf", "--input", "fixtures/mixed_unresolved.json"],
    ["colim", "--input", "fixtures/z_times_3.json"],
    ["kercoker", "--input", "fixtures/z_times_3.json"],
    ["pv", "--input", "fixtures/kdata_trivial_circle.json"],
    ["cuntz", "7", "2"],
    ["cuntz", "--input", "fixtures/cuntz/n7_m2.json"],
]


@pytest.mark.parametrize("argv", GROUP_CALLS + [
    ["graph-crossed-k", "--input", E, "v2,v3,v4"],
], ids=lambda argv: argv[0] + ("-file" if argv[1:2] == ["--input"] else ""))
def test_group_command_loads_the_group_layers_together(argv):
    # each is the first call of a fresh process
    [_, (code, loaded, _)] = _loaded_by(argv)
    assert code == 0
    # graph-crossed-k reads its graph with the graph side's reader
    extra = ["kdilate.graph_commands"] if argv[0] == "graph-crossed-k" else []
    assert loaded == sorted(GROUP_SIDE + extra)


def test_group_commands_load_no_graph_front_end():
    report = _loaded_by(*GROUP_CALLS)
    assert [code for code, _, _ in report[1:]] == [0] * len(GROUP_CALLS)
    assert [readers for _, _, readers in report] == [[]] * (len(GROUP_CALLS) + 1)
    assert "kdilate.graph_commands" not in report[-1][1]


@pytest.mark.parametrize("workload", ["dilation", "presentations", "graph_ideals"])
def test_each_benchmark_round_leaves_the_traced_layers_loaded(workload, tmp_path):
    # the tracer looks these modules up in sys.modules after an untraced
    # round; the dilation round runs colim and kercoker alone
    codes, loaded = _child(ROUND, workload, str(tmp_path))
    assert codes and set(codes) <= {0, 3}
    assert TRACED <= set(loaded), sorted(TRACED - set(loaded))


def test_input_error_of_a_group_command_exits_2():
    # the handlers raise the InputError that main catches
    report = _loaded_by(["colim", "--input", "fixtures/E.json"], ["cuntz", "1", "2"],
                        ["pv", "--input", "no/such/file.json"],
                        ["graph-hs", "--input", "fixtures/z_times_3.json"])
    assert [code for code, _, _ in report[1:]] == [2, 2, 2, 2]


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


def test_graph_commands_module_works_imported_first():
    # kdilate.graph_commands imported before kdilate.cli, each handler
    # called directly
    code = """\
import json
from types import SimpleNamespace
from kdilate import graph_commands as g
def args(**kw):
    return SimpleNamespace(**{"input": "fixtures/E.json", "format": "json", **kw})
results = [
    len(g._cmd_graph_hs(args())[0]["subsets"]),
    g._cmd_graph_lattice(args())[0]["status"],
    g._cmd_graph_prim(args())[0]["elements"],
    g._cmd_graph_k(args(zset="v2,v3,v4", yset=""))[1],
]
try:
    g._load_graph("fixtures/z_times_3.json")
except g.InputError as exc:
    results.append(type(exc).__module__)
print(json.dumps(results))
"""
    assert _child(code) == [6, "ok", ["v1", "v2", "v3", "v4"],
                            ["K0 = Z/30, K1 = 0"], "kdilate.cli"]


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
