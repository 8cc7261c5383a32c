import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from kdilate import abelian, cli, colimit, graph_commands, group_commands
from kdilate.abelian import (
    FGAbelianGroup,
    GroupHom,
    IntMatrix,
    _quotient_with_maps,
    element_is_zero,
)
from kdilate.cli import main, render_json
from kdilate.colimit import classify_colimit
from kdilate.graphalg import (
    Graph,
    PosetDiagram,
    crossed_subquotient_k,
    hereditary_saturated_masks,
)
from kdilate.kcrossed import pv_crossed_product
from oracles import (
    brute_hereditary_saturated,
    conjugate,
    covers_by_definition,
    json_safe,
    random_endomorphism,
    random_graph,
    random_group,
    random_looped_graph,
    random_payload,
    random_unimodular,
)

SRC = Path(__file__).resolve().parent.parent / "src"

E_LATTICE_DOT = """digraph {
  "{v1,v2,v3,v4}";
  "{v2,v3,v4}";
  "{v2,v4}";
  "{v3,v4}";
  "{v4}";
  "{}";
  "{v2,v3,v4}" -> "{v1,v2,v3,v4}";
  "{v2,v4}" -> "{v2,v3,v4}";
  "{v3,v4}" -> "{v2,v3,v4}";
  "{v4}" -> "{v2,v4}";
  "{v4}" -> "{v3,v4}";
  "{}" -> "{v4}";
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def rendered(payload) -> str:
    """What render_json writes for payload, collected into one string."""
    pieces = []
    render_json(payload, pieces.append)
    return "".join(pieces)


def smith_form_shapes(monkeypatch) -> list:
    """The shape (rows, columns) of every Smith form taken from now on.
    Each one, smith_normal_form's and those of the callers that track only
    some transforms, runs abelian._smith, which is counted."""
    engine = abelian._smith
    shapes = []

    def counted(a, ncols, *transforms):
        shapes.append((len(a), ncols))
        return engine(a, ncols, *transforms)

    monkeypatch.setattr(abelian, "_smith", counted)
    return shapes


class TestCuntzCommand:
    def test_text_line_for_o4(self, capsys):
        code, out, _ = run(capsys, "cuntz", "inf", "4")
        assert code == 0
        assert out.splitlines()[0] == "K0 = Z/3, K1 = 0, label = O_4"

    def test_b_case(self, capsys):
        code, out, _ = run(capsys, "cuntz", "inf", "1")
        assert code == 0
        assert out.splitlines()[0] == "K0 = Z, K1 = Z, label = B"

    def test_both_closed_forms_reported(self, capsys):
        code, out, _ = run(capsys, "cuntz", "7", "2")
        assert code == 0
        assert "K0 = 0, K1 = 0, label = O_2 x O_2" in out
        assert "torsion order = 1 (gcd form; quotient form 3 recorded)" in out

    def test_o2_by_o2_takes_at_most_13_smith_forms(self, capsys, monkeypatch):
        calls = smith_form_shapes(monkeypatch)
        code, out, _ = run(capsys, "cuntz", "7", "2")
        assert code == 0 and "label = O_2 x O_2" in out
        assert len(calls) <= 13

    def test_o2_by_o2_takes_no_smith_form_of_an_empty_matrix(self, capsys, monkeypatch):
        # its trivial groups are quotients by no relations
        calls = smith_form_shapes(monkeypatch)
        code, out, _ = run(capsys, "cuntz", "7", "2")
        assert code == 0 and "label = O_2 x O_2" in out
        assert calls and all(rows and cols for rows, cols in calls)

    def test_file_input(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "cuntz", "--input",
                           str(fixtures_dir / "cuntz" / "inf_m4.json"))
        assert code == 0 and "label = O_4" in out

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "cuntz", "--format", "json", "inf", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] is None and doc["m"] == 4
        assert doc["k0"]["invariant_factors"] == [3]
        assert doc["k1"]["invariant_factors"] == [] and doc["k1"]["free_rank"] == 0
        assert doc["label"] == "O_4" and doc["emitted"] == "gcd"

    def test_precondition_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, "cuntz", "4", "9")
        assert code == 2 and "requires m<n" in err

    def test_n_below_two_is_worded_for_the_command_line(self, capsys):
        assert run(capsys, "cuntz", "1", "1") == (
            2, "", "error: n must be at least 2 (or 'inf' for infinity)\n")

    def test_n_below_two_is_worded_for_a_file(self, capsys, tmp_path):
        path = tmp_path / "cuntz.json"
        path.write_text(json.dumps({"kind": "cuntz", "n": 1, "m": 1}))
        assert run(capsys, "cuntz", "--input", str(path)) == (
            2, "", "error: n must be at least 2 (or null for infinity)\n")

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "cuntz")
        assert code == 2 and "cuntz needs" in err

    def test_positional_and_input_conflict(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "cuntz", "inf", "4", "--input",
                           str(fixtures_dir / "cuntz" / "inf_m4.json"))
        assert code == 2 and "not both" in err


class TestSnfCommand:
    def test_zero_matrix(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "snf", "--input", str(fixtures_dir / "zero.json"))
        assert code == 0
        assert out.splitlines()[0] == "S = [[0, 0], [0, 0]]"

    def test_json_has_all_three_matrices(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "snf", "--format", "json",
                           "--input", str(fixtures_dir / "zero.json"))
        doc = json.loads(out)
        assert set(doc) == {"S", "U", "V", "status"}
        assert doc["U"] == [[1, 0], [0, 1]]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int/str digit limit before Python 3.10.7")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_transforms_past_the_int_str_digit_limit(self, capsys, tmp_path, fmt):
        # The transforms pass 4300 digits because the input is large: its
        # determinant has about 6000 digits (3x3, entries of 2000 digits,
        # given as decimal strings).
        rng = random.Random("snf-digit-limit-0")
        digits = [[rng.choice(("-", "")) + rng.choice("123456789")
                   + "".join(rng.choices("0123456789", k=1999))
                   for _ in range(3)] for _ in range(3)]
        rows = IntMatrix.from_rows([[int(x) for x in r] for r in digits])
        doc = tmp_path / "digits.json"
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 3,
                                   "relations": digits}))
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "snf", "--format", fmt, "--input", str(doc))
        assert code == 0
        assert sys.get_int_max_str_digits() == limit  # the caller's limit is back
        sys.set_int_max_str_digits(0)
        try:
            if fmt == "json":
                parsed = json.loads(out)
            else:
                parsed = dict(line.split(" = ", 1) for line in out.splitlines())
                parsed = {k: json.loads(v) for k, v in parsed.items()}
            u, s, v = (IntMatrix.from_rows([[int(x) for x in r] for r in parsed[k]])
                       for k in ("U", "S", "V"))
            assert max(len(str(abs(x))) for r in u.entries + v.entries for x in r) > 4300
        finally:
            sys.set_int_max_str_digits(limit)
        assert u @ rows @ v == s


class TestColimKercokerCommands:
    def test_localized_colimit(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "colim", "--input",
                           str(fixtures_dir / "z_times_3.json"))
        assert code == 0
        assert "colimit = Z[1/3]" in out and "status = ok" in out

    def test_tower_after_a_free_eventual_kernel_is_in_the_hermite_basis(self, capsys,
                                                                          fixtures_dir):
        code, out, _ = run(capsys, "colim", "--input",
                           str(fixtures_dir / "eventual_kernel_tower.json"))
        assert code == 0
        assert out == ("colimit = colim(Z^3, [[-2125, 539, 1616], [-1575, 402, 1196], "
                       "[-2272, 576, 1728]])\nstatus = ok\n")

    def test_kercoker_values(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "kercoker", "--input",
                           str(fixtures_dir / "z_times_3.json"))
        assert code == 0
        assert "ker(1 - f) = 0" in out
        assert "coker(1 - f) = Z/2" in out

    def test_unresolved_colimit_exits_3_with_result(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "colim", "--input",
                           str(fixtures_dir / "mixed_unresolved.json"))
        assert code == 3
        assert "extension 0 -> Z/2 -> ? -> Z[1/3] -> 0" in out
        assert "status = unresolved" in out

    def test_unresolved_json_carries_status_field(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "colim", "--format", "json", "--input",
                           str(fixtures_dir / "mixed_unresolved.json"))
        assert code == 3
        assert json.loads(out)["status"] == "unresolved"

    def test_one_eigen_search_per_tower(self, capsys, tmp_path, monkeypatch):
        searched = []
        search = colimit._similarity_diagonal
        monkeypatch.setattr(colimit, "_similarity_diagonal",
                            lambda m: searched.append(m) or search(m))
        doc = tmp_path / "tower.json"  # diag(2, 3) conjugated by [[1, 1], [0, 1]]
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 2,
                                   "relations": [], "endo": [[2, -1], [0, 3]]}))
        code, out, _ = run(capsys, "colim", "--format", "json", "--input", str(doc))
        assert code == 0
        assert json.loads(out)["colimit"]["localizers"] == [2, 3]
        assert len(searched) == 1

    def test_free_tower_takes_no_smith_form_and_one_polynomial(self, capsys, tmp_path,
                                                                monkeypatch):
        calls = smith_form_shapes(monkeypatch)
        computed = []
        charpoly = colimit._charpoly
        monkeypatch.setattr(colimit, "_charpoly", lambda m: computed.append(m) or charpoly(m))
        doc = tmp_path / "tower.json"  # similar over Z to diag(2, 3, -1)
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 3, "relations": [],
                                   "endo": [[2, -1, 0], [0, 3, 0], [0, 4, -1]]}))
        code, out, _ = run(capsys, "colim", "--format", "json", "--input", str(doc))
        assert code == 0
        assert json.loads(out)["colimit"]["localizers"] == [1, 2, 3]
        assert calls == [] and len(computed) == 1

    @pytest.mark.parametrize("exponent", [65, 4000])
    def test_long_kernel_chain_collapses_without_a_cap(self, capsys, tmp_path, exponent):
        doc = tmp_path / "power_of_two.json"  # Z/2^exponent, times 2
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 1,
                                   "relations": [[str(2**exponent)]], "endo": [[2]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "colim", "--input", str(doc))
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (0, "colimit = 0\nstatus = ok\n", "")

    def test_large_multiplier_tower_prints_its_localizers(self, capsys, tmp_path):
        # |det| = 3 * (2^61 - 1) is past any divisor search: the multipliers
        # come from the integer roots of the characteristic polynomial
        p, p_inv = random_unimodular(random.Random(3), 2)
        endo = conjugate(p, [[2**61 - 1, 0], [0, 3]], p_inv).to_lists()
        doc = tmp_path / "mersenne.json"
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 2,
                                   "relations": [], "endo": json_safe(endo)}))
        code, out, _ = run(capsys, "colim", "--input", str(doc))
        assert code == 0
        assert "colimit = Z[1/3] + Z[1/2305843009213693951]" in out
        code, out, _ = run(capsys, "colim", "--format", "json", "--input", str(doc))
        assert json.loads(out)["colimit"]["localizers"] == [3, "2305843009213693951"]

    def test_endo_required(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "kercoker", "--input",
                           str(fixtures_dir / "zero.json"))
        assert code == 2 and "needs an 'endo'" in err


class TestPvCommand:
    def test_trivial_circle_case(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "pv", "--input",
                           str(fixtures_dir / "kdata_trivial_circle.json"))
        assert code == 0
        assert "K0 = Z" in out and "K1 = Z" in out

    def test_unresolved_extension_exits_3(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "pv", "--input",
                           str(fixtures_dir / "kdata_unresolved.json"))
        assert code == 3
        assert "status = unresolved" in out
        assert "extension 0 -> Z/3 -> ? -> Z/5 -> 0" in out


def _presentation(group: FGAbelianGroup) -> dict:
    return {"generators": group.num_generators,
            "relations": group.relation_rows().to_lists()}


class TestUnresolvedStatus:
    """colim, pv and graph-crossed-k exit 3 exactly when the library's
    answer for the same file is `unresolved`; both outcomes occur."""

    def test_colim(self, capsys, tmp_path, fixtures_dir):
        rng = random.Random(31)
        paths = [fixtures_dir / name for name in
                 ("mixed_unresolved.json", "z_times_3.json", "eventual_kernel_tower.json")]
        for i in range(80):
            group = random_group(rng)
            doc = {"kind": "group_endo", **_presentation(group),
                   "endo": random_endomorphism(rng, group).matrix.to_lists()}
            paths.append(tmp_path / f"endo{i}.json")
            paths[-1].write_text(json.dumps(doc))
        seen = set()
        for path in map(str, paths):
            problem = group_commands._problem_from_args(SimpleNamespace(input=path))
            unresolved = classify_colimit(problem).unresolved
            code, _, _ = run(capsys, "colim", "--input", path)
            assert code == (3 if unresolved else 0), path
            seen.add(unresolved)
        assert seen == {False, True}

    def test_pv(self, capsys, tmp_path, fixtures_dir):
        rng = random.Random(32)
        paths = [fixtures_dir / name for name in
                 ("kdata_unresolved.json", "kdata_trivial_circle.json")]
        for i in range(60):
            k0, k1 = random_group(rng), random_group(rng)
            doc = {"kind": "k_data", "k0": _presentation(k0), "k1": _presentation(k1),
                   "map0": random_endomorphism(rng, k0).matrix.to_lists(),
                   "map1": random_endomorphism(rng, k1).matrix.to_lists()}
            paths.append(tmp_path / f"kdata{i}.json")
            paths[-1].write_text(json.dumps(doc))
        seen = set()
        for path in map(str, paths):
            result = pv_crossed_product(group_commands._load_k_data(path))
            unresolved = result.k0 is None or result.k1 is None
            assert result.fully_resolved is not unresolved
            code, _, _ = run(capsys, "pv", "--input", path)
            assert code == (3 if unresolved else 0), path
            seen.add(unresolved)
        assert seen == {False, True}

    def test_graph_crossed_k(self, capsys, tmp_path, fixtures_dir):
        rng = random.Random(33)
        paths = [fixtures_dir / "E.json", fixtures_dir / "multidigit.json"]
        for k in range(30):
            n = rng.randint(1, 4)
            rows = [[rng.randint(1, 3) if i == j else rng.choice([0, 0, 1, 2])
                     for j in range(n)] for i in range(n)]
            doc = {"kind": "graph", "vertices": [f"w{j}" for j in range(n)], "adjacency": rows}
            paths.append(tmp_path / f"graph{k}.json")
            paths[-1].write_text(json.dumps(doc))
        seen = set()
        for path in map(str, paths):
            graph = graph_commands._load_graph(path)
            masks = hereditary_saturated_masks(graph)
            for zmask in masks:
                for ymask in masks:
                    if ymask & ~zmask:
                        continue
                    zset, yset = graph.names_of(zmask), graph.names_of(ymask)
                    try:
                        result = crossed_subquotient_k(graph, zset, yset)
                    except ValueError:
                        continue
                    unresolved = result.k0 is None or result.k1 is None
                    code, _, _ = run(capsys, "graph-crossed-k", "--input", path,
                                     ",".join(zset), ",".join(yset))
                    assert code == (3 if unresolved else 0), (path, zset, yset)
                    seen.add(unresolved)
        assert seen == {False, True}


class TestGraphCommands:
    def test_hs_lists_the_six_sets(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "graph-hs", "--input", str(fixtures_dir / "E.json"))
        assert code == 0
        assert out.splitlines() == ["{}", "{v4}", "{v2,v4}", "{v3,v4}",
                                    "{v2,v3,v4}", "{v1,v2,v3,v4}"]

    def test_hs_text_refuses_a_comma_in_a_vertex_name(self, capsys, tmp_path):
        # {a,b} would name both {a, b} and {"a,b"}; JSON tells them apart
        path = tmp_path / "comma.json"
        path.write_text(json.dumps({"kind": "graph", "vertices": ["a", "b", "a,b"],
                                    "adjacency": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        for argv in ((), ("--format", "text")):
            code, out, err = run(capsys, "graph-hs", "--input", str(path), *argv)
            assert (code, out) == (2, "")
            assert err == (f"error: {path}: vertex 'a,b' has a ',' in its name, so text "
                           "output would print two sets alike; use --format json\n")
        code, out, _ = run(capsys, "graph-hs", "--format", "json", "--input", str(path))
        subsets = json.loads(out)["subsets"]
        assert code == 0 and len(subsets) == 8
        assert ["a", "b"] in subsets and ["a,b"] in subsets

    @pytest.mark.parametrize("command", ["graph-lattice", "graph-prim"])
    @pytest.mark.parametrize("name", ['a"b', "a\\"])
    def test_dot_refuses_a_quote_or_backslash_in_a_vertex_name(self, capsys, tmp_path,
                                                                command, name):
        # inside "..." a '"' would close the name and a backslash escape
        # the closing quote; text and JSON print such a name as it is
        path = tmp_path / "quote.json"
        path.write_text(json.dumps({"kind": "graph", "vertices": [name, "c"],
                                    "adjacency": [[1, 1], [0, 2]]}))
        code, out, err = run(capsys, command, "--format", "dot", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: vertex {name!r} has a {name[1]!r} in its name, "
                       "which DOT output cannot quote; use --format text or json\n")
        code, out, _ = run(capsys, command, "--format", "json", "--input", str(path))
        assert code == 0 and any(name in e for e in json.loads(out)["elements"])
        code, out, _ = run(capsys, command, "--input", str(path))
        assert code == 0 and name in out

    def test_lattice_dot_output(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "graph-lattice", "--format", "dot",
                           "--input", str(fixtures_dir / "E.json"))
        assert code == 0 and out == E_LATTICE_DOT

    def test_dot_output_is_deterministic(self, capsys, fixtures_dir):
        outputs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "graph-prim", "--format", "dot",
                            "--input", str(fixtures_dir / "E.json"))
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("command", ["graph-lattice", "graph-prim"])
    @pytest.mark.parametrize("fmt, dots", [("json", 0), ("text", 0), ("dot", 1)])
    def test_dot_is_built_only_when_printed(self, capsys, monkeypatch, fixtures_dir,
                                            command, fmt, dots):
        # every DOT line is made after the handler returns, as it is printed
        made, made_by_handler = [], []
        dot_lines = PosetDiagram.dot_lines

        def recording(poset):
            for line in dot_lines(poset):
                made.append(line)
                yield line

        name = cli._SUBCOMMANDS[command].handler
        handler = getattr(graph_commands, name)

        def handled(args):
            result = handler(args)
            made_by_handler.append(len(made))
            return result

        monkeypatch.setattr(PosetDiagram, "dot_lines", recording)
        monkeypatch.setattr(graph_commands, name, handled)
        code, out, _ = run(capsys, command, "--format", fmt,
                           "--input", str(fixtures_dir / "E.json"))
        assert code == 0 and out and made_by_handler == [0]
        assert made == (out.splitlines() if dots else [])

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_closed_stdout_ends_quietly(self, tmp_path, fmt):
        # 12 isolated looped vertices: 4,096 sets, well past a pipe's buffer
        names = [f"v{i}" for i in range(12)]
        path = tmp_path / "isolated.json"
        path.write_text(json.dumps({"kind": "graph", "vertices": names, "adjacency": [
            [int(i == j) for j in range(12)] for i in range(12)]}))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kdilate.cli", "graph-hs", "--format", fmt,
             "--input", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert code == 1 and "Traceback" not in err and "Exception" not in err

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from /proc")
    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_lattice_of_sixteen_isolated_loops_stays_under_100_mb(self, tmp_path, fmt):
        # 2^16 sets and 16 * 2^15 covers.  The child limits its own address
        # space, so that a lattice taking far more memory fails this test
        # rather than exhausting the machine, and reports its peak resident
        # set (VmHWM) on stderr after the result is written.
        n = 16
        path = tmp_path / "isolated.json"
        path.write_text(json.dumps({"kind": "graph", "vertices": [f"v{i}" for i in range(n)],
                                    "adjacency": [[2 * (i == j) for j in range(n)]
                                                  for i in range(n)]}))
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from kdilate.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "with open('/proc/self/status') as status:\n"
                 "    sys.stderr.write(next(l for l in status if l.startswith('VmHWM:')))\n"
                 "sys.exit(code)\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", child, "graph-lattice", "--format", fmt,
             "--input", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        try:
            # a text or DOT cover is one line; a JSON cover opens with "[" at depth 2
            cover = {"text": lambda line: " < " in line, "dot": lambda line: " -> " in line,
                     "json": "    [\n".__eq__}[fmt]
            covers = sum(map(cover, proc.stdout))
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert code == 0, err
        assert covers == n * 2 ** (n - 1) == 524_288
        peak_kb = int(err.split()[-2])
        assert peak_kb < 100 * 1024

    def test_prim_text(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "graph-prim", "--input", str(fixtures_dir / "E.json"))
        assert code == 0
        assert set(out.splitlines()) == {"v2 < v1", "v3 < v1", "v4 < v2", "v4 < v3"}

    def test_condition_k_failures_are_reported_beside_unchanged_output(self, capsys, tmp_path):
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({"kind": "graph", "vertices": ["a", "b"],
                                    "adjacency": [[1, 1], [0, 1]]}))
        note = ("note: condition (K) fails at a, b; "
                "the result describes the gauge-invariant ideals only\n")
        assert run(capsys, "graph-prim", "--input", str(path)) == (0, "b < a\n", note)
        code, out, err = run(capsys, "graph-prim", "--format", "dot", "--input", str(path))
        assert (code, err) == (0, note)
        assert out == 'digraph {\n  "a";\n  "b";\n  "b" -> "a";\n}\n'
        code, out, err = run(capsys, "graph-lattice", "--input", str(path))
        assert (code, err) == (0, note)
        assert out.splitlines() == ["{b} < {a,b}", "{} < {b}"]
        for command in ("graph-prim", "graph-lattice"):
            code, out, err = run(capsys, command, "--format", "json", "--input", str(path))
            payload = json.loads(out)
            assert (code, err) == (0, note)
            assert payload["condition_k"] is False
            assert payload["condition_k_failures"] == ["a", "b"]

    def test_hs_and_lattice_against_brute_force_with_unlooped_vertices(self, capsys,
                                                                       tmp_path):
        # the benchmark's graphs have a loop at every vertex; these take the
        # search through saturation
        rng = random.Random(43)
        graphs = []
        while len(graphs) < 40:
            graph = random_graph(rng, max_vertices=8)
            if any(graph.rows[v][v] == 0 for v in range(len(graph.vertices))):
                graphs.append(graph)
        for n in range(2, 6):  # bare cycles
            graphs.append(Graph(
                [f"c{i}" for i in range(n)],
                [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]))
        path = tmp_path / "graph.json"
        for graph in graphs:
            path.write_text(json.dumps({"kind": "graph", "vertices": list(graph.vertices),
                                        "adjacency": [list(r) for r in graph.rows]}))
            index = {v: i for i, v in enumerate(graph.vertices)}
            family = sorted(brute_hereditary_saturated(graph),
                            key=lambda s: (len(s), sorted(index[v] for v in s)))
            names = [[v for v in graph.vertices if v in s] for s in family]
            code, out, _ = run(capsys, "graph-hs", "--format", "json", "--input", str(path))
            assert code == 0 and json.loads(out)["subsets"] == names
            label = {s: "{" + ",".join(n) + "}" for s, n in zip(family, names)}
            covers = sorted([label[a], label[b]]
                            for a, b in covers_by_definition(family, lambda a, b: a < b))
            code, out, _ = run(capsys, "graph-lattice", "--format", "json",
                               "--input", str(path))
            payload = json.loads(out)
            assert code == 0
            assert payload["elements"] == [label[s] for s in family]
            assert payload["covers"] == covers

    def test_condition_k_holds_on_e(self, capsys, fixtures_dir):
        for command in ("graph-prim", "graph-lattice"):
            code, out, err = run(capsys, command, "--format", "json",
                                 "--input", str(fixtures_dir / "E.json"))
            payload = json.loads(out)
            assert (code, err) == (0, "")
            assert payload["condition_k"] is True and payload["condition_k_failures"] == []

    def test_graph_k(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "graph-k", "--input", str(fixtures_dir / "E.json"),
                           "v2,v3,v4", "")
        assert code == 0 and out.splitlines() == ["K0 = Z/30, K1 = 0"]

    def test_graph_k_default_y_empty(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "graph-k", "--input", str(fixtures_dir / "E.json"),
                           "v4")
        assert code == 0 and "K0 = Z/5, K1 = 0" in out

    def test_graph_k_dash_means_empty(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "graph-k", "--input", str(fixtures_dir / "E.json"),
                           "v1,v2,v3,v4", "-")
        assert code == 0 and "K0 = Z/210, K1 = 0" in out

    def test_graph_crossed_k(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "graph-crossed-k", "--input",
                           str(fixtures_dir / "E.json"), "v3,v4")
        assert code == 0
        assert "K0 = Z/15" in out and "K1 = Z/15" in out

    def test_graph_crossed_k_with_torsion_k0_leaves_k1_unresolved(self, capsys, tmp_path):
        # K0 = Z/2 + Z and K1 = Z: 0 -> K1 -> ? -> K0 -> 0 has a torsion quotient
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({"kind": "graph", "vertices": ["a", "b"],
                                    "adjacency": [[3, 0], [0, 1]]}))
        code, out, _ = run(capsys, "graph-crossed-k", "--input", str(path), "a,b")
        assert code == 3
        assert out.splitlines() == [
            "K0 = Z/2 + Z^2",
            "K1 = extension 0 -> Z -> ? -> Z/2 + Z -> 0 (unresolved)",
            "status = unresolved"]
        code, out, _ = run(capsys, "graph-crossed-k", "--format", "json",
                           "--input", str(path), "a,b")
        payload = json.loads(out)
        assert code == 3 and payload["status"] == "unresolved"
        assert payload["k1"]["tag"] == "extension" and payload["k1"]["resolved"] is False

    def test_bad_subquotient_is_an_input_error(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "graph-k", "--input", str(fixtures_dir / "E.json"),
                           "v2")
        assert code == 2 and "hereditary and saturated" in err


class TestInputHandling:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "colim", "--input", "nope/missing.json")
        assert code == 2 and "cannot read" in err

    def test_missing_file_diagnostic_echoes_the_path_as_given(self, capsys):
        code, _, err = run(capsys, "colim", "--input", "nope//missing.json")
        assert code == 2
        assert err == ("error: cannot read nope//missing.json: [Errno 2] "
                       "No such file or directory: 'nope//missing.json'\n")

    def test_malformed_json_reports_line_and_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "group_endo",,}')
        code, _, err = run(capsys, "colim", "--input", str(bad))
        assert code == 2
        assert "line 1 column" in err

    @pytest.mark.parametrize("command", ["graph-prim", "colim"])
    def test_deep_nesting_is_malformed_json(self, tmp_path, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        proc = subprocess.run(
            [sys.executable, "-m", "kdilate.cli", command, "--input", str(deep)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: malformed JSON in {deep}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["graph-prim", "colim"])
    def test_file_that_is_not_utf8_cannot_be_read(self, capsys, tmp_path, command):
        odd = tmp_path / "latin1.json"
        odd.write_bytes(b'{"kind": "graph", "vertices": ["a\xff"], "adjacency": [[1]]}')
        code, out, err = run(capsys, command, "--input", str(odd))
        assert code == 2 and out == ""
        assert err == (f"error: cannot read {odd}: 'utf-8' codec can't decode byte 0xff "
                       "in position 33: invalid start byte\n")

    def test_wrong_kind(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "snf", "--input", str(fixtures_dir / "E.json"))
        assert code == 2 and "expects kind 'group_endo'" in err

    def test_unknown_kind(self, capsys, tmp_path):
        doc = tmp_path / "odd.json"
        doc.write_text('{"kind": "mystery"}')
        code, _, err = run(capsys, "colim", "--input", str(doc))
        assert code == 2 and "kind must be one of" in err

    def test_unexpected_field_rejected(self, capsys, tmp_path):
        doc = tmp_path / "extra.json"
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 1,
                                   "relations": [], "bogus": 1}))
        code, _, err = run(capsys, "snf", "--input", str(doc))
        assert code == 2 and "unexpected field" in err

    def test_kind_is_a_field_of_the_top_level_only(self, capsys, tmp_path):
        # a presentation nested in a k_data file holds no kind, whatever
        # its value; the top-level kind and comment pass as before
        doc = {"kind": "k_data", "comment": "nested", "k0": {"generators": 1, "relations": []},
               "k1": {"generators": 0, "relations": []}, "map0": [[3]], "map1": []}
        path = tmp_path / "kdata.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "pv", "--input", str(path))[0] == 0
        for key, kind in (("k0", "graph"), ("k1", 7), ("k0", "k_data")):
            nested = {**doc, key: {"kind": kind, **doc[key]}}
            path.write_text(json.dumps(nested))
            assert run(capsys, "pv", "--input", str(path)) == (
                2, "", f"error: {path}: {key}: unexpected field 'kind'\n")

    def test_numbers_beyond_2_53_must_be_strings(self, capsys, tmp_path):
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 1,
                                   "relations": [[2**53 + 1]], "endo": [[1]]}))
        code, _, err = run(capsys, "colim", "--input", str(doc))
        assert code == 2 and "decimal strings" in err

    def test_decimal_string_integers_are_exact(self, capsys, tmp_path):
        huge = str(2**53 + 1)
        doc = tmp_path / "bigstr.json"
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 1,
                                   "relations": [[huge]], "endo": [[1]]}))
        code, out, _ = run(capsys, "colim", "--format", "json", "--input", str(doc))
        assert code == 0
        parsed = json.loads(out)
        assert parsed["colimit"]["group"]["invariant_factors"] == [huge]

    def test_ill_defined_endo_rejected(self, capsys, tmp_path):
        doc = tmp_path / "badendo.json"
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 2,
                                   "relations": [[2, 0]], "endo": [[0, 0], [1, 1]]}))
        code, _, err = run(capsys, "colim", "--input", str(doc))
        assert code == 2 and "preserve the relation lattice" in err

    def test_endo_off_the_lattice_rejected_although_well_defined(self, capsys, tmp_path):
        # e1 is a relation but its image e2 is not, while the induced map
        # [[0]] on Z = Z^2/<e1> passes GroupHom's own check
        relations, endo = [[1, 0]], [[0, 0], [1, 0]]
        group, projection, lift = _quotient_with_maps(2, IntMatrix.from_rows(relations))
        GroupHom(group, group, projection @ IntMatrix.from_rows(endo) @ lift)
        colim_doc = tmp_path / "colim.json"
        colim_doc.write_text(json.dumps({"kind": "group_endo", "generators": 2,
                                         "relations": relations, "endo": endo}))
        kdata_doc = tmp_path / "kdata.json"
        kdata_doc.write_text(json.dumps({
            "kind": "k_data", "k0": {"generators": 2, "relations": relations},
            "k1": {"generators": 1, "relations": []}, "map0": endo, "map1": [[1]]}))
        for argv in (("colim", "--input", str(colim_doc)),
                     ("pv", "--input", str(kdata_doc))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "preserve the relation lattice" in err

    def test_free_presentation_takes_no_quotient(self, capsys, tmp_path, monkeypatch):
        # a presentation without relations is the free group on its
        # generators, with no projection or lift to build
        def refuse(*args):
            raise AssertionError("_quotient_with_maps was called")
        monkeypatch.setattr(group_commands, "_quotient_with_maps", refuse)
        doc = tmp_path / "free.json"
        doc.write_text(json.dumps({"kind": "group_endo", "generators": 2, "relations": [],
                                   "endo": [[2, 1], [0, 3]]}))
        code, out, _ = run(capsys, "colim", "--input", str(doc))
        assert code == 0 and "status = ok" in out
        problem = group_commands._endo_on_presentation(
            2, IntMatrix.from_rows([], cols=2), IntMatrix.from_rows([[2, 1], [0, 3]]), "doc")
        assert problem.base == FGAbelianGroup.free(2)
        assert problem.endo.matrix.to_lists() == [[2, 1], [0, 3]]

    def test_lattice_check_agrees_with_the_per_column_rule(self):
        # The loader checks each row of projection @ endo @ relations^T
        # against its generator's order; the rule it replaces checks that
        # each column is zero in the quotient group.
        rng = random.Random(53)
        outcomes = {True: 0, False: 0}
        mixed = 0
        for _ in range(560):
            n = rng.randint(1, 5)
            orders = [rng.choice((0, 0, 1, 2, 3, 4, 6, 12)) for _ in range(n)]
            p, p_inv = random_unimodular(rng, n, steps=rng.randint(0, 8), max_factor=2)
            # the lattice P (sum of d_i Z e_i), given redundantly
            rows = [[d * row[i] for row in p] for i, d in enumerate(orders) if d]
            for _ in range(rng.randint(0, 2) if rows else 0):
                coeffs = [rng.randint(-2, 2) for _ in rows]
                rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
            rng.shuffle(rows)
            relations = IntMatrix.from_rows(rows, cols=n)
            # P B P^-1 with B preserving the diagonal lattice, sometimes nudged
            b = [[rng.randint(-3, 3) * (di // gcd(di, dj)) if di else 0 if dj else
                  rng.randint(-3, 3) for dj in orders] for di in orders]
            endo = conjugate(p, b, p_inv).to_lists()
            if rng.random() < 0.5:
                endo[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1, 2))
            endo = IntMatrix.from_rows(endo)
            group, projection, _ = _quotient_with_maps(n, relations)
            images = projection @ endo @ relations.transpose()
            expected = all(element_is_zero(group, images.column(j)) for j in range(images.cols))
            try:
                group_commands._endo_on_presentation(n, relations, endo, "doc")
                preserved = True
            except cli.InputError as exc:
                assert str(exc) == "doc: endomorphism does not preserve the relation lattice"
                preserved = False
            assert preserved == expected, (rows, endo)
            outcomes[preserved] += 1
            mixed += bool(group.invariant_factors) and group.free_rank > 0
        assert min(outcomes.values()) >= 150 and mixed >= 100

    def test_graph_with_sink_rejected(self, capsys, tmp_path):
        doc = tmp_path / "sink.json"
        doc.write_text(json.dumps({"kind": "graph", "vertices": ["a", "b"],
                                   "adjacency": [[0, 1], [0, 0]]}))
        code, _, err = run(capsys, "graph-hs", "--input", str(doc))
        assert code == 2 and "emits no edges" in err

    @pytest.mark.parametrize("command, vertices, adjacency", [
        # {a, b} and the vertex set {"a,b"} both print as {a,b}
        ("graph-lattice", ["a", "b", "a,b"], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
        # the 2-cycle a <-> b prints as {a,b}, the name of the looped vertex
        ("graph-prim", ["{a,b}", "a", "b"], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    ])
    def test_colliding_labels_exit_2(self, capsys, tmp_path, command, vertices, adjacency):
        doc = tmp_path / "collide.json"
        doc.write_text(json.dumps({"kind": "graph", "vertices": vertices,
                                   "adjacency": adjacency}))
        code, out, err = run(capsys, command, "--input", str(doc))
        assert code == 2 and out == ""
        assert err == f"error: {doc}: duplicate poset elements\n"

    def test_dot_unavailable_outside_posets(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "graph-hs", "--format", "dot",
                           "--input", str(fixtures_dir / "E.json"))
        assert code == 2 and "dot format" in err

    @pytest.mark.parametrize("format_args", [("--format", "dot"), ("--format=dot",)],
                             ids=["scanned", "argparse"])
    def test_dot_refused_before_any_work(self, capsys, monkeypatch, fixtures_dir,
                                         format_args):
        calls = []
        for command in ("graph-hs", "graph-lattice"):
            name = cli._SUBCOMMANDS[command].handler
            monkeypatch.setattr(graph_commands, name,
                                lambda args, handler=getattr(graph_commands, name):
                                calls.append(args) or handler(args))
        graph = str(fixtures_dir / "E.json")
        assert run(capsys, "graph-hs", *format_args, "--input", graph) == (
            2, "", "error: dot format is not available for this subcommand\n")
        assert calls == []
        # the dot error comes before the input is read
        assert run(capsys, "colim", *format_args, "--input", "no/such/file.json") == (
            2, "", "error: dot format is not available for this subcommand\n")
        code, out, _ = run(capsys, "graph-lattice", *format_args, "--input", graph)
        assert (code, out) == (0, E_LATTICE_DOT) and len(calls) == 1


BAD_ENTRIES = [
    (True, "expected an integer, got a boolean"),
    (2.5, "expected an integer"),
    ("0x1f", "'0x1f' is not a decimal integer"),
    (2**53 + 1, "integers beyond 2^53 must be decimal strings"),
    (-(2**53) - 1, "integers beyond 2^53 must be decimal strings"),
]


class TestMatrixDiagnostics:
    """Matrices are read a row at a time; a bad entry in a later row is
    still named by its position, word for word."""

    @staticmethod
    def write(tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def graph(self, tmp_path, adjacency, vertices=("a", "b", "c")):
        return self.write(tmp_path, {"kind": "graph", "vertices": list(vertices),
                                     "adjacency": adjacency})

    def group(self, tmp_path, relations, generators=3):
        return self.write(tmp_path, {"kind": "group_endo", "generators": generators,
                                     "relations": relations})

    @pytest.mark.parametrize("bad, message", BAD_ENTRIES)
    def test_bad_adjacency_entry(self, capsys, tmp_path, bad, message):
        path = self.graph(tmp_path, [[1, 0, 0], [0, 1, 0], [0, bad, 1]])
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: adjacency[2][1]: {message}\n")

    @pytest.mark.parametrize("bad, message", BAD_ENTRIES)
    def test_bad_relation_entry(self, capsys, tmp_path, bad, message):
        path = self.group(tmp_path, [[2, 0, 0], [0, 3, bad]])
        assert run(capsys, "snf", "--input", path) == (
            2, "", f"error: {path}: relations[1][2]: {message}\n")

    def test_ragged_rows(self, capsys, tmp_path):
        path = self.graph(tmp_path, [[1, 0, 0], [0, 1], [0, 0, 1]])
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: adjacency: ragged rows\n")
        path = self.group(tmp_path, [[2, 0, 0], [0, 3]])
        assert run(capsys, "snf", "--input", path) == (
            2, "", f"error: {path}: relations: ragged rows\n")

    def test_wrong_width(self, capsys, tmp_path):
        path = self.graph(tmp_path, [[1, 0], [0, 1]], vertices=("a",))
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: adjacency: expected 1 columns, found 2\n")
        path = self.group(tmp_path, [[2, 0], [0, 3]])
        assert run(capsys, "snf", "--input", path) == (
            2, "", f"error: {path}: relations: expected 3 columns, found 2\n")

    def test_negative_multiplicity(self, capsys, tmp_path):
        path = self.graph(tmp_path, [[1, 0, 0], [0, 1, 0], [0, -1, 2]])
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: negative edge multiplicity at vertex c\n")
        # a relation may have negative entries
        path = self.group(tmp_path, [[2, 0, 0], [0, 3, -1]])
        assert run(capsys, "snf", "--input", path)[0] == 0

    def test_bad_entry_in_a_later_row_is_reported_first(self, capsys, tmp_path):
        path = self.graph(tmp_path, [[1, 0, 0], [0, 1], [0, True, 1]])
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: adjacency[2][1]: expected an integer, got a boolean\n")
        path = self.graph(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 2.5, 1]], vertices=("a", "b"))
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: adjacency[2][1]: expected an integer\n")
        path = self.graph(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, "x", 0]])
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: adjacency[3][1]: 'x' is not a decimal integer\n")
        path = self.group(tmp_path, [[2, 0], [0, 3, 0], [0, "0x1f", 1]])
        assert run(capsys, "snf", "--input", path) == (
            2, "", f"error: {path}: relations[2][1]: '0x1f' is not a decimal integer\n")

    def test_out_of_range_entry_is_named_before_a_negative_multiplicity(self, capsys,
                                                                        tmp_path):
        message = "integers beyond 2^53 must be decimal strings"
        path = self.graph(tmp_path, [[1, 0, 0], [0, -1, 0], [0, -(2**53) - 1, 1]])
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: adjacency[2][1]: {message}\n")
        path = self.graph(tmp_path, [[-(2**53) - 1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert run(capsys, "graph-prim", "--input", path) == (
            2, "", f"error: {path}: adjacency[0][0]: {message}\n")

    @pytest.mark.parametrize("bad, message", BAD_ENTRIES)
    def test_bad_entry_beside_a_multiplicity_past_a_byte(self, capsys, tmp_path, bad,
                                                          message):
        path = self.graph(tmp_path, [[1, 0, 0], [0, 1, 0], [256, bad, 1]])
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: adjacency[2][1]: {message}\n")

    def test_rows_past_a_byte(self, capsys, tmp_path):
        """Multiplicities beyond 255 are legal, and a row holding one is
        checked entry by entry with the same diagnostics in the same order."""
        expected = run(capsys, "graph-hs", "--input",
                       self.graph(tmp_path, [[1, 0, 0], [0, 1, 1], [0, 0, 1]]))
        assert expected[0] == 0
        for row in ([0, 256, 256], [0, 1, "256"], [0, 2**53, 1], [0, 3, str(2**53 + 1)]):
            path = self.graph(tmp_path, [[1, 0, 0], row, [0, 0, 1]])
            assert run(capsys, "graph-hs", "--input", path) == expected
        path = self.graph(tmp_path, [[1, 0, 0], [0, 256, -1], [0, 0, 1]])
        assert run(capsys, "graph-hs", "--input", path) == (
            2, "", f"error: {path}: negative edge multiplicity at vertex b\n")
        # every entry is read before the graph is built
        for bad, message in BAD_ENTRIES:
            path = self.graph(tmp_path, [[1, 0, 0], [0, 256, -1], [0, bad, 1]])
            assert run(capsys, "graph-hs", "--input", path) == (
                2, "", f"error: {path}: adjacency[2][1]: {message}\n")
        graph = Graph(["a", "b", "c"], [[256, 0, 2**60], [0, 1, 0], [0, 0, 1]])
        assert graph._out_masks == (0b101, 0b010, 0b100)
        with pytest.raises(ValueError, match="negative edge multiplicity at vertex a"):
            Graph(["a", "b"], [[256, -1], [0, 1]])

    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_library_matrices_reject_bools_and_floats(self, bad):
        with pytest.raises(TypeError):
            Graph(["a", "b"], [[1, 0], [bad, 1]])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[2, bad]])

    def test_decimal_string_in_an_int_row(self, capsys, tmp_path):
        assert (run(capsys, "graph-hs", "--input",
                    self.graph(tmp_path, [[1, 0, 0], [0, 1, "2"], [0, 0, 1]]))
                == run(capsys, "graph-hs", "--input",
                       self.graph(tmp_path, [[1, 0, 0], [0, 1, 2], [0, 0, 1]])))
        assert (run(capsys, "snf", "--input", self.group(tmp_path, [[2, 0, 0], [0, " -3", 4]]))
                == run(capsys, "snf", "--input", self.group(tmp_path, [[2, 0, 0], [0, -3, 4]])))

    @pytest.mark.parametrize("digits", ["\u0662", "\uff12", "1\u0663"])
    def test_decimal_strings_use_ascii_digits(self, capsys, tmp_path, digits):
        path = self.graph(tmp_path, [[digits]], vertices=("a",))
        assert run(capsys, "graph-k", "--input", path, "a") == (
            2, "", f"error: {path}: adjacency[0][0]: {digits!r} is not a decimal integer\n")

    def test_decimal_strings_are_those_of_the_ascii_pattern(self):
        # a string is read as an integer exactly when, stripped, it
        # fullmatches -?[0-9]+: at most one '-', then ASCII digits
        pattern = re.compile(r"-?[0-9]+")
        alphabet = "0123456789-+_. \t\n\x1c\u2003\u00a0\u0662\uff12\u00b2\u2460e"
        rng = random.Random(23)
        strings = ["", "-", "--1", "-+1", "+1", "1_000", "-0", "007", " 12 ", "\u20031\u2003",
                   "\u0662", "\uff12", "1\u0663", "\u00b2", "-\u0661", "1 2", "\t-5\n", "- 5",
                   "5-", "0x1", "1.0", "1e3", "\x1c3\x1c"]
        strings += ["".join(rng.choices(alphabet, k=rng.randint(0, 6))) for _ in range(20000)]
        matched = 0
        for text in strings:
            if pattern.fullmatch(text.strip()):
                matched += 1
                assert cli._as_int(text, "x") == int(text.strip()), repr(text)
            else:
                with pytest.raises(cli.InputError, match="is not a decimal integer"):
                    cli._as_int(text, "x")
        assert matched > 1000, matched


class TestJsonCanonicalisation:
    @pytest.mark.parametrize("argv", [
        ("cuntz", "inf", "4"),
        ("cuntz", "7", "2"),
    ])
    def test_round_trip_is_byte_identical(self, capsys, argv):
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert canonical(out) == out

    def test_round_trip_for_file_commands(self, capsys, fixtures_dir):
        for argv in (("graph-lattice", "--input", str(fixtures_dir / "E.json")),
                     ("pv", "--input", str(fixtures_dir / "kdata_unresolved.json")),
                     ("colim", "--input", str(fixtures_dir / "mixed_unresolved.json")),
                     ("snf", "--input", str(fixtures_dir / "zero.json"))):
            _, out, _ = run(capsys, *argv, "--format", "json")
            assert canonical(out) == out

    def test_renderer_matches_json_dumps_on_every_fixture_payload(
            self, capsys, fixtures_dir, monkeypatch):
        payloads = []

        def keep(payload, write):
            payloads.append(payload)
            render_json(payload, write)
        monkeypatch.setattr(cli, "render_json", keep)
        for path in sorted(fixtures_dir.rglob("*.json")):
            for command in ("snf", "colim", "kercoker", "pv", "cuntz", "graph-hs",
                            "graph-lattice", "graph-prim", "graph-k", "graph-crossed-k"):
                extra = ["v4"] if command in ("graph-k", "graph-crossed-k") else []
                run(capsys, command, "--format", "json", "--input", str(path), *extra)
        assert len(payloads) >= 20
        for payload in payloads:
            assert rendered(payload) == json.dumps(json_safe(payload), indent=2,
                                                   sort_keys=True)

    def test_graph_hs_is_written_as_it_is_rendered(self, tmp_path, monkeypatch):
        graph = random_looped_graph(random.Random(1), 16, 0.1)
        subsets = [graph.names_of(mask) for mask in hereditary_saturated_masks(graph)]
        assert len(subsets) >= 2000
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"kind": "graph", "vertices": list(graph.vertices),
                                    "adjacency": [list(r) for r in graph.rows]}))
        calls = 0
        selector = graph_commands._bit_selector

        def counted(mask):
            nonlocal calls
            calls += 1
            return selector(mask)
        # the writer names a set by its bit selector over the encoded names
        monkeypatch.setattr(graph_commands, "_bit_selector", counted)
        writes = []  # each piece, with the number of sets named before it

        class Sink(io.StringIO):
            def write(self, text):
                writes.append((text, calls))
                return len(text)
        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["graph-hs", "--format", "json", "--input", str(path)]) == 0
        document = "".join(text for text, _ in writes)
        assert document == json.dumps({"subsets": subsets, "status": "ok"}, indent=2,
                                      sort_keys=True) + "\n"
        assert max(len(text) for text, _ in writes) <= len(document) / 100
        # each set is named once, as it is written: the first set goes out
        # before the second is named
        assert next(made for text, made in writes if '"subsets": [' in text) == 1
        assert calls == len(subsets)

    @pytest.mark.parametrize("value", [1.5, b"01", {1, 2}])
    def test_an_unsupported_value_raises_type_error(self, value):
        with pytest.raises(TypeError, match=f"type {type(value).__name__} is not JSON"):
            rendered({"value": value})

    def test_renderer_matches_json_dumps_on_seeded_payloads(self):
        rng = random.Random(61)
        seen = set()
        string_lists = 0
        for _ in range(3000):
            payload = random_payload(rng)
            assert rendered(payload) == json.dumps(json_safe(payload), indent=2,
                                                   sort_keys=True)
            seen.update(map(repr, payload if isinstance(payload, (list, tuple)) else ()))
            string_lists += (type(payload) is list and bool(payload) and all(
                type(item) in (list, tuple) and all(type(x) is str for x in item)
                for item in payload))
        # lists of flat string lists, as a poset's covers, took their own path
        assert string_lists >= 300
        # the boundary integers and the awkward scalars all turned up
        for value in (2**53 + 1, -(2**53 + 1), 2**53, -(2**53), True, False, None,
                      "\ud800", "caf\u00e9", (), [], {}):
            assert repr(value) in seen


SPANS = Path(__file__).resolve().parent.parent / "kbench" / "spans.py"
# (subcommand, fixture, exit code) for the Smith-form commands
SMITH_FORM_RUNS = [
    ("snf", "mixed_unresolved.json", 0), ("snf", "z_times_3.json", 0), ("snf", "zero.json", 0),
    ("colim", "mixed_unresolved.json", 3), ("colim", "z_times_3.json", 0),
    ("kercoker", "mixed_unresolved.json", 0), ("kercoker", "z_times_3.json", 0),
    ("pv", "kdata_trivial_circle.json", 0), ("pv", "kdata_unresolved.json", 3),
]


class TestSmithFormCallers:
    def outcomes(self, capsys, fixtures_dir, commands):
        """(code, stdout, stderr) of each run of the commands, in text and
        JSON, through cli.main as the module binds it now."""
        results = []
        for command, fixture, _ in SMITH_FORM_RUNS:
            if command in commands:
                for fmt in ("text", "json"):
                    code = cli.main([command, "--format", fmt, "--input", str(fixtures_dir / fixture)])
                    results.append((code,) + tuple(capsys.readouterr()))
        return results

    def test_pv_and_colim_take_no_public_smith_form(self, capsys, fixtures_dir, monkeypatch):
        # their quotients and kernel generators run the engine with only
        # the transforms they read
        expected = self.outcomes(capsys, fixtures_dir, ("pv", "colim"))
        snf = abelian.smith_normal_form

        def refuse(*args, **kwargs):
            raise AssertionError("smith_normal_form called")

        for name, module in list(sys.modules.items()):
            if name.startswith("kdilate") and getattr(module, "smith_normal_form", None) is snf:
                monkeypatch.setattr(module, "smith_normal_form", refuse)
        assert self.outcomes(capsys, fixtures_dir, ("pv", "colim")) == expected
        assert [code for code, _, _ in expected] == [
            code for command, _, code in SMITH_FORM_RUNS if command in ("pv", "colim")
            for _ in range(2)]

    def test_benchmark_tracer_around_main(self, capsys, fixtures_dir):
        # kbench/spans.py wraps smith_normal_form and reads the U, S and V
        # of every result; the traced commands must end as untraced ones do
        spec = importlib.util.spec_from_file_location("kbench_spans", SPANS)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        commands = ("snf", "colim", "kercoker", "pv")
        expected = self.outcomes(capsys, fixtures_dir, commands)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = self.outcomes(capsys, fixtures_dir, commands)
        finally:
            tracer.uninstall()
        assert traced == expected
        assert [code for code, _, _ in traced] == [
            code for _, _, code in SMITH_FORM_RUNS for _ in range(2)]
        assert tracer.calls("cli.main") == len(traced)
        assert tracer.calls("abelian.smith_normal_form") == 6 and tracer.snf_max_bits > 0
