"""The CLI's graph reader against the route it replaced, on seeded documents.

`graph_commands._load_graph` decodes graph files with
`graph_commands._decode_graph`, which walks the top-level object, reads an
adjacency matrix of single digits straight from its text and gives every
other value to `_json`'s C scanner; when anything is wrong it goes back to
`cli._loads`, which mirrors json.loads, for the diagnostic.  For every
document here, well formed or not, it must return the same graph, or
raise an InputError with the same text, as `oracles.reference_load_graph`:
json.loads and the same checks.  The documents come in the three layouts json.dumps
writes (default, compact, indented), with and without a comment, with
entries of every JSON type an adjacency row may hold, with empty, ragged
and missing rows, and mutated by one character at seeded places.

A graph whose matrix took the single-digit path keeps the bytes rows the
reader made; the tests after the first check which files take that path,
that graphs read either way compute as graphs built from lists of rows,
and that reading one costs no n x n matrix of ints.

The reader leans on `_json`'s scanner and on the context it is built
from, whose behaviour could change between Python versions, so this file
needs no test framework and runs under any installed interpreter:

    PYTHONPATH=src python tests/test_graph_reader.py
"""

import contextlib
import json
import os
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path

from kdilate import cli, graph_commands
from kdilate.graphalg import (
    Graph,
    condition_k_failures,
    hereditary_saturated_masks,
    ideal_lattice_hasse,
    prim_poset,
    subquotient_k,
)
from oracles import random_looped_graph, reference_load_graph

# entries json.dumps cannot write, put in place of their quoted markers
LITERALS = {'"@-0@"': "-0", '"@1e0@"': "1e0"}
ENTRIES = (
    lambda rng: rng.randint(10, 300),
    lambda rng: -rng.randint(1, 9),
    lambda rng: str(rng.randint(0, 300)),
    lambda rng: rng.random() < 0.5,
    lambda rng: float(rng.randint(0, 9)),
    lambda rng: "@-0@",
    lambda rng: "@1e0@",
)
LAYOUTS = ({}, {"separators": (",", ":")}, {"indent": 2})
COMMENTS = ("a comment", [1, 2], [[0, 1], [2]], {"rows": [[3]]}, "[1,2]")
MUTANTS = '[],09"-\t\x0b'


def random_document(rng: random.Random) -> str:
    n = rng.choice((0, 1, 2, 3, 5, 8, 13, 40))
    rows = [[(i == j or rng.random() < 0.3) * rng.randint(i == j, 9) for j in range(n)]
            for i in range(n)]
    if rows and rng.random() < 0.4:
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(ENTRIES)(rng)
    shape = rng.random()
    if rows and shape < 0.08:
        rows[rng.randrange(n)] = []
    elif rows and shape < 0.16:
        row = rows[rng.randrange(n)]
        row.append(rng.randint(0, 9)) if rng.random() < 0.5 else row.pop()
    elif shape < 0.24:
        rows.append([1] * n) if rng.random() < 0.5 or not rows else rows.pop()
    doc = {"kind": "graph", "vertices": [f"v{i}" for i in range(n)], "adjacency": rows}
    if rng.random() < 0.5:
        doc["comment"] = rng.choice(COMMENTS)
    keys = list(doc)
    rng.shuffle(keys)
    text = json.dumps({key: doc[key] for key in keys}, **rng.choice(LAYOUTS))
    for marker, literal in LITERALS.items():
        text = text.replace(marker, literal)
    return text


def mutate(rng: random.Random, text: str) -> str:
    """text with one character deleted, duplicated or replaced."""
    i = rng.randrange(len(text))
    edit = rng.randrange(3)
    if edit == 0:
        return text[:i] + text[i + 1:]
    if edit == 1:
        return text[:i + 1] + text[i:]
    return text[:i] + rng.choice(MUTANTS) + text[i + 1:]


def outcome(load, path: str):
    try:
        return "ok", load(path)
    except cli.InputError as exc:
        return "error", str(exc)


def test_reader_matches_the_reference_on_seeded_documents():
    rng = random.Random(29)
    counts = {"ok": 0, "error": 0}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "graph.json")
        for _ in range(700):
            text = random_document(rng)
            for variant in [text] + [mutate(rng, text) for _ in range(3)]:
                Path(path).write_text(variant, encoding="utf-8")
                expected = outcome(reference_load_graph, path)
                assert outcome(graph_commands._load_graph, path) == expected, variant
                counts[expected[0]] += 1
    # the sample reaches both outcomes
    assert counts["ok"] > 500 and counts["error"] > 500, counts


def _write_graph(path: Path, names, rows) -> None:
    path.write_text(json.dumps({"kind": "graph", "vertices": names, "adjacency": rows}))


@contextlib.contextmanager
def _digit_route_only():
    """Refuse the route of every matrix but a single-digit one: cli._loads,
    which reads a whole document again, and the C scanner on an array of
    rows, as _decode_graph calls it.  Either raises AssertionError."""
    loads, scan = cli._loads, graph_commands._scan_value

    def refuse(*args, **kwargs):
        raise AssertionError("cli._loads was called")

    def scan_no_rows(s, pos):
        value, end = scan(s, pos)
        if type(value) is list and value and all(type(row) is list for row in value):
            raise AssertionError(f"the C scanner read rows at {pos}")
        return value, end

    cli._loads, graph_commands._scan_value = refuse, scan_no_rows
    try:
        yield
    finally:
        cli._loads, graph_commands._scan_value = loads, scan


def _took_digit_route(path: Path) -> bool:
    try:
        with _digit_route_only():
            graph_commands._load_graph(str(path))
    except AssertionError:
        return False
    return True


def test_single_digit_rows_arrive_as_bytes_and_build_no_matrix():
    """A graph of single-digit rows loads by the digit route alone, and
    keeps each row as the bytes the reader read.  The poset, family and
    Condition (K) computations read those rows, with kdilate.matrix made
    impossible to import; the graph equals the one built from lists."""
    rng = random.Random(3)
    n = 300
    names = [f"v{i}" for i in range(n)]
    rows = [[rng.randint(1, 9) if i == j or rng.random() < 0.1 else 0 for j in range(n)]
            for i in range(n)]
    matrix = sys.modules.pop("kdilate.matrix", None)
    sys.modules["kdilate.matrix"] = None  # any import of it raises ImportError
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            _write_graph(path, names, rows)
            with _digit_route_only():
                graph = graph_commands._load_graph(str(path))
        assert [type(row) for row in graph.rows] == [bytes] * n
        assert len(prim_poset(graph).elements) == 1  # one strongly connected piece
        assert condition_k_failures(graph) == ()
        assert len(hereditary_saturated_masks(graph)) == 2
        assert len(ideal_lattice_hasse(graph).covers) == 1
    finally:
        del sys.modules["kdilate.matrix"]
        if matrix is not None:
            sys.modules["kdilate.matrix"] = matrix
    assert graph == Graph(names, rows)
    assert [list(row) for row in graph.rows] == rows


def test_a_digit_matrix_is_read_as_bytes_in_every_layout():
    """In each layout json.dumps writes, and with extra whitespace around
    the rows and entries, a matrix of single digits takes the digit route;
    one entry of 10 or more anywhere sends the whole matrix to the C
    scanner.  Either way the graph is the one built from its rows, and
    every row of multiplicities up to 255 is bytes."""
    names = ["a", "b", "c"]
    digits = [[2, 0, 1], [0, 1, 0], [3, 0, 9]]
    wide = [[2, 0, 1], [0, 1, 0], [3, 0, 10]]
    spaced = '{"kind": "graph", "vertices": ["a", "b", "c"], "adjacency":' \
             ' [ [2,0 ,1]\n, [ 0, 1,0\t]\r\n,[3 , 0,9 ] ]}'
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        for rows in (digits, wide):
            doc = {"kind": "graph", "vertices": names, "adjacency": rows}
            texts = [json.dumps(doc, **layout) for layout in LAYOUTS]
            if rows is digits:
                texts.append(spaced)
            for text in texts:
                path.write_text(text)
                assert _took_digit_route(path) is (rows is digits), text
                graph = graph_commands._load_graph(str(path))
                assert {type(row) for row in graph.rows} == {bytes}, text
                assert graph == Graph(names, rows), text


def _reader_graph_rows(rng: random.Random, kind: str) -> list[list[int]]:
    """Rows of a sink-free graph of one kind: "digits" (multiplicities
    0..9, a loop at some vertices), "cycles" (bare cycles of multiplicity
    one, with edges between them from a random order) or "wide" (digits
    with a few entries from 10 to 300)."""
    n = rng.randint(1, 12)
    if kind == "cycles":
        order = list(range(n))
        rng.shuffle(order)
        rows = [[0] * n for _ in range(n)]
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        pieces = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        for k, piece in enumerate(pieces):
            for a, b in zip(piece, piece[1:] + piece[:1]):
                rows[a][b] = 1
            for later in pieces[k + 1:]:  # edges only forward, so every cycle stays bare
                if rng.random() < 0.3:
                    rows[rng.choice(piece)][rng.choice(later)] = rng.randint(1, 3)
        return rows
    rows = [[(rng.random() < 0.25) * rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        if rng.random() < 0.6:
            row[i] = rng.randint(1, 9)
        if not any(row):
            row[rng.randrange(n)] = 1
    if kind == "wide":
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rng.randint(10, 300)
    return rows


def _k_outcome(graph: Graph, zset, yset):
    try:
        return subquotient_k(graph, zset, yset)
    except ValueError as exc:
        return str(exc)


def test_reader_graphs_compute_as_matrix_graphs():
    """On seeded graphs, a graph read from a file gives the same out-masks,
    components, Condition (K) failures and subquotient K-groups as the
    graph built from its rows as lists.  Only the single-digit graphs take
    the digit route."""
    rng = random.Random(41)
    kinds = ("digits", "cycles", "wide")
    failing = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        for k in range(240):
            kind = kinds[k % 3]
            rows = _reader_graph_rows(rng, kind)
            names = [f"v{i}" for i in range(len(rows))]
            _write_graph(path, names, rows)
            loaded = graph_commands._load_graph(str(path))
            built = Graph(names, rows)
            assert _took_digit_route(path) is (kind != "wide"), rows
            assert loaded._out_masks == built._out_masks
            assert loaded._components == built._components
            assert condition_k_failures(loaded) == condition_k_failures(built)
            failing += bool(condition_k_failures(built))
            family = hereditary_saturated_masks(built)
            for _ in range(3):
                z = rng.choice(family)
                y = rng.choice([m for m in family if m & ~z == 0])
                zset, yset = built.names_of(z), built.names_of(y)
                assert _k_outcome(loaded, zset, yset) == _k_outcome(built, zset, yset)
            assert loaded == built
    assert failing >= 80, failing


def test_prim_on_a_480_vertex_file_peaks_under_1_6_mb_traced():
    """One in-process graph-prim on a seeded 480-vertex graph (a loop at
    every vertex and about 4.7 edges per vertex, a file of 0.7 MB) peaks
    under 1.6 MB of memory traced by tracemalloc: the file's text and the
    rows' bytes, not a matrix of 230,400 Python ints."""
    n = 480
    rows = [list(r) for r in random_looped_graph(random.Random(480), n, 0.015).rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        _write_graph(path, [f"v{i}" for i in range(n)], rows)
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            tracemalloc.start()
            try:
                code = cli.main(["graph-prim", "--format", "json", "--input", str(path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert code == 0
    assert peak < 1.6e6, peak


if __name__ == "__main__":
    for test in (test_reader_matches_the_reference_on_seeded_documents,
                 test_single_digit_rows_arrive_as_bytes_and_build_no_matrix,
                 test_a_digit_matrix_is_read_as_bytes_in_every_layout,
                 test_reader_graphs_compute_as_matrix_graphs,
                 test_prim_on_a_480_vertex_file_peaks_under_1_6_mb_traced):
        test()
        print(f"{test.__name__} passed on Python {sys.version.split()[0]}")
