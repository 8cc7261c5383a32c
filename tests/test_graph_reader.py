"""The CLI's graph reader against the route it replaced, on seeded documents.

`cli._load_graph` decodes graph files with `cli._GraphDecoder`, which reads
an adjacency row of single digits straight from its text, and goes back to
`json.loads` for the diagnostic when anything is wrong.  For every document
here, well formed or not, it must return the same graph, or raise an
InputError with the same text, as `oracles.reference_load_graph`: json.loads
and the same checks.  The documents come in the three layouts json.dumps
writes (default, compact, indented), with and without a comment, with
entries of every JSON type an adjacency row may hold, with empty, ragged
and missing rows, and mutated by one character at seeded places.

The decoder leans on the pure-Python JSON scanner's parse_array hook, whose
behaviour could change between Python versions, so this file needs no test
framework and runs under any installed interpreter:

    PYTHONPATH=src python tests/test_graph_reader.py
"""

import json
import random
import sys
import tempfile
from pathlib import Path

from kdilate import cli
from kdilate.graphalg import Graph
from oracles import reference_load_graph

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
                assert outcome(cli._load_graph, path) == expected, variant
                counts[expected[0]] += 1
    # the sample reaches both outcomes
    assert counts["ok"] > 500 and counts["error"] > 500, counts


def test_single_digit_rows_are_read_in_bulk():
    """A graph of single-digit rows loads without json.loads, and every row
    reaches the checks as a tuple, already decoded in bulk."""
    rng = random.Random(3)
    n = 300
    names = [f"v{i}" for i in range(n)]
    rows = [[rng.randint(1, 9) if i == j or rng.random() < 0.1 else 0 for j in range(n)]
            for i in range(n)]
    seen = []
    as_row, loads = cli._as_row, json.loads

    def record(row, where):
        seen.append(type(row))
        return as_row(row, where)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads was called")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(json.dumps({"kind": "graph", "vertices": names, "adjacency": rows}))
        cli._as_row, json.loads = record, refuse
        try:
            graph = cli._load_graph(str(path))
        finally:
            cli._as_row, json.loads = as_row, loads
    assert graph == Graph.from_adjacency(names, rows)
    assert seen == [tuple] * n


if __name__ == "__main__":
    for test in (test_reader_matches_the_reference_on_seeded_documents,
                 test_single_digit_rows_are_read_in_bulk):
        test()
        print(f"{test.__name__} passed on Python {sys.version.split()[0]}")
