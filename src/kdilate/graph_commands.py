"""The graph side of the command line: graph-hs, graph-lattice,
graph-prim and graph-k, and the reader of graph files.

These subcommands run on `kdilate.graphalg` and its record base alone;
graph-k adds the group layer when it runs, and so does the generic
matrix reader, with `kdilate.matrix`, for a graph file with a
multiplicity of 10 or more.  `kdilate.cli` imports this module only when
one of these subcommands runs, so that the group subcommands never load
it.  graph-crossed-k, whose handler is in `kdilate.group_commands`,
imports the graph reader from here when it runs.

Graph files are decoded by `_GraphDecoder`, which reads an adjacency
matrix of single digits (the small multiplicities most graphs have)
straight from its text, row by row, as the bytes of each row's
multiplicities.  A graph read that way keeps those rows, and builds its
matrix of ints only if asked for it; any other graph goes through
`cli._as_matrix`, and any file with a fault in it is read again by
`json.loads`, so that every diagnostic stays that route's.  `graph-hs`
puts its family into the payload as a `VertexSets` view of bitmasks,
which the JSON writer names set by set from vertex names encoded once.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable
from itertools import compress
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii
from json.scanner import py_make_scanner

from .cli import InputError, _as_matrix, _check_fields, _group_json, _load_document, _read_text
from .graphalg import (
    Graph,
    bit_selector as _bit_selector,
    condition_k_failures,
    hereditary_saturated_masks,
    ideal_lattice_hasse,
    prim_poset,
    subquotient_k,
)

_JSON_SPACE = b" \t\n\r"
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_skip_space = WHITESPACE.match


# ---------------------------------------------------------------------------
# Input parsing and validation
# ---------------------------------------------------------------------------

def _digit_row(text: str) -> bytes | None:
    """The bytes of the digit values of the text inside a row's brackets,
    when it is single ASCII digits and commas, JSON whitespace aside."""
    if not text.isascii():
        return None
    row = text.encode().strip(_JSON_SPACE)
    size, count = len(row), len(row) // 3
    if size % 3 == 1 and row[1::3] == b"," * count and row[2::3] == b" " * count:
        digits = row[::3]  # json.dumps's ", " between entries
    else:  # any other spacing: a digit at every even place, commas between
        row = row.translate(None, _JSON_SPACE)
        if not len(row) & 1 or row.count(b",") != len(row) >> 1:
            return None
        digits = row[::2]
    return digits.translate(_DIGIT_VALUES) if digits.isdigit() else None


def _digit_matrix(s: str, pos: int) -> tuple[list[bytes], int] | None:
    """(rows, end) for the array whose first row opens at s[pos], when each
    of its rows is a _digit_row: the first ']' after a row's '[' closes that
    row or something in it, so the text is read no further than the array."""
    rows = []
    while True:
        close = s.find("]", pos)
        row = _digit_row(s[pos + 1:close]) if close > 0 else None
        if row is None:
            return None
        rows.append(row)
        if s.startswith(", [", close + 1):  # json.dumps's separator
            pos = close + 3
            continue
        pos = _skip_space(s, close + 1).end()
        if s.startswith("]", pos):
            return rows, pos + 1
        if not s.startswith(",", pos):
            return None
        pos = _skip_space(s, pos + 1).end()
        if not s.startswith("[", pos):
            return None


class _GraphDecoder(json.JSONDecoder):
    """json.loads's decoder, but for one kind of array: a matrix whose rows
    each hold single ASCII digits and commas, JSON whitespace aside (an
    adjacency matrix of small multiplicities), becomes a list with the
    bytes of each row's digit values, read straight from its text.  Any
    other array goes to the C scanner whole.  No JSON decodes to bytes, so
    a bytes row is one this decoder checked."""

    def __init__(self):
        super().__init__()
        scan_whole = self.scan_once  # the C scanner, where there is one

        def parse_array(s_and_end, scan_once):
            s, end = s_and_end
            first = _skip_space(s, end).end()
            matrix = _digit_matrix(s, first) if s.startswith("[", first) else None
            return matrix or scan_whole(s, end - 1)

        self.parse_array = parse_array
        self.scan_once = py_make_scanner(self)


def _graph_of(doc: dict, path: str) -> Graph:
    _check_fields(doc, path, {"vertices", "adjacency"})
    vertices = doc["vertices"]
    if (not isinstance(vertices, list)
            or any(not isinstance(v, str) or not v for v in vertices)):
        raise InputError(f"{path}: vertices must be a list of nonempty strings")
    n, rows = len(vertices), doc["adjacency"]
    if (type(rows) is list and len(rows) == n
            and all(type(row) is bytes and len(row) == n for row in rows)):
        make, rows = Graph._of_digit_rows, tuple(rows)
    else:
        make, rows = Graph, _as_matrix(rows, f"{path}: adjacency", cols=n, rows=n)
    try:
        return make(tuple(vertices), rows)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    try:
        return _graph_of(_load_document(path, "graph", text, _GraphDecoder().decode), path)
    except InputError:
        # a decoding error comes here as an InputError too.  The document
        # is read again by json.loads, so that every diagnostic is the one
        # it has always been, whichever decoder met the fault first
        return _graph_of(_load_document(path, "graph", text), path)


def _parse_vertex_set(arg: str, where: str) -> list[str]:
    if arg in ("", "-"):
        return []
    names = [part.strip() for part in arg.split(",")]
    if any(not name for name in names):
        raise InputError(f"{where}: empty vertex name in {arg!r}")
    return names


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class VertexSets:
    """The vertex sets of graph given by masks, as a sized, re-iterable
    view that reads as each set's names_of list.  render_json writes it
    from encoded_lists, naming each set as it is written, so a payload can
    hold a long family without its names."""

    __slots__ = ("graph", "masks")

    def __init__(self, graph: Graph, masks):
        self.graph = graph
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return map(self.graph.names_of, self.masks)

    def encoded_lists(self):
        """Each set's names as JSON strings, picked by its bit selector
        from the vertex names encoded once."""
        encoded = list(map(encode_basestring_ascii, self.graph.vertices))
        return (compress(encoded, s) for s in map(_bit_selector, self.masks))


def _poset_payload(poset, fmt: str) -> tuple[dict, Iterable[str] | None]:
    """The payload, with the text or DOT lines only when fmt prints them."""
    payload = {"elements": poset.elements, "covers": poset.covers, "status": "ok"}
    lines = None
    if fmt == "dot":  # each line is made as it is printed
        lines = poset.dot_lines()
    elif fmt == "text" and poset.covers:
        lines = (f"{lower} < {upper}" for lower, upper in poset.covers)
    elif fmt == "text":
        lines = [f"single element: {e}" for e in poset.elements] or ["empty poset"]
    return payload, lines


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, the lines text or dot prints)
# ---------------------------------------------------------------------------

def _cmd_graph_hs(args):
    graph = _load_graph(args.input)
    masks = hereditary_saturated_masks(graph)
    # each set's names are made only as the set is written
    payload = {"subsets": VertexSets(graph, masks), "status": "ok"}
    return payload, map(graph.format_mask, masks)


def _with_condition_k(graph: Graph, result: tuple[dict, Iterable[str] | None]):
    """Add the Condition (K) fields to a poset payload, with a note on
    stderr when (K) fails: the poset then describes the gauge-invariant
    ideals only."""
    failures = condition_k_failures(graph)
    payload = result[0]
    payload["condition_k"] = not failures
    payload["condition_k_failures"] = list(failures)
    if failures:
        print(f"note: condition (K) fails at {', '.join(failures)}; "
              "the result describes the gauge-invariant ideals only", file=sys.stderr)
    return result


def _cmd_graph_lattice(args):
    graph = _load_graph(args.input)
    try:
        poset = ideal_lattice_hasse(graph)
    except ValueError as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    return _with_condition_k(graph, _poset_payload(poset, args.format))


def _cmd_graph_prim(args):
    graph = _load_graph(args.input)
    try:
        poset = prim_poset(graph)
    except ValueError as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    return _with_condition_k(graph, _poset_payload(poset, args.format))


def _graph_k_sets(args):
    zset = _parse_vertex_set(args.zset, "Z")
    yset = _parse_vertex_set(args.yset, "Y")
    return zset, yset


def _cmd_graph_k(args):
    graph = _load_graph(args.input)
    zset, yset = _graph_k_sets(args)
    try:
        k0, k1 = subquotient_k(graph, zset, yset)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = {"k0": _group_json(k0), "k1": _group_json(k1), "status": "ok"}
    return payload, [f"K0 = {k0}, K1 = {k1}"]
