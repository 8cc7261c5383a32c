"""Batch command-line front end.

Problem files are JSON documents with a top-level "kind" drawn from
{"group_endo", "k_data", "cuntz", "graph"}; every integer is either a JSON
number within +-2^53 or a decimal string of ASCII digits (arbitrary
precision).  Results render as text, canonical JSON (sorted keys,
two-space indent, no floats), or DOT for the two poset subcommands.

Importing this module loads `kdilate.matrix` and `kdilate.graphalg` and
no other layer, which is all the graph subcommands need (`graph-k` adds
`kdilate.abelian` when it runs).  The group subcommands, snf, colim,
kercoker, pv, cuntz and graph-crossed-k, have their handlers in
`kdilate.group_commands`; the grammar names them, and that module, which
loads the group, colimit and six-term layers at its top, is imported
only when one of them runs.

Graph files are decoded by `_GraphDecoder`, which reads an adjacency
matrix of single digits (the small multiplicities most graphs have)
straight from its text, row by row, as the bytes of each row's
multiplicities.  A graph read that way keeps those rows, and builds its
matrix of ints only if asked for it; any other graph goes through
`_as_matrix`, and any file with a fault in it is read again by
`json.loads`, so that every diagnostic stays that route's.
`graph-hs` puts its family into the payload as a `VertexSets` view of
bitmasks, which the JSON writer names set by set from vertex names it
encodes once.

Exit codes: 0 success, 2 input/schema errors (diagnostic on stderr; this
includes files that are not UTF-8 and JSON nested too deeply to decode),
3 for computations whose outcome is an unresolved extension (the result is
still printed, with a status field), 1 when stdout is closed before the
result is written out (say by `| head`).
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Iterable
from itertools import chain, compress
from json.decoder import WHITESPACE
from json.encoder import encode_basestring_ascii
from json.scanner import py_make_scanner
from types import SimpleNamespace

from .graphalg import (
    Graph,
    bit_selector as _bit_selector,
    condition_k_failures,
    hereditary_saturated_masks,
    ideal_lattice_hasse,
    prim_poset,
    subquotient_k,
)
from .matrix import IntMatrix

_MAX_JSON_INT = 2**53
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_STR, _INT, _LISTS = {str}, {int}, {list, tuple}
_KINDS = ("group_endo", "k_data", "cuntz", "graph")
_JSON_SPACE = b" \t\n\r"
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_skip_space = WHITESPACE.match


class InputError(Exception):
    """Anything wrong with the command line or a problem file."""


# ---------------------------------------------------------------------------
# Input parsing and validation
# ---------------------------------------------------------------------------

def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        if abs(value) > _MAX_JSON_INT:
            raise InputError(f"{where}: integers beyond 2^53 must be decimal strings")
        return value
    if isinstance(value, str):
        if re.fullmatch(r"-?[0-9]+", value.strip()):
            return int(value)
        raise InputError(f"{where}: {value!r} is not a decimal integer")
    raise InputError(f"{where}: expected an integer")


def _as_count(value, where: str) -> int:
    n = _as_int(value, where)
    if n < 0:
        raise InputError(f"{where}: must be nonnegative")
    return n


def _as_row(row: list | bytes, where: str) -> list | bytes:
    # a row of ints (the type set is checked first, so no bools) within the
    # JSON range needs no per-entry check; a bytes row from _GraphDecoder
    # reads as one
    if set(map(type, row)) == _INT and -_MAX_JSON_INT <= min(row) and max(row) <= _MAX_JSON_INT:
        return row
    return [_as_int(x, f"{where}[{j}]") for j, x in enumerate(row)]


def _as_matrix(value, where: str, cols: int | None = None,
               rows: int | None = None) -> IntMatrix:
    """The matrix of a decoded JSON list of rows.  Each row is replaced in
    value by its tuple as it is read, so the decoded lists do not stay
    alive beside the matrix."""
    if not isinstance(value, list) or any(not isinstance(r, (list, bytes)) for r in value):
        raise InputError(f"{where}: expected a list of rows")
    # every entry is checked before the shape, so a bad entry anywhere is
    # reported before a ragged row, a wrong width or a wrong row count
    for i, row in enumerate(value):
        value[i] = tuple(_as_row(row, f"{where}[{i}]"))
    widths = {len(r) for r in value}
    if len(widths) > 1:
        raise InputError(f"{where}: ragged rows")
    if not value and cols is None:
        raise InputError(f"{where}: cannot infer the width of an empty matrix")
    width = widths.pop() if value else cols
    if cols is not None and width != cols:
        raise InputError(f"{where}: expected {cols} columns, found {width}")
    if rows is not None and len(value) != rows:
        raise InputError(f"{where}: expected {rows} rows, found {len(value)}")
    return IntMatrix._of_checked_rows(width, tuple(value))


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_document(path: str, expected_kind: str, text: str | None = None,
                   decode=None) -> dict:
    """The problem file at path (or its text, when given), decoded by
    decode (json.loads by default), with its kind checked."""
    if text is None:
        text = _read_text(path)
    try:
        doc = json.loads(text) if decode is None else decode(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: problem file must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise InputError(f"{path}: kind must be one of {list(_KINDS)}, got {kind!r}")
    if kind != expected_kind:
        raise InputError(f"{path}: this subcommand expects kind {expected_kind!r}, "
                         f"file has {kind!r}")
    return doc


def _check_fields(doc: dict, where: str, required: set, optional: set = frozenset()):
    allowed = required | optional | {"kind", "comment"}
    for key in doc:
        if key not in allowed:
            raise InputError(f"{where}: unexpected field {key!r}")
    for key in required:
        if key not in doc:
            raise InputError(f"{where}: missing field {key!r}")


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
    from the vertex names encoded once, naming each set as it is written,
    so a payload can hold a long family without its names."""

    __slots__ = ("graph", "masks")

    def __init__(self, graph: Graph, masks):
        self.graph = graph
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return map(self.graph.names_of, self.masks)


def _write_string_lists(lists, write, indent: str, lead: str) -> None:
    """_write_json's pieces for a nonempty list of lists, each given by its
    items already encoded as JSON strings: one piece per list, one join."""
    inner, leaf = indent + "  ", indent + "    "
    join = (",\n" + leaf).join
    separator = lead + "[\n" + inner
    for items in lists:
        names = join(items)
        write(separator + ("[\n" + leaf + names + "\n" + inner + "]" if names else "[]"))
        separator = ",\n" + inner
    write("\n" + indent + "]")


def _write_json(obj, write, indent: str, lead: str = "") -> None:
    """Write lead, then the text json.dumps(obj, indent=2, sort_keys=True)
    gives at this depth, with integers beyond 2^53 as decimal strings and a
    VertexSets view as the list of its sets' names: one piece per scalar,
    flat list (also each one in a list of flat lists of strings) or vertex
    set, with the separator and key before it, and one per closing bracket."""
    if isinstance(obj, str):
        write(lead + encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple, VertexSets)):
        if not obj:
            write(lead + "[]")
            return
        if type(obj) is VertexSets:  # names encoded once, picked per set
            encoded = list(map(encode_basestring_ascii, obj.graph.vertices))
            lists = (compress(encoded, s) for s in map(_bit_selector, obj.masks))
            _write_string_lists(lists, write, indent, lead)
            return
        inner = indent + "  "
        types = set(map(type, obj))
        if types <= _LISTS and set(map(type, chain.from_iterable(obj))) <= _STR:
            # a list of flat lists of strings, such as a poset's covers
            _write_string_lists((map(encode_basestring_ascii, item) for item in obj),
                                write, indent, lead)
            return
        if types == _STR:  # a flat list is written in one join
            items = map(encode_basestring_ascii, obj)
        elif types == _INT and -_MAX_JSON_INT <= min(obj) and max(obj) <= _MAX_JSON_INT:
            items = map(int.__repr__, obj)
        else:
            separator = lead + "[\n" + inner
            for item in obj:
                _write_json(item, write, inner, separator)
                separator = ",\n" + inner
            write("\n" + indent + "]")
            return
        write(lead + "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            write(lead + "{}")
            return
        inner = indent + "  "
        separator = lead + "{\n" + inner
        for key, value in sorted(obj.items()):
            _write_json(value, write, inner, separator + encode_basestring_ascii(key) + ": ")
            separator = ",\n" + inner
        write("\n" + indent + "}")
    elif obj is None or obj is True or obj is False:
        write(lead + _JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        write(lead + (f'"{obj}"' if abs(obj) > _MAX_JSON_INT else int.__repr__(obj)))
    else:
        write(lead + json.dumps(obj))


def render_json(payload: dict, write) -> None:
    """Write payload as canonical JSON (sorted keys, two-space indent, no
    trailing newline) to write, piece by piece, so that no string of the
    whole document is ever built."""
    _write_json(payload, write, "")


def _group_json(group: FGAbelianGroup) -> dict:
    return {"free_rank": group.free_rank,
            "invariant_factors": list(group.invariant_factors),
            "pretty": str(group)}


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
# Subcommand handlers: each returns (payload, the lines text or dot prints).
# The group subcommands' handlers are in kdilate.group_commands.
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


class _Subcommand:
    """One row of the command-line grammar."""

    __slots__ = ("handler", "help", "needs_input", "positionals", "dot")

    def __init__(self, handler, help_text: str, needs_input: bool = True,
                 positionals: tuple = (), dot: bool = False):
        # a function, or the name of one in kdilate.group_commands
        self.handler = handler
        self.help = help_text
        self.needs_input = needs_input
        # (dest, metavar, nargs, default, help), in argparse's terms
        self.positionals = positionals
        self.dot = dot  # whether --format dot is available


_OPTIONAL_Y = ("yset", "Y", "?", "", "comma-separated vertex names (default empty)")

# The whole grammar: _scan reads well-formed command lines from it, and
# build_parser builds argparse's parser from it for everything else.
_SUBCOMMANDS = {
    "snf": _Subcommand(
        "_cmd_snf", "Smith normal form of the relations matrix of a group_endo file"),
    "colim": _Subcommand(
        "_cmd_colim", "classify the dilation colimit of a group endomorphism"),
    "kercoker": _Subcommand(
        "_cmd_kercoker", "kernel and cokernel of (1 - fbar) on the dilation colimit"),
    "pv": _Subcommand("_cmd_pv", "crossed-product K-theory from a k_data file"),
    "cuntz": _Subcommand(
        "_cmd_cuntz", "closed-form table entry for the Cuntz family", needs_input=False,
        positionals=(("n", None, "?", None, "'inf' or an integer >= 2"),
                     ("m", None, "?", None, "positive integer"))),
    "graph-hs": _Subcommand(
        _cmd_graph_hs, "hereditary and saturated vertex sets of a graph"),
    "graph-lattice": _Subcommand(
        _cmd_graph_lattice, "Hasse diagram of the ideal lattice of a graph", dot=True),
    "graph-prim": _Subcommand(_cmd_graph_prim, "primitive-ideal poset of a graph", dot=True),
    "graph-k": _Subcommand(
        _cmd_graph_k, "K-groups of the subquotient on Z minus Y",
        positionals=(("zset", "Z", None, None,
                      "comma-separated vertex names ('' or '-' for empty)"),
                     _OPTIONAL_Y)),
    "graph-crossed-k": _Subcommand(
        "_cmd_graph_crossed_k", "crossed-product K-groups of the subquotient",
        positionals=(("zset", "Z", None, None, "comma-separated vertex names"),
                     _OPTIONAL_Y)),
}
_FORMATS = ("text", "json", "dot")
_OPTIONS = {"--format": "format", "--input": "input"}


def _scan(argv: list):
    """The namespace argparse would return for argv, if argv is a
    subcommand followed by --format and --input, each at most once and
    each with a value, and by its positionals in one run; None otherwise.

    No token taken here starts with '-', so abbreviations, '--opt=value',
    '--', negative numbers and help requests all go to argparse.

    >>> vars(_scan(["graph-k", "--input", "g.json", "v1,v2"]))
    {'command': 'graph-k', 'format': 'text', 'input': 'g.json', 'zset': 'v1,v2', 'yset': ''}
    >>> _scan(["cuntz", "inf", "--format", "json", "2"]) is None
    True
    """
    spec = _SUBCOMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    options, run = {}, []
    i = 1
    while i < len(argv):
        token = argv[i]
        if token.startswith("-"):
            dest = _OPTIONS.get(token)
            if (dest is None or dest in options or i + 1 == len(argv)
                    or argv[i + 1].startswith("-")):
                return None
            options[dest] = argv[i + 1]
            i += 2
        else:
            run.append(i)
            i += 1
    fmt = options.get("format", "text")
    positionals = spec.positionals
    required = sum(nargs is None for _, _, nargs, _, _ in positionals)
    if (fmt not in _FORMATS or (spec.needs_input and "input" not in options)
            or not required <= len(run) <= len(positionals)
            or (run and run[-1] - run[0] != len(run) - 1)):
        return None
    values = [argv[j] for j in run]
    values += [default for _, _, _, default, _ in positionals[len(values):]]
    return SimpleNamespace(command=argv[0], format=fmt, input=options.get("input"),
                           **{dest: v for (dest, *_), v in zip(positionals, values)})


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser for the grammar table.  It writes every help
    text and usage error, and is built only for command lines that _scan
    declines, so that well-formed calls never import argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="kdilate",
        description="Exact K-theory of crossed products by endomorphisms, "
                    "dilation colimits, and graph-algebra ideal lattices.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, spec in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        sp.add_argument("--format", choices=_FORMATS, default="text",
                        help="output format (default: text)")
        sp.add_argument("--input", metavar="FILE", required=spec.needs_input,
                        default=None, help="JSON problem file")
        for dest, metavar, nargs, default, help_text in spec.positionals:
            sp.add_argument(dest, metavar=metavar, nargs=nargs, default=default,
                            help=help_text)
    return parser


def main(argv=None) -> int:
    # Smith transforms can have entries of any size, and every result is
    # printed in full; the caller's limit on int/str conversion comes back
    # on return (there is no limit before 3.10.7).
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  What is still buffered goes to
        # the null device, so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _scan(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse already wrote the diagnostic
            code = exc.code
            return code if isinstance(code, int) else 2
    spec = _SUBCOMMANDS[args.command]
    if args.format == "dot" and not spec.dot:
        print("error: dot format is not available for this subcommand", file=sys.stderr)
        return 2
    handler = spec.handler
    if isinstance(handler, str):  # the group layers load with its module
        from . import group_commands
        handler = getattr(group_commands, handler)
    try:
        payload, lines = handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        render_json(payload, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(line + "\n" for line in lines)
    return 3 if payload.get("status") == "unresolved" else 0


if __name__ == "__main__":  # pragma: no cover
    # Run as python -m kdilate.cli, this file is __main__, and
    # kdilate.group_commands would import a second copy of it as
    # kdilate.cli, with an InputError of its own.  The package's copy runs
    # the call, so that the handlers and main share one InputError.
    from kdilate.cli import main as _main_of_package

    sys.exit(_main_of_package())
