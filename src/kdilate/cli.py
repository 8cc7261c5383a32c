"""Batch command-line front end.

Problem files are JSON documents with a top-level "kind" drawn from
{"group_endo", "k_data", "cuntz", "graph"}, which no object nested in
it holds; every integer is either a JSON
number within +-2^53 or a decimal string of ASCII digits (arbitrary
precision).  Results render as text, canonical JSON (sorted keys,
two-space indent, no floats), or DOT for the two poset subcommands.

This module holds the grammar, the readers of documents, integers and
matrices, the JSON writer and `main`, and imports no layer of kdilate:
`_as_matrix` imports `kdilate.matrix` when called.  JSON is read and
written through `_json`, the C extension under the `json` package:
`_loads` takes json.loads's steps around its scanner, and `json.decoder`
is imported only to raise a JSONDecodeError, so a well-formed call loads
neither `json` nor `re`.  Each row of the grammar names the module of
its handler, which `main` imports when that subcommand runs.
`kdilate.graph_commands` holds graph-hs, graph-lattice, graph-prim and
graph-k and the graph reader, and loads `kdilate.graphalg` and its
record base; the first three load nothing more.
`kdilate.group_commands` holds snf, colim, kercoker, pv, cuntz and
graph-crossed-k, and loads the group, colimit, six-term and graph layers
at its top.

Exit codes: 0 success, 2 input/schema errors (diagnostic on stderr; this
includes files that are not UTF-8 and JSON nested too deeply to decode),
3 for computations whose outcome is an unresolved extension (the result is
still printed, with a status field), 1 when stdout is closed before the
result is written out (say by `| head`).
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii, make_scanner
from importlib import import_module
from itertools import chain
from types import SimpleNamespace

_MAX_JSON_INT = 2**53
_JSON_SPACE = " \t\n\r"
# the C scanner of json.JSONDecoder(), with that decoder's defaults
_scan_once = make_scanner(SimpleNamespace(
    strict=True, object_hook=None, object_pairs_hook=None, parse_float=float, parse_int=int,
    parse_constant={"NaN": float("nan"), "Infinity": float("inf"),
                    "-Infinity": float("-inf")}.__getitem__))
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_STR, _INT, _LISTS = {str}, {int}, {list, tuple}
_KINDS = ("group_endo", "k_data", "cuntz", "graph")


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
        # int() strips less than str.strip() does (not U+001C to U+001F)
        text = value.strip()
        digits = text.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            return int(text)
        raise InputError(f"{where}: {value!r} is not a decimal integer")
    raise InputError(f"{where}: expected an integer")


def _as_count(value, where: str) -> int:
    n = _as_int(value, where)
    if n < 0:
        raise InputError(f"{where}: must be nonnegative")
    return n


def _as_rows(value, where: str, cols: int | None = None,
             rows: int | None = None) -> tuple[int, tuple]:
    """(width, rows) of a decoded JSON list of rows.  Each row is replaced
    in value by its checked tuple as it is read, so the decoded lists do
    not stay alive beside it; a bytes row, which only the graph reader
    makes from digits it checked, passes as it is."""
    if not isinstance(value, list) or any(not isinstance(r, (list, bytes)) for r in value):
        raise InputError(f"{where}: expected a list of rows")
    # every entry is checked before the shape, so a bad entry anywhere is
    # reported before a ragged row, a wrong width or a wrong row count
    for i, row in enumerate(value):
        if type(row) is bytes:
            continue
        # a row of ints (the type set is checked first, so no bools) within
        # the JSON range needs no per-entry check
        if not (set(map(type, row)) == _INT
                and -_MAX_JSON_INT <= min(row) and max(row) <= _MAX_JSON_INT):
            row = [_as_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
        value[i] = tuple(row)
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
    return width, tuple(value)


def _as_matrix(value, where: str, cols: int | None = None,
               rows: int | None = None) -> IntMatrix:
    """The matrix of a decoded JSON list of rows, checked by _as_rows."""
    from .matrix import IntMatrix

    return IntMatrix._of_checked_rows(*_as_rows(value, where, cols, rows))


def _skip_space(s: str, pos: int) -> int:
    """The index of the first character of s at or after pos that is not
    JSON whitespace, or len(s).  Windows that double in width are stripped
    until one holds something else, so the cost is linear in the
    whitespace skipped."""
    width = 8
    while True:
        window = s[pos:pos + width]
        rest = window.lstrip(_JSON_SPACE)
        if rest or len(window) < width:
            return pos + len(window) - len(rest)
        pos += width
        width *= 2


def _decode_error(msg: str, s: str, pos: int) -> ValueError:
    """json's JSONDecodeError, whose module is imported only when a
    document is malformed."""
    from json.decoder import JSONDecodeError

    return JSONDecodeError(msg, s, pos)


def _scan_value(s: str, pos: int) -> tuple:
    """(value, end) for the JSON value that starts at s[pos], from the C
    scanner, which raises StopIteration(pos) when none starts there.
    Before Python 3.12 the scanner can raise its JSONDecodeError only once
    json.decoder is loaded, and fails with a SystemError otherwise; the
    value is then scanned again with that module loaded."""
    try:
        return _scan_once(s, pos)
    except SystemError:
        import json.decoder  # noqa: F401

        return _scan_once(s, pos)


def _loads(s: str):
    """json.loads(s) for a str s, with the same value or the same error:
    the steps json.loads takes in Python, around the C scanner it calls."""
    if s.startswith("\ufeff"):
        raise _decode_error("Unexpected UTF-8 BOM (decode using utf-8-sig)", s, 0)
    try:
        obj, end = _scan_value(s, _skip_space(s, 0))
    except StopIteration as err:
        raise _decode_error("Expecting value", s, err.value) from None
    end = _skip_space(s, end)
    if end != len(s):
        raise _decode_error("Extra data", s, end)
    return obj


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_document(path: str, expected_kind: str, text: str | None = None,
                   decode=None) -> dict:
    """The problem file at path (or its text, when given), decoded by
    decode (_loads by default), with its kind checked and taken out, so
    that _check_fields finds a kind in no object."""
    if text is None:
        text = _read_text(path)
    try:
        doc = _loads(text) if decode is None else decode(text)
    except (ValueError, RecursionError) as exc:
        # json.decoder is imported on this path alone, when decoding failed
        from json.decoder import JSONDecodeError

        if not isinstance(exc, (JSONDecodeError, RecursionError)):
            raise
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: problem file must be a JSON object")
    kind = doc.pop("kind", None)
    if kind not in _KINDS:
        raise InputError(f"{path}: kind must be one of {list(_KINDS)}, got {kind!r}")
    if kind != expected_kind:
        raise InputError(f"{path}: this subcommand expects kind {expected_kind!r}, "
                         f"file has {kind!r}")
    return doc


def _check_fields(doc: dict, where: str, required: set, optional: set = frozenset()):
    allowed = required | optional | {"comment"}
    for key in doc:
        if key not in allowed:
            raise InputError(f"{where}: unexpected field {key!r}")
    for key in required:
        if key not in doc:
            raise InputError(f"{where}: missing field {key!r}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

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
    sized view with encoded_lists (graph-hs's VertexSets) as the list of
    the lists it gives: one piece per scalar, flat list (also each one in a
    list of flat lists of strings) or vertex set, with the separator and
    key before it, and one per closing bracket.  Any other value raises
    TypeError, as json.dumps does."""
    if isinstance(obj, str):
        write(lead + encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write(lead + "[]")
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
    elif hasattr(obj, "encoded_lists"):  # its lists' items come encoded
        if len(obj):
            _write_string_lists(obj.encoded_lists(), write, indent, lead)
        else:
            write(lead + "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_json(payload: dict, write) -> None:
    """Write payload as canonical JSON (sorted keys, two-space indent, no
    trailing newline) to write, piece by piece, so that no string of the
    whole document is ever built."""
    _write_json(payload, write, "")


def _group_json(group) -> dict:
    return {"free_rank": group.free_rank,
            "invariant_factors": list(group.invariant_factors),
            "pretty": str(group)}


class _Subcommand:
    """One row of the command-line grammar."""

    __slots__ = ("module", "handler", "help", "needs_input", "positionals", "dot")

    def __init__(self, module: str, handler: str, help_text: str, needs_input: bool = True,
                 positionals: tuple = (), dot: bool = False):
        # the name of the handler, and of its module in kdilate
        self.module = module
        self.handler = handler
        self.help = help_text
        self.needs_input = needs_input
        # (dest, metavar, nargs, default, help), in argparse's terms
        self.positionals = positionals
        self.dot = dot  # whether --format dot is available


_OPTIONAL_Y = ("yset", "Y", "?", "", "comma-separated vertex names (default empty)")
_GROUP, _GRAPH = "group_commands", "graph_commands"

# The whole grammar: _scan reads well-formed command lines from it, and
# build_parser builds argparse's parser from it for everything else.
_SUBCOMMANDS = {
    "snf": _Subcommand(
        _GROUP, "_cmd_snf", "Smith normal form of the relations matrix of a group_endo file"),
    "colim": _Subcommand(
        _GROUP, "_cmd_colim", "classify the dilation colimit of a group endomorphism"),
    "kercoker": _Subcommand(
        _GROUP, "_cmd_kercoker", "kernel and cokernel of (1 - fbar) on the dilation colimit"),
    "pv": _Subcommand(_GROUP, "_cmd_pv", "crossed-product K-theory from a k_data file"),
    "cuntz": _Subcommand(
        _GROUP, "_cmd_cuntz", "closed-form table entry for the Cuntz family", needs_input=False,
        positionals=(("n", None, "?", None, "'inf' or an integer >= 2"),
                     ("m", None, "?", None, "positive integer"))),
    "graph-hs": _Subcommand(
        _GRAPH, "_cmd_graph_hs", "hereditary and saturated vertex sets of a graph"),
    "graph-lattice": _Subcommand(
        _GRAPH, "_cmd_graph_lattice", "Hasse diagram of the ideal lattice of a graph", dot=True),
    "graph-prim": _Subcommand(
        _GRAPH, "_cmd_graph_prim", "primitive-ideal poset of a graph", dot=True),
    "graph-k": _Subcommand(
        _GRAPH, "_cmd_graph_k", "K-groups of the subquotient on Z minus Y",
        positionals=(("zset", "Z", None, None,
                      "comma-separated vertex names ('' or '-' for empty)"),
                     _OPTIONAL_Y)),
    "graph-crossed-k": _Subcommand(
        _GROUP, "_cmd_graph_crossed_k", "crossed-product K-groups of the subquotient",
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
    # the handler's module loads the layers of its family
    handler = getattr(import_module(f"{__package__}.{spec.module}"), spec.handler)
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
    # Run as python -m kdilate.cli, this file is __main__, and the
    # handlers' modules would import a second copy of it as kdilate.cli,
    # with an InputError of its own.  The package's copy runs
    # the call, so that the handlers and main share one InputError.
    from kdilate.cli import main as _main_of_package

    sys.exit(_main_of_package())
