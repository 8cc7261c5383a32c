"""The CLI's JSON reader against json.loads.

`cli._loads` takes the steps json.loads takes in Python (the BOM check,
"Expecting value" when no value starts the text, "Extra data" after it)
around the C scanner of `_json`, built from a context with
json.JSONDecoder's defaults.  For every text here it must return the same
value as json.loads, or raise an exception of the same type with the same
text.  The texts are the edge cases of those steps and of the scanner's
context, and one-character mutations of the three layouts json.dumps
writes.

The scanner's context attributes could change between Python versions,
so this file needs no test framework and runs under any installed
interpreter:

    PYTHONPATH=src python tests/test_json_reader.py
"""

import json
import random
import sys

from kdilate import cli

DOCUMENT = {
    "kind": "group_endo",
    "relations": [[2, 0, -1], [0, 3, 12]],
    "endo": [[1, "123456789012345678901234567890"], ["-4", 0]],
    "comment": 'caf\u00e9 "quoted" \\ tab\t line\n \U0001d400',
    "scalars": [1.5, -2e-3, 1e400, True, False, None, {}, [], "", 0, -0.0],
    "constants": [float("nan"), float("inf"), float("-inf")],
    "nested": {"a": {"b": [{"c": [1, [2, [3]]]}]}, "": "empty key"},
}
LAYOUTS = ({}, {"separators": (",", ":")}, {"indent": 2})
MUTANTS = '{}[],:"\\0123456789-+.eEtfnNIu \t\n\r\x00\x1f\x7f\ufeff\u00e9'
EDGE_CASES = [
    # the BOM
    "\ufeff", "\ufeff{}", "\ufeff 1", " \ufeff1",
    # empty, whitespace only, and whitespace json.loads does not skip
    "", " ", "\t\n\r ", " " * 100, "\x0b1", "\x0c1", "\u00a01", "1\u00a0", "1 ",
    # extra data
    "1 2", "{} x", "[]]", '"a""b"', "1\n\n  x", "null,", "true false", "0 " * 40,
    # NaN and the infinities, and what is not one
    "NaN", "Infinity", "-Infinity", "[NaN, Infinity, -Infinity]", '{"a": -Infinity}',
    "-NaN", "nan", "infinity", "+Infinity", "Infinit", "NaNa",
    # numbers and literals
    "-0", "-0.0", "1e400", "-1e400", "1E+2", "01", "1.", ".5", "-", "1e",
    # past int's digit limit, where there is one, parse_int raises ValueError
    "2" * 5000,
    "tru", "nul", "false ", "True",
    # control characters, and escapes
    '"a\x00b"', '"\x1f"', '"\t"', '["\n"]', '"\x7f"', '"\\u0000"', '"\\ud800"',
    '"\\x41"', '"\\u12"', '"unterminated', '"\\', '{"a\x01": 1}',
    # keys and delimiters
    '{"a" 1}', "{1: 2}", '{"a": 1,}', "[1,]", "[1 2]", "{,}", "[,]", '{"a":}', "{", "[",
    '{"a": 1, "a": 2}',
]


def outcome(loads, text: str):
    """("ok", the repr of the value), which tells NaN, -0.0, 1 and True
    apart, or (the exception's type, its text)."""
    try:
        return "ok", repr(loads(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def agree(text: str):
    expected = outcome(json.loads, text)
    assert outcome(cli._loads, text) == expected, repr(text[:200])
    return expected


def mutate(rng: random.Random, text: str) -> str:
    """text with one character deleted, duplicated, replaced or inserted."""
    i = rng.randrange(len(text))
    edit = rng.randrange(4)
    if edit == 0:
        return text[:i] + text[i + 1:]
    if edit == 1:
        return text[:i + 1] + text[i:]
    if edit == 2:
        return text[:i] + rng.choice(MUTANTS) + text[i + 1:]
    return text[:i] + rng.choice(MUTANTS) + text[i:]


def test_loads_matches_json_loads_on_the_edge_cases():
    kinds = {kind for kind, _ in map(agree, EDGE_CASES)}
    assert {"ok", json.JSONDecodeError} <= kinds, kinds


def test_loads_matches_json_loads_around_whitespace_runs():
    # runs of every length up to past three doublings of the skip's window
    for n in range(70):
        for space in (" ", "\n", "\t\r"):
            run = (space * n)[:n]
            for text in (run + "1" + run, run + "[" + run + "1" + run + "]" + run,
                         run + "1" + run + "x", run):
                agree(text)


def test_loads_raises_recursion_error_as_json_loads_does():
    for text in ("[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000,
                 "[" * 100_000):
        kind, _ = agree(text)
        assert kind is RecursionError


def test_loads_matches_json_loads_on_mutated_documents():
    rng = random.Random(36)
    texts = [json.dumps(DOCUMENT, **layout) for layout in LAYOUTS]
    counts = {"ok": 0, "error": 0}
    for text in texts:
        assert agree(text)[0] == "ok"
        for _ in range(1100):
            kind, _ = agree(mutate(rng, text))
            counts["ok" if kind == "ok" else "error"] += 1
    # the sample reaches both outcomes
    assert counts["ok"] > 300 and counts["error"] > 1500, counts


if __name__ == "__main__":
    for test in (test_loads_matches_json_loads_on_the_edge_cases,
                 test_loads_matches_json_loads_around_whitespace_runs,
                 test_loads_raises_recursion_error_as_json_loads_does,
                 test_loads_matches_json_loads_on_mutated_documents):
        test()
        print(f"{test.__name__} passed on Python {sys.version.split()[0]}")
