"""The command line's stdout, stderr and exit code, byte for byte, against
tests/golden_cli.json.

Each case of the golden file is one argv, run through `kdilate.cli.main`
from the root of the repository (the paths in argv and in the diagnostics
are relative to it).  The cases are every fixture, fixtures/cuntz/*
included, under all ten subcommands in text, JSON and DOT; graph-k and
graph-crossed-k with several Z/Y pairs on the graph fixtures; a grid of
cuntz positionals; and one document in tests/invalid for each diagnostic
of the problem-file readers.  Every argv is one that `cli._scan` accepts,
so argparse (whose usage text differs between Python versions) writes
none of them.

To regenerate the file, run from the root of the repository

    PYTHONPATH=src python tests/test_golden_cli.py

A regenerated file is a change of the command line's contract: record it,
and why, in CHANGES.md.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kdilate import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"

_GRAPH_K_SETS = {
    "fixtures/E.json": [("v1,v2,v3,v4", ""), ("v2,v3,v4", ""), ("v2,v3,v4", "v4"),
                        ("v1,v2,v3,v4", "v2,v3,v4"), ("v2,v4", "v4"), ("v3,v4", ""),
                        ("v4", ""), ("", ""), ("v1", ""), ("v2,v3", "v4"), ("v4", "v2,v4"),
                        ("v9", "")],
    "fixtures/multidigit.json": [("a,b", ""), ("b", ""), ("a,b", "b"), ("a", ""),
                                 ("", ""), ("b", "a,b")],
    "fixtures/tail.json": [("u,v,w", ""), ("v", ""), ("u,v,w", "v"), ("v,w", ""),
                           ("u,v,w", "v,w")],
    "fixtures/bare_cycle.json": [("x,y", ""), ("x", "")],
}
# command lines that leave --format, and graph-k's Y, at their defaults
_DEFAULTS = [
    ["graph-hs", "--input", "fixtures/multidigit.json"],
    ["graph-k", "--input", "fixtures/E.json", "v2,v3,v4"],
    ["graph-crossed-k", "--input", "fixtures/E.json", "v2,v3,v4"],
    ["graph-k", "--input", "fixtures/multidigit.json", "a,b"],
    ["snf", "--input", "fixtures/mixed_unresolved.json"],
    ["kercoker", "--input", "fixtures/mixed_unresolved.json"],
    ["kercoker", "--input", "fixtures/z_times_3.json"],
    ["colim", "--input", "fixtures/z_times_3.json"],
    ["colim", "--input", "fixtures/eventual_kernel_tower.json"],
    ["colim", "--input", "fixtures/mixed_unresolved.json"],
    ["pv", "--input", "fixtures/kdata_trivial_circle.json"],
    ["pv", "--input", "fixtures/kdata_unresolved.json"],
]
# one document per diagnostic of the readers: the JSON, the document's
# shape, and each integer, matrix and presentation check
_DIAGNOSTICS = [
    ["snf", "--input", "tests/invalid/malformed.json"],
    ["graph-hs", "--input", "tests/invalid/malformed.json"],
    ["colim", "--input", "tests/invalid/not_object.json"],
    ["colim", "--input", "tests/invalid/unknown_kind.json"],
    ["colim", "--input", "tests/invalid/unexpected_field.json"],
    ["colim", "--input", "tests/invalid/missing_field.json"],
    ["colim", "--input", "tests/invalid/boolean.json"],
    ["colim", "--input", "tests/invalid/beyond_2_53.json"],
    ["colim", "--input", "tests/invalid/negative_count.json"],
    ["colim", "--input", "tests/invalid/ragged_rows.json"],
    ["colim", "--input", "tests/invalid/wrong_width.json"],
    ["colim", "--input", "tests/invalid/not_preserving.json"],
]
_CUNTZ_N = ("inf", "0", "1", "2", "3", "4", "7", "12", "x")
_CUNTZ_M = ("0", "1", "2", "3", "4", "6", "9")


def _cases() -> list[list[str]]:
    fixtures = sorted(p.relative_to(ROOT).as_posix()
                      for p in (ROOT / "fixtures").rglob("*.json"))
    cases = []
    for fixture in fixtures:
        for command in cli._SUBCOMMANDS:
            for fmt in cli._FORMATS:
                argv = [command, "--input", fixture, "--format", fmt]
                if command in ("graph-k", "graph-crossed-k"):
                    argv.append("v1,v2")
                cases.append(argv)
    for fixture, pairs in _GRAPH_K_SETS.items():
        for command in ("graph-k", "graph-crossed-k"):
            for zset, yset in pairs:
                for fmt in ("text", "json"):
                    cases.append([command, "--input", fixture, "--format", fmt, zset, yset])
    for n in _CUNTZ_N:
        for m in _CUNTZ_M:
            cases.append(["cuntz", n, m])
        cases.append(["cuntz", "--format", "json", n, "2"])
        cases.append(["cuntz", n])
    cases += _DEFAULTS
    cases.append(["cuntz"])
    cases.append(["cuntz", "inf", "2", "--input", "fixtures/cuntz/inf_m2.json"])
    cases += _DIAGNOSTICS
    return cases


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# read at collection; a missing file fails the test below instead
_CASES = _golden() if GOLDEN.exists() else []


def test_every_case_is_one_that_scan_accepts():
    for case in _CASES:
        assert cli._scan(case["argv"]) is not None, case["argv"]


def test_the_file_holds_the_cases_this_module_builds():
    assert [case["argv"] for case in _golden()] == _cases()


@pytest.mark.parametrize("case", _CASES, ids=lambda case: " ".join(map(repr, case["argv"])))
def test_output_matches_the_golden_file(case):
    assert _run(case["argv"]) == case


if __name__ == "__main__":
    results = [_run(argv) for argv in _cases()]
    # one case a line
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, results)) + "\n]\n", encoding="utf-8")
    print(f"{len(results)} cases written to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
