"""The CLI's argv scan against argparse, on a seeded sample of command lines.

`cli._scan` reads well-formed command lines without argparse.  Wherever it
accepts an argv, its namespace must equal what argparse parses; wherever
argparse exits (help or a usage error), the scan must decline.  The parser
that `cli.build_parser` builds from the grammar table must also behave
byte for byte like the parser written out call by call
(`oracles.reference_parser`), on the same sample and in every help text.

argparse's parsing and messages change between Python versions, so this
file needs no test framework and runs under any installed interpreter:

    PYTHONPATH=src python tests/test_cli_grammar.py
"""

import random
import sys

from kdilate import cli
from oracles import parse_outcome, reference_parser

SUBCOMMANDS = ("snf", "colim", "kercoker", "pv", "cuntz", "graph-hs", "graph-lattice",
               "graph-prim", "graph-k", "graph-crossed-k")
WORDS = ("inf", "2", "json", "v1,v2", "v3", "", "colim")
ODD = ("-2", "-", "--", "-h", "--format=json", "--inp", "--format", "--input", "bogus")


def sample_argvs(count: int = 4000, seed: int = 13) -> list[list[str]]:
    """Subcommands with zero to three positionals in one run, --format and
    --input each with a value or not at all, shuffled; about half of them
    get an odd token as well, in place of a value or anywhere."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(count):
        pieces = [[rng.choice(WORDS) for _ in range(rng.randint(0, 3))]]
        if rng.random() < 0.7:
            pieces.append(["--format", rng.choice(("text", "json", "dot", "bogus"))])
        if rng.random() < 0.8:
            pieces.append(["--input", rng.choice(("f.json", "", "inf"))])
        rng.shuffle(pieces)
        argv = [rng.choice(SUBCOMMANDS)] + [token for piece in pieces for token in piece]
        if rng.random() < 0.5:
            odd = rng.choice(ODD + WORDS)
            if rng.random() < 0.5 and len(argv) > 1:
                argv[rng.randrange(len(argv))] = odd
            else:
                argv.insert(rng.randint(0, len(argv)), odd)
        argvs.append(argv)
    return argvs


def test_scan_agrees_with_argparse():
    parser = cli.build_parser()
    accepted = exits = 0
    for argv in sample_argvs():
        scanned = cli._scan(argv)
        outcome = parse_outcome(parser, argv)
        if scanned is not None:
            accepted += 1
            assert outcome == ("ok", vars(scanned)), argv
        if outcome[0] == "exit":
            exits += 1
            assert scanned is None, argv
    # the sample reaches both sides of the scan
    assert accepted > 500 and exits > 500, (accepted, exits)


def test_parser_from_the_table_matches_the_reference():
    parser, reference = cli.build_parser(), reference_parser()
    assert parser.format_help() == reference.format_help()
    for name in SUBCOMMANDS:
        assert (parse_outcome(parser, [name, "--help"])
                == parse_outcome(reference, [name, "--help"])), name
    for argv in sample_argvs():
        assert parse_outcome(parser, argv) == parse_outcome(reference, argv), argv


if __name__ == "__main__":
    for test in (test_scan_agrees_with_argparse,
                 test_parser_from_the_table_matches_the_reference):
        test()
        print(f"{test.__name__} passed on Python {sys.version.split()[0]}")
