"""The reach of the command line: every function, method and class defined
in src/kdilate/*.py is reached by a case of tests/golden_cli.json or by
README's "Library use" block, or it is kept, with one reason from a closed
set.

The golden cases run through `kdilate.cli.main`, and the block runs after
them, under `sys.settrace` in a child interpreter, so that what other
tests imported or cached does not count.  A function or method is reached
when it is called.  A class is reached when code defined in its body is
called, when `_Record.__init__` builds an instance of it, or when an
instance of it is raised.  A name is the module's file stem and the
qualified name, without "<locals>": `abelian.kernel`,
`record._Record.__init_subclass__.__eq__`.

The kept list, `KEPT`, names each unreached definition with its reason; the
names that `kbench/spans.py` wraps are read from its `TARGETS` and pass
unlisted.  A kept name must be defined and unreached, and one kept as
called only by a kept name names that caller.

README's list "* `name`: reason" of "Library use" holds the public names
(`kdilate.__all__`) that nothing reaches: each is public and unreached,
and each public unreached name is listed there.

The section's Python block runs too, and each line it prints must read as
the `# ...` comment of its print call.  Run as a script, this file checks
only that block, against whichever kdilate the interpreter imports:

    python tests/test_public_surface.py
"""

import ast
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
SPANS = TESTS.parent / "kbench" / "spans.py"

# The closed set of reasons to keep a definition that nothing reaches.
ROADMAP = "kept by a named ROADMAP item"
CALLER = "called only by a kept name"
ORACLE = "read by the reference renderer tests/oracles.json_safe"
PROTOCOL = "the record or package protocol, or import-time code"
ARGPARSE = "the argparse help path"
REASONS = {ROADMAP, CALLER, ORACLE, PROTOCOL, ARGPARSE}

# name: (reason, what it rests on: the ROADMAP item, the kept caller, or how)
KEPT = {
    "colimit.eventual_kernel": (ROADMAP, "item 2: --trace prints t*"),
    "colimit.ColimitDescription.signature": (ROADMAP, "item 14: kclassify"),
    "colimit.ColimitDescription.isomorphic": (ROADMAP, "item 14: kclassify"),
    "kcrossed.pv_verify_exactness": (ROADMAP, "items 7 and 19: a route or a replacement"),
    "abelian.FGAbelianGroup.order": (CALLER, "kcrossed.pv_verify_exactness"),
    "abelian.FGAbelianGroup.is_finite": (CALLER, "kcrossed.pv_verify_exactness"),
    "abelian.SNFResult.diagonal": (CALLER, "abelian.solve_integer_system"),
    "graphalg.Graph.set_of": (CALLER, "graphalg.enumerate_hereditary_saturated"),
    "graph_commands.VertexSets.__iter__": (ORACLE, "a VertexSets view read as its lists"),
    "record._Record.__repr__": (PROTOCOL, "repr of a value"),
    "record._Record.__init_subclass__.__hash__": (PROTOCOL, "hash of a value"),
    "record._Record.__setattr__": (PROTOCOL, "refuses assignment"),
    "record._Record.__delattr__": (PROTOCOL, "refuses deletion"),
    "record._Record.__init_subclass__": (PROTOCOL, "runs as each value class is defined"),
    "graphalg.PosetDiagram.__init__": (PROTOCOL, "the validating constructor from fields"),
    "graphalg._all_str": (CALLER, "graphalg.PosetDiagram.__post_init__"),
    "cli._Subcommand": (PROTOCOL, "the grammar table's rows, built at import"),
    "cli._Subcommand.__init__": (PROTOCOL, "the grammar table's rows, built at import"),
    "__init__.__dir__": (PROTOCOL, "dir() of the package lists its lazy names"),
    "cli.build_parser": (ARGPARSE, "built only for command lines that _scan declines"),
}


def _library_use() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def _library_code() -> str:
    return re.search(r"```python\n(.*?)```", _library_use(), re.DOTALL).group(1)


def _listed() -> set[str]:
    return set(re.findall(r"^\* `(\w+)`: \S", _library_use(), re.MULTILINE))


def _spans_targets() -> set[str]:
    spec = importlib.util.spec_from_file_location("kbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{module}.{attr}" for module, attr, _ in spans.TARGETS}


def _definitions(package: Path) -> tuple[dict[tuple[str, int], str], set[str]]:
    """Every def and class in the package's files, as (path, the line its
    code object starts on) -> name, and the names of the classes among
    them.  A decorated definition's code starts on its first decorator's
    line; it is entered under its `def` line too."""
    found, classes = {}, set()

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                for line in [child.lineno] + [d.lineno for d in child.decorator_list[:1]]:
                    found[(str(path), line)] = name
                if isinstance(child, ast.ClassDef):
                    classes.add(name)
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), path.stem)
    return found, classes


def _reach() -> tuple[list[str], list[str]]:
    """(every definition, the reached ones), with the golden cases and then
    README's block run under the tracer.  Run in a fresh interpreter."""
    import kdilate
    from kdilate.record import _Record
    from test_golden_cli import _CASES, _run

    package = Path(kdilate.__file__).resolve().parent
    definitions, classes = _definitions(package)
    # imported before the tracer starts, so that no module body runs traced
    modules = [kdilate] + [importlib.import_module(f"kdilate.{path.stem}")
                           for path in package.glob("*.py") if path.stem != "__init__"]
    files = {module.__file__: str(Path(module.__file__).resolve()) for module in modules}
    called, built = set(), set()
    record_init = _Record.__init__.__code__

    def local(frame, event, arg):
        if event == "exception":
            built.add(arg[0])
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code is record_init:
            built.add(type(frame.f_locals["self"]))
        path = files.get(code.co_filename)
        if path is None:
            return None
        called.add((path, code.co_firstlineno))
        frame.f_trace_lines = False
        return local

    assert _CASES
    code = compile(_library_code(), "README.md", "exec")
    sys.settrace(trace)
    try:
        for case in _CASES:
            _run(case["argv"])
        with redirect_stdout(io.StringIO()):
            exec(code, {})
    finally:
        sys.settrace(None)
    names = set(definitions.values())
    reached = {definitions[key] for key in called if key in definitions}
    reached |= {f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}" for cls in built}
    reached |= {name for name in classes if any(r.startswith(name + ".") for r in reached)}
    return sorted(names), sorted(reached & names)


@cache
def _reach_in_child() -> tuple[set[str], set[str]]:
    import kdilate
    src = str(Path(kdilate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(TESTS)])}
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_public_surface as t; "
                               "print(json.dumps(t._reach()))"],
        cwd=TESTS, env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    defined, reached = json.loads(child.stdout)
    return set(defined), set(reached)


def test_every_definition_is_reached_or_kept_with_a_reason():
    defined, reached = _reach_in_child()
    unreached = defined - reached
    spans = _spans_targets()
    assert spans <= defined, f"traced but not defined: {sorted(spans - defined)}"
    assert not unreached - spans - set(KEPT), \
        f"unreached and not kept: {sorted(unreached - spans - set(KEPT))}"
    assert not set(KEPT) - unreached, f"kept but reached: {sorted(set(KEPT) - unreached)}"
    for name, (reason, basis) in KEPT.items():
        assert reason in REASONS and basis, name
        if reason == CALLER:
            assert basis in KEPT or basis in spans, (name, basis)


def test_every_public_name_is_reached_or_listed_with_a_reason():
    import kdilate
    _, reached = _reach_in_child()
    homes = {name: f"{module}.{name}" for name, module in kdilate._HOMES.items()}
    unreached = {name for name, home in homes.items() if home not in reached}
    listed = _listed()
    assert not unreached - listed, f"unreached and unlisted: {sorted(unreached - listed)}"
    assert not listed - set(homes), \
        f"listed but not in kdilate.__all__: {sorted(listed - set(homes))}"
    assert not listed - unreached, f"listed but reached: {sorted(listed - unreached)}"


def test_library_use_block_prints_its_comments():
    code = _library_code()
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


if __name__ == "__main__":
    test_library_use_block_prints_its_comments()
    import kdilate
    print(f"README's Library use block prints its comments, with {kdilate.__file__}")
