"""The public surface: what README's "Library use" section says, and which
names of `kdilate.__all__` the command line reaches.

Every case of tests/golden_cli.json runs through `kdilate.cli.main` under
`sys.setprofile`.  A function is reached when it is called; a class is
reached when an instance is built, through its own `__init__` or through
`_Record.__init__`.  Each public name is reached, or README lists it,
with its reason, as a line "* `name`: reason" of "Library use"; a listed
name is public and unreached.

The section's Python block runs too, and each line it prints must read as
the `# ...` comment of its print call.  Run as a script, this file checks
only that block, against whichever kdilate the interpreter imports:

    python tests/test_public_surface.py
"""

import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def _listed() -> set[str]:
    return set(re.findall(r"^\* `(\w+)`: \S", _library_use(), re.MULTILINE))


def _reached() -> set[str]:
    import kdilate
    from kdilate.record import _Record
    from test_golden_cli import _CASES, _run

    called, built = set(), set()
    record_init = _Record.__init__.__code__

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
            if frame.f_code is record_init:
                built.add(type(frame.f_locals["self"]))

    assert _CASES
    sys.setprofile(profile)
    try:
        for case in _CASES:
            _run(case["argv"])
    finally:
        sys.setprofile(None)
    reached = set()
    for name in kdilate.__all__:
        value = getattr(kdilate, name)
        if isinstance(value, type):
            init = vars(value).get("__init__")
            if value in built or (init is not None and init.__code__ in called):
                reached.add(name)
        elif value.__code__ in called:
            reached.add(name)
    return reached


def test_every_public_name_is_reached_or_listed_with_a_reason():
    import kdilate
    public, listed = set(kdilate.__all__), _listed()
    unreached = public - _reached()
    assert not unreached - listed, f"unreached and unlisted: {sorted(unreached - listed)}"
    assert not listed - public, f"listed but not in kdilate.__all__: {sorted(listed - public)}"
    assert not listed - unreached, f"listed but reached: {sorted(listed - unreached)}"


def test_library_use_block_prints_its_comments():
    code = re.search(r"```python\n(.*?)```", _library_use(), re.DOTALL).group(1)
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
