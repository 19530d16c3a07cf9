"""The CLI examples in README.md, run through `cli.main`: each `$ singcurve`
line must exit 0 and print exactly the lines that follow it, up to the
next blank line or the end of the code block."""

import contextlib
import io
import pathlib
import shlex

import pytest

from singcurve import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    out, cmd, want, in_block = [], None, [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        if cmd is not None and (not in_block or not line.strip()
                                or line.startswith("$ ")):
            out.append((cmd, want))
            cmd = None
        if in_block and line.startswith("$ singcurve "):
            cmd, want = line[len("$ singcurve "):], []
        elif cmd is not None:
            want.append(line)
    return out


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("cmd,want", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(cmd, want):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(shlex.split(cmd))
    assert code == 0
    assert buf.getvalue().splitlines() == want
