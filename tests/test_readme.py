"""The README's command examples, run in-process against their printed output.

Each ```text block that opens with `$ qrsums ...` is one example.  A block
without a `...` line must match the whole output; in a block with one, the
lines after `...` must match the end of the output.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from qrsums import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = [
    block.splitlines()
    for block in re.findall(r"^```text\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    if block.startswith("$ qrsums ")
]


def test_readme_has_examples():
    assert len(BLOCKS) >= 5


@pytest.mark.parametrize("block", BLOCKS, ids=[b[0][2:] for b in BLOCKS])
def test_readme_example(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(shlex.split(block[0].removeprefix("$ qrsums "))) == 0
    expected = block[1:]
    got = out.getvalue().splitlines()
    if "..." in expected:
        tail = expected[expected.index("...") + 1 :]
        assert got[len(got) - len(tail) :] == tail
    else:
        assert got == expected
