"""Golden outputs of the README's command-line examples.

Each ``shiftgibbs ...`` line of the README's command-line block runs on the
bundled data files (optional ``[...]`` groups dropped) and its stdout is
compared with the output recorded in ``data/readme_outputs.json``.  Text
fields must match exactly; reals (fields with a decimal point or an
exponent) must agree to 1e-12 relative, so a different BLAS does not fail
the test.  An example added to or changed in the README has no recorded
output and fails until one is recorded.
"""

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from shiftgibbs import cli
from shiftgibbs.bundled import data_path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "readme_outputs.json"
REAL = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+(?=e))(e[-+]?\d+)?|[-+]?inf|nan")
REL_TOL = 1e-12


def readme_examples() -> dict[str, list[str]]:
    """README example (its arguments, shell-quoted) -> CLI argv on the
    bundled data files."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command-line tool", 1)[1].split("```")[1]
    examples = {}
    for line in block.splitlines():
        if not line.startswith("shiftgibbs "):
            continue
        args = shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
        argv = list(args)
        for flag in ("--shift", "--potential"):
            if flag in argv:
                i = argv.index(flag) + 1
                argv[i] = str(data_path(argv[i]))
        examples[shlex.join(args)] = argv
    return examples


EXAMPLES = readme_examples()


def fields_agree(got: str, want: str) -> bool:
    if got == want:
        return True
    if not (REAL.fullmatch(got) or REAL.fullmatch(want)):
        return False
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def test_every_example_has_a_recorded_output():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(EXAMPLES) == sorted(recorded)


@pytest.mark.parametrize("example, argv", EXAMPLES.items(),
                         ids=[example.split()[0] for example in EXAMPLES])
def test_example_output(example, argv):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[example]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    got_lines, want_lines = buf.getvalue().split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines), example
    for got_line, want_line in zip(got_lines, want_lines):
        got, wanted = got_line.split("\t"), want_line.split("\t")
        assert len(got) == len(wanted), (example, got_line, want_line)
        assert all(map(fields_agree, got, wanted)), (example, got_line, want_line)


@pytest.mark.parametrize("got, want, agree", [
    ("0.693147180559945", "0.693147180559946", True),
    ("1", "0.999999999999999", True),
    ("0.69314718", "0.69314719", False),
    ("3", "4", False),
    ("1010101010101010101010101", "1010101010101010101010100", False),
    ("true", "false", False),
])
def test_field_comparison(got, want, agree):
    assert fields_agree(got, want) == agree
