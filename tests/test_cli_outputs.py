"""Golden stdout, stderr and exit code of ``weakgibbs`` and ``measure``.

Every bundled shift runs with every bundled potential through
``weakgibbs --m 0..9``, ``weakgibbs --m 2,2,7`` and ``measure``, refusals
included, and the three streams must match ``data/cli_outputs.json`` byte
for byte.  A refactor of the weak-Gibbs class pass or of the transfer
cover must keep every one of them.  To record the file again (only after a
deliberate change of output), run this module as a script:
``python3 tests/test_cli_outputs.py``.
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from shiftgibbs import cli
from shiftgibbs.bundled import data_path

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_outputs.json"
SHIFTS = ("full2.shift", "golden_mean.shift", "golden_mean.sft",
          "even.shift", "reducible.shift", "periodic.shift")
POTENTIALS = ("zero.pot", "site_a.pot", "pair_beta.pot")
COMMANDS = (("weakgibbs", "--m", "0..9"), ("weakgibbs", "--m", "2,2,7"),
            ("measure",))


def runs() -> dict[str, list[str]]:
    """Run name (its arguments, shell-quoted) -> CLI argv on the bundled
    data files."""
    out = {}
    for shift in SHIFTS:
        for pot in POTENTIALS:
            for cmd, *rest in COMMANDS:
                args = [cmd, "--shift", shift, "--potential", pot, *rest]
                argv = [cmd, "--shift", str(data_path(shift)),
                        "--potential", str(data_path(pot)), *rest]
                out[shlex.join(args)] = argv
    return out


RUNS = runs()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_every_run_has_a_recorded_output():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(RUNS) == sorted(recorded)


@pytest.mark.parametrize("name", RUNS)
def test_output_is_byte_identical(name):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run(RUNS[name]) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: run(argv) for name, argv in RUNS.items()},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
