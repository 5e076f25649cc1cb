"""Golden stdout, stderr and exit code of ``weakgibbs``, ``measure``,
``cylinder``, ``lemma --which 211`` and ``factor --dump``.

Every bundled shift runs with every bundled potential through
``weakgibbs --m 0..9``, ``weakgibbs --m 2,2,7``, ``measure``, ``cylinder
--word 11`` (an empty cylinder on golden_mean, with its one warning line
on stderr) and six ``lemma --which 211`` volumes (several n, m and j,
each printing the worst pair over every pair and shift, or a refusal),
and every bundled shift through ``factor --dump`` at radius k = 0..3,
refusals included.  The three streams must match ``data/cli_outputs.json``
byte for byte.  A refactor of the weak-Gibbs class pass, of the transfer
cover, of the 211 worst-pair pass, or of the factor image must keep every
one of them.
To record the file again (only after a deliberate change of output), run
this module as a script: ``python3 tests/test_cli_outputs.py``.
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
            ("measure",), ("cylinder", "--word", "11"))
# lemma 211 volumes: j = 0, two shifted j, a collar that fills the volume
# on full2 and leaves it elsewhere, a j whose collar leaves the volume, and
# a cap refusal
LEMMA_211 = (("--n", "4", "--m", "1"),
             ("--n", "5", "--m", "0", "--j", "1"),
             ("--n", "6", "--m", "1", "--j", "-1"),
             ("--n", "3", "--m", "2"),
             ("--n", "5", "--m", "1", "--j", "3"),
             ("--n", "6", "--m", "1", "--cap", "10"))
# factor codes of radius 0..3, each total on the binary windows
FACTOR = (("--k", "0", "--rule", "0=1,1=0"),
          ("--k", "1", "--rule", "010=1,100=1,101=1", "--default", "0"),
          ("--k", "2", "--rule", "00100=1,11011=0", "--default", "1"),
          ("--k", "3", "--rule", "0001000=1", "--default", "0"))


def runs() -> dict[str, list[str]]:
    """Run name (its arguments, shell-quoted) -> CLI argv on the bundled
    data files."""
    commands = (COMMANDS + tuple(("lemma", "--which", "211", *rest)
                                 for rest in LEMMA_211))
    out = {}
    for shift in SHIFTS:
        for pot in POTENTIALS:
            for cmd, *rest in commands:
                args = [cmd, "--shift", shift, "--potential", pot, *rest]
                argv = [cmd, "--shift", str(data_path(shift)),
                        "--potential", str(data_path(pot)), *rest]
                out[shlex.join(args)] = argv
        for rest in FACTOR:
            args = ["factor", "--shift", shift, *rest, "--dump"]
            out[shlex.join(args)] = ["factor", "--shift", str(data_path(shift)),
                                     *rest, "--dump"]
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
