import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from shiftgibbs import (VolumeGuardError, Word, cli, cylinder_prob, energy,
                        enumerate_words, equilibrium_measure, finite_pressure,
                        measures, pressure, verify, weak_gibbs_scan)
from shiftgibbs.bundled import (BINARY, SITE_FIELD, data_path, even_shift,
                                full_shift_2, golden_mean, periodic_cycle,
                                reducible_pair)
from shiftgibbs.fileio import (ParseError, dump_presentation, load_potential,
                               load_presentation, load_sft, load_shift)
from test_invariance import run_cli as cli_in_process


BUNDLED_SHIFTS = ("full2.shift", "golden_mean.shift", "golden_mean.sft",
                  "even.shift", "reducible.shift", "periodic.shift")
BUNDLED_POTENTIALS = ("zero.pot", "site_a.pot", "pair_beta.pot")


# valid arguments of every subcommand besides --shift
CLI_ARGS = {
    "gap": (),
    "pressure": ("--potential", str(data_path("zero.pot")), "--n-max", "2"),
    "measure": ("--potential", str(data_path("zero.pot"))),
    "cylinder": ("--potential", str(data_path("zero.pot")), "--word", "0"),
    "weakgibbs": ("--potential", str(data_path("zero.pot")), "--m", "1"),
    "lemma": ("--potential", str(data_path("zero.pot")), "--which", "212",
              "--n", "3", "--m", "0"),
    "tangent": ("--potential", str(data_path("zero.pot")), "--word", "0",
                "--n", "2"),
    "splice": ("--m", "1", "--left", "0", "--center", "0", "--right", "0"),
    "factor": ("--k", "0", "--default", "0"),
}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "shiftgibbs", *args],
                          capture_output=True, text=True, env=env)


def long_range_text(r: int) -> str:
    """A range-r potential on the binary alphabet: 0.25 when the letters r
    apart are both 1, and -0.3 on every 01 pair.  On full2 its transfer
    cover has 2^r states."""
    return f"range {r}\nshape 0,{r}\nval 11 0.25\nshape 0,1\nval 01 -0.3\n"


class TestFileFormats:
    def test_bundled_files_match_builders(self):
        assert load_presentation(data_path("full2.shift")) == full_shift_2()
        assert load_presentation(data_path("golden_mean.shift")) == golden_mean()
        assert load_presentation(data_path("even.shift")) == even_shift()
        assert load_presentation(data_path("reducible.shift")) == reducible_pair()
        assert load_presentation(data_path("periodic.shift")) == periodic_cycle()

    def test_sft_file(self, gm):
        built = load_sft(data_path("golden_mean.sft"))
        for n in range(0, 4):
            assert [w.text() for w in enumerate_words(built, n)] == \
                [w.text() for w in enumerate_words(gm, n)]

    def test_load_shift_dispatches_on_extension(self):
        assert load_shift(data_path("golden_mean.sft")).alphabet == BINARY
        assert load_shift(data_path("even.shift")) == even_shift()

    def test_potential_files(self):
        alph = BINARY
        site = load_potential(data_path("site_a.pot"), alph)
        assert site.shapes[0].values == {(1,): SITE_FIELD}
        pair = load_potential(data_path("pair_beta.pot"), alph)
        assert pair.shapes[0].values == {(0, 0): 0.3, (1, 1): 0.3}
        zero = load_potential(data_path("zero.pot"), alph)
        assert zero.shapes == ()

    def test_dump_round_trip(self, tmp_path, ev, gm):
        for pres in (ev, gm):
            text = dump_presentation(pres)
            path = tmp_path / "dumped.shift"
            path.write_text(text, encoding="utf-8")
            assert load_presentation(path) == pres

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.shift"
        path.write_text("vertex a\nedge a a\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"broken\.shift:2"):
            load_presentation(path)

    def test_potential_parse_error(self, tmp_path):
        path = tmp_path / "bad.pot"
        path.write_text("range 1\nval 00 0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="val before any shape"):
            load_potential(path, BINARY)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, text):
        path = tmp_path / "nonfinite.pot"
        path.write_text(f"range 1\nshape 0,1\nval 00 0.5\nval 01 {text}\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r"nonfinite\.pot:4: non-finite value"):
            load_potential(path, BINARY)

    @pytest.mark.parametrize("text, where", [
        ("range 1\nshape 0,1\nval 00 0.3\nval 00 5\n", "4: duplicate val 00"),
        ("range 1\nshape 0,1\nval 00 0.3\nrange 2\n", "4: duplicate range line"),
        ("range 1\nrange 1\nshape 0,1\n", "2: duplicate range line"),
        ("range 1\nshape 0,1\nval 00 0.3\nshape 1,0\n", "4: duplicate shape 1,0"),
    ])
    def test_duplicate_directive_rejected(self, tmp_path, text, where):
        path = tmp_path / "dup.pot"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=rf"dup\.pot:{where}$"):
            load_potential(path, BINARY)

    @pytest.mark.parametrize("text, where", [
        ("# comment\nrange -1\nshape 0\n", "2: range must be nonnegative"),
        ("range 1\nshape 0,1\nval 00 0.3\nshape 0,2\n",
         "4: shape exceeds the declared range"),
    ])
    def test_range_errors_at_their_line(self, tmp_path, text, where):
        path = tmp_path / "range.pot"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=rf"range\.pot:{where}$"):
            load_potential(path, BINARY)

    @pytest.mark.parametrize("name, data, line_no", [
        ("bad.shift", b"vertex a\nedge a a 0\nedge a a \xff\n", 3),
        ("bad.sft", b"alphabet 0 1\n# \xc3\nforbid 11\n", 2),
        ("bad.pot", b"range 0\r\nshape 0\r\nval 1 0.5\xff\r\n", 3),
    ])
    def test_non_utf8_byte_is_a_parse_error_at_its_line(self, tmp_path, name,
                                                         data, line_no):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf"{name}:{line_no}: byte 0x.. is "
                           "not UTF-8 text$"):
            load_potential(path, BINARY) if name.endswith(".pot") else load_shift(path)

    @pytest.mark.parametrize("offsets", ["1,0", "0,2,1"])
    def test_non_canonical_shape_rejected(self, tmp_path, capsys, offsets):
        # the letters of a pattern follow the offsets as listed, so unsorted
        # offsets would give the value to another word
        path = tmp_path / "unsorted.pot"
        width = offsets.count(",") + 1
        path.write_text(f"range 2\nshape {offsets}\nval {'0' * (width - 1)}1 5\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=rf"unsorted\.pot:2: shape {offsets} "
                           "is not canonical: offsets must strictly increase from 0$"):
            load_potential(path, BINARY)
        code = cli.main(["pressure", "--shift", str(data_path("full2.shift")),
                         "--potential", str(path), "--n-max", "2"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {path}:2: shape {offsets} is not canonical")

    def test_canonical_shape_reads_patterns_in_offset_order(self, tmp_path):
        path = tmp_path / "sorted.pot"
        path.write_text("range 1\nshape 0,1\nval 01 5\n", encoding="utf-8")
        pot = load_potential(path, BINARY)
        assert pot.shapes[0].offsets == (0, 1)
        assert pot.shapes[0].values == {(0, 1): 5.0}
        assert energy(pot, Word(BINARY, 0, (0, 1))) == 5.0
        assert energy(pot, Word(BINARY, 0, (1, 0))) == 0.0

    def test_same_pattern_in_two_shapes_accepted(self, tmp_path):
        path = tmp_path / "two.pot"
        path.write_text("range 2\nshape 0,1\nval 11 1\nshape 0,2\nval 11 2\n",
                        encoding="utf-8")
        pot = load_potential(path, BINARY)
        assert [s.values for s in pot.shapes] == [{(1, 1): 1.0}, {(1, 1): 2.0}]

    def test_duplicate_directive_exit_code(self, tmp_path, capsys):
        path = tmp_path / "dup.pot"
        path.write_text("range 1\nshape 0,1\nval 00 0.3\nval 00 5\n",
                        encoding="utf-8")
        code = cli.main(["pressure", "--shift", str(data_path("full2.shift")),
                         "--potential", str(path), "--n-max", "2"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {path}:4: duplicate val 00\n"

    def test_non_finite_value_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nonfinite.pot"
        path.write_text("range 0\nshape 0\nval 1 nan\n", encoding="utf-8")
        code = cli.main(["weakgibbs", "--shift", str(data_path("full2.shift")),
                         "--potential", str(path), "--m", "1..2"])
        assert code == 2
        assert "nonfinite.pot:3: non-finite value" in capsys.readouterr().err


class TestCli:
    def test_gap_output(self):
        out = run_cli("gap", "--shift", str(data_path("even.shift")))
        assert out.returncode == 0
        assert out.stdout == "q\t2\n"

    @pytest.mark.parametrize("val_11, code", [("val 11 699\n", 0), ("", 2)],
                             ids=["subnormal", "zero"])
    def test_pressure_envelope_near_the_float_range(self, tmp_path, capsys,
                                                    val_11, code):
        # values near +-700 leave a subnormal (or, without val 11, a zero)
        # Perron multiplier
        path = tmp_path / "wide.pot"
        path.write_text("range 1\nshape 0,1\nval 00 700\nval 01 -700\n" + val_11,
                        encoding="utf-8")
        assert cli.main(["pressure", "--shift", str(data_path("full2.shift")),
                         "--potential", str(path), "--n-max", "4"]) == code
        out = capsys.readouterr()
        if code == 0:
            rows = [line.split("\t") for line in out.out.splitlines()[1:5]]
            assert [n for n, _p, _env in rows] == ["1", "2", "3", "4"]
            assert all(math.isfinite(float(env)) for _n, _p, env in rows)
        else:
            assert out.out == ""
            assert out.err == ("error: a Perron vector entry underflows to 0: "
                               "the pressure envelope is unbounded\n")

    def test_measure_stationary_underflow(self, tmp_path):
        # nu[1] is subnormal and h[1] about 1e-304: pi = nu * h underflows to 0
        path = tmp_path / "wide.pot"
        path.write_text("range 1\nshape 0,1\nval 00 700\nval 01 -700\nval 11 699\n",
                        encoding="utf-8")
        out = run_cli("measure", "--shift", str(data_path("full2.shift")),
                      "--potential", str(path))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: a stationary entry nu * h underflows to 0\n"

    def test_pressure_full_shift(self):
        out = run_cli("pressure", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("zero.pot")), "--n-max", "5")
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "n\tP_n\tenvelope"
        for line in lines[1:6]:
            assert float(line.split("\t")[1]) == pytest.approx(math.log(2),
                                                               abs=1e-12)
        assert lines[-1].startswith("lambda\t")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the printed "
                       "lambda is 0.481211825059581, 2.2e-14 below log phi, "
                       "until lambda is printed to the digits an exact "
                       "Perron bracket certifies")
    def test_pressure_prints_log_phi_on_golden_mean(self, capsys):
        assert f"{math.log((1 + math.sqrt(5)) / 2):.15g}" == "0.481211825059603"
        code = cli.main(["pressure", "--shift", str(data_path("golden_mean.shift")),
                         "--potential", str(data_path("zero.pot")), "--n-max", "1"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "lambda\t0.481211825059603"

    def test_cylinder_probability(self):
        out = run_cli("cylinder", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("site_a.pot")),
                      "--word", "101")
        q = math.exp(SITE_FIELD) / (1 + math.exp(SITE_FIELD))
        assert out.returncode == 0
        assert float(out.stdout) == pytest.approx(q * q * (1 - q), rel=1e-14)

    def test_weakgibbs_bernoulli(self):
        out = run_cli("weakgibbs", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("site_a.pot")),
                      "--m", "1..8", "--delta", "0.1")
        assert out.returncode == 0
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "m\tD_m\tbound"
        for line in lines[1:9]:
            assert float(line.split("\t")[1]) <= 1e-10
        assert lines[-1].startswith("delta\t0.1\t")

    def test_tangent(self):
        # n = 12 has 2^25 words, more than the enumeration cap
        for n in ("3", "12"):
            out = run_cli("tangent", "--shift", str(data_path("full2.shift")),
                          "--potential", str(data_path("zero.pot")),
                          "--word", "1", "--n", n)
            assert out.returncode == 0
            values = dict(line.split("\t")
                          for line in out.stdout.strip().split("\n"))
            assert float(values["formula"]) == pytest.approx(0.5, abs=1e-12)
            assert float(values["finite_diff"]) == pytest.approx(0.5, abs=1e-6)

    def test_lemma_212(self):
        out = run_cli("lemma", "--which", "212",
                      "--shift", str(data_path("even.shift")),
                      "--potential", str(data_path("pair_beta.pot")),
                      "--n", "6", "--m", "1", "--j", "0", "--u", "010")
        assert out.returncode == 0
        rows = [l.split("\t") for l in out.stdout.strip().split("\n")
                if "\t" in l and not l.startswith("name")]
        assert rows and all(r[3] == "true" for r in rows)

    def test_splice(self):
        out = run_cli("splice", "--shift", str(data_path("even.shift")),
                      "--m", "2", "--left", "1", "--center", "0",
                      "--right", "1", "--window", "8")
        assert out.returncode == 0
        values = dict(line.split("\t") for line in out.stdout.strip().split("\n"))
        assert abs(int(values["l_minus"])) <= 2
        assert abs(int(values["l_plus"])) <= 2
        assert values["z[-8,8]"][6:11] == "00000"

    def test_factor_dump_round_trip(self, tmp_path):
        out = run_cli("factor", "--shift", str(data_path("golden_mean.shift")),
                      "--k", "1", "--rule", "010=1,100=1,101=1",
                      "--default", "0", "--dump")
        assert out.returncode == 0
        # the gap lines are comments, so the whole stdout loads
        lines = out.stdout.split("\n")
        assert lines[0] == "# gap_bound\t4"
        name, image_gap = lines[1].split("\t")
        assert name == "# image_gap" and int(image_gap) <= 4
        path = tmp_path / "image.shift"
        path.write_text(out.stdout, encoding="utf-8")
        reparsed = load_presentation(path)
        assert dump_presentation(reparsed) == "\n".join(lines[2:])
        gap = run_cli("gap", "--shift", str(path))
        assert (gap.returncode, gap.stdout) == (0, f"q\t{image_gap}\n")

    def test_factor_image_guard(self):
        # full2 at k = 7: 2^14 image vertices, (2^14)^2 > 2^27 matrix entries
        out = run_cli("factor", "--shift", str(data_path("full2.shift")),
                      "--k", "7", "--default", "0")
        assert out.returncode == 3
        assert out.stdout == ""
        assert "16384 vertices" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("rule", ["", ","])
    def test_bad_rule_item(self, rule):
        out = run_cli("factor", "--shift", str(data_path("even.shift")),
                      "--k", "0", "--rule", rule, "--default", "0")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: bad rule item ''; want pattern=symbol\n"

    def test_determinism_across_runs_and_threads(self):
        args = ("weakgibbs", "--shift", str(data_path("even.shift")),
                "--potential", str(data_path("pair_beta.pot")), "--m", "1..5")
        a = run_cli(*args)
        b = run_cli(*args)
        c = run_cli(*args)
        assert a.returncode == b.returncode == c.returncode == 0
        assert a.stdout == b.stdout == c.stdout

    def test_validation_exit_code(self):
        out = run_cli("gap", "--shift", str(data_path("reducible.shift")))
        assert out.returncode == 2
        assert "no finite gap" in out.stderr

    def test_lemma_1d_refuses_reducible_shift(self):
        out = run_cli("lemma", "--which", "1d",
                      "--shift", str(data_path("reducible.shift")),
                      "--potential", str(data_path("zero.pot")),
                      "--n", "8", "--m", "1", "--q-bar", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "no finite gap: presentation is not irreducible" in out.stderr

    @pytest.mark.parametrize("value", ["800", "-800"])
    @pytest.mark.parametrize("command", [("pressure", "--n-max", "4"),
                                         ("measure",),
                                         ("weakgibbs", "--m", "1..3")])
    def test_step_weight_out_of_float_range(self, tmp_path, command, value):
        pot = tmp_path / "steep.pot"
        pot.write_text(f"range 0\nshape 0\nval 1 {value}\n", encoding="utf-8")
        out = run_cli(*command, "--shift", str(data_path("full2.shift")),
                      "--potential", str(pot))
        assert out.returncode == 2
        assert out.stdout == ""
        assert "leaves the float64 range" in out.stderr
        assert "reducible" not in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("shift, command", [
        ("even.shift", ("lemma", "--which", "212", "--n", "4", "--m", "1",
                        "--u", "111")),
        ("even.shift", ("lemma", "--which", "1d", "--n", "5", "--m", "0",
                        "--u", "1", "--q-bar", "1")),
        ("full2.shift", ("lemma", "--which", "211", "--n", "3", "--m", "0"))])
    def test_word_energy_out_of_float_range(self, tmp_path, shift, command):
        # each value is finite, but sums of a few of them are not
        pot = tmp_path / "huge.pot"
        pot.write_text("range 0\nshape 0\nval 1 1e308\n", encoding="utf-8")
        out = run_cli(*command, "--shift", str(data_path(shift)),
                      "--potential", str(pot))
        assert out.returncode == 2
        assert out.stdout == ""
        assert [line for line in out.stderr.splitlines()
                if line.startswith("error:")] == [out.stderr.rstrip("\n")]
        assert "energy" in out.stderr and "leaves the float64 range" in out.stderr
        assert "Traceback" not in out.stderr
        assert "Warning" not in out.stderr

    def test_t_step_overflowing_log_z(self):
        out = run_cli("tangent", "--shift", str(data_path("even.shift")),
                      "--potential", str(data_path("pair_beta.pot")),
                      "--word", "1", "--n", "3", "--t-step", "1e308")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == ("error: log partition of length 7 leaves the "
                              "float64 range\n")

    @pytest.mark.parametrize("flags", [("--m", "1.."), ("--m", "abc"),
                                       ("--m", "x"), ("--m", "3..2"),
                                       ("--m", "1..3", "--delta", "0.5,,0.1"),
                                       ("--m", "1..3", "--delta", ""),
                                       ("--m", "1..3", "--delta", "nan"),
                                       ("--m", "1..3", "--delta", "x")])
    def test_malformed_weakgibbs_values(self, flags):
        out = run_cli("weakgibbs", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("site_a.pot")), *flags)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith(f"error: bad {flags[-2]} ")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("step", ["nan", "inf", "0"])
    def test_t_step_must_be_finite_and_positive(self, step):
        out = run_cli("tangent", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("zero.pot")),
                      "--word", "1", "--n", "3", "--t-step", step)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: --t-step must be finite and positive\n"

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.shift"
        bad.write_text("vertex a\nedge a b 0\n", encoding="utf-8")
        out = run_cli("gap", "--shift", str(bad))
        assert out.returncode == 2
        assert "bad.shift" in out.stderr

    @pytest.mark.parametrize("m", ["1", "12..12", "-1"])
    def test_dense_transfer_guard(self, tmp_path, m):
        # a support of (2^14 cover states)^2 exceeds the 2^27-entry bound;
        # the scan refuses it before its m and volume checks
        pot = tmp_path / "wide.pot"
        pot.write_text(long_range_text(14), encoding="utf-8")
        code, out, err = cli_in_process(
            ["weakgibbs", "--shift", data_path("full2.shift"), "--potential", pot,
             "--m", m])
        assert (code, out) == (3, "")
        assert err == ("error: volume too large for brute force: transfer "
                       "support of 16384 x 16384 entries for a range-14 potential\n")

    def test_dense_transfer_guard_boundary(self, tmp_path, monkeypatch):
        # a range-2 potential on full2 has 4 cover states: a 4 x 4 support.
        # The cover itself reads no such bound; the scan does
        pot = tmp_path / "wide.pot"
        pot.write_text("range 2\nshape 0,2\nval 11 0.25\n", encoding="utf-8")
        full2 = full_shift_2()
        measure = equilibrium_measure(full2, load_potential(pot, full2.alphabet))
        assert measure.transfer.n_states == 4
        assert not hasattr(pressure, "DENSE_ENTRIES_CAP")
        monkeypatch.setattr(verify, "DENSE_ENTRIES_CAP", 16)
        assert len(weak_gibbs_scan(measure, [1]).rows) == 1
        monkeypatch.setattr(verify, "DENSE_ENTRIES_CAP", 15)
        with pytest.raises(VolumeGuardError,
                           match="transfer support of 4 x 4 entries for a range-2"):
            weak_gibbs_scan(measure, [1])

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_empty_cylinder_warns_in_one_line(self, tmp_path, to_file):
        # 11 is not a golden-mean word: the probability 0 is printed and the
        # library's EmptyCylinderWarning becomes one stderr line, not the
        # warnings module's report with its source line
        target = tmp_path / "p.tsv"
        out = run_cli("cylinder", "--shift", str(data_path("golden_mean.shift")),
                      "--potential", str(data_path("zero.pot")), "--word", "11",
                      *(("--out", str(target)) if to_file else ()))
        assert out.returncode == 0
        assert out.stderr == ("warning: empty cylinder: word is not in the "
                              "shift language\n")
        assert out.stdout == ("" if to_file else "0\n")
        if to_file:
            assert target.read_text(encoding="utf-8") == "0\n"

    def test_measure_without_the_tabulation_guard(self, tmp_path):
        # 17 letters, range 3: 4,913 cover states.  The transfer weighs its
        # edges without the step tables, whose 17^4 contexts the
        # tabulation guard refuses
        letters = "0123456789abcdefg"
        shift = tmp_path / "full17.shift"
        shift.write_text("vertex v\n" + "".join(f"edge v v {a}\n" for a in letters),
                         encoding="utf-8")
        pot = tmp_path / "range3.pot"
        pot.write_text("range 3\nshape 0,3\nval 0g 0.5\nshape 0,1\nval 33 -0.25\n",
                       encoding="utf-8")
        out = run_cli("measure", "--shift", str(shift), "--potential", str(pot))
        assert out.returncode == 0
        assert out.stderr == ""
        assert out.stdout
        tabulated = run_cli("pressure", "--shift", str(shift), "--potential",
                            str(pot), "--n-max", "2")
        assert tabulated.returncode == 3
        assert "transfer context space 17^4" in tabulated.stderr

    @pytest.mark.parametrize("shift, args, code, text", [
        ("full", ("gap",), 0, "q\t1\n"),
        ("full", ("cylinder", "--word", "s299"), 0, "0.00333333333333332\n"),
        ("full", ("factor", "--k", "0", "--default", "s299"), 0,
         "gap_bound\t1\nimage_gap\t1\n"),
        ("full", ("weakgibbs", "--m", "0"), 3, "transfer context space 300^2"),
        ("full", ("pressure", "--n-max", "1"), 3, "transfer context space 300^2"),
        ("ring", ("gap",), 0, "q\t300\n"),
        ("ring", ("lemma", "--which", "211", "--n", "300", "--m", "0"), 3,
         "transfer context space 300^2"),
        ("ring", ("lemma", "--which", "212", "--n", "300", "--m", "0", "--u", "s299"),
         3, "transfer context space 300^2"),
        ("ring", ("lemma", "--which", "1d", "--n", "901", "--m", "0"), 3,
         "transfer context space 300^2"),
    ])
    def test_300_letters(self, tmp_path, shift, args, code, text):
        # letter indices past 255 take two bytes; the exit codes are those of
        # the one-byte tables, and every potential over 300 letters is
        # refused by the context space guard
        symbols = [f"s{i:03d}" for i in range(300)]
        path = tmp_path / f"{shift}300.shift"
        if shift == "full":
            lines = ["vertex v"] + [f"edge v v {a}" for a in symbols]
        else:  # a 300-cycle with a letter of its own on each edge
            lines = [f"vertex {a}" for a in symbols] + [
                f"edge {a} {b} {b}" for a, b in zip(symbols, symbols[1:] + symbols[:1])]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        potential = () if args[0] in ("gap", "factor") else (
            "--potential", data_path("zero.pot"))
        got, out, err = cli_in_process([args[0], "--shift", path, *potential, *args[1:]])
        assert got == code
        if code == 0:
            assert (out, err) == (text, "")
        else:
            assert out == "" and text in err

    def test_1d_cardinality_bound_past_the_float_range(self, tmp_path):
        # a 35-cycle with a letter of its own on each edge has gap 35, so
        # the class cardinality bound 71^2 * 35^210 has no float: the row
        # prints inf and still compares the exact integers
        symbols = [f"s{i:03d}" for i in range(35)]
        path = tmp_path / "ring35.shift"
        path.write_text("\n".join([f"vertex {a}" for a in symbols] + [
            f"edge {a} {b} {b}" for a, b in zip(symbols, symbols[1:] + symbols[:1])])
            + "\n", encoding="utf-8")
        got, out, err = cli_in_process([
            "lemma", "--which", "1d", "--shift", path, "--potential",
            data_path("zero.pot"), "--n", "106", "--m", "0"])
        assert (got, err) == (0, "")
        rows = [line for line in out.splitlines() if line.startswith("cardinality_upper")]
        assert rows == ["cardinality_upper\t1\tinf\ttrue"] * 35

    @pytest.mark.parametrize("shift, args", [
        ("full2.shift", ("weakgibbs", "--potential", "site_a.pot", "--m", "12..12")),
        # counts past Python's int-to-str digit limit (4,300 digits)
        ("even.shift", ("weakgibbs", "--potential", "pair_beta.pot", "--m", "1,20000")),
        ("even.shift", ("lemma", "--which", "212", "--potential", "pair_beta.pot",
                        "--n", "20000", "--m", "1", "--u", "000")),
        ("even.shift", ("lemma", "--which", "1d", "--potential", "pair_beta.pot",
                        "--n", "20000", "--m", "1")),
        ("even.shift", ("lemma", "--which", "211", "--potential", "pair_beta.pot",
                        "--n", "20000", "--m", "1")),
        ("full2.shift", ("factor", "--k", "10000", "--default", "0"))])
    def test_volume_guard_exit_code(self, shift, args):
        args = [str(data_path(a)) if a.endswith(".pot") else a for a in args]
        out = run_cli(*args, "--shift", str(data_path(shift)))
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr.startswith("error: volume too large")
        assert "Traceback" not in out.stderr

    def test_envelope_violation_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(pressure, "pressure_envelope",
                            lambda *args, **kwargs: -1.0)
        code = cli.main(["pressure", "--shift", str(data_path("even.shift")),
                         "--potential", str(data_path("pair_beta.pot")),
                         "--n-max", "3"])
        assert code == 2
        assert "pressure envelope violated at n=1" in capsys.readouterr().err

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gap", "--shift", str(data_path("even.shift")),
                      "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_tangent_runs_without_cap(self):
        out = run_cli("tangent", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("zero.pot")),
                      "--word", "1", "--n", "3")
        assert out.returncode == 0

    def test_tangent_long_center_refused(self):
        # the indicator of a 17-letter word needs 2^17 step contexts
        out = run_cli("tangent", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("zero.pot")),
                      "--word", "1" * 17, "--n", "9")
        assert out.returncode == 3
        assert out.stdout == ""
        assert "transfer context space 2^17" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command", [
        ("pressure", "--potential", str(data_path("zero.pot")), "--n-max", "3"),
        ("tangent", "--potential", str(data_path("zero.pot")),
         "--word", "1", "--n", "3"),
        ("gap",)])
    def test_cap_flag_only_on_enumerating_commands(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command[0], "--shift", str(data_path("full2.shift")),
                      *command[1:], "--cap", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 4" in capsys.readouterr().err

    @pytest.mark.parametrize("which, flags, named", [
        ("212", ("--q-bar", "1"), "--q-bar"),
        ("211", ("--q-bar", "1"), "--q-bar"),
        ("211", ("--u", "010"), "--u"),
        ("211", ("--q-bar", "1", "--u", "010"), "--q-bar, --u"),
    ])
    def test_lemma_refuses_flags_its_suite_ignores(self, which, flags, named,
                                                   capsys):
        code = cli.main(["lemma", "--which", which,
                         "--shift", str(data_path("even.shift")),
                         "--potential", str(data_path("pair_beta.pot")),
                         "--n", "6", "--m", "1", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --which {which} does not take {named}\n"

    @pytest.mark.parametrize("flag", ["--seed", "--count"])
    def test_lemma_sampler_flags_removed(self, flag, capsys):
        # the 211 suite checks every pair, so nothing is drawn
        with pytest.raises(SystemExit) as exc:
            cli.main(["lemma", "--which", "211",
                      "--shift", str(data_path("even.shift")),
                      "--potential", str(data_path("pair_beta.pot")),
                      "--n", "6", "--m", "1", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_lemma_211_memory(self, capsys):
        # 121,392 words of length 23: the pass reads the word table and
        # 2q+1 window energies per word, and only the worst pair becomes
        # Word objects
        args = ["lemma", "--which", "211",
                "--shift", str(data_path("even.shift")),
                "--potential", str(data_path("pair_beta.pot")),
                "--n", "11", "--m", "1"]
        tracemalloc.start()
        try:
            code = cli.main(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out.count("# worst ") == 1
        assert peak < 16 * 2 ** 20

    def test_lemma_1d_premise_line(self, capsys):
        # the even shift's bounded-length gap is 2
        base = ["lemma", "--which", "1d", "--shift", str(data_path("even.shift")),
                "--potential", str(data_path("pair_beta.pot")), "--m", "1"]
        assert cli.main(base + ["--n", "7", "--q-bar", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        centers = [i for i, line in enumerate(lines) if line.startswith("# u=")]
        assert len(centers) == even_shift().word_count(3)
        assert [lines[i + 1] for i in centers] == (
            ["# premise q_bar=1 < gap=2"] * len(centers))
        assert sum(line.startswith("#") for line in lines) == 2 * len(centers)
        for q_bar in ([], ["--q-bar", "2"]):
            assert cli.main(base + ["--n", "8", *q_bar]) == 0
            assert "premise" not in capsys.readouterr().out

    def test_lemma_huge_volume_refused_at_once(self, capsys):
        # about 10^41798 words: the guard stops counting past the cap
        code = cli.main(["lemma", "--which", "212",
                         "--shift", str(data_path("even.shift")),
                         "--potential", str(data_path("pair_beta.pot")),
                         "--n", "100000", "--m", "1", "--u", "000"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: volume too large for brute force: more than 2000000 "
            "words of length 200001\n")

    @pytest.mark.parametrize("cap", [[], ["--cap", "1"]])
    def test_lemma_211_collar_outside_the_volume(self, cap, capsys):
        # the window is checked before the words are enumerated
        code = cli.main(["lemma", "--which", "211",
                         "--shift", str(data_path("full2.shift")),
                         "--potential", str(data_path("pair_beta.pot")),
                         "--n", "3", "--m", "0", "--j", "9", *cap])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: windows inconsistent: collar leaves the volume\n")

    @pytest.mark.parametrize("shift", BUNDLED_SHIFTS)
    @pytest.mark.parametrize("pot", BUNDLED_POTENTIALS)
    @pytest.mark.parametrize("which, volume", [
        ("212", ("--n", "4", "--m", "1")),
        ("1d", ("--n", "5", "--m", "1", "--q-bar", "1"))])
    def test_lemma_all_centers_concatenates_single_centers(
            self, shift, pot, which, volume, capsys):
        base = ["lemma", "--which", which, "--shift", str(data_path(shift)),
                "--potential", str(data_path(pot)), *volume]
        code = cli.main(base)
        whole = capsys.readouterr()
        singles = []
        for u in enumerate_words(load_shift(data_path(shift)), 1):
            single_code = cli.main(base + ["--u", u.text()])
            single = capsys.readouterr()
            if code == 0:
                assert single_code == 0 and single.err == ""
                header, block = single.out.split("\n", 1)
                assert header == "name\tlhs\trhs\tholds"
                singles.append(block)
            else:
                assert (single_code, single.out, single.err) == (code, "", whole.err)
        if code == 0:
            assert whole.out == "name\tlhs\trhs\tholds\n" + "".join(singles)
            assert len(singles) > 1

    @pytest.mark.parametrize("which, volume", [
        ("212", ("--n", "6")), ("1d", ("--n", "7", "--q-bar", "1"))])
    @pytest.mark.parametrize("center, message", [
        ("00000", "windows inconsistent: center word must have length 2m+1"),
        ("101", "disallowed word"),
        ("10", "center word must live on a symmetric window [-m, m]"),
        ("", "center word must live on a symmetric window [-m, m]")])
    def test_lemma_refuses_bad_center_before_bad_j(self, which, volume, center,
                                                   message, capsys):
        code = cli.main(["lemma", "--which", which,
                         "--shift", str(data_path("even.shift")),
                         "--potential", str(data_path("pair_beta.pot")),
                         *volume, "--m", "1", "--j", "9", "--u", center])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command, case", [
        *((command, case) for case in ("missing", "not-utf8")
          for command in CLI_ARGS),
        ("gap", "unwritable-out"),
        ("gap", "empty-out"),
    ])
    def test_bad_file_exits_2_without_traceback(self, tmp_path, command, case):
        shift = {"missing": tmp_path / "missing.shift",
                 "not-utf8": tmp_path / "binary.shift",
                 "unwritable-out": data_path("even.shift"),
                 "empty-out": data_path("even.shift")}[case]
        (tmp_path / "binary.shift").write_bytes(b"vertex a\n\x7fELF\xff\xfe\n")
        out_flags = {"unwritable-out": ("--out", str(tmp_path / "no-such-dir"
                                                     / "report.tsv")),
                     "empty-out": ("--out", "")}.get(case, ())
        out = run_cli(command, "--shift", str(shift), *CLI_ARGS[command],
                      *out_flags)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.tsv"
        out = run_cli("gap", "--shift", str(data_path("even.shift")),
                      "--out", str(target))
        assert out.returncode == 0 and out.stdout == ""
        assert target.read_text(encoding="utf-8") == "q\t2\n"


class TestLongRange:
    """Covers past the weak-Gibbs scan's S x S bound: full2 with the
    range-14 and range-15 potentials of ``long_range_text`` (S = 16384 and
    32768).  ``measure``, ``pressure``, ``cylinder`` and ``tangent`` build
    nothing S x S and run on them; each CLI run here peaks under 64 MiB
    under tracemalloc."""

    PEAK_BYTES = 64 * 2 ** 20

    @pytest.fixture(scope="class", params=[14, 15])
    def long_range(self, request, tmp_path_factory):
        r = request.param
        path = tmp_path_factory.mktemp(f"range{r}") / f"range{r}.pot"
        path.write_text(long_range_text(r), encoding="utf-8")
        return r, path

    @staticmethod
    def traced(*args):
        """``cli_in_process`` on full2 and ``args`` (the subcommand, then its
        options), and the run's tracemalloc peak in bytes."""
        tracemalloc.start()
        try:
            result = cli_in_process([args[0], "--shift", data_path("full2.shift"),
                                     *args[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_pressure_ladder(self, long_range):
        _, pot = long_range
        (code, out, err), peak = self.traced("pressure", "--potential", pot,
                                             "--n-max", "64")
        assert (code, err) == (0, "")
        assert peak < self.PEAK_BYTES
        rows = [line.split("\t") for line in out.splitlines()]
        assert rows[0] == ["n", "P_n", "envelope"] and rows[-1][0] == "lambda"
        ladder = rows[1:-1]
        assert [int(row[0]) for row in ladder] == list(range(1, 65))
        log_lambda = float(rows[-1][1])
        for _n, p_n, env in ladder:
            assert abs(float(p_n) - log_lambda) <= float(env)
        full2 = full_shift_2()
        potential = load_potential(pot, full2.alphabet)
        brute = finite_pressure(full2, potential, 3, method="brute")
        for value in (finite_pressure(full2, potential, 3), float(ladder[2][1])):
            assert abs(value - brute) <= 1e-12 * abs(brute)

    def test_measure_lists_every_cover_state(self, long_range):
        r, pot = long_range
        (code, out, err), peak = self.traced("measure", "--potential", pot)
        assert (code, err) == (0, "")
        assert peak < self.PEAK_BYTES
        states = [line for line in out.splitlines() if line.startswith("state\t")]
        assert len(states) == 2 ** r

    def test_cylinders_sum_to_one(self, long_range):
        r, pot = long_range
        (code, out, err), peak = self.traced("cylinder", "--potential", pot,
                                             "--word", "1")
        assert (code, err) == (0, "")
        assert peak < self.PEAK_BYTES
        full2 = full_shift_2()
        measure = equilibrium_measure(full2, load_potential(pot, full2.alphabet))
        assert measure.transfer.n_states == 2 ** r
        assert float(out) == float(f"{cylinder_prob(measure, Word(BINARY, 0, (1,))):.15g}")
        for length in (1, 2, 3, 8):
            total = math.fsum(cylinder_prob(measure, Word(BINARY, 0, letters))
                              for letters in itertools.product((0, 1), repeat=length))
            assert abs(total - 1.0) <= 1e-12

    def test_tangent(self, long_range):
        _, pot = long_range
        n, t_step = 3, 1e-3
        (code, out, err), peak = self.traced("tangent", "--potential", pot,
                                             "--word", "1", "--n", str(n))
        assert (code, err) == (0, "")
        assert peak < self.PEAK_BYTES
        rows = dict(line.split("\t") for line in out.splitlines())
        c_max = 2 * n + 2 - 1
        tol = t_step ** 2 / 6 * c_max ** 3 / (2 * n + 1) + 1e-12
        assert abs(float(rows["finite_diff"]) - float(rows["formula"])) <= tol
        assert 0.0 < float(rows["cylinder"]) < 1.0

    @pytest.mark.parametrize("command", [("pressure", "--n-max", "3"),
                                         ("tangent", "--word", "1", "--n", "3")])
    @pytest.mark.parametrize("r, refusal", [
        # full2's range-16 cover (S = 65536) passes the key-space guard, and
        # its step tables' 2^17 contexts are refused
        (16, "transfer context space 2^17 for a range-16 potential"),
        # the key-space guard keeps its place ahead of the context space
        (17, "transfer cover for a range-17 potential")])
    def test_table_refusals_come_before_the_cover(self, command, r, refusal,
                                                  tmp_path, monkeypatch):
        def no_cover(*args):
            raise AssertionError("cover built before a table refusal")
        monkeypatch.setattr(pressure, "build_transfer", no_cover)
        monkeypatch.setattr(measures, "build_transfer", no_cover)
        pot = tmp_path / f"range{r}.pot"
        pot.write_text(long_range_text(r), encoding="utf-8")
        code, out, err = cli_in_process([command[0], "--shift",
                                         data_path("full2.shift"), "--potential",
                                         pot, *command[1:]])
        assert (code, out) == (3, "")
        assert err == f"error: volume too large for brute force: {refusal}\n"

    def test_weakgibbs_still_refused(self, long_range):
        r, pot = long_range
        code, out, err = cli_in_process(
            ["weakgibbs", "--shift", data_path("full2.shift"), "--potential", pot,
             "--m", "1"])
        assert (code, out) == (3, "")
        assert err == (f"error: volume too large for brute force: transfer support "
                       f"of {2 ** r} x {2 ** r} entries for a range-{r} potential\n")


class TestParserReuse:
    """``cli.main`` builds its parser once per process and reuses it; no
    call leaves state that the next call reads."""

    @staticmethod
    def call(argv):
        """``cli.main(argv)`` in this process: its exit status, stdout and
        stderr, and whether it raised ``SystemExit`` (argparse's help and
        usage errors do) rather than returning the status."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, raised = cli.main(argv), False
            except SystemExit as exc:
                code, raised = exc.code, True
        return code, out.getvalue(), err.getvalue(), raised

    def test_no_state_crosses_calls(self, tmp_path, monkeypatch):
        # argparse wraps help text at the terminal width: fix it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        even, golden = str(data_path("even.shift")), str(data_path("golden_mean.shift"))
        pot = str(data_path("pair_beta.pot"))
        lemma = ["lemma", "--which", "212", "--shift", golden, "--potential", pot,
                 "--n", "4", "--m", "1"]
        steps = [
            # different subcommands back to back
            (["gap", "--shift", even], False),
            (["pressure", "--shift", even, "--potential", pot, "--n-max", "3"], False),
            (["weakgibbs", "--shift", even, "--potential", pot, "--m", "1..3"], False),
            (["cylinder", "--shift", golden, "--potential", pot, "--word", "11"], False),
            # --out, then the same command writing to stdout
            (["gap", "--shift", even, "--out", "{out}"], False),
            (["gap", "--shift", even], False),
            # one center, then every center
            (lemma + ["--u", "010"], False),
            (lemma, False),
            # a refused center, then a valid call
            (lemma + ["--u", "11"], False),
            (lemma + ["--u", "000"], False),
            # an argparse error, then a valid call
            (["lemma", "--which", "213", "--shift", golden, "--potential", pot,
              "--n", "4", "--m", "1"], True),
            (["gap", "--shift", golden], False),
            (["--help"], True),
            (["weakgibbs", "--help"], True),
            (["gap", "--shift", golden, "--variant", "exact-length"], False),
        ]
        outs = []
        for i, (argv, raises) in enumerate(steps):
            alone, seq = (tmp_path / f"alone{i}.tsv", tmp_path / f"seq{i}.tsv")
            want = run_cli(*(a.format(out=alone) for a in argv),
                           env_extra={"COLUMNS": "80"})
            *got, raised = self.call([a.format(out=seq) for a in argv])
            assert tuple(got) == (want.returncode, want.stdout, want.stderr), argv
            assert raised == raises, argv
            outs.append(got[1])
            if "--out" in argv:
                assert want.stdout == "" and want.returncode == 0
                assert seq.read_text(encoding="utf-8") == alone.read_text(encoding="utf-8")
        assert outs[6].count("# u=") == 1
        assert outs[7].count("# u=") == golden_mean().word_count(3)

    @pytest.mark.parametrize("argv", [["--help"], ["weakgibbs", "--help"]])
    def test_help_equals_a_fresh_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        self.call(["gap", "--shift", str(data_path("even.shift"))])
        fresh = io.StringIO()
        with contextlib.redirect_stdout(fresh), pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        assert self.call(argv) == (0, fresh.getvalue(), "", True)
        assert fresh.getvalue().startswith("usage: shiftgibbs")

    def test_parser_built_once(self):
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert self.call(["gap", "--shift", str(data_path("even.shift"))])[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("build_first", [True, False])
    def test_commands_looked_up_at_call_time(self, build_first, monkeypatch):
        # a replacement bound to ``cli._cmd_gap`` (as a tracer binds its
        # wrappers) runs whether the parser was built before or during it,
        # and the original runs again once it is taken away
        argv = ["gap", "--shift", str(data_path("even.shift"))]
        cli.build_parser.cache_clear()
        if build_first:
            want = self.call(argv)
        seen = []
        monkeypatch.setattr(cli, "_cmd_gap", lambda args: seen.append(args) or "patched\n")
        assert self.call(argv) == (0, "patched\n", "", False)
        assert [a.command for a in seen] == ["gap"]
        monkeypatch.undo()
        got = self.call(argv)
        assert got[1] != "patched\n" and len(seen) == 1
        if build_first:
            assert got == want
