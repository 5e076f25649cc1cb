import math
import os
import subprocess
import sys

import pytest

from shiftgibbs import cli, enumerate_words, pressure
from shiftgibbs.bundled import (BINARY, SITE_FIELD, data_path, even_shift,
                                full_shift_2, golden_mean, periodic_cycle,
                                reducible_pair)
from shiftgibbs.fileio import (ParseError, dump_presentation, load_potential,
                               load_presentation, load_sft, load_shift)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "shiftgibbs", *args],
                          capture_output=True, text=True, env=env)


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
        out = run_cli("tangent", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("zero.pot")),
                      "--word", "1", "--n", "3")
        assert out.returncode == 0
        values = dict(line.split("\t") for line in out.stdout.strip().split("\n"))
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
        lines = out.stdout.strip().split("\n")
        assert lines[0] == "gap_bound\t4"
        assert lines[1].startswith("image_gap\t")
        assert int(lines[1].split("\t")[1]) <= 4
        dumped = "\n".join(lines[2:]) + "\n"
        path = tmp_path / "image.shift"
        path.write_text(dumped, encoding="utf-8")
        reparsed = load_presentation(path)
        assert dump_presentation(reparsed) == dumped

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

    @pytest.mark.parametrize("flags", [("--m", "1.."), ("--m", "abc"),
                                       ("--m", "x"),
                                       ("--m", "1..3", "--delta", "0.5,,0.1"),
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

    @pytest.mark.parametrize("command", [("measure",),
                                         ("tangent", "--word", "1", "--n", "3")])
    def test_dense_transfer_guard(self, tmp_path, command):
        # 2 letters x (2^14 cover states)^2 exceeds the 2^27-entry bound
        pot = tmp_path / "wide.pot"
        pot.write_text("range 14\nshape 0,14\nval 11 0.25\n", encoding="utf-8")
        out = run_cli(*command, "--shift", str(data_path("full2.shift")),
                      "--potential", str(pot))
        assert out.returncode == 3
        assert out.stdout == ""
        assert "dense transfer arrays of 2 x 16384 x 16384 entries" in out.stderr
        assert "Traceback" not in out.stderr

    def test_dense_transfer_guard_boundary(self, tmp_path, monkeypatch):
        # range 13 gives exactly 2^27 entries: accepted up to the allocation
        pot = tmp_path / "wide.pot"
        pot.write_text("range 13\nshape 0,13\nval 11 0.25\n", encoding="utf-8")
        full2 = full_shift_2()
        potential = load_potential(pot, full2.alphabet)

        class Allocating(Exception):
            pass

        def refuse(shape, *args, **kwargs):
            raise Allocating(shape)

        monkeypatch.setattr(pressure.np, "zeros", refuse)
        with pytest.raises(Allocating, match=r"\(2, 8192, 8192\)"):
            pressure.build_transfer(full2, potential)

    def test_volume_guard_exit_code(self):
        out = run_cli("weakgibbs", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("site_a.pot")),
                      "--m", "12..12")
        assert out.returncode == 3
        assert "volume too large" in out.stderr

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

    def test_cap_flag_bounds_tangent(self):
        out = run_cli("tangent", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("zero.pot")),
                      "--word", "1", "--n", "3", "--cap", "4")
        assert out.returncode == 3
        assert out.stdout == ""
        assert "128 words of length 7 exceed the cap 4" in out.stderr

    def test_tangent_runs_without_cap(self):
        out = run_cli("tangent", "--shift", str(data_path("full2.shift")),
                      "--potential", str(data_path("zero.pot")),
                      "--word", "1", "--n", "3")
        assert out.returncode == 0

    @pytest.mark.parametrize("command", [
        ("pressure", "--potential", str(data_path("zero.pot")), "--n-max", "3"),
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
        ("212", ("--seed", "1"), "--seed"),
        ("1d", ("--count", "3"), "--count"),
        ("1d", ("--seed", "0", "--count", "10"), "--seed, --count"),
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

    def test_lemma_211_seed_and_count(self, capsys):
        args = ["lemma", "--which", "211",
                "--shift", str(data_path("even.shift")),
                "--potential", str(data_path("pair_beta.pot")),
                "--n", "6", "--m", "1"]
        assert cli.main(args) == 0
        default = capsys.readouterr().out
        assert default.count("# pair ") == 10
        assert cli.main(args + ["--seed", "0", "--count", "10"]) == 0
        assert capsys.readouterr().out == default
        assert cli.main(args + ["--seed", "4", "--count", "3"]) == 0
        assert capsys.readouterr().out.count("# pair ") == 3

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.tsv"
        out = run_cli("gap", "--shift", str(data_path("even.shift")),
                      "--out", str(target))
        assert out.returncode == 0 and out.stdout == ""
        assert target.read_text(encoding="utf-8") == "q\t2\n"
