"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    rec_a = workloads.write_inputs(workload, 7, tmp_path / "a")
    rec_b = workloads.write_inputs(workload, 7, tmp_path / "b")
    workloads.write_inputs(workload, 8, tmp_path / "c")
    assert rec_a == rec_b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert _files(tmp_path / "a").keys() == _files(tmp_path / "c").keys()


@pytest.mark.parametrize("seed", range(4))
def test_generated_sft_has_fixed_structure(seed, tmp_path):
    from shiftgibbs.fileio import load_potential, load_shift
    from shiftgibbs.pressure import build_transfer

    rec = workloads.write_inputs("lemma-ladder", seed, tmp_path)
    presentation = load_shift(tmp_path / "gen.sft")
    potential = load_potential(tmp_path / "gen.pot", presentation.alphabet)
    assert presentation.irreducible and presentation.aperiodic
    assert presentation.n_vertices == rec["sft_vertices"]
    assert presentation._det[0].shape[0] == rec["sft_automaton_states"]
    assert build_transfer(presentation, potential).n_states == rec["sft_cover_states"]
    for length in (3, 7):
        assert presentation.word_count(length) == workloads.sft_word_count(length)
    assert presentation.allows(presentation.alphabet.parse(rec["tangent_word"]))


def test_self_time_of_a_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]; a sibling tree
    tree = [Span(0, "root", 0.0, 10.0, None, "r"),
            Span(1, "a", 1.0, 4.0, 0, "r"),
            Span(2, "a1", 2.0, 3.0, 1, "r"),
            Span(3, "b", 5.0, 6.0, 0, "r"),
            Span(4, "other", 20.0, 21.5, None, "r")]
    own = self_times(tree)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.5}
    # self times partition each root's duration
    assert sum(own[i] for i in range(4)) == 10.0


def test_layer_metrics_partition_the_traced_job():
    tree = [Span(0, "bench.setup", 0.0, 1.0, None, "setup"),
            Span(1, "fileio.load_shift", 0.1, 0.6, 0, "setup"),
            Span(2, "shifts.sft_presentation", 0.2, 0.5, 1, "setup"),
            Span(3, "shifts.automaton", 0.6, 0.9, 0, "setup"),
            Span(4, "bench.job", 2.0, 6.0, None, "rep0.job0"),
            Span(5, "cli.main", 2.1, 5.9, 4, "rep0.job0"),
            Span(6, "cli.cmd_pressure", 2.2, 5.8, 5, "rep0.job0"),
            Span(7, "pressure.pressure_limit", 2.3, 5.7, 6, "rep0.job0"),
            Span(8, "pressure.dp_log_partition", 2.5, 5.5, 7, "rep0.job0")]
    m = layer_metrics(tree, {"shifts.automaton_states": 31},
                      {"pressure.ladder_rungs": 64})
    assert m["fileio.load_s"] == pytest.approx(0.5)
    assert m["shifts.automaton_s"] == pytest.approx(0.3)
    assert m["shifts.automaton_states"] == 31
    assert m["pressure.partition_dp_s"] == pytest.approx(3.0)
    assert m["pressure.self_s"] == pytest.approx(3.4)
    assert m["cli.cmd_s.pressure"] == pytest.approx(3.6)
    assert m["cli.self_s"] == pytest.approx(0.4)
    assert m["trace.job_s"] == pytest.approx(4.0)
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS.values())
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.job_s"])


def test_tracer_wraps_by_name_imports_and_restores_them():
    import shiftgibbs.cli  # noqa: F401
    from shiftgibbs import pressure, shifts, verify

    original = pressure.brute_partition
    det = shifts.SoficPresentation.__dict__["_det"]
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.brute_partition is pressure.brute_partition is not original
        from shiftgibbs.bundled import even_shift, equal_pair
        verify.brute_partition(even_shift(), equal_pair(), 2)
    finally:
        tracer.uninstall()
    assert verify.brute_partition is pressure.brute_partition is original
    assert shifts.SoficPresentation.__dict__["_det"] is det
    names = [s.name for s in tracer.spans]
    assert "pressure.brute_partition" in names
    assert "shifts.word_matrix" in names and "kernels.batch_energy" in names
    assert tracer.counters["shifts.words"] > 0


def _run(tmp_path: Path, *args: str) -> tuple[list[dict], int]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines, proc.returncode


@pytest.fixture
def checkout(tmp_path):
    """A directory that looks like a checkout: ``src`` linked in."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reduced_sizes(workload, checkout):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, metric_list in ((0, "end_to_end"), (1, "per_layer")):
        lines, code = _run(checkout, "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--small")
        assert code == 0
        result = lines[-1]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert result["failed"] == 0   # error_rate == 0
        want = {m["name"]: m["unit"] for m in bench[metric_list]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert lines[0]["env"]["backend"] in ("numpy", "numba")


def test_scaled_time_uses_the_loops_on_either_side():
    import calibrate
    before, after = [0.05, 0.5], [0.04, 0.05, 0.05]
    assert calibrate.scale(2.0, before, after) == pytest.approx(
        2.0 * calibrate.REFERENCE_S / 0.05)
    assert all(t > 0.0 for t in calibrate.gap(2))


def test_refuses_to_run_without_the_program(tmp_path):
    lines, code = _run(tmp_path, "--workload", "scan", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert code != 0 and lines == []


def test_oracle_rejects_a_wrong_scan_row(tmp_path):
    workloads.write_inputs("scan", 1, tmp_path)
    argv = workloads.jobs("scan", tmp_path, workloads.SMALL)[1]
    from shiftgibbs.cli import main
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    out = buf.getvalue()
    assert workloads.check(argv, out, workloads.SMALL) is None
    rows = out.splitlines()
    m, d_m, bound = rows[1].split("\t")
    rows[1] = "\t".join([m, repr(float(d_m) + 1e-6), bound])
    assert "per-word" in workloads.check(argv, "\n".join(rows) + "\n",
                                         workloads.SMALL)
