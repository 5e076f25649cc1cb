"""Seeded inputs, CLI job lists and oracle checks of the two workloads.

``scan`` streams words through the forward and energy kernels.
``lemma-ladder`` runs the pressure ladder and the tangent check on the
generated SFT and the two lemma suites on the even shift: the partition DP
and the per-word grouping in ``verify``, and no forward kernel.  The lemma
suites were first a workload of their own; alone, their run-to-run spread
on a 2-CPU shared host exceeded the benchmark's bound, so they run in the
longer ``lemma-ladder`` sequence instead.

The seed draws every potential value and the forbidden words of the
generated SFT.  Structural sizes do not depend on the seed: the generated
SFT forbids exactly one 3-word after each of the 25 two-letter blocks of a
5-letter alphabet, so every run sees 25 vertices of out-degree 4, a word
automaton with 31 states, 100 cover states for the range-3 potential, and
exactly 25 * 4**(L - 2) words of length L.  Draws are retried, from the same
seeded stream, until the vertex graph is essential, irreducible and
aperiodic.

This module imports nothing from ``shiftgibbs`` at module level, so the
benchmark's parent process can write inputs without loading the program;
the oracle checks import it lazily, inside the worker.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("scan", "lemma-ladder")

SFT_LETTERS = 5
SFT_OUT_DEGREE = SFT_LETTERS - 1


@dataclass(frozen=True)
class Sizes:
    """Structural sizes of one workload variant (full or reduced)."""

    full2_m: int        # scan: full2 rows m = 1..full2_m
    even_m: int         # scan: even-shift rows m = 1..even_m
    sft_m: int          # scan: generated-SFT rows m = 1..sft_m
    lemma212_n: int     # lemma-ladder: 212 suite volume
    lemma1d_n: int      # lemma-ladder: 1d suite volume
    ladder_n_max: int   # lemma-ladder: pressure --n-max
    tangent_n: int      # lemma-ladder: tangent --n
    check_n: int        # lemma-ladder oracle: brute vs product volume


FULL = Sizes(full2_m=10, even_m=11, sft_m=3, lemma212_n=9, lemma1d_n=8,
             ladder_n_max=64, tangent_n=4, check_n=3)
# reduced sizes for the smoke tests; same job shapes, a fraction of the work
SMALL = Sizes(full2_m=4, even_m=4, sft_m=2, lemma212_n=5, lemma1d_n=5,
              ladder_n_max=8, tangent_n=2, check_n=2)

FULL2_SHIFT = "vertex v\nedge v v 0\nedge v v 1\n"
EVEN_SHIFT = "vertex E\nvertex O\nedge E E 1\nedge E O 0\nedge O E 0\n"


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _potential_text(rng: random.Random, n_letters: int,
                    shapes: list[tuple[int, ...]]) -> str:
    """A potential file with a seeded value on every pattern of each shape."""
    lines = [f"range {max(s[-1] for s in shapes)}"]
    for shape in shapes:
        lines.append("shape " + ",".join(map(str, shape)))
        for pattern in itertools.product(range(n_letters), repeat=len(shape)):
            value = rng.uniform(-0.5, 0.5)
            lines.append(f"val {''.join(map(str, pattern))} {value!r}")
    return "\n".join(lines) + "\n"


def _strongly_connected(succ: dict) -> bool:
    pred: dict = {v: [] for v in succ}
    for v, outs in succ.items():
        for w in outs:
            pred[w].append(v)
    root = next(iter(succ))
    for adj in (succ, pred):
        seen = {root}
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(succ):
            return False
    return True


def _period(succ: dict) -> int:
    """gcd of cycle lengths of a strongly connected graph (BFS levels)."""
    root = next(iter(succ))
    level = {root: 0}
    queue = [root]
    g = 0
    while queue:
        nxt = []
        for v in queue:
            for w in succ[v]:
                if w in level:
                    g = math.gcd(g, level[v] + 1 - level[w])
                else:
                    level[w] = level[v] + 1
                    nxt.append(w)
        queue = nxt
    return abs(g)


def draw_sft(rng: random.Random) -> tuple[list[str], int]:
    """Forbidden 3-words (one per 2-block) of an irreducible, aperiodic SFT
    whose 2-block graph is essential, and the number of rejected draws."""
    K = SFT_LETTERS
    blocks = list(itertools.product(range(K), repeat=2))
    for rejected in itertools.count():
        banned = {b: rng.randrange(K) for b in blocks}
        succ = {b: [(b[1], c) for c in range(K) if c != banned[b]] for b in blocks}
        has_in = {t for outs in succ.values() for t in outs}
        if (len(has_in) == len(blocks) and _strongly_connected(succ)
                and _period(succ) == 1):
            return [f"{a}{b}{banned[(a, b)]}" for (a, b) in blocks], rejected


def sft_word_count(length: int) -> int:
    """Allowed words of the given length (length >= 2) in the generated SFT."""
    return SFT_LETTERS ** 2 * SFT_OUT_DEGREE ** (length - 2)


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out``; returns a record of the
    files and the structural counts the seed produced."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"shiftgibbs-perfbench/{workload}/{seed}")
    files: dict[str, str] = {}
    record: dict = {"workload": workload, "seed": seed}
    if workload == "scan":
        files["full2.shift"] = FULL2_SHIFT
        files["full2.pot"] = _potential_text(rng, 2, [(0,), (0, 1)])
        files["even.shift"] = EVEN_SHIFT
        files["even.pot"] = _potential_text(rng, 2, [(0, 1)])
    if workload == "lemma-ladder":
        files["even.shift"] = EVEN_SHIFT
        files["even.pot"] = _potential_text(rng, 2, [(0, 1)])
    if workload in ("scan", "lemma-ladder"):
        forbidden, rejected = draw_sft(rng)
        letters = " ".join(str(a) for a in range(SFT_LETTERS))
        files["gen.sft"] = (f"alphabet {letters}\n"
                            + "".join(f"forbid {w}\n" for w in forbidden))
        files["gen.pot"] = _potential_text(rng, SFT_LETTERS, [(0,), (0, 1), (0, 3)])
        # the allowed 3-word the tangent check certifies
        word = rng.choice([w for w in map("".join, itertools.product(
            "01234", repeat=3)) if w not in forbidden])
        files["center.txt"] = word + "\n"
        record.update(sft_rejected_draws=rejected, sft_vertices=SFT_LETTERS ** 2,
                      sft_automaton_states=1 + SFT_LETTERS + SFT_LETTERS ** 2,
                      sft_cover_states=SFT_LETTERS ** 2 * SFT_OUT_DEGREE,
                      tangent_word=word)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    record["files"] = sorted(files)
    return record


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def systems(workload: str) -> list[tuple[str, str]]:
    """(shift file, potential file) pairs the workload's set-up loads."""
    return {"scan": [("full2.shift", "full2.pot"), ("even.shift", "even.pot"),
                     ("gen.sft", "gen.pot")],
            "lemma-ladder": [("even.shift", "even.pot"),
                             ("gen.sft", "gen.pot")]}[workload]


def jobs(workload: str, d: Path, sizes: Sizes) -> list[list[str]]:
    """The CLI argument lists of one job sequence."""
    def files(shift: str, pot: str) -> list[str]:
        return ["--shift", str(d / shift), "--potential", str(d / pot)]

    if workload == "scan":
        delta = ["--delta", "0.5,0.2,0.1"]
        return [
            ["weakgibbs", *files("full2.shift", "full2.pot"),
             "--m", f"1..{sizes.full2_m}", *delta, "--cap", "4000000"],
            ["weakgibbs", *files("even.shift", "even.pot"),
             "--m", f"1..{sizes.even_m}", *delta],
            ["weakgibbs", *files("gen.sft", "gen.pot"),
             "--m", f"1..{sizes.sft_m}", *delta],
        ]
    word = (d / "center.txt").read_text(encoding="utf-8").strip()
    return [
        ["pressure", *files("gen.sft", "gen.pot"),
         "--n-max", str(sizes.ladder_n_max)],
        ["tangent", *files("gen.sft", "gen.pot"), "--word", word,
         "--n", str(sizes.tangent_n)],
        ["lemma", "--which", "212", *files("even.shift", "even.pot"),
         "--n", str(sizes.lemma212_n), "--m", "1"],
        ["lemma", "--which", "1d", *files("even.shift", "even.pot"),
         "--n", str(sizes.lemma1d_n), "--m", "1", "--q-bar", "1"],
    ]


# ---------------------------------------------------------------------------
# oracle checks: each returns None when the output is right, else the reason
# ---------------------------------------------------------------------------

def _opt(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _rows(stdout: str) -> list[list[str]]:
    return [line.split("\t") for line in stdout.splitlines()]


def _load(argv: list[str]):
    from shiftgibbs.fileio import load_potential, load_shift
    presentation = load_shift(_opt(argv, "--shift"))
    return presentation, load_potential(_opt(argv, "--potential"),
                                        presentation.alphabet)


SCAN_RECHECK_M = 2   # rows m <= this are recomputed word by word
SCAN_TOL = 1e-9


def check_scan(argv: list[str], stdout: str, sizes: Sizes) -> str | None:
    from shiftgibbs.measures import cylinder_prob, equilibrium_measure
    from shiftgibbs.potentials import energy
    from shiftgibbs.shifts import enumerate_words

    lo, hi = map(int, _opt(argv, "--m").split(".."))
    rows = _rows(stdout)
    if rows[0] != ["m", "D_m", "bound"]:
        return f"bad header {rows[0]}"
    scan = rows[1:1 + hi - lo + 1]
    if [int(r[0]) for r in scan] != list(range(lo, hi + 1)):
        return "scan rows do not cover the requested m range"
    deltas = rows[1 + len(scan):]
    if len(deltas) != len(_opt(argv, "--delta").split(",")) or \
            any(r[0] != "delta" for r in deltas):
        return "delta rows missing"
    for m, d_m, bound in scan:
        if not float(d_m) <= float(bound):
            return f"D_{m} = {d_m} exceeds its bound {bound}"
    presentation, potential = _load(argv)
    measure = equilibrium_measure(presentation, potential)
    for m, d_m, _bound in scan:
        m = int(m)
        if m > SCAN_RECHECK_M:
            break
        length = 2 * m + 1
        worst = max(abs(math.log(cylinder_prob(measure, w)) - energy(potential, w)
                        + length * measure.log_lambda)
                    for w in enumerate_words(presentation, m)) / length
        if abs(worst - float(d_m)) > SCAN_TOL:
            return f"D_{m}: CLI {d_m}, per-word recomputation {worst!r}"
    return None


LEMMA_ROWS_PER_CENTER = {"212": 7, "1d": 8}


def check_lemma(argv: list[str], stdout: str, sizes: Sizes) -> str | None:
    presentation, _potential = _load(argv)
    m = int(_opt(argv, "--m"))
    rows = _rows(stdout)
    if rows[0] != ["name", "lhs", "rhs", "holds"]:
        return f"bad header {rows[0]}"
    centers = [r for r in rows[1:] if r[0].startswith("# u=")]
    records = [r for r in rows[1:] if not r[0].startswith("#")]
    want_centers = presentation.word_count(2 * m + 1)
    want = want_centers * LEMMA_ROWS_PER_CENTER[_opt(argv, "--which")]
    if len(centers) != want_centers or len(records) != want:
        return (f"{len(centers)} centers and {len(records)} rows, "
                f"want {want_centers} and {want}")
    failing = [r[0] for r in records if len(r) != 4 or r[3] != "true"]
    if failing:
        return f"inequalities do not hold: {failing[:5]}"
    return None


PRESSURE_REL_TOL = 1e-12


def check_pressure(argv: list[str], stdout: str, sizes: Sizes) -> str | None:
    from shiftgibbs.pressure import finite_pressure

    n_max = int(_opt(argv, "--n-max"))
    rows = _rows(stdout)
    if rows[0] != ["n", "P_n", "envelope"] or rows[-1][0] != "lambda":
        return "bad pressure table layout"
    ladder = rows[1:-1]
    if [int(r[0]) for r in ladder] != list(range(1, n_max + 1)):
        return "ladder rows do not cover 1..n_max"
    log_lambda = float(rows[-1][1])
    for n, p_n, env in ladder:
        if not abs(float(p_n) - log_lambda) <= float(env):
            return f"envelope violated at n={n}"
    presentation, potential = _load(argv)
    n = sizes.check_n
    brute = finite_pressure(presentation, potential, n, method="brute")
    product = finite_pressure(presentation, potential, n, method="product")
    printed = float(ladder[n - 1][1])
    for name, value in (("product", product), ("CLI", printed)):
        if abs(value - brute) > PRESSURE_REL_TOL * abs(brute):
            return f"P_{n}: brute {brute!r} vs {name} {value!r}"
    return None


def tangent_tolerance(n: int, word_len: int, t_step: float) -> float:
    """Central-difference error bound: t^2/6 * max|P_n'''|, where P_n''' is
    the third cumulant of the occurrence count (at most c_max^3) over the
    volume, plus rounding of the 15-digit output."""
    length = 2 * n + 1
    c_max = length - word_len + 1
    return t_step ** 2 / 6.0 * c_max ** 3 / length + 1e-12


def check_tangent(argv: list[str], stdout: str, sizes: Sizes) -> str | None:
    rows = dict(r for r in _rows(stdout) if len(r) == 2)
    if set(rows) != {"finite_diff", "formula", "cylinder"}:
        return "bad tangent output"
    finite_diff, formula = float(rows["finite_diff"]), float(rows["formula"])
    tol = tangent_tolerance(int(_opt(argv, "--n")), len(_opt(argv, "--word")),
                            float(_opt(argv, "--t-step", "1e-3")))
    if not abs(finite_diff - formula) <= tol:
        return f"finite difference {finite_diff!r} vs formula {formula!r} (tol {tol:.3g})"
    if not 0.0 < float(rows["cylinder"]) < 1.0:
        return "cylinder probability out of (0, 1)"
    return None


CHECKS = {"weakgibbs": check_scan, "lemma": check_lemma,
          "pressure": check_pressure, "tangent": check_tangent}


def check(argv: list[str], stdout: str, sizes: Sizes) -> str | None:
    return CHECKS[argv[0]](argv, stdout, sizes)
