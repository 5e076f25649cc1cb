"""Presentation invariance of the weak-Gibbs class pass, of pressure, of
cylinder probabilities, of the tangent check and of the 211, 212 and 1d
lemma rows.

Two right-resolving presentations of one shift must give the same numbers
about the shift: the ``weak_gibbs_scan`` rows D_m, ``log lambda`` and the
finite-volume pressures P_n, to 1e-13 relative (they are computed on
different covers, so they may round differently).  The pairs are an
in-split of the even shift (Lind & Marcus, section 2.4), a permutation of
its vertices, the golden-mean ``.sft`` file against the matching
``.shift`` file, and drawn small irreducible, aperiodic, right-resolving
presentations against an in-split and a vertex permutation of each (on
the drawn ones, relative to max(|x|, 1), P_n keeps 1e-13 and log lambda
and D_m are compared at the precision the Perron stop reaches,
``PERRON_REL_TOL``).  A row's ``bound`` is left out: it reads the
decoupling gap of the graph, which differs between presentations of one
shift.

On the three fixed pairs the command line must print the same lines,
numbers to 1e-13 relative, for ``cylinder`` on every allowed word of
length at most 4, for the ``formula`` and ``cylinder`` lines of
``tangent`` (n <= 4; its ``finite_diff`` divides rounding by the step)
and for the rows of ``lemma --which 211``, ``lemma --which 212`` and
``lemma --which 1d``, whose windows read the graph's gap, equal on these
pairs.  The 211 rows are the sandwich at the worst pair over every pair
of words that share an exterior and every two shifts, so they are a
number about the shift's language; the ``# worst`` line names the pair,
chosen by a tie rule on the lexicographic word table, and must match
exactly.

What the code cannot do yet is recorded as strict expected failures, each
naming the roadmap item that mends it:

* item 1 (a certified Perron bracket): a draw whose copies miss 1e-13 on
  D_m, and a draw that ``equilibrium_measure`` refuses as not stationary;
* item 4 (the Fischer cover): ``pressure``, ``weakgibbs``, ``cylinder``
  and ``tangent`` exit 2 with "determinize or supply right-resolving
  presentation" on an out-split of the even shift and on the golden-mean
  copy that ``factor --k 1`` prints with the identity rule;
* item 9 (the shift's own gap): ``gap`` prints 3 on that copy where
  golden_mean prints 2, and ``lemma --which 212`` builds its windows from
  that gap, so its rows differ there, and so do the collar and the
  worst pair of ``lemma --which 211``; ``lemma --which 1d`` takes its
  default q_bar from that gap, so the copy refuses the volumes that
  golden_mean admits.

The lemma suites read the word automaton, not the presentation's graph,
so they already agree on the out-split, whose gap is the even shift's.
"""

import contextlib
import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from shiftgibbs import (Potential, ShapeTable, SoficPresentation,
                        ValidationError, cli, equilibrium_measure,
                        finite_pressure, weak_gibbs_scan)
from shiftgibbs.bundled import (BINARY, data_path, equal_pair, even_shift,
                                single_site, zero)
from shiftgibbs.fileio import dump_presentation, load_shift
from test_pressure import random_right_resolving

REL_TOL = 1e-13


def in_split_even():
    """The even shift with E split by its incoming edges: E1 receives the
    1-loop, E2 the 0-edge from O, and both keep E's outgoing edges."""
    return SoficPresentation(
        BINARY, ("E1", "E2", "O"),
        (("E1", "E1", "1"), ("E2", "E1", "1"), ("E1", "O", "0"),
         ("E2", "O", "0"), ("O", "E2", "0")))


def permuted_even():
    """The even shift with its vertices listed in the other order."""
    return SoficPresentation(BINARY, ("O", "E"),
                             (("O", "E", "0"), ("E", "E", "1"), ("E", "O", "0")))


def out_split_even():
    """The even shift with E split by its outgoing edges: E1 keeps the
    1-loop, E2 the 0-edge to O, and both receive E's incoming edges.  O
    then has two 0-edges, so the presentation is not right-resolving."""
    return SoficPresentation(
        BINARY, ("E1", "E2", "O"),
        (("E1", "E1", "1"), ("E1", "E2", "1"), ("E2", "O", "0"),
         ("O", "E1", "0"), ("O", "E2", "0")))


PAIRS = {
    "in-split": (even_shift, in_split_even),
    "permuted": (even_shift, permuted_even),
    "sft-file": (lambda: load_shift(data_path("golden_mean.shift")),
                 lambda: load_shift(data_path("golden_mean.sft"))),
}


def shift_numbers(presentation, potential, m_max=8, n_max=8):
    """log lambda, then D_0..D_{m_max}, then P_0..P_{n_max}."""
    measure = equilibrium_measure(presentation, potential)
    rows = weak_gibbs_scan(measure, range(m_max + 1)).rows
    return ([measure.log_lambda] + [d for _m, d, _bound in rows]
            + [finite_pressure(presentation, potential, n) for n in range(n_max + 1)])


def assert_same_numbers(first, second):
    for a, b in zip(first, second, strict=True):
        assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0), (a, b)


@pytest.mark.parametrize("pot", [zero, single_site, equal_pair],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("pair", PAIRS)
def test_same_numbers_on_both_presentations(pair, pot):
    first, second = (build() for build in PAIRS[pair])
    assert_same_numbers(shift_numbers(first, pot()), shift_numbers(second, pot()))


# ---------------------------------------------------------------------------
# drawn presentations
# ---------------------------------------------------------------------------

def primitive_presentation(rng):
    """A drawn irreducible, aperiodic, right-resolving presentation
    (``random_right_resolving``, drawn again until it is both)."""
    while True:
        pres = random_right_resolving(rng)
        if pres.irreducible and pres.aperiodic:
            return pres


def in_split(pres, rng):
    """``pres`` with one vertex of in-degree two or more split by its
    incoming edges into two vertices, each with a copy of every outgoing
    edge; None when every vertex has in-degree one.  The split keeps the
    presentation right-resolving, irreducible and aperiodic, and presents
    the same shift."""
    vertices = [v for v in range(pres.n_vertices) if len(pres.in_edges(v)) >= 2]
    if not vertices:
        return None
    v = rng.choice(vertices)
    incoming = list(pres.in_edges(v))
    rng.shuffle(incoming)
    cut = rng.randint(1, len(incoming) - 1)
    part = {e: 1 + (i >= cut) for i, e in enumerate(incoming)}  # e -> half
    name = pres.vertices

    def target(e):
        d = pres.edge_target(e)
        return f"{name[d]}/{part[e]}" if d == v else name[d]
    edges = []
    for e, (s, _d, a) in enumerate(pres.edges):
        sources = [f"{name[v]}/1", f"{name[v]}/2"] if s == v else [name[s]]
        edges += [(src, target(e), pres.alphabet.symbols[a]) for src in sources]
    vertices = [x for u in range(pres.n_vertices)
                for x in ([f"{name[u]}/1", f"{name[u]}/2"] if u == v else [name[u]])]
    return SoficPresentation(pres.alphabet, vertices, edges)


def permuted(pres, rng):
    """``pres`` with its vertices renamed and listed in a drawn order, and
    its edges listed in a drawn order."""
    order = list(range(pres.n_vertices))
    rng.shuffle(order)
    name = {v: f"w{i}" for i, v in enumerate(order)}
    edges = [(name[s], name[d], pres.alphabet.symbols[a]) for (s, d, a) in pres.edges]
    rng.shuffle(edges)
    return SoficPresentation(pres.alphabet, [name[v] for v in order], edges)


def drawn_potential(alphabet, rng):
    """A range-1 potential on ``alphabet`` with drawn values in [-1, 1] on
    every site and every pair."""
    K = len(alphabet)
    site = ShapeTable((0,), {(a,): rng.uniform(-1, 1) for a in range(K)})
    pair = ShapeTable((0, 1), {(a, b): rng.uniform(-1, 1)
                               for a in range(K) for b in range(K)})
    return Potential(alphabet, 1, (site, pair))


def drawn_copies(seed):
    """A drawn presentation (``primitive_presentation``), a drawn potential
    on its alphabet, and its copies: a vertex permutation and, where one
    exists, an in-split and a permutation of the in-split."""
    rng = random.Random(seed)
    pres = primitive_presentation(rng)
    potential = drawn_potential(pres.alphabet, rng)
    copies = [permuted(pres, rng)]
    split = in_split(pres, rng)
    if split is not None:
        copies += [split, permuted(split, rng)]
    for copy in copies:
        assert copy.right_resolving and copy.irreducible and copy.aperiodic
    return pres, potential, copies


def assert_same_on_copies(seed, perron_tol):
    """P_n (n <= 8) at ``REL_TOL``, and log lambda and D_m (m <= 5), which
    read the Perron data, at ``perron_tol``, on every copy of a draw; both
    relative to max(|x|, 1), since every such number is a difference of
    terms of size about 1 (potential values in [-1, 1], at most 3 letters)
    and its rounding is absolute near 0 (log lambda = 1.2e-4 on one draw)."""
    pres, potential, copies = drawn_copies(seed)
    want = shift_numbers(pres, potential, m_max=5)
    for copy in copies:
        got = shift_numbers(copy, potential, m_max=5)
        for k, (a, b) in enumerate(zip(got, want, strict=True)):
            tol = perron_tol if k < 7 else REL_TOL
            assert math.isclose(a, b, rel_tol=tol, abs_tol=tol), (k, a, b)


# log lambda and D_m read the Perron data, which stop when successive
# estimates of lambda agree to 1e-13 relative with a residual below 1e-12
# (``pressure.perron``).  That bounds their error only through the spectral
# gap: over 2,000 draws (4,521 copies) 215 copies missed 1e-13 and the
# largest gap was 2.2e-12.  This tolerance is that order with room, not a
# certified bound; item 1's bracket would certify one.  P_n comes from the
# exact word-automaton pass and keeps ``REL_TOL`` (largest gap 4e-16).
PERRON_REL_TOL = 1e-10


# derandomized: about one draw in 2,000 is refused by item 1's defect (the
# strict xfail below), so a fresh draw per run would fail by luck
@settings(deadline=None, max_examples=40, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_drawn_presentations_in_split_and_permuted(seed):
    assert_same_on_copies(seed, PERRON_REL_TOL)


ITEM_1 = pytest.mark.xfail(
    strict=True, raises=(AssertionError, ValidationError),
    reason="ROADMAP item 1: the Perron data stop on successive agreement, "
    "not on a certified bracket")


@ITEM_1
def test_drawn_copies_agree_to_full_precision():
    # seed 89: D_1 = 0.377 differs by 1.35e-12 between two copies
    assert_same_on_copies(89, REL_TOL)


@ITEM_1
def test_drawn_presentation_not_falsely_refused():
    # seed 1864: three vertices, |lambda_2| / lambda = 0.73.  perron stops at
    # a residual of 5e-13, and nu * h then misses stationarity by 1.3e-12,
    # above the 1e-12 that ``RPFMeasure.validate`` allows: "state
    # distribution is not stationary"
    pres, potential, _copies = drawn_copies(1864)
    equilibrium_measure(pres, potential)


# ---------------------------------------------------------------------------
# presentations that are not right-resolving
# ---------------------------------------------------------------------------

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


GOLDEN_COPY_RULE = "000=0,001=0,100=0,101=0,010=1"


def golden_copy_file(tmp_path):
    """golden_mean on 5 vertices: its ``factor --k 1`` image under the rule
    that keeps the middle letter, as ``factor --dump`` prints it."""
    path = tmp_path / "golden_copy.shift"
    code, _out, err = run_cli(["factor", "--shift", data_path("golden_mean.shift"),
                               "--k", "1", "--rule", GOLDEN_COPY_RULE, "--dump",
                               "--out", path])
    assert (code, err) == (0, "")
    return path


def out_split_file(tmp_path):
    path = tmp_path / "out_split_even.shift"
    path.write_text(dump_presentation(out_split_even()), encoding="utf-8")
    return path


def shift_fields(command, stdout):
    """The numbers of a ``pressure`` or ``weakgibbs`` report that are about
    the shift: P_n and lambda, or D_m (the envelope and the bound read the
    presentation)."""
    rows = [line.split("\t") for line in stdout.splitlines()[1:]]
    if command == "pressure":
        return [float(r[1]) for r in rows]
    return [float(r[1]) for r in rows if r[0] != "delta"]


COMMANDS = {"pressure": ("--n-max", "8"), "weakgibbs": ("--m", "0..5")}


def assert_same_report(command, shift, copy, pot):
    base = [command, "--potential", data_path(pot), *COMMANDS[command]]
    want = run_cli(base + ["--shift", shift])
    got = run_cli(base + ["--shift", copy])
    assert want[0] == 0
    assert (got[0], got[2]) == (0, "")
    assert_same_numbers(shift_fields(command, got[1]), shift_fields(command, want[1]))


ITEM_4 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4: a presentation that is not "
    "right-resolving exits 2 with 'determinize or supply right-resolving "
    "presentation' until the Fischer cover lands")


@ITEM_4
@pytest.mark.parametrize("command", COMMANDS)
def test_out_split_of_even(command, tmp_path):
    assert_same_report(command, data_path("even.shift"), out_split_file(tmp_path),
                       "pair_beta.pot")


@ITEM_4
@pytest.mark.parametrize("command", COMMANDS)
def test_factor_copy_of_golden_mean(command, tmp_path):
    assert_same_report(command, data_path("golden_mean.shift"),
                       golden_copy_file(tmp_path), "pair_beta.pot")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: gap reads the graph "
                   "of the presentation, 3 on the copy and 2 on golden_mean, "
                   "until the shift's own gap lands")
def test_gap_of_factor_copy_of_golden_mean(tmp_path):
    want = run_cli(["gap", "--shift", data_path("golden_mean.shift")])
    assert run_cli(["gap", "--shift", golden_copy_file(tmp_path)]) == want


@pytest.mark.parametrize("build", [out_split_even, None],
                         ids=["out-split-even", "golden-copy"])
def test_partition_pass_already_invariant(build, tmp_path):
    # the partition pass reads the word automaton, not the presentation's
    # graph, so P_n agrees on both copies today
    if build is None:
        copy, shift = load_shift(golden_copy_file(tmp_path)), "golden_mean.shift"
    else:
        copy, shift = build(), "even.shift"
    assert not copy.right_resolving
    original = load_shift(data_path(shift))
    for pot in (zero(), single_site(), equal_pair()):
        assert_same_numbers([finite_pressure(copy, pot, n) for n in range(9)],
                            [finite_pressure(original, pot, n) for n in range(9)])


# ---------------------------------------------------------------------------
# cylinder, tangent and the 212 lemma rows through the command line
# ---------------------------------------------------------------------------

POT_FILES = ("zero.pot", "site_a.pot", "pair_beta.pot")


def pair_files(pair, tmp_path):
    """The two presentation files of a pair in ``PAIRS``: the bundled
    golden-mean files, or both built presentations as written by
    ``dump_presentation``."""
    if pair == "sft-file":
        return data_path("golden_mean.shift"), data_path("golden_mean.sft")
    paths = []
    for i, build in enumerate(PAIRS[pair]):
        path = tmp_path / f"{pair}-{i}.shift"
        path.write_text(dump_presentation(build()), encoding="utf-8")
        paths.append(path)
    return paths


def subcommand_runs(command, shift):
    """The argument lists of ``command`` compared on a pair, from the words
    of the presentation file ``shift``: ``cylinder`` on every allowed word
    of length 1 to 4, ``tangent`` on every allowed word of length 1 and 3
    at n = 1..4, ``lemma --which 211`` at (n, m, j) = (4, 1, 0), (5, 0, 1)
    and (6, 1, -1), ``lemma --which 212`` (every center) at (n, m) = (3, 0)
    and (4, 1), and ``lemma --which 1d`` (every center, the default q_bar)
    at (n, m) = (7, 0) and (8, 1), the smallest volumes its windows admit
    at gap 2 (n > m + 3 q_bar)."""
    pres = load_shift(shift)

    def words(length):
        return [pres.alphabet.text(w) for w in pres.word_matrix(length)]
    if command == "cylinder":
        return [["cylinder", "--word", w] for length in range(1, 5)
                for w in words(length)]
    if command == "tangent":
        return [["tangent", "--word", w, "--n", n] for length in (1, 3)
                for w in words(length) for n in range(1, 5)]
    if command == "lemma-211":
        return [["lemma", "--which", "211", "--n", n, "--m", m, "--j", j]
                for n, m, j in ((4, 1, 0), (5, 0, 1), (6, 1, -1))]
    if command == "lemma-212":
        return [["lemma", "--which", "212", "--n", n, "--m", m]
                for n, m in ((3, 0), (4, 1))]
    return [["lemma", "--which", "1d", "--n", n, "--m", m]
            for n, m in ((7, 0), (8, 1))]


SUBCOMMANDS = ("cylinder", "tangent", "lemma-211", "lemma-212", "lemma-1d")


def assert_same_lines(want, got):
    """Two reports line by line and field by field: a field that reads as
    a number agrees to ``REL_TOL``, every other field exactly.  A
    ``finite_diff`` line is skipped."""
    def lines(text):
        return [line.split("\t") for line in text.splitlines()
                if not line.startswith("finite_diff\t")]
    want_rows, got_rows = lines(want), lines(got)
    assert [len(r) for r in want_rows] == [len(r) for r in got_rows]
    for a_line, b_line in zip(want_rows, got_rows):
        for a, b in zip(a_line, b_line):
            try:
                x, y = float(a), float(b)
            except ValueError:
                assert a == b, (a_line, b_line)
                continue
            assert math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0), (a_line, b_line)


def assert_same_subcommand(command, shift, copy, pot):
    for args in subcommand_runs(command, shift):
        argv = [*args, "--potential", data_path(pot)]
        want = run_cli(argv + ["--shift", shift])
        got = run_cli(argv + ["--shift", copy])
        assert want[0] == 0 and want[2] == ""
        assert (got[0], got[2]) == (0, ""), (args, got)
        assert_same_lines(want[1], got[1])


@pytest.mark.parametrize("pot", POT_FILES)
@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("pair", PAIRS)
def test_same_subcommand_lines_on_both_presentations(pair, command, pot, tmp_path):
    assert_same_subcommand(command, *pair_files(pair, tmp_path), pot)


def test_same_lines_sees_a_changed_field():
    assert_same_lines("x\t0.5\ttrue\n", "x\t0.5000000000000001\ttrue\n")
    for got in ("x\t0.5000001\ttrue\n", "x\t0.5\tfalse\n", "x\t0.5\n"):
        with pytest.raises(AssertionError):
            assert_same_lines("x\t0.5\ttrue\n", got)


@ITEM_4
@pytest.mark.parametrize("command", ["cylinder", "tangent"])
def test_subcommand_on_out_split_of_even(command, tmp_path):
    assert_same_subcommand(command, data_path("even.shift"),
                           out_split_file(tmp_path), "pair_beta.pot")


@ITEM_4
@pytest.mark.parametrize("command", ["cylinder", "tangent"])
def test_subcommand_on_factor_copy_of_golden_mean(command, tmp_path):
    assert_same_subcommand(command, data_path("golden_mean.shift"),
                           golden_copy_file(tmp_path), "pair_beta.pot")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: lemma --which 211 "
                   "builds its collar from the graph's gap, 3 on the copy "
                   "and 2 on golden_mean, until the shift's own gap lands")
def test_lemma_211_on_factor_copy_of_golden_mean(tmp_path):
    assert_same_subcommand("lemma-211", data_path("golden_mean.shift"),
                           golden_copy_file(tmp_path), "pair_beta.pot")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: lemma --which 212 "
                   "builds its windows from the graph's gap, 3 on the copy "
                   "and 2 on golden_mean, until the shift's own gap lands")
def test_lemma_212_on_factor_copy_of_golden_mean(tmp_path):
    assert_same_subcommand("lemma-212", data_path("golden_mean.shift"),
                           golden_copy_file(tmp_path), "pair_beta.pot")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: lemma --which 1d "
                   "takes its default q_bar and windows from the graph's gap, "
                   "3 on the copy and 2 on golden_mean, until the shift's own "
                   "gap lands")
def test_lemma_1d_on_factor_copy_of_golden_mean(tmp_path):
    assert_same_subcommand("lemma-1d", data_path("golden_mean.shift"),
                           golden_copy_file(tmp_path), "pair_beta.pot")


@pytest.mark.parametrize("pot", POT_FILES)
def test_lemma_212_already_invariant_on_out_split(pot, tmp_path):
    # the suite reads the word automaton, and the out-split's graph gap is
    # the even shift's 2
    assert_same_subcommand("lemma-212", data_path("even.shift"),
                           out_split_file(tmp_path), pot)


@pytest.mark.parametrize("pot", POT_FILES)
def test_lemma_1d_already_invariant_on_out_split(pot, tmp_path):
    assert_same_subcommand("lemma-1d", data_path("even.shift"),
                           out_split_file(tmp_path), pot)
