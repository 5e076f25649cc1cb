import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from shiftgibbs import (ValidationError, VolumeGuardError, Word, _kernels,
                        brute_partition, cli, decoupling_1d_check,
                        decoupling_1d_tables, decoupling_gap, energy,
                        enumerate_words, equilibrium_measure,
                        indicator_potential, lemma_211_check, lemma_211_worst,
                        lemma_212_check, lemma_212_tables,
                        tangent_derivative_check, verify, weak_gibbs_scan)
from shiftgibbs.bundled import (BINARY, data_path, equal_pair, even_shift,
                                full_shift_2, golden_mean, single_site, zero)
from shiftgibbs.fileio import load_potential, load_shift
from shiftgibbs.measures import cylinder_prob, strong_gibbs_constant
from shiftgibbs.potentials import Potential, ShapeTable, zero_potential
from shiftgibbs.pressure import (_dp_log_partition, finite_pressure,
                                 log_sum_exp, word_energies)
from shiftgibbs.shifts import Alphabet, SoficPresentation, sft_presentation
from shiftgibbs.verify import (_BIAS, _LIMBS, _MAX_ENTRIES, _SHIFT,
                               InequalityRecord, LemmaReport, _center_id,
                               _class_ids, _distinct_per_word, _exact_terms,
                               _limb_sums, _limb_terms, _log_scaled,
                               _exterior_ids, _require_allowed_center,
                               ratio_1d_log_constant,
                               ratio_log_constant, sandwich_1d_log_constant,
                               sandwich_log_constant)

PHI = (1 + math.sqrt(5)) / 2


def word(letters, start=None):
    if start is None:
        start = -(len(letters) // 2)
    return Word(BINARY, start, letters)


class TestIndicatorPotential:
    def test_single_site(self, full):
        pot = indicator_potential(full, word((1,)))
        assert pot.shapes[0].offsets == (0,)
        assert pot.shapes[0].values == {(1,): 1.0}

    def test_disallowed_word_rejected(self, gm):
        with pytest.raises(ValidationError, match="disallowed word"):
            indicator_potential(gm, word((1, 1, 0)))

    def test_one_hot_table(self, ev):
        pot = indicator_potential(ev, word((0, 1, 0)))
        assert sum(pot.shapes[0].values.values()) == 1.0
        assert pot.shapes[0].offsets == (0, 1, 2)


class TestTangentDerivative:
    def test_full_shift_exact_half(self, full, pot_zero):
        fd, formula, cyl = tangent_derivative_check(
            full, pot_zero, word((1,)), 3, 1e-3)
        assert formula == pytest.approx(0.5, abs=1e-12)
        assert fd == pytest.approx(0.5, abs=1e-6)
        assert cyl == pytest.approx(0.5, abs=1e-12)

    def test_golden_mean_gap_shrinks(self, gm, pot_zero):
        fd, formula, cyl = tangent_derivative_check(
            gm, pot_zero, word((1,)), 5, 1e-3)
        assert cyl == pytest.approx(1 / (1 + PHI ** 2), abs=1e-12)
        assert abs(formula - cyl) <= 0.05
        # derivative consistency: central difference error is O(t^2)
        assert abs(fd - formula) <= 10 * (1e-3) ** 2 * 1e3

    def test_formula_matches_derivative_with_potential(self, ev, pot_pair):
        fd, formula, _cyl = tangent_derivative_check(
            ev, pot_pair, word((0, 1, 0)), 4, 1e-4)
        assert fd == pytest.approx(formula, abs=1e-6)

    @pytest.mark.parametrize("n", [4, 12])
    def test_step_tables_built_per_potential(self, ev, monkeypatch, n):
        # f, 1_u, f + t 1_u and f - t 1_u: four builds for every n
        built = []
        build = Potential.__dict__["step_tables"].func

        def counted(potential):
            built.append(potential)
            return build(potential)

        prop = functools.cached_property(counted)
        prop.__set_name__(Potential, "step_tables")
        monkeypatch.setattr(Potential, "step_tables", prop)
        tangent_derivative_check(ev, equal_pair(), word((0, 1, 0)), n, 1e-3)
        assert len(built) == 4

    @pytest.mark.parametrize("n", [4, 40])
    def test_three_passes(self, ev, pot_pair, monkeypatch, n):
        # two finite-difference passes and one exact-derivative pass
        passes = []

        def counted(*args):
            passes.append(args)
            return _dp_log_partition(*args)

        monkeypatch.setattr(verify, "_dp_log_partition", counted)
        tangent_derivative_check(ev, pot_pair, word((0, 1, 0)), n, 1e-3)
        assert len(passes) == 3


def constrained_partition(presentation, potential, n, j, ell, v):
    """log of the partition sum over allowed (2n+1)-words whose restriction
    to the shifted center window equals the pattern ``v``: a brute sum over
    the enumerated words with the window's letters pinned."""
    _require_allowed_center(presentation, v)
    m = len(v) // 2
    q = decoupling_gap(presentation, "bounded-length")
    if abs(ell) > q:
        raise ValidationError(f"windows inconsistent: |ell| must be at most q={q}")
    if abs(j) > n - (m + q):
        raise ValidationError("windows inconsistent: |j| must be at most n-(m+q)")
    lo = n + j + ell - m  # column of window position j+ell-m
    pins = {lo + i: a for i, a in enumerate(v.letters)}
    from test_pressure import _brute_log_z  # test_pressure imports this module
    return _brute_log_z(presentation, potential, 2 * n + 1, pins)


class TestConstrainedPartition:
    def test_matches_212_class_sums(self, ev, pot_pair):
        # Z_{n,ell}(v) of the 212 tables, per shift and center, against
        # one masked brute sum each
        n, m = 6, 1
        q = decoupling_gap(ev, "bounded-length")
        checked = 0
        for j in range(-(n - m - q), n - m - q + 1):
            tables = lemma_212_tables(ev, pot_pair, n, m, j)
            for v in enumerate_words(ev, m):
                c = _center_id(tables, v)
                for s, ell in enumerate(range(-q, q + 1)):
                    want = constrained_partition(ev, pot_pair, n, j, ell, v)
                    got = _log_scaled(tables.z_ell[s, c], tables.scale)
                    assert got == pytest.approx(want, rel=1e-12, abs=0)
                    checked += 1
        assert checked == ((2 * (n - m - q) + 1) * ev.word_count(2 * m + 1)
                           * (2 * q + 1))

    def test_partition_identity(self, ev, pot_pair):
        n, j, ell = 4, 1, -1
        parts = [constrained_partition(ev, pot_pair, n, j, ell, w)
                 for w in enumerate_words(ev, 1)]
        total = np.logaddexp.reduce(parts)
        assert total == pytest.approx(brute_partition(ev, pot_pair, n).log_z,
                                      rel=1e-10)

    def test_full_shift_counting(self, full, pot_zero):
        # 2^(2n+1-(2m+1)) words extend any center pattern
        for n in (3, 6):
            val = constrained_partition(full, pot_zero, n, 0, 0, word((1, 0, 1)))
            assert val == pytest.approx(math.log(2 ** (2 * n + 1 - 3)), abs=1e-12)

    def test_golden_center_one(self, gm, pot_zero):
        val = constrained_partition(gm, pot_zero, 3, 0, 0, word((1,)))
        # independent count of allowed 7-words with center letter 1
        count = sum(1 for bits in itertools.product("01", repeat=7)
                    if "11" not in "".join(bits) and bits[3] == "1")
        assert count == 9
        assert val == pytest.approx(math.log(count), abs=1e-12)

    def test_window_validation(self, ev, pot_zero):
        with pytest.raises(ValidationError, match="windows inconsistent"):
            constrained_partition(ev, pot_zero, 3, 0, 5, word((1,)))


def exterior_groups(presentation, n, m, q, j, min_size=2):
    """The words on [-n, n] grouped in a dict keyed by their exterior's
    letters (the positions k with |k - j| > m + q): the groups of at least
    ``min_size`` words, in the order of their keys."""
    groups = {}
    for w in enumerate_words(presentation, n):
        key = tuple(a for k, a in zip(range(-n, n + 1), w.letters)
                    if abs(k - j) > m + q)
        groups.setdefault(key, []).append(w)
    return [g for _key, g in sorted(groups.items()) if len(g) >= min_size]


def oracle_211_pairs(presentation, potential, n, m, j, seed, count):
    """``lemma_211_check`` on ``count`` seeded draws of two distinct words
    that share their exterior, from the dict groups, each with two drawn
    shifts: a sample that the worst pair must dominate."""
    q = decoupling_gap(presentation, "bounded-length")
    groups = exterior_groups(presentation, n, m, q, j)
    rng = random.Random(seed)
    reports = []
    for _ in range(count if groups else 0):
        group = groups[rng.randrange(len(groups))]
        x, y = rng.sample(group, 2)
        ell, ell_p = rng.randint(-q, q), rng.randint(-q, q)
        reports.append(lemma_211_check(presentation, potential, n, m, j,
                                       ell, ell_p, x, y))
    return reports


def brute_211_worst(presentation, potential, n, m, q, j):
    """max |du_full - du_small| over every (x, y, ell, ell') with x and y
    sharing their exterior (x = y included), in ``lemma_211_check``'s
    arithmetic: du_full = U(x) - U(y) and du_small the difference of the
    window energies, each energy from ``energy`` on its ``Word``."""
    best = 0.0
    for group in exterior_groups(presentation, n, m, q, j, min_size=1):
        full = np.array([energy(potential, w) for w in group])
        small = np.array([[energy(potential, w.restrict(j + ell - m, j + ell + m))
                           for ell in range(-q, q + 1)] for w in group])
        du_full = full[:, None, None, None] - full[None, :, None, None]
        du_small = small[:, None, :, None] - small[None, :, None, :]
        best = max(best, float(np.abs(du_full - du_small).max()))
    return best


def worst_gap(report):
    """|du_full - du_small| of a 211 report, read off its upper row
    (du_full <= du_small + log C)."""
    upper = report.inequalities[1]
    return abs(upper.lhs - (upper.rhs - report.constants["log_C"]))


def random_presentations(seed, count):
    """``count`` seeded right-resolving presentations
    (``test_pressure.random_right_resolving``), reducible ones included."""
    from test_pressure import random_right_resolving  # it imports this module
    rng = random.Random(seed)
    return [random_right_resolving(rng) for _ in range(count)]


# the bundled shifts with a finite gap (reducible.shift has none)
BUNDLED_SHIFTS = ("full2.shift", "golden_mean.shift", "golden_mean.sft",
                  "even.shift", "periodic.shift")
BUNDLED_POTENTIALS = ("zero.pot", "site_a.pot", "pair_beta.pot")


class TestLemma211:
    @pytest.mark.parametrize("reach", [0, 1, 3, 9])
    @pytest.mark.parametrize("j", [-1, 0, 2])
    def test_shared_exteriors_match_dict_groups(self, reach, j):
        # the exterior ids number the groups in the order of their letters
        pres = [load_shift(data_path(name)) for name in (
            "full2.shift", "golden_mean.shift", "even.shift", "reducible.shift",
            "periodic.shift")] + random_presentations(reach * 10 + j, 12)
        for p in pres:
            for n in (0, 2, 4):
                words = p.word_matrix(2 * n + 1)
                ids, n_ids = _exterior_ids(words, j, reach)
                got = [np.flatnonzero(ids == g).tolist() for g in range(n_ids)]
                index = {w.letters: i for i, w in enumerate(enumerate_words(p, n))}
                want = [[index[w.letters] for w in g]
                        for g in exterior_groups(p, n, reach, 0, j, min_size=1)]
                assert got == want, (p, n)

    @pytest.mark.parametrize("pot", BUNDLED_POTENTIALS)
    @pytest.mark.parametrize("shift", BUNDLED_SHIFTS)
    def test_worst_matches_brute_max(self, shift, pot):
        pres, potential = load_pair(shift, pot)
        q = decoupling_gap(pres, "bounded-length")
        checked = 0
        for n, m, j in itertools.product(range(6), (0, 1), (-1, 0, 1)):
            if abs(j) > n - (m + q):
                continue
            report = lemma_211_worst(pres, potential, n, m, j)
            assert report.all_hold
            assert report.context["q"] == q
            worst, want = worst_gap(report), brute_211_worst(pres, potential, n, m, q, j)
            assert abs(worst - want) <= 1e-12 * max(1.0, abs(want)), (n, m, j)
            for drawn in oracle_211_pairs(pres, potential, n, m, j, 0, 10):
                assert worst_gap(drawn) <= worst + 1e-12 * max(1.0, worst)
            checked += 1
        assert checked >= 6

    def test_worst_matches_brute_max_on_drawn_presentations(self):
        # drawn range-1 potentials make the worst shift of a group vary
        # from word to word, which the bundled potentials rarely do
        from test_invariance import drawn_potential  # it imports this module
        rng = random.Random(211)
        checked = 0
        for pres in random_presentations(211, 40):
            if not pres.irreducible:
                with pytest.raises(ValidationError, match="no finite gap"):
                    lemma_211_worst(pres, zero_potential(pres.alphabet), 3, 0, 0)
                continue
            potential = drawn_potential(pres.alphabet, rng)
            q = decoupling_gap(pres, "bounded-length")
            for n, m, j in ((3, 0, 0), (4, 1, 0), (4, 0, 1), (4, 1, -1)):
                if abs(j) > n - (m + q) or pres.word_count(2 * n + 1) > 2000:
                    continue
                worst = worst_gap(lemma_211_worst(pres, potential, n, m, j))
                want = brute_211_worst(pres, potential, n, m, q, j)
                assert abs(worst - want) <= 1e-12 * max(1.0, abs(want)), (pres, n, m, j)
                checked += 1
        assert checked >= 50

    def test_worst_without_shared_exterior(self, periodic, pot_zero):
        # every word of the 2-cycle has an exterior of its own, so the pair
        # is a word with itself
        report = lemma_211_worst(periodic, pot_zero, 4, 1, 0)
        assert report.all_hold
        c = report.context
        assert c["x"] == c["y"] == "010101010"
        assert (c["ell"], c["ell_prime"]) == (-2, -2)

    def test_worst_ties_go_to_the_first_pair(self, ev, pot_zero):
        # every A is 0 under the zero potential: the first group, then the
        # first (shift, word), for both words
        c = lemma_211_worst(ev, pot_zero, 4, 1, 0).context
        assert (c["x"], c["y"], c["ell"], c["ell_prime"]) == (
            "000000000", "000000000", -2, -2)

    def test_zero_potential_trivial(self, ev, pot_zero):
        groups = exterior_groups(ev, 6, 1, 2, 0)
        x, y = groups[0][0], groups[0][1]
        report = lemma_211_check(ev, pot_zero, 6, 1, 0, 0, 1, x, y)
        assert report.all_hold
        assert report.constants["log_C"] == 0.0

    def test_equal_words_trivial(self, ev, pot_pair):
        x = enumerate_words(ev, 6)[0]
        report = lemma_211_check(ev, pot_pair, 6, 1, 0, 1, 1, x, x)
        assert report.all_hold
        by_name = {r.name: r for r in report.inequalities}
        assert by_name["sandwich_upper"].lhs == pytest.approx(0.0, abs=1e-12)

    def test_random_pairs_hold(self, ev, pot_pair):
        rng = random.Random(7)
        groups = exterior_groups(ev, 6, 1, 2, 0)
        for _ in range(60):
            g = groups[rng.randrange(len(groups))]
            x, y = rng.sample(g, 2)
            ell, ell_p = rng.randint(-2, 2), rng.randint(-2, 2)
            report = lemma_211_check(ev, pot_pair, 6, 1, 0, ell, ell_p, x, y)
            assert report.all_hold

    def test_mismatched_exterior_rejected(self, ev, pot_pair):
        words = enumerate_words(ev, 6)
        x = words[0]
        y = next(w for w in words
                 if w.letters[0] != x.letters[0])  # differs at position -6
        with pytest.raises(ValidationError, match="differ outside"):
            lemma_211_check(ev, pot_pair, 6, 1, 0, 0, 0, x, y)


    def test_check_reads_the_presentation_gap(self, gm, pot_pair):
        # the factor copy of golden_mean has gap 3 against 2: a letter 3
        # from the center lies in the copy's collar and outside golden_mean's
        from test_shifts import golden_copy  # test_shifts imports this module
        copy = golden_copy()
        x = Word(BINARY, -5, (0,) * 11)
        y = Word(BINARY, -5, (0,) * 8 + (1, 0, 0))
        report = lemma_211_check(copy, pot_pair, 5, 0, 0, 3, -3, x, y)
        assert report.all_hold
        assert report.context["q"] == 3
        assert report.constants["log_C"] == sandwich_log_constant(pot_pair, 0, 3)
        with pytest.raises(ValidationError, match="differ outside"):
            lemma_211_check(gm, pot_pair, 5, 0, 0, 0, 0, x, y)
        with pytest.raises(ValidationError, match="shifted windows leave"):
            lemma_211_check(copy, pot_pair, 5, 0, 0, 4, 0, x, y)
        with pytest.raises(ValidationError, match="collar leaves the volume"):
            lemma_211_check(copy, pot_pair, 5, 0, 3, 0, 0, x, y)
        assert lemma_211_worst(copy, pot_pair, 4, 1, 0).context["q"] == 3

    def test_suites_read_the_presentation_gap(self, pot_pair):
        from test_shifts import golden_copy  # test_shifts imports this module
        copy = golden_copy()
        center = Word(BINARY, 0, (1,))
        report = lemma_212_check(lemma_212_tables(copy, pot_pair, 4, 0, 0), center)
        assert report.context["q"] == 3
        tables = decoupling_1d_tables(copy, pot_pair, 4, 0, 0, q_bar=1)
        assert decoupling_1d_check(tables, center).context["gap"] == 3


class TestLemma212:
    def test_full_shift_degenerate(self, full, pot_zero):
        report = lemma_212_check(lemma_212_tables(full, pot_zero, 5, 1, 0),
                                 word((0, 1, 0)))
        assert report.all_hold
        assert report.context["q"] == 1

    def test_even_exhaustive_pair_potential(self, ev, pot_pair):
        for j in (-1, 0, 1):
            tables = lemma_212_tables(ev, pot_pair, 6, 1, j)
            for u in enumerate_words(ev, 1):
                report = lemma_212_check(tables, u)
                assert report.all_hold, (j, u.text())

    def test_golden_pair_potential(self, gm, pot_pair):
        tables = lemma_212_tables(gm, pot_pair, 6, 1, 0)
        for u in enumerate_words(gm, 1):
            report = lemma_212_check(tables, u)
            assert report.all_hold, u.text()

    def test_records_expected_names(self, ev, pot_zero):
        report = lemma_212_check(lemma_212_tables(ev, pot_zero, 5, 1, 0),
                                 word((0, 0, 0)))
        names = {r.name for r in report.inequalities}
        assert names == {"eqineqell1_lower", "eqineqell1_upper",
                         "eqineqell2_lower", "eqineqell2_upper",
                         "decoupling_nonempty", "main_upper", "main_lower"}


class TestDecoupling1d:
    def test_full_shift(self, full, pot_zero):
        report = decoupling_1d_check(decoupling_1d_tables(full, pot_zero, 6, 1, 0),
                                     word((0, 1, 0)))
        assert report.all_hold
        by_name = {r.name: r for r in report.inequalities}
        assert by_name["nonempty_classes"].lhs == by_name["nonempty_classes"].rhs

    def test_even_shift_exhaustive(self, ev, pot_zero, pot_pair):
        for pot in (pot_zero, pot_pair):
            tables = decoupling_1d_tables(ev, pot, 7, 1, 0, q_bar=1)
            for u in enumerate_words(ev, 1):
                report = decoupling_1d_check(tables, u)
                assert report.all_hold, u.text()

    def test_range_one_has_no_crossing_term(self, ev, pot_pair):
        report = decoupling_1d_check(
            decoupling_1d_tables(ev, pot_pair, 7, 1, 0, q_bar=1), word((0, 0, 0)))
        from shiftgibbs import boundary_norm_bound, norms
        expected = 2 * (boundary_norm_bound(pot_pair, 1) + 0.0
                        + 6 * 1 * norms(pot_pair).norm)
        assert report.constants["log_C_prime"] == pytest.approx(expected)

    def test_window_preconditions(self, ev, pot_zero):
        with pytest.raises(ValidationError, match="window preconditions"):
            decoupling_1d_tables(ev, pot_zero, 7, 1, 0, q_bar=2)
        with pytest.raises(ValidationError, match="window preconditions"):
            decoupling_1d_tables(ev, pot_zero, 5, 1, 0, q_bar=2)

    @pytest.mark.parametrize("q_bar", [None, 1])
    def test_reducible_refused(self, reducible, pot_zero, q_bar):
        with pytest.raises(ValidationError,
                           match="no finite gap: presentation is not irreducible"):
            decoupling_1d_tables(reducible, pot_zero, 8, 1, 0, q_bar=q_bar)


class TestContextSpaceRefusedFirst:
    @pytest.mark.parametrize("suite, n", [
        (lemma_211_worst, 300), (lemma_212_tables, 300), (decoupling_1d_tables, 901),
        # windows the gap would refuse: the context space is refused first
        (lemma_211_worst, 1), (lemma_212_tables, 1), (decoupling_1d_tables, 1)])
    def test_before_the_gap(self, suite, n):
        # a 300-cycle with a letter of its own on each edge has gap 300; its
        # (2-letter) context space 300^2 is past the step tables' bound
        symbols = [f"s{i:03d}" for i in range(300)]
        ring = SoficPresentation(Alphabet(tuple(symbols)), symbols, [
            (a, b, b) for a, b in zip(symbols, symbols[1:] + symbols[:1])])
        with pytest.raises(VolumeGuardError, match=r"transfer context space 300\^2"):
            suite(ring, zero_potential(ring.alphabet), n, 0, 0)
        assert "gap" not in ring.__dict__


# ---------------------------------------------------------------------------
# lemma suites against their per-word oracles
# ---------------------------------------------------------------------------

def dyadic_terms(energies):
    """Each word's term exp(E - max E) as the Python int of its multiple by
    2**_SHIFT (``_dyadic_ints``), and the scale max E."""
    scale = float(energies.max()) if energies.size else 0.0
    return _dyadic_ints(np.exp(energies - scale).tolist()), scale


def oracle_lemma_212(presentation, potential, n, m, j, u_bar, cap=None):
    """``lemma_212_check`` by per-word loops: ``bytes`` keys and sets of
    word indices per class."""
    _require_allowed_center(presentation, u_bar)
    if len(u_bar) != 2 * m + 1:
        raise ValidationError("windows inconsistent: center word must have length 2m+1")
    q = decoupling_gap(presentation, "bounded-length")
    if abs(j) > n - (m + q):
        raise ValidationError("windows inconsistent: |j| must be at most n-(m+q)")
    bp = brute_partition(presentation, potential, n, cap=cap)
    words, energies = bp.words, bp.energies
    terms, scale = dyadic_terms(energies)
    z_n = sum(terms)
    length = 2 * m + 1
    shifts = range(-q, q + 1)

    # center patterns per shift, exterior pattern per word
    center_cols = {ell: slice(n + j + ell - m, n + j + ell + m + 1) for ell in shifts}
    ext_cols = [k for k in range(2 * n + 1) if abs(k - n - j) > m + q]
    ext_idx = np.array(ext_cols, dtype=np.int64)

    z_ell: dict[tuple[int, bytes], int] = {}
    union_members: dict[tuple[bytes, bytes], set[int]] = {}
    centers: set[bytes] = set()
    for i in range(words.shape[0]):
        row = words[i]
        w_key = row[ext_idx].tobytes()
        for ell in shifts:
            v_key = row[center_cols[ell]].tobytes()
            centers.add(v_key)
            z_ell[(ell, v_key)] = z_ell.get((ell, v_key), 0) + terms[i]
            union_members.setdefault((v_key, w_key), set()).add(i)

    z_bar: dict[bytes, int] = {}
    for (v_key, _w_key), members in union_members.items():
        z_bar[v_key] = z_bar.get(v_key, 0) + sum(terms[i] for i in members)

    u_key = np.array(u_bar.letters, dtype=words.dtype).tobytes()
    if (0, u_key) not in z_ell:
        raise ValidationError("center word does not extend to the volume")

    records: list[InequalityRecord] = []

    def add(name: str, lhs: float, rhs: float, holds: bool) -> None:
        records.append(InequalityRecord(name, lhs, rhs, holds))

    def log_terms(total: int) -> float:
        return _log_scaled(total, scale)

    # eqineqell1: Z_{n,ell}(v) <= Zbar(v) <= sum_ell' Z_{n,ell'}(v)
    worst_low = None
    worst_up = None
    for v_key in sorted(centers):
        zb = z_bar.get(v_key, 0)
        for ell in shifts:
            z = z_ell.get((ell, v_key), 0)
            slack = zb - z
            if worst_low is None or slack < worst_low[0]:
                worst_low = (slack, z, zb)
        z_sum = sum(z_ell.get((ell, v_key), 0) for ell in shifts)
        slack = z_sum - zb
        if worst_up is None or slack < worst_up[0]:
            worst_up = (slack, zb, z_sum)
    add("eqineqell1_lower", log_terms(worst_low[1]), log_terms(worst_low[2]),
        worst_low[1] <= worst_low[2])
    add("eqineqell1_upper", log_terms(worst_up[1]), log_terms(worst_up[2]),
        worst_up[1] <= worst_up[2])

    # eqineqell2: Z_n <= sum_v Zbar(v) <= (2q+1) Z_n
    z_bar_total = sum(z_bar.values())
    add("eqineqell2_lower", log_terms(z_n), log_terms(z_bar_total),
        z_n <= z_bar_total)
    add("eqineqell2_upper", log_terms(z_bar_total),
        math.log(2 * q + 1) + log_terms(z_n),
        z_bar_total <= (2 * q + 1) * z_n)

    # nonemptiness of the union classes for the reference word
    occupied_ext = {w_key for (_v, w_key) in union_members}
    u_ext = {w_key for (v_key, w_key) in union_members if v_key == u_key}
    add("decoupling_nonempty", float(len(occupied_ext)), float(len(u_ext)),
        len(occupied_ext) <= len(u_ext))

    # the two displayed bounds, with exact constants
    log_k = ratio_log_constant(potential, m, q, len(presentation.alphabet))
    u_energy = energy(potential, u_bar)
    p_m = finite_pressure(presentation, potential, m, method="product")
    lhs_up = log_terms(z_ell[(0, u_key)]) - log_terms(z_n)
    rhs_up = math.log(2 * q + 1) + log_k + u_energy - length * p_m
    add("main_upper", lhs_up, rhs_up, lhs_up <= rhs_up)
    z_u_sum = sum(z_ell.get((ell, u_key), 0) for ell in shifts)
    lhs_low = u_energy - log_k - length * p_m
    rhs_low = log_terms(z_u_sum) - log_terms(z_n)
    add("main_lower", lhs_low, rhs_low, lhs_low <= rhs_low)

    return LemmaReport(
        context={"n": n, "m": m, "j": j, "q": q, "u_bar": u_bar.text()},
        constants={"log_C": sandwich_log_constant(potential, m, q),
                   "log_K": log_k, "P_m": p_m},
        inequalities=tuple(records))


def oracle_decoupling_1d(presentation, potential, n, m, j, u_bar,
                         q_bar=None, cap=None):
    """``decoupling_1d_check`` by per-word loops: ``bytes`` keys and sets
    of word indices per class."""
    _require_allowed_center(presentation, u_bar)
    if len(u_bar) != 2 * m + 1:
        raise ValidationError("windows inconsistent: center word must have length 2m+1")
    # refuses a reducible presentation even when q_bar is given
    gap = decoupling_gap(presentation, "bounded-length")
    if q_bar is None:
        q_bar = gap
    if n <= m + 2 * q_bar:
        raise ValidationError("window preconditions violated: need n > m + 2*q_bar")
    if abs(j) >= n - (m + 3 * q_bar):
        raise ValidationError(
            "window preconditions violated: need |j| < n - (m + 3*q_bar)")
    bp = brute_partition(presentation, potential, n, cap=cap)
    words, energies = bp.words, bp.energies
    terms, scale = dyadic_terms(energies)
    length = 2 * m + 1
    n_words = words.shape[0]

    # window geometry (positions, then columns by +n)
    lam_minus = (-n + q_bar, j - (m + 2 * q_bar) - 1)
    lam_plus = (j + m + 2 * q_bar + 1, n - q_bar)
    center = slice(n + j - m, n + j + m + 1)
    shifts = range(-q_bar, q_bar + 1)

    def window_cols(window: tuple[int, int], ell: int) -> slice:
        return slice(n + window[0] + ell, n + window[1] + ell + 1)

    # class decomposition: for each word and each (ell-, ell+) pair, the
    # matched tail patterns; union classes collect members and multiplicity
    center_keys = words[:, center]
    members: dict[tuple[bytes, bytes, bytes], set[int]] = {}
    key_count: dict[int, set[tuple[bytes, bytes]]] = {i: set() for i in range(n_words)}
    for ell_m in shifts:
        cols_m = window_cols(lam_minus, ell_m)
        for ell_p in shifts:
            cols_p = window_cols(lam_plus, ell_p)
            for i in range(n_words):
                row = words[i]
                # the pattern matched at the shifted window is the tail word
                key = (center_keys[i].tobytes(), row[cols_m].tobytes(),
                       row[cols_p].tobytes())
                members.setdefault(key, set()).add(i)
                key_count[i].add((key[1], key[2]))

    # every (v, w-, w+) triple with allowed components must be realized
    expected = (presentation.word_count(length)
                * presentation.word_count(lam_minus[1] - lam_minus[0] + 1)
                * presentation.word_count(lam_plus[1] - lam_plus[0] + 1))
    realized = len(members)
    min_size = min(len(s) for s in members.values()) if members else 0
    max_size = max(len(s) for s in members.values()) if members else 0
    card_bound = (2 * q_bar + 1) ** 2 * len(presentation.alphabet) ** (6 * q_bar)

    records: list[InequalityRecord] = []

    def add(name, lhs, rhs, holds):
        records.append(InequalityRecord(name, lhs, rhs, holds))

    add("nonempty_classes", float(expected), float(realized), expected <= realized)
    add("cardinality_lower", 1.0, float(min_size), 1 <= min_size)
    add("cardinality_upper", float(max_size), float(card_bound),
        max_size <= card_bound)

    # trick: Z_n(v) <= Zbar_n(v) <= (2q+1)^2 Z_n(v), union weighted with
    # tail-class multiplicity
    z_v: dict[bytes, int] = {}
    z_bar: dict[bytes, int] = {}
    for i in range(n_words):
        v_key = center_keys[i].tobytes()
        z_v[v_key] = z_v.get(v_key, 0) + terms[i]
        z_bar[v_key] = z_bar.get(v_key, 0) + len(key_count[i]) * terms[i]
    worst_low = None
    worst_up = None
    for v_key, zv in sorted(z_v.items()):
        zb = z_bar[v_key]
        if worst_low is None or zb - zv < worst_low[0]:
            worst_low = (zb - zv, zv, zb)
        slack = (2 * q_bar + 1) ** 2 * zv - zb
        if worst_up is None or slack < worst_up[0]:
            worst_up = (slack, zb, (2 * q_bar + 1) ** 2 * zv)

    def log_terms(total: int) -> float:
        return _log_scaled(total, scale)

    add("trick_lower", log_terms(worst_low[1]), log_terms(worst_low[2]),
        worst_low[1] <= worst_low[2])
    add("trick_upper", log_terms(worst_up[1]), log_terms(worst_up[2]),
        worst_up[1] <= worst_up[2])

    # energy sandwich between union classes sharing both tails
    log_c1 = sandwich_1d_log_constant(potential, m, q_bar)
    u_ctr = word_energies(potential, words[:, center])
    g = energies - u_ctr
    g_min: dict[tuple[bytes, bytes, bytes], float] = {}
    g_max: dict[tuple[bytes, bytes, bytes], float] = {}
    for key, mem in members.items():
        vals = [float(g[i]) for i in mem]
        g_min[key] = min(vals)
        g_max[key] = max(vals)
    u_key = np.array(u_bar.letters, dtype=words.dtype).tobytes()
    worst_est = None
    for (v_key, w_m, w_p), _mem in members.items():
        ref = (u_key, w_m, w_p)
        if ref not in members:
            continue
        spread = max(g_max[(v_key, w_m, w_p)] - g_min[ref],
                     g_max[ref] - g_min[(v_key, w_m, w_p)])
        if worst_est is None or spread > worst_est:
            worst_est = spread
    add("est", worst_est if worst_est is not None else 0.0, log_c1,
        (worst_est if worst_est is not None else 0.0) <= log_c1)

    # final two-sided ratio bound with exact constants
    log_k = ratio_1d_log_constant(potential, m, q_bar, len(presentation.alphabet))
    pair_log = 2 * math.log(2 * q_bar + 1)
    u_energy = energy(potential, u_bar)
    p_m = finite_pressure(presentation, potential, m, method="product")
    z_n = sum(terms)
    if u_key not in z_v:
        raise ValidationError("center word does not extend to the volume")
    ratio = log_terms(z_v[u_key]) - log_terms(z_n)
    lhs_low = u_energy - pair_log - log_k - length * p_m
    rhs_up = pair_log + log_k + u_energy - length * p_m
    add("final_lower", lhs_low, ratio, lhs_low <= ratio)
    add("final_upper", ratio, rhs_up, ratio <= rhs_up)

    return LemmaReport(
        context={"n": n, "m": m, "j": j, "q_bar": q_bar, "gap": gap,
                 "u_bar": u_bar.text(), "lam_minus": lam_minus,
                 "lam_plus": lam_plus},
        constants={"log_C_prime": log_c1, "log_K_bar": log_k, "P_m": p_m},
        inequalities=tuple(records))


def bundled_file_pairs():
    """Every bundled irreducible, aperiodic shift file with every bundled
    potential file."""
    pairs = []
    for shift in ("full2.shift", "golden_mean.shift", "golden_mean.sft",
                  "even.shift", "reducible.shift", "periodic.shift"):
        pres = load_shift(data_path(shift))
        if pres.irreducible and pres.aperiodic:
            pairs += [(shift, pot)
                      for pot in ("zero.pot", "site_a.pot", "pair_beta.pot")]
    return pairs


def load_pair(shift, pot):
    pres = load_shift(data_path(shift))
    return pres, load_potential(data_path(pot), pres.alphabet)


def occurrence_counts(words, pattern):
    """Occurrences of ``pattern`` in each row of a word array."""
    width = len(pattern)
    pat = np.array(pattern, dtype=words.dtype)
    counts = np.zeros(words.shape[0], dtype=np.int64)
    for a in range(words.shape[1] - width + 1):
        counts += (words[:, a:a + width] == pat).all(axis=1)
    return counts


def brute_tangent(presentation, potential, u_bar, n, t_step):
    """The tangent check over the enumerated words: the central difference
    of log-sum-exp(energy + t * count) / (2n+1) and the count-weighted
    Gibbs average, with the measure's cylinder probability."""
    length = 2 * n + 1
    bp = brute_partition(presentation, potential, n)
    counts = occurrence_counts(bp.words, u_bar.letters)

    def p_n(t):
        return log_sum_exp(bp.energies + t * counts) / length

    finite_diff = (p_n(t_step) - p_n(-t_step)) / (2.0 * t_step)
    formula = float((counts * np.exp(bp.energies - bp.log_z)).sum()) / length
    measure = equilibrium_measure(presentation, potential)
    return finite_diff, formula, cylinder_prob(measure, u_bar)


class TestTangentOracle:
    @pytest.mark.parametrize("shift, pot", bundled_file_pairs())
    def test_matches_brute_force(self, shift, pot):
        pres, potential = load_pair(shift, pot)
        for width in (1, 3):
            for letters in pres.word_matrix(width):
                u_bar = word(tuple(int(a) for a in letters))
                for n in range(5):
                    got = tangent_derivative_check(pres, potential, u_bar, n, 1e-3)
                    fd, formula, cyl = brute_tangent(pres, potential, u_bar, n, 1e-3)
                    assert got[0] == pytest.approx(fd, rel=0, abs=1e-10)
                    assert got[1] == pytest.approx(formula, rel=1e-12, abs=0)
                    assert got[2] == pytest.approx(cyl, rel=1e-12, abs=0)

    def test_enumerates_no_words(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("word enumeration")

        pres, potential = load_pair("even.shift", "pair_beta.pot")
        monkeypatch.setattr(type(pres), "word_matrix", refuse)
        _fd, formula, cyl = tangent_derivative_check(
            pres, potential, word((0, 1, 0)), 40, 1e-3)
        # E[count] / L tends to the cylinder probability at rate 1/L
        assert abs(formula - cyl) <= 0.5 / 81

    @pytest.mark.parametrize("shift, match", [("reducible.shift", "reducible"),
                                              ("periodic.shift", "periodic")])
    def test_refused_measure_costs_no_pass(self, shift, match, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("partition pass")

        pres, potential = load_pair(shift, "zero.pot")
        monkeypatch.setattr(verify, "_dp_log_partition", refuse)
        with pytest.raises(ValidationError, match=match):
            tangent_derivative_check(pres, potential, word((0,)), 3, 1e-3)


ORACLE_WORDS = 1 << 11  # largest 1d volume the per-word oracle runs on


def same_report(got, want):
    """``==`` on the reports, and plain Python scalars in every row (a numpy
    bool or float would compare equal but is not what the oracle gives)."""
    return got == want and all(
        (type(r.lhs), type(r.rhs), type(r.holds)) == (float, float, bool)
        for r in got.inequalities)


class TestLemmaOracles:
    @pytest.mark.parametrize("shift, pot", bundled_file_pairs())
    def test_212_matches_oracle(self, shift, pot):
        pres, potential = load_pair(shift, pot)
        q = decoupling_gap(pres, "bounded-length")
        for m in (1, 2):
            # n = m + q leaves an empty exterior at j = 0
            for n in (m + q, m + q + 1):
                for j in (-1, 0, 1):
                    if abs(j) > n - (m + q):
                        continue
                    # one table, every center checked from it
                    tables = lemma_212_tables(pres, potential, n, m, j)
                    for u in enumerate_words(pres, m):
                        assert same_report(
                            lemma_212_check(tables, u),
                            oracle_lemma_212(pres, potential, n, m, j, u)
                        ), (n, m, j, u.text())

    @pytest.mark.parametrize("shift, pot", bundled_file_pairs())
    def test_1d_matches_oracle(self, shift, pot):
        pres, potential = load_pair(shift, pot)
        gap = decoupling_gap(pres, "bounded-length")
        checked = 0
        # q_bar = 0 leaves some (v, w-, w+) classes without a reference
        # class (u_bar, w-, w+), and ties every trick row
        for q_bar in (None, 1, 0):
            q_eff = gap if q_bar is None else q_bar
            for m in (0, 1):
                for n in (m + 3 * q_eff + 1, m + 3 * q_eff + 2):
                    if pres.word_count(2 * n + 1) > ORACLE_WORDS:
                        continue
                    for j in (-1, 0, 1):
                        if abs(j) >= n - (m + 3 * q_eff):
                            continue
                        # one table, every center checked from it
                        tables = decoupling_1d_tables(pres, potential, n, m, j,
                                                      q_bar=q_bar)
                        for u in enumerate_words(pres, m):
                            got = decoupling_1d_check(tables, u)
                            want = oracle_decoupling_1d(pres, potential, n, m,
                                                        j, u, q_bar=q_bar)
                            assert same_report(got, want), (q_bar, n, m, j,
                                                            u.text())
                            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("shift, pot", bundled_file_pairs())
    def test_class_tables_match_unique(self, shift, pot):
        # the per-center arrays of both suites against oracles built on
        # np.unique over np.void views of the windows: the center words
        # (np.unique of the rows), the 1d suite's est (the pairwise spread
        # over the sorted class keys, per center) and the 212 suite's
        # exterior counts (Python sets)
        pres, potential = load_pair(shift, pot)
        gap = decoupling_gap(pres, "bounded-length")
        checked = set()
        for q_bar in (None, 1, 0):
            q = gap if q_bar is None else q_bar
            shifts = range(-q, q + 1)
            for m in (0, 1):
                n = m + 3 * q + 2
                if pres.word_count(2 * n + 1) > ORACLE_WORDS:
                    continue
                for j in (-1, 0, 1):
                    t = decoupling_1d_tables(pres, potential, n, m, j, q_bar=q_bar)
                    words, energies = t.partition.words, t.partition.energies

                    def ids_at(lo, hi):
                        ids, n_ids = void_class_ids(np.concatenate(
                            [words[:, n + lo + ell:n + hi + ell + 1]
                             for ell in shifts]))
                        return ids.reshape(len(shifts), -1), n_ids

                    center = words[:, n + j - m:n + j + m + 1]
                    center_ids, n_centers = void_class_ids(center)
                    minus_ids, _ = ids_at(*t.lam_minus)
                    plus_ids, n_plus = ids_at(*t.lam_plus)
                    tails, tail_ids = np.unique(
                        (minus_ids[:, None] * n_plus + plus_ids[None]).ravel(),
                        return_inverse=True)
                    keys, class_ids = np.unique(
                        np.tile(center_ids, len(shifts) ** 2) * len(tails)
                        + tail_ids.ravel(), return_inverse=True)
                    assert np.array_equal(t.centers, np.unique(center, axis=0))
                    g = np.tile(energies - word_energies(potential, center),
                                len(shifts) ** 2)
                    g_min = np.full(len(keys), np.inf)
                    g_max = np.full(len(keys), -np.inf)
                    np.minimum.at(g_min, class_ids, g)
                    np.maximum.at(g_max, class_ids, g)
                    est = []
                    for u_id in range(n_centers):
                        ref_keys = u_id * len(tails) + keys % len(tails)
                        ref = np.minimum(np.searchsorted(keys, ref_keys),
                                         len(keys) - 1)
                        has = keys[ref] == ref_keys
                        est.append(np.maximum(g_max[has] - g_min[ref[has]],
                                              g_max[ref[has]] - g_min[has]).max())
                    assert np.array_equal(t.est, est)
                    checked.add("1d")
        for m in (0, 1):
            for j in (-1, 0, 1):
                n = m + gap + 1
                t = lemma_212_tables(pres, potential, n, m, j)
                words = t.partition.words
                at_shift = [words[:, n + j + ell - m:n + j + ell + m + 1]
                            for ell in range(-gap, gap + 1)]
                assert np.array_equal(t.centers, np.unique(at_shift[gap], axis=0))
                assert np.array_equal(
                    t.centers, np.unique(np.concatenate(at_shift), axis=0))
                exterior = np.abs(np.arange(-n, n + 1) - j) > m + gap
                exteriors = {}
                for windows in at_shift:
                    for row, ext in zip(windows, words[:, exterior]):
                        exteriors.setdefault(row.tobytes(), set()).add(ext.tobytes())
                assert t.ext_count.tolist() == [
                    len(exteriors[row.tobytes()]) for row in t.centers]
                checked.add("212")
        assert checked == {"212", "1d"}

    def test_212_tie_takes_first_center(self, ev, pot_zero):
        # zero potential: every term is 2**_SHIFT, so the sums are counts.
        # Two (center, ell) cells tie on the smallest slack Zbar - Z with
        # different Z; the row is the first in (center, ell) order.
        n, m, j = 3, 1, 0
        q = decoupling_gap(ev, "bounded-length")
        words = [w.letters for w in enumerate_words(ev, n)]
        centers = sorted({w[n + j + ell - m:n + j + ell + m + 1]
                          for w in words for ell in range(-q, q + 1)})
        cells = []
        for v in centers:
            zb = sum(any(w[n + j + ell - m:n + j + ell + m + 1] == v
                         for ell in range(-q, q + 1)) for w in words)
            for ell in range(-q, q + 1):
                z = sum(w[n + j + ell - m:n + j + ell + m + 1] == v
                        for w in words)
                cells.append((zb - z, z, zb))
        least = min(slack for slack, _z, _zb in cells)
        tied = [(z, zb) for slack, z, zb in cells if slack == least]
        assert tied[0][0] != tied[-1][0]
        report = lemma_212_check(lemma_212_tables(ev, pot_zero, n, m, j),
                                 word((0, 0, 0)))
        row = report.inequalities[0]
        assert row.name == "eqineqell1_lower"
        assert row.lhs == pytest.approx(math.log(tied[0][0]), rel=0, abs=1e-9)
        assert row.rhs == pytest.approx(math.log(tied[0][1]), rel=0, abs=1e-9)
        assert report == oracle_lemma_212(ev, pot_zero, n, m, j, word((0, 0, 0)))

    @pytest.mark.parametrize("shift, pot", bundled_file_pairs())
    @pytest.mark.parametrize("suite", ["212", "1d"])
    def test_reports_do_not_depend_on_center_order(self, shift, pot, suite):
        # the reports of one table, checked forwards, backwards and twice
        # over with the first report's dicts altered in between, equal
        # those of a fresh table per center
        pres, potential = load_pair(shift, pot)
        q = decoupling_gap(pres, "bounded-length")
        if suite == "212":
            def tables():
                return lemma_212_tables(pres, potential, 1 + q + 1, 1, 1)
            check = lemma_212_check
        else:
            def tables():
                return decoupling_1d_tables(pres, potential, 1 + 3 * q + 2, 1, 1)
            check = decoupling_1d_check
        centers = enumerate_words(pres, 1)
        fresh = [check(tables(), u) for u in centers]
        shared = tables()
        forwards = [check(shared, u) for u in centers]
        forwards[0].constants.clear()
        forwards[0].context.clear()
        backwards = [check(shared, u) for u in reversed(centers)][::-1]
        again = [check(shared, u) for u in centers]
        assert len(centers) > 1
        assert backwards == again == fresh
        assert forwards[1:] == fresh[1:]

    @pytest.mark.parametrize("suite", ["212", "1d"])
    def test_check_refuses_bad_centers(self, ev, pot_pair, suite):
        if suite == "212":
            tables, check = lemma_212_tables(ev, pot_pair, 5, 1, 0), lemma_212_check
        else:
            tables = decoupling_1d_tables(ev, pot_pair, 7, 1, 0, q_bar=1)
            check = decoupling_1d_check
        with pytest.raises(ValidationError, match="disallowed word"):
            check(tables, word((0, 1, 0, 1, 1)))
        with pytest.raises(ValidationError, match="must have length 2m\\+1"):
            check(tables, word((0,)))
        with pytest.raises(ValidationError, match="symmetric window"):
            check(tables, word((0, 0)))

    @pytest.mark.parametrize("suite", ["212", "1d"])
    def test_center_id_is_the_row_of_the_center(self, full, pot_pair, suite):
        # each center word's id is its row; with any one row dropped from
        # the centers (first, middle or last), that word is refused and
        # every other one finds its new row
        if suite == "212":
            tables = lemma_212_tables(full, pot_pair, 3, 1, 0)
        else:
            tables = decoupling_1d_tables(full, pot_pair, 5, 1, 0, q_bar=1)
        centers = enumerate_words(full, 1)
        assert [_center_id(tables, u) for u in centers] == list(range(len(centers)))
        for dropped, u_dropped in enumerate(centers):
            fewer = type(tables)(**{**vars(tables), "centers": np.delete(
                tables.centers, dropped, axis=0)})
            with pytest.raises(ValidationError, match="does not extend"):
                _center_id(fewer, u_dropped)
            assert [_center_id(fewer, u) for u in centers if u != u_dropped] == (
                list(range(len(centers) - 1)))

    @pytest.mark.parametrize("suite", ["212", "1d"])
    def test_check_is_a_lookup(self, full, suite):
        # one check call reads the tables' per-center entries: at the
        # (2q+1) x words and class-key scans this replaced, a call peaked
        # at 129 KiB (212) and 99 KiB (1d)
        potential = load_potential(data_path("pair_beta.pot"), full.alphabet)
        if suite == "212":
            tables, check = lemma_212_tables(full, potential, 7, 3, 0), lemma_212_check
        else:
            tables = decoupling_1d_tables(full, potential, 8, 3, 0)
            check = decoupling_1d_check
        centers = enumerate_words(full, 3)
        check(tables, centers[0])
        tracemalloc.start()
        try:
            report = check(tables, centers[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_hold
        assert peak < 16 * 2 ** 10


def _dyadic_ints(values):
    """The integers t * 2**_SHIFT of floats t in [0, 1], one per word: each
    t is m / d with d a power of two at most 2**1074, so t * 2**_SHIFT =
    m * 2**(_SHIFT - log2 d) exactly."""
    return [m << (_SHIFT + 1 - d.bit_length())
            for m, d in map(float.as_integer_ratio, values)]


def fraction_ints(values):
    """The reference route: each term through exact rational arithmetic."""
    return [int(Fraction(float(t)) * (1 << _SHIFT)) for t in values]


def void_class_ids(windows):
    """Dense class ids of the rows of a 2-D uint8 array by one ``np.unique``
    over an ``np.void`` view of the rows, and the number of classes."""
    rows = np.ascontiguousarray(windows if windows.shape[1] else
                                np.zeros((len(windows), 1), dtype=windows.dtype))
    keys, ids = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
                          return_inverse=True)
    return ids, len(keys)


EDGE_TERMS = [0.0, 5e-324, 2.0 ** -1022, 1.0, 1.0 - 2.0 ** -53, 0.5]


class TestDistinctPerWord:
    def test_against_per_column_sets(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 6, size=(5, 40))
        want = sorted((int(c), w) for w in range(40) for c in set(ids[:, w].tolist()))
        got_ids, got_words = _distinct_per_word(ids.copy())
        assert sorted(zip(got_ids.tolist(), got_words.tolist())) == want

    def test_sorts_in_place_with_no_temporary_of_the_ids_size(self):
        ids = np.random.default_rng(4).integers(0, 1 << 40, size=(9, 100_000))
        tracemalloc.start()
        try:
            got_ids, got_words = _distinct_per_word(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (np.diff(ids, axis=0) >= 0).all()
        # the outputs, the boolean mask and little else
        assert peak < got_ids.nbytes + got_words.nbytes + ids.size + 2 ** 20


class TestExactTerms:
    def test_dyadic_ints_match_fraction_form(self):
        rng = np.random.default_rng(11)
        values = (EDGE_TERMS + rng.random(200).tolist()
                  + (rng.random(50) ** 40).tolist())
        ints = _dyadic_ints(values)
        assert ints == fraction_ints(values)
        assert ints[:4] == [0, 1 << (_SHIFT - 1074), 1 << (_SHIFT - 1022),
                            1 << _SHIFT]

    def test_limb_sums_match_per_word_ints(self):
        rng = np.random.default_rng(12)
        values = np.array(EDGE_TERMS + rng.random(200).tolist()
                          + (rng.random(50) ** 40).tolist())
        ints = _dyadic_ints(values.tolist())
        terms = _limb_terms(values)
        # every contribution below 2**33, at limbs inside the accumulator
        assert terms[1].min() >= 0 and terms[1].max() < 1 << 33
        assert terms[0].min() >= 0 and terms[0].max() + 2 < _LIMBS
        # one class per word, then one class for all
        per_word = _limb_sums(np.arange(len(values)), terms, len(values))
        assert list(per_word) == ints
        assert all(type(x) is int for x in per_word)
        assert list(_limb_sums(np.zeros(len(values), dtype=np.intp), terms, 1)) \
            == [sum(ints)]
        # pair entries: words repeated within and across classes, and an
        # empty class
        rows = rng.integers(0, len(values), 3000)
        ids = rng.integers(0, 6, 3000)
        want = [0] * 7
        for c, r in zip(ids.tolist(), rows.tolist()):
            want[c] += ints[r]
        assert list(_limb_sums(ids, terms, 7, rows)) == want
        # the largest terms, many times over: every carry is taken
        ones = _limb_terms(np.full(5000, 1.0 - 2.0 ** -53))
        assert list(_limb_sums(np.zeros(5000, dtype=np.intp), ones, 1)) \
            == [5000 * _dyadic_ints([1.0 - 2.0 ** -53])[0]]

    def test_limb_bound(self):
        # fewer than 2**30 entries, each below 2**33, plus the carry from
        # the limb below: no int64 limb wraps
        most = (_MAX_ENTRIES - 1) * ((1 << 33) - 1)
        assert most + (most >> 32) < 1 << 63
        # the sum of as many terms of 1 fits in the accumulator
        assert ((_MAX_ENTRIES - 1) << (_SHIFT + _BIAS)).bit_length() <= 32 * _LIMBS

    def test_limb_guard_counts_entries(self):
        # zero-stride views: the count is 2**30, nothing that size is built
        terms = _limb_terms(np.ones(1))
        ids = np.broadcast_to(np.intp(0), (_MAX_ENTRIES,))
        with pytest.raises(VolumeGuardError,
                           match=f"{_MAX_ENTRIES} terms in one exact sum"):
            _limb_sums(ids, terms, 1, ids)

    def test_limb_guard_boundary(self, monkeypatch):
        monkeypatch.setattr(verify, "_MAX_ENTRIES", 8)
        terms = _limb_terms(np.ones(1))
        rows = np.zeros(8, dtype=np.intp)
        assert list(_limb_sums(rows[:7], terms, 1, rows[:7])) == [7 << _SHIFT]
        with pytest.raises(VolumeGuardError, match="8 terms in one exact sum"):
            _limb_sums(rows, terms, 1, rows)

    def test_limb_guard_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "_MAX_ENTRIES", 100)
        code = cli.main(["lemma", "--which", "212", "--shift",
                         str(data_path("even.shift")), "--potential",
                         str(data_path("pair_beta.pot")), "--n", "4", "--m", "1"])
        assert code == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "exceed the limb bound 100" in out.err

    def test_exact_terms_relative_to_max(self):
        # a normal, a subnormal and a vanishing term below the scale
        energies = np.array([-3.0, 0.25, -700.0, -740.0, -746.0, 0.25])
        terms, scale = _exact_terms(energies)
        assert scale == 0.25
        ints = list(_limb_sums(np.arange(6), terms, 6))
        assert ints == fraction_ints(np.exp(energies - scale))
        assert ints[1] == ints[5] == 1 << _SHIFT and ints[4] == 0


@pytest.mark.parametrize("width", [0, 1, 3, 7, 8, 13, 30])
@pytest.mark.parametrize("n_letters", [1, 2, 5, 256])
def test_class_ids_match_void_rows(width, n_letters):
    # the code space stays within rows * (largest letter + 1): 533 rows of
    # two letters fold ten columns at a time, 256 letters one or two
    rng = np.random.default_rng(width * 1000 + n_letters)
    windows = rng.integers(0, n_letters, (400, width), dtype=np.uint8)
    windows = np.concatenate([windows, windows[::3]])  # repeated rows
    ids, n_ids = _class_ids(windows)
    want_ids, want_n = void_class_ids(windows)
    assert n_ids == want_n
    assert np.array_equal(ids, want_ids)


@pytest.mark.parametrize("rows", [0, 1, 2, 9])
@pytest.mark.parametrize("width", [0, 1, 4, 40])
def test_class_ids_edge_cases(rows, width):
    # few rows against many columns: one column per fold; letter 255 is
    # the largest base; rows of width 0 form one class
    rng = np.random.default_rng(rows * 100 + width)
    windows = rng.choice(np.array([0, 7, 254, 255], dtype=np.uint8), (rows, width))
    ids, n_ids = _class_ids(windows)
    assert ids.dtype == np.intp and ids.shape == (rows,)
    if width == 0:
        assert n_ids == 1 and not ids.any()
    else:
        want_ids, want_n = void_class_ids(windows)
        assert n_ids == want_n
        assert np.array_equal(ids, want_ids)


def test_class_ids_memory_with_many_letters():
    # after the first fold nearly every row has its own id, so the next
    # fold's code space is rows x 250 = 5e7 entries: a presence table and
    # int64 running count over it take about 430 MiB
    rng = np.random.default_rng(8)
    windows = rng.integers(0, 250, (200_000, 5), dtype=np.uint8)
    tracemalloc.start()
    try:
        _class_ids(windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_class_ids_order_is_lexicographic():
    # a smaller letter first wins, however large the letters after it
    windows = np.array([[1, 0, 0], [0, 255, 255], [0, 255, 254], [1, 0, 0],
                        [0, 0, 1]], dtype=np.uint8)
    ids, n_ids = _class_ids(windows)
    assert n_ids == 4
    assert ids.tolist() == [3, 2, 1, 3, 0]


class TestWeakGibbsScan:
    def test_bernoulli_exact(self, full, pot_site):
        mu = equilibrium_measure(full, pot_site)
        report = weak_gibbs_scan(mu, range(1, 7))
        for (_m, d, bound) in report.rows:
            assert d <= 1e-10
            assert d <= bound

    def test_golden_zero_potential(self, gm, pot_zero):
        mu = equilibrium_measure(gm, pot_zero)
        report = weak_gibbs_scan(mu, range(1, 9))
        rows = {m: (d, b) for (m, d, b) in report.rows}
        assert rows[8][0] < rows[2][0]
        assert rows[8][0] <= 0.2
        for m, (d, b) in rows.items():
            assert d <= b

    def test_delta_to_n(self, gm, pot_zero):
        mu = equilibrium_measure(gm, pot_zero)
        report = weak_gibbs_scan(mu, range(1, 9))
        n_small = report.delta_to_n(1e-6)
        assert n_small is None  # never that small on this example
        rows = {m: d for (m, d, _b) in report.rows}
        target = rows[4] + 1e-12
        m_star = report.delta_to_n(target)
        assert m_star is not None and m_star <= 4
        assert all(rows[m] <= target for m in rows if m >= m_star)

    def test_scan_is_volume_guarded(self, full, pot_site):
        mu = equilibrium_measure(full, pot_site)
        with pytest.raises(VolumeGuardError):
            weak_gibbs_scan(mu, [12])


def oracle_rows(measure, potential, m_list):
    """Scan rows (m, D_m) by the per-word route: every allowed word through
    the batch energy kernel and the dense forward reference."""
    from test_kernels import forward_logprob  # test_kernels imports this module
    presentation = measure.presentation
    rows = []
    for m in sorted(m_list):
        length = 2 * m + 1
        worst = 0.0
        for block in presentation.iter_word_blocks(length):
            dev = np.abs(forward_logprob(measure, block)
                         - word_energies(potential, block)
                         + length * measure.log_lambda)
            worst = max(worst, float(dev.max()))
        rows.append((m, worst / length))
    return rows


# Oracle for the class pass: one walk of the word automaton's trie, where
# every allowed word is a path and each node carries its scaled forward
# vector, log normaliser and energy.

SCAN_BLOCK = 1 << 16  # leaves per walked group of subtrees


def scan_deviation(det, start, q, stationary, step_tables, lengths, p_limit,
                   leaves):
    """Largest ``|log nu[u] - U(u) + L * p_limit|`` over the allowed words
    ``u`` of each length ``L`` in ``lengths`` (one entry per length).

    ``det[s, a]`` is the word automaton's successor (-1 when ``a`` is not
    allowed) and ``start`` its start state, so the allowed words are the
    paths of its trie.  ``q[a]`` is the label-restricted transition matrix
    over the cover states and ``stationary`` the start vector of the forward
    recursion.  ``step_tables[p]`` is the energy increment of the letter at
    position ``p``, indexed by the base-K code of the last ``p + 1``
    letters; the last table serves every later position.  ``leaves[r][s]``
    is the number of allowed words of length ``r`` read from state ``s``
    (as floats), for r = 0..max(lengths).

    Each trie node carries its scaled forward vector, its log normaliser and
    its energy, so every edge costs one vector-matrix product, one rescale
    and one table lookup, and the rows of all lengths are read on the way
    down.  The trie is walked in groups of subtrees of at most
    ``SCAN_BLOCK`` leaves, which bounds the memory at any depth.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    worst = np.zeros(lengths.shape[0])
    if lengths.shape[0] == 0:
        return worst
    depth_max = int(lengths.max())
    n_symbols = det.shape[1]
    modulus = step_tables[-1].shape[0]
    allowed = det >= 0

    def walk(depth, state, v, logz, energy, code):
        while True:
            hit = lengths == depth
            if hit.any():
                dev = float(np.abs(logz - energy + depth * p_limit).max())
                worst[hit] = np.maximum(worst[hit], dev)
            if depth == depth_max:
                return
            table = step_tables[min(depth, len(step_tables) - 1)]
            # children grouped by their last letter
            parents = [np.flatnonzero(allowed[state, a]) for a in range(n_symbols)]
            w = np.empty((sum(p.shape[0] for p in parents), v.shape[1]))
            lo = 0
            for a, par in enumerate(parents):
                np.matmul(v[par], q[a], out=w[lo:lo + par.shape[0]])
                lo += par.shape[0]
            parent = np.concatenate(parents)
            letter = np.repeat(np.arange(n_symbols), [p.shape[0] for p in parents])
            tot = w.sum(axis=1)
            w /= tot[:, None]
            v = w
            logz = logz[parent] + np.log(tot)
            code = (code[parent] * n_symbols + letter) % modulus
            energy = energy[parent] + table[code]
            state = det[state[parent], letter]
            depth += 1
            size = leaves[depth_max - depth][state]
            if state.shape[0] > 1 and size.sum() > SCAN_BLOCK:
                break
        # contiguous groups of at most SCAN_BLOCK leaves (or one node each)
        ends = np.cumsum(size)
        lo = 0
        while lo < state.shape[0]:
            base = ends[lo - 1] if lo else 0.0
            hi = max(lo + 1, int(np.searchsorted(ends, base + SCAN_BLOCK, "right")))
            walk(depth, state[lo:hi], v[lo:hi], logz[lo:hi], energy[lo:hi],
                 code[lo:hi])
            lo = hi

    walk(0, np.array([start], dtype=np.int64), stationary[None, :].copy(),
         np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64))
    return worst


def trie_rows(measure, potential, m_list, cap=None):
    """Scan rows (m, D_m) by one walk of the word trie (``scan_deviation``)."""
    presentation = measure.presentation
    ms = sorted(m_list)
    lengths = [2 * m + 1 for m in ms]
    presentation.check_volume(max(lengths, default=0), cap)
    from test_pressure import densify  # test_pressure imports this module
    det, start = presentation._det
    # counts[r][s]: the number of allowed words of length r read from
    # automaton state s
    counts = [np.ones(det.shape[0])]
    for _ in range(max(lengths, default=0)):
        counts.append(np.where(det >= 0, counts[-1][det], 0).sum(axis=1))
    worst = scan_deviation(
        det, start, densify(measure.transfer.succ, measure.q), measure.stationary,
        potential.step_tables, lengths, measure.log_lambda, counts)
    return [(m, float(dev) / length) for m, length, dev in zip(ms, lengths, worst)]


BUNDLED_SYSTEMS = [(shift, pot)
                   for shift in (full_shift_2, golden_mean, even_shift)
                   for pot in (zero, single_site, equal_pair)]


class TestWeakGibbsScanOracle:
    @pytest.mark.parametrize("shift, pot", BUNDLED_SYSTEMS,
                             ids=lambda f: f.__name__)
    def test_agrees_with_per_word_route(self, shift, pot):
        presentation, potential = shift(), pot()
        mu = equilibrium_measure(presentation, potential)
        report = weak_gibbs_scan(mu, range(1, 9))
        want = oracle_rows(mu, potential, range(1, 9))
        assert [m for (m, _d, _b) in report.rows] == [m for (m, _d) in want]
        for (_m, d, _b), (_m2, d_oracle) in zip(report.rows, want):
            assert abs(d - d_oracle) <= 1e-12

    def test_range_three_potential(self, ev):
        # a potential whose energy steps reach back three letters
        rng = random.Random(3)
        shapes = tuple(
            ShapeTable(offs, {pat: rng.uniform(-1, 1) for pat in
                              itertools.product((0, 1), repeat=len(offs))})
            for offs in ((0,), (0, 1), (0, 3), (0, 2, 3)))
        potential = Potential(BINARY, 3, shapes)
        mu = equilibrium_measure(ev, potential)
        report = weak_gibbs_scan(mu, range(0, 7))
        want = oracle_rows(mu, potential, range(0, 7))
        for (_m, d, _b), (_m2, d_oracle) in zip(report.rows, want):
            assert abs(d - d_oracle) <= 1e-12

    @pytest.mark.parametrize("m_list", [[1, 2, 5], [3, 3], [5, 1, 2], []])
    def test_m_lists(self, ev, pot_pair, m_list):
        mu = equilibrium_measure(ev, pot_pair)
        report = weak_gibbs_scan(mu, m_list)
        want = oracle_rows(mu, pot_pair, m_list)
        assert [m for (m, _d, _b) in report.rows] == sorted(m_list)
        for (_m, d, _b), (_m2, d_oracle) in zip(report.rows, want):
            assert abs(d - d_oracle) <= 1e-12

    def test_blocked_walk_matches_one_block(self, full, pot_site, monkeypatch):
        mu = equilibrium_measure(full, pot_site)
        whole = trie_rows(mu, pot_site, range(1, 7))
        monkeypatch.setitem(globals(), "SCAN_BLOCK", 8)
        blocked = trie_rows(mu, pot_site, range(1, 7))
        for (m, d), (m2, d2) in zip(blocked, whole):
            assert m == m2
            assert d == pytest.approx(d2, rel=0, abs=1e-15)

    def test_guard_checks_the_deepest_length_first(self, full, pot_site,
                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(_kernels, "class_deviation",
                            lambda *args: calls.append(args))
        mu = equilibrium_measure(full, pot_site)
        with pytest.raises(VolumeGuardError,
                           match="more than 2000000 words of length 25$"):
            weak_gibbs_scan(mu, [1, 12])
        assert calls == []

    def test_negative_m_rejected(self, full, pot_site):
        mu = equilibrium_measure(full, pot_site)
        with pytest.raises(ValidationError, match="m must be nonnegative"):
            weak_gibbs_scan(mu, [-1, 2])


def range_three_sft(seed):
    """A 5-letter SFT that forbids one 3-word after each 2-block (25
    vertices, irreducible and aperiodic) with a seeded potential on the
    shapes (0,), (0, 1) and (0, 3): 100 cover states."""
    rng = random.Random(seed)
    alphabet = Alphabet(tuple("01234"))
    while True:
        forbidden = [f"{a}{b}{rng.randrange(5)}" for a in range(5) for b in range(5)]
        presentation = sft_presentation(alphabet, forbidden)
        if (presentation.n_vertices == 25 and presentation.irreducible
                and presentation.aperiodic):
            break
    shapes = tuple(
        ShapeTable(offs, {pat: rng.uniform(-0.5, 0.5) for pat in
                          itertools.product(range(5), repeat=len(offs))})
        for offs in ((0,), (0, 1), (0, 3)))
    return presentation, Potential(alphabet, 3, shapes)


def full2_two_point(span):
    """A seeded potential on the full 2-shift with the shapes (0,) and
    (0, span): 2^span cover states."""
    rng = random.Random(8)
    shapes = tuple(
        ShapeTable(offs, {pat: rng.uniform(-1, 1) for pat in
                          itertools.product((0, 1), repeat=len(offs))})
        for offs in ((0,), (0, span)))
    return full_shift_2(), Potential(BINARY, span, shapes)


class TestClassPass:
    """The scan's class pass against the trie walk and the word counts."""

    @pytest.mark.parametrize("shift, pot", BUNDLED_SYSTEMS,
                             ids=lambda f: f.__name__)
    def test_agrees_with_trie_walk(self, shift, pot):
        presentation, potential = shift(), pot()
        mu = equilibrium_measure(presentation, potential)
        report = weak_gibbs_scan(mu, range(1, 11), cap=1 << 21)
        want = trie_rows(mu, potential, range(1, 11), cap=1 << 21)
        assert [m for (m, _d, _b) in report.rows] == [m for (m, _d) in want]
        for (_m, d, _b), (_m2, d_trie) in zip(report.rows, want):
            assert abs(d - d_trie) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    def test_agrees_with_trie_walk_on_a_range_three_sft(self, seed):
        presentation, potential = range_three_sft(seed)
        mu = equilibrium_measure(presentation, potential)
        assert mu.transfer.n_states == 100
        report = weak_gibbs_scan(mu, range(0, 4))
        want = trie_rows(mu, potential, range(0, 4))
        for (_m, d, _b), (_m2, d_trie) in zip(report.rows, want):
            assert abs(d - d_trie) <= 1e-12

    def test_agrees_with_trie_walk_at_range_five(self):
        presentation, potential = full2_two_point(5)
        mu = equilibrium_measure(presentation, potential)
        assert mu.transfer.n_states == 32
        report = weak_gibbs_scan(mu, range(1, 9))
        want = trie_rows(mu, potential, range(1, 9))
        for (_m, d, _b), (_m2, d_trie) in zip(report.rows, want, strict=True):
            assert abs(d - d_trie) <= 1e-12

    @staticmethod
    def scan_peak(presentation, potential):
        mu = equilibrium_measure(presentation, potential)
        assert mu.transfer.n_states == 256
        tracemalloc.start()
        try:
            weak_gibbs_scan(mu, range(1, 9))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_at_range_eight(self):
        # 65,536 classes at length 17, each with its own 256-wide map row
        # and their log-sum-exp in one piece, peaked at 426 MiB
        assert self.scan_peak(*full2_two_point(8)) < 32 * 2 ** 20

    def test_memory_at_range_eight_with_every_pair_tied(self):
        # under the zero potential every (prefix, suffix map) pair ties, so
        # every pair is re-summed S-wide; in one piece that peaked at 295 MiB
        presentation, potential = full2_two_point(8)
        zero_values = Potential(potential.alphabet, 8, tuple(
            ShapeTable(s.offsets, dict.fromkeys(s.values, 0.0))
            for s in potential.shapes))
        assert self.scan_peak(presentation, zero_values) < 32 * 2 ** 20

    @pytest.mark.parametrize("shift, pot", BUNDLED_SYSTEMS,
                             ids=lambda f: f.__name__)
    def test_no_more_classes_than_words(self, shift, pot, monkeypatch):
        # one table of suffix maps per length, down to the deepest length
        # (21) less the context length R
        presentation, potential = shift(), pot()
        mu = equilibrium_measure(presentation, potential)
        prefix_len = mu.transfer.context_len
        levels = []
        classes = _kernels.word_classes

        def counted(*args):
            for table in classes(*args):
                levels.append(table.shape[0])
                yield table

        monkeypatch.setattr(_kernels, "word_classes", counted)
        weak_gibbs_scan(mu, range(1, 11), cap=1 << 21)
        assert len(levels) == 21 - prefix_len + 1
        for length, n_maps in enumerate(levels):
            assert 1 <= n_maps <= presentation.word_count(length)
        # repeated maps are merged, so the table size settles
        assert levels[-1] == levels[-2] <= 10

    @pytest.mark.parametrize("shift, pot", BUNDLED_SYSTEMS,
                             ids=lambda f: f.__name__)
    def test_within_the_strong_gibbs_constant(self, shift, pot):
        presentation, potential = shift(), pot()
        mu = equilibrium_measure(presentation, potential)
        report = weak_gibbs_scan(mu, range(0, 11), cap=1 << 21)
        bound = strong_gibbs_constant(mu)
        for m, d, _b in report.rows:
            assert (2 * m + 1) * d <= bound
