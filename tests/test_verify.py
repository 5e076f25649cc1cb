import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shiftgibbs import (ValidationError, VolumeGuardError, Word, _kernels,
                        brute_partition, constrained_partition,
                        decoupling_1d_check, decoupling_gap, energy,
                        enumerate_words, equilibrium_measure,
                        indicator_potential, lemma_211_check,
                        lemma_212_check, tangent_derivative_check,
                        weak_gibbs_scan)
from shiftgibbs.bundled import (BINARY, equal_pair, even_shift, full_shift_2,
                                golden_mean, single_site, zero)
from shiftgibbs.measures import cylinder_log_probs
from shiftgibbs.potentials import Potential, ShapeTable
from shiftgibbs.pressure import word_energies
from shiftgibbs.verify import _SHIFT, _dyadic_ints, _exact_terms

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


class TestConstrainedPartition:
    def test_partition_identity(self, ev, pot_pair):
        n, j, ell = 4, 1, -1
        parts = [constrained_partition(ev, pot_pair, n, j, ell, w)
                 for w in enumerate_words(ev, 1)]
        total = np.logaddexp.reduce(parts)
        assert total == pytest.approx(brute_partition(ev, pot_pair, n).log_z,
                                      rel=1e-10)

    def test_full_shift_counting(self, full, pot_zero):
        # 2^(2n+1-(2m+1)) words extend any center pattern
        val = constrained_partition(full, pot_zero, 3, 0, 0, word((1, 0, 1)))
        assert val == pytest.approx(math.log(2 ** (7 - 3)), abs=1e-12)

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


def exterior_groups(presentation, n, m, q, j):
    groups = {}
    for w in enumerate_words(presentation, n):
        key = tuple(a for k, a in zip(range(-n, n + 1), w.letters)
                    if abs(k - j) > m + q)
        groups.setdefault(key, []).append(w)
    return [g for g in groups.values() if len(g) >= 2]


class TestLemma211:
    def test_zero_potential_trivial(self, ev, pot_zero):
        groups = exterior_groups(ev, 6, 1, 2, 0)
        x, y = groups[0][0], groups[0][1]
        report = lemma_211_check(ev, pot_zero, 6, 1, 2, 0, 0, 1, x, y)
        assert report.all_hold
        assert report.constants["log_C"] == 0.0

    def test_equal_words_trivial(self, ev, pot_pair):
        x = enumerate_words(ev, 6)[0]
        report = lemma_211_check(ev, pot_pair, 6, 1, 2, 0, 1, 1, x, x)
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
            report = lemma_211_check(ev, pot_pair, 6, 1, 2, 0, ell, ell_p, x, y)
            assert report.all_hold

    def test_mismatched_exterior_rejected(self, ev, pot_pair):
        words = enumerate_words(ev, 6)
        x = words[0]
        y = next(w for w in words
                 if w.letters[0] != x.letters[0])  # differs at position -6
        with pytest.raises(ValidationError, match="differ outside"):
            lemma_211_check(ev, pot_pair, 6, 1, 2, 0, 0, 0, x, y)


class TestLemma212:
    def test_full_shift_degenerate(self, full, pot_zero):
        report = lemma_212_check(full, pot_zero, 5, 1, 0, word((0, 1, 0)))
        assert report.all_hold
        assert report.context["q"] == 1

    def test_even_exhaustive_pair_potential(self, ev, pot_pair):
        for j in (-1, 0, 1):
            for u in enumerate_words(ev, 1):
                report = lemma_212_check(ev, pot_pair, 6, 1, j, u)
                assert report.all_hold, (j, u.text())

    def test_golden_pair_potential(self, gm, pot_pair):
        for u in enumerate_words(gm, 1):
            report = lemma_212_check(gm, pot_pair, 6, 1, 0, u)
            assert report.all_hold, u.text()

    def test_records_expected_names(self, ev, pot_zero):
        report = lemma_212_check(ev, pot_zero, 5, 1, 0, word((0, 0, 0)))
        names = {r.name for r in report.inequalities}
        assert names == {"eqineqell1_lower", "eqineqell1_upper",
                         "eqineqell2_lower", "eqineqell2_upper",
                         "decoupling_nonempty", "main_upper", "main_lower"}


class TestDecoupling1d:
    def test_full_shift(self, full, pot_zero):
        report = decoupling_1d_check(full, pot_zero, 6, 1, 0, word((0, 1, 0)))
        assert report.all_hold
        by_name = {r.name: r for r in report.inequalities}
        assert by_name["nonempty_classes"].lhs == by_name["nonempty_classes"].rhs

    def test_even_shift_exhaustive(self, ev, pot_zero, pot_pair):
        for pot in (pot_zero, pot_pair):
            for u in enumerate_words(ev, 1):
                report = decoupling_1d_check(ev, pot, 7, 1, 0, u, q_bar=1)
                assert report.all_hold, u.text()

    def test_range_one_has_no_crossing_term(self, ev, pot_pair):
        report = decoupling_1d_check(ev, pot_pair, 7, 1, 0, word((0, 0, 0)),
                                     q_bar=1)
        from shiftgibbs import boundary_norm_bound, norms
        expected = 2 * (boundary_norm_bound(pot_pair, 1) + 0.0
                        + 6 * 1 * norms(pot_pair).norm)
        assert report.constants["log_C_prime"] == pytest.approx(expected)

    def test_window_preconditions(self, ev, pot_zero):
        with pytest.raises(ValidationError, match="window preconditions"):
            decoupling_1d_check(ev, pot_zero, 7, 1, 0, word((0, 0, 0)), q_bar=2)
        with pytest.raises(ValidationError, match="window preconditions"):
            decoupling_1d_check(ev, pot_zero, 5, 1, 0, word((0, 0, 0)), q_bar=2)

    @pytest.mark.parametrize("q_bar", [None, 1])
    def test_reducible_refused(self, reducible, pot_zero, q_bar):
        with pytest.raises(ValidationError,
                           match="no finite gap: presentation is not irreducible"):
            decoupling_1d_check(reducible, pot_zero, 8, 1, 0, word((0, 0, 0)),
                                q_bar=q_bar)


def fraction_ints(values):
    """The reference route: each term through exact rational arithmetic."""
    return [int(Fraction(float(t)) * (1 << _SHIFT)) for t in values]


class TestExactTerms:
    def test_dyadic_ints_match_fraction_form(self):
        rng = np.random.default_rng(11)
        values = ([0.0, 1.0, 5e-324, 2.0 ** -1022, 0.5, 1.0 - 2.0 ** -53]
                  + rng.random(200).tolist() + (rng.random(50) ** 40).tolist())
        ints = _dyadic_ints(values)
        assert ints == fraction_ints(values)
        assert ints[:4] == [0, 1 << _SHIFT, 1 << (_SHIFT - 1074),
                            1 << (_SHIFT - 1022)]

    def test_exact_terms_relative_to_max(self):
        # a normal, a subnormal and a vanishing term below the scale
        energies = np.array([-3.0, 0.25, -700.0, -740.0, -746.0, 0.25])
        ints, scale = _exact_terms(energies)
        assert scale == 0.25
        assert ints == fraction_ints(np.exp(energies - scale))
        assert ints[1] == ints[5] == 1 << _SHIFT and ints[4] == 0


class TestWeakGibbsScan:
    def test_bernoulli_exact(self, full, pot_site):
        mu = equilibrium_measure(full, pot_site)
        report = weak_gibbs_scan(mu, pot_site, mu.log_lambda, range(1, 7))
        for (_m, d, bound) in report.rows:
            assert d <= 1e-10
            assert d <= bound

    def test_golden_zero_potential(self, gm, pot_zero):
        mu = equilibrium_measure(gm, pot_zero)
        report = weak_gibbs_scan(mu, pot_zero, mu.log_lambda, range(1, 9))
        rows = {m: (d, b) for (m, d, b) in report.rows}
        assert rows[8][0] < rows[2][0]
        assert rows[8][0] <= 0.2
        for m, (d, b) in rows.items():
            assert d <= b

    def test_delta_to_n(self, gm, pot_zero):
        mu = equilibrium_measure(gm, pot_zero)
        report = weak_gibbs_scan(mu, pot_zero, mu.log_lambda, range(1, 9))
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
            weak_gibbs_scan(mu, pot_site, mu.log_lambda, [12])


def oracle_rows(measure, potential, m_list):
    """Scan rows (m, D_m) by the per-word route: every allowed word through
    the batch energy and forward kernels."""
    presentation = measure.presentation
    rows = []
    for m in sorted(m_list):
        length = 2 * m + 1
        worst = 0.0
        for block in presentation.iter_word_blocks(length):
            dev = np.abs(cylinder_log_probs(measure, block)
                         - word_energies(presentation, potential, block)
                         + length * measure.log_lambda)
            worst = max(worst, float(dev.max()))
        rows.append((m, worst / length))
    return rows


BUNDLED_SYSTEMS = [(shift, pot)
                   for shift in (full_shift_2, golden_mean, even_shift)
                   for pot in (zero, single_site, equal_pair)]


class TestWeakGibbsScanOracle:
    @pytest.mark.parametrize("shift, pot", BUNDLED_SYSTEMS,
                             ids=lambda f: f.__name__)
    def test_agrees_with_per_word_route(self, shift, pot):
        presentation, potential = shift(), pot()
        mu = equilibrium_measure(presentation, potential)
        report = weak_gibbs_scan(mu, potential, mu.log_lambda, range(1, 9))
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
        report = weak_gibbs_scan(mu, potential, mu.log_lambda, range(0, 7))
        want = oracle_rows(mu, potential, range(0, 7))
        for (_m, d, _b), (_m2, d_oracle) in zip(report.rows, want):
            assert abs(d - d_oracle) <= 1e-12

    @pytest.mark.parametrize("m_list", [[1, 2, 5], [3, 3], [5, 1, 2], []])
    def test_m_lists(self, ev, pot_pair, m_list):
        mu = equilibrium_measure(ev, pot_pair)
        report = weak_gibbs_scan(mu, pot_pair, mu.log_lambda, m_list)
        want = oracle_rows(mu, pot_pair, m_list)
        assert [m for (m, _d, _b) in report.rows] == sorted(m_list)
        for (_m, d, _b), (_m2, d_oracle) in zip(report.rows, want):
            assert abs(d - d_oracle) <= 1e-12

    def test_blocked_walk_matches_one_block(self, full, pot_site, monkeypatch):
        mu = equilibrium_measure(full, pot_site)
        whole = weak_gibbs_scan(mu, pot_site, mu.log_lambda, range(1, 7))
        monkeypatch.setattr(_kernels, "SCAN_BLOCK", 8)
        blocked = weak_gibbs_scan(mu, pot_site, mu.log_lambda, range(1, 7))
        for (m, d, b), (m2, d2, b2) in zip(blocked.rows, whole.rows):
            assert (m, b) == (m2, b2)
            assert d == pytest.approx(d2, rel=0, abs=1e-15)

    def test_guard_checks_the_deepest_length_first(self, full, pot_site,
                                                   monkeypatch):
        calls = []
        monkeypatch.setattr(_kernels, "scan_deviation",
                            lambda *args: calls.append(args))
        mu = equilibrium_measure(full, pot_site)
        with pytest.raises(VolumeGuardError,
                           match="33554432 words of length 25 exceed the cap"):
            weak_gibbs_scan(mu, pot_site, mu.log_lambda, [1, 12])
        assert calls == []

    def test_negative_m_rejected(self, full, pot_site):
        mu = equilibrium_measure(full, pot_site)
        with pytest.raises(ValidationError, match="m must be nonnegative"):
            weak_gibbs_scan(mu, pot_site, mu.log_lambda, [-1, 2])
