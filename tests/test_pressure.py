import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from shiftgibbs import (SoficPresentation, ValidationError, Word,
                        add_potentials, brute_partition, build_transfer,
                        finite_pressure, indicator_potential, perron,
                        pressure_limit)
from shiftgibbs.bundled import BINARY, SITE_FIELD, data_path
from shiftgibbs.fileio import load_potential, load_shift
from shiftgibbs.potentials import Potential, ShapeTable
from shiftgibbs.pressure import (_PERRON_MAX_ITER, PERRON_RESIDUAL_TOL,
                                 PERRON_TOL, _context_edges, _dp_log_partition,
                                 _partition_graph, log_sum_exp, word_energies)
from shiftgibbs.shifts import Alphabet, strongly_connected, support_period
from test_potentials import step_energy
from test_verify import range_three_sft

PHI = (1 + math.sqrt(5)) / 2


def densify(succ, weight):
    """The dense (K, S, S) form of a (letter, state) table: entry [a, i, j]
    is ``weight[a, i]`` where ``succ[a, i]`` is j, zero elsewhere (a target
    of S, the dead sink, is dropped)."""
    K, S = succ.shape
    dense = np.zeros((K, S, S + 1))
    dense[np.arange(K)[:, None], np.arange(S), succ] = weight
    return dense[:, :, :S]


def transfer_matrix(transfer):
    return densify(transfer.succ, transfer.weight).sum(axis=0)


def perron_residual(transfer, lam, h, nu):
    """Relative sup-norm residual of the Perron data on the dense transfer
    matrix, the larger of the right and the left one."""
    m = transfer_matrix(transfer)
    return max(np.abs(m @ h - lam * h).max() / np.abs(h).max(),
               np.abs(nu @ m - lam * nu).max() / np.abs(nu).max())


def cover_support(transfer):
    """The boolean S x S support of the cover (the dead sink dropped)."""
    S = transfer.n_states
    support = np.zeros((S, S + 1), dtype=bool)
    support[np.arange(S), transfer.succ] = True
    return support[:, :S]


def random_right_resolving(rng):
    """A seeded essential right-resolving presentation on 1-5 vertices and
    1-3 letters.  Vertices get levels mod a period p in {1, 2, 3} and edges
    only run from level l to level l + 1, so p divides the period; sparse
    draws leave some of them reducible."""
    while True:
        n, K, p = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
        level = [rng.randrange(p) for _ in range(n)]
        edges = []
        for v in range(n):
            targets = [w for w in range(n) if level[w] == (level[v] + 1) % p]
            for a in range(K):
                if targets and rng.random() < 0.6:
                    edges.append((f"v{v}", f"v{rng.choice(targets)}", str(a)))
        try:
            return SoficPresentation(Alphabet(tuple(map(str, range(K)))),
                                     [f"v{v}" for v in range(n)], edges)
        except ValidationError:  # not essential: draw again
            continue


class TestBrutePartition:
    def test_full_zero(self, full, pot_zero):
        assert brute_partition(full, pot_zero, 2).log_z == pytest.approx(
            5 * math.log(2), abs=1e-12)

    def test_golden_zero(self, gm, pot_zero):
        assert brute_partition(gm, pot_zero, 1).log_z == pytest.approx(
            math.log(5), abs=1e-12)

    def test_bernoulli_site(self, full, pot_site):
        assert brute_partition(full, pot_site, 0).log_z == pytest.approx(
            math.log(1 + math.exp(SITE_FIELD)), abs=1e-12)


class TestFinitePressure:
    def test_full_zero_any_n(self, full, pot_zero):
        for n in (0, 3, 17, 60):
            assert finite_pressure(full, pot_zero, n) == pytest.approx(
                math.log(2), abs=1e-12)

    def test_golden_n2(self, gm, pot_zero):
        # 13 allowed 5-words
        assert finite_pressure(gm, pot_zero, 2) == pytest.approx(
            math.log(13) / 5, abs=1e-12)

    def test_bernoulli_product_structure(self, full, pot_site):
        target = math.log(1 + math.exp(SITE_FIELD))
        for n in (1, 4, 25):
            assert finite_pressure(full, pot_site, n, method="product") == \
                pytest.approx(target, abs=1e-12)

    def test_unknown_method_rejected(self, full, pot_zero):
        with pytest.raises(ValidationError, match="unknown method 'auto'"):
            finite_pressure(full, pot_zero, 1, method="auto")

    def test_routes_agree(self, gm, ev, full, pot_zero, pot_site, pot_pair):
        for pres in (gm, ev, full):
            for pot in (pot_zero, pot_site, pot_pair):
                for n in range(0, 6):
                    a = finite_pressure(pres, pot, n, method="brute")
                    b = finite_pressure(pres, pot, n, method="product")
                    assert b == pytest.approx(a, rel=1e-10)


class TestNegativeLengths:
    """Every library route refuses a negative word length."""

    REFUSED = "word length must be nonnegative, not -1"

    @pytest.mark.parametrize("method", ["brute", "product"])
    def test_finite_pressure(self, ev, pot_pair, method):
        with pytest.raises(ValidationError, match=self.REFUSED):
            finite_pressure(ev, pot_pair, -1, method)

    def test_pressure_limit(self, ev, pot_pair):
        with pytest.raises(ValidationError, match=self.REFUSED):
            pressure_limit(ev, pot_pair, (2, -1))

    def test_partition_pass(self, ev, pot_pair):
        with pytest.raises(ValidationError, match=self.REFUSED):
            _dp_log_partition(ev, pot_pair, [3, -1, 0])
        with pytest.raises(ValidationError, match=self.REFUSED):
            _dp_log_partition(ev, pot_pair, [-1], pot_pair)

    def test_brute_partition(self, ev, pot_pair):
        with pytest.raises(ValidationError, match=self.REFUSED):
            brute_partition(ev, pot_pair, -1)


class TestBuildTransfer:
    def test_full_zero_matrix(self, full, pot_zero):
        t = build_transfer(full, pot_zero)
        assert t.n_states == 2  # range forced to 1: one state per letter
        assert np.allclose(transfer_matrix(t), np.ones((2, 2)))
        lam, h, _nu = perron(t)
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(h, h[0])

    def test_golden_adjacency(self, gm, pot_zero):
        t = build_transfer(gm, pot_zero)
        assert np.allclose(transfer_matrix(t), [[1.0, 1.0], [1.0, 0.0]])

    def test_bernoulli_columns(self, full, pot_site):
        t = build_transfer(full, pot_site)
        expected = np.array([[1.0, math.exp(SITE_FIELD)]] * 2)
        assert np.allclose(transfer_matrix(t), expected)
        lam, _h, _nu = perron(t)
        assert lam == pytest.approx(1 + math.exp(SITE_FIELD), abs=1e-12)

    @pytest.mark.parametrize("value", [709.0, -745.0, 1e-300])
    def test_weights_in_range_are_exact(self, full, value):
        # the largest and a subnormal step weight still fit in float64
        site = Potential(BINARY, 0, (ShapeTable((0,), {(1,): value}),))
        t = build_transfer(full, site)
        assert transfer_matrix(t)[0, 1] == math.exp(value)

    @pytest.mark.parametrize("value", [710.0, 800.0, -746.0, -800.0])
    def test_weights_out_of_range_refused(self, full, value):
        site = Potential(BINARY, 0, (ShapeTable((0,), {(1,): value}),))
        with pytest.raises(ValidationError, match="leaves the float64 range"):
            build_transfer(full, site)

    def test_non_right_resolving_rejected(self, pot_zero):
        pres = SoficPresentation(
            BINARY, ("a", "b"),
            (("a", "a", "0"), ("a", "b", "0"), ("b", "a", "1"), ("b", "a", "0")))
        with pytest.raises(ValidationError, match="right-resolving"):
            build_transfer(pres, pot_zero)


class TestPerron:
    def test_golden_ratio(self, gm, pot_zero):
        lam, h, nu = perron(build_transfer(gm, pot_zero))
        assert lam == pytest.approx(PHI, abs=1e-12)
        assert (h > 0).all() and (nu > 0).all()
        assert nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(nu @ h) == pytest.approx(1.0, abs=1e-12)

    def test_residual(self, gm, ev, pot_zero, pot_pair):
        for pres in (gm, ev):
            for pot in (pot_zero, pot_pair):
                t = build_transfer(pres, pot)
                lam, h, nu = perron(t)
                assert perron_residual(t, lam, h, nu) <= 1e-11

    def test_reducible_rejected(self, reducible, pot_zero):
        t = build_transfer(reducible, pot_zero)
        with pytest.raises(ValidationError, match="reducible transfer system"):
            perron(t)

    def test_periodic_rejected(self, periodic, pot_zero):
        t = build_transfer(periodic, pot_zero)
        with pytest.raises(ValidationError, match="periodic transfer system"):
            perron(t)

    @staticmethod
    def check_cover_predicates(pres):
        """For contexts of 1-3 letters (ranges 0-3), the cover's states are
        the (vertex, context) pairs that R-edge paths reach, its own graph
        predicates equal the presentation's flags, and ``perron`` refuses
        exactly by them."""
        for span in range(4):
            t = build_transfer(pres, Potential(pres.alphabet, span, ()))
            R, K = t.context_len, len(pres.alphabet)
            keys = {v * K ** R for v in range(pres.n_vertices)}
            for _ in range(R):
                keys = {d * K ** R + (key * K + a) % K ** R for key in keys
                        for (s, d, a) in pres.edges if s == key // K ** R}
            assert np.array_equal(t.keys, sorted(keys))
            support = cover_support(t)
            irreducible = strongly_connected(support)
            assert irreducible == pres.irreducible
            if irreducible:
                assert support_period(support) == pres.period
            if irreducible and pres.period == 1:
                lam, h, nu = perron(t)
                assert perron_residual(t, lam, h, nu) <= 1e-11
            else:
                refusal = "periodic" if irreducible else "reducible"
                with pytest.raises(ValidationError,
                                   match=f"^{refusal} transfer system"):
                    perron(t)

    @pytest.mark.parametrize("name", ["full2.shift", "golden_mean.shift",
                                      "golden_mean.sft", "even.shift",
                                      "reducible.shift", "periodic.shift"])
    def test_cover_predicates_match_presentation(self, name):
        self.check_cover_predicates(load_shift(data_path(name)))

    def test_cover_predicates_on_random_presentations(self):
        rng = random.Random(21)
        kinds = set()
        for _ in range(60):
            pres = random_right_resolving(rng)
            assert pres.right_resolving
            self.check_cover_predicates(pres)
            kinds.add("reducible" if not pres.irreducible
                      else "periodic" if pres.period > 1 else "primitive")
        assert kinds == {"reducible", "periodic", "primitive"}

    def test_wide_cover_stays_small(self, full):
        # shapes (0, 13) and (0, 1) on full2: 8,192 cover states, so no
        # S x S array may be built (a boolean one is 64 MiB)
        pot = Potential(BINARY, 13, (ShapeTable((0, 13), {(1, 1): 0.25}),
                                     ShapeTable((0, 1), {(0, 1): -0.5})))
        t = build_transfer(full, pot)
        assert t.n_states == 8192
        tracemalloc.start()
        try:
            perron(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def reference_perron(transfer):
    """The power iteration with two temporaries per product (``np.append``
    of the dead sink's 0, then the gather) and the residual on every step:
    ``perron``'s oracle, which it must match bit for bit."""
    succ, weight, S = transfer.succ, transfer.weight, transfer.n_states

    def pull(x):
        return (weight * np.append(x, 0.0)[succ]).sum(axis=0)

    def push(v):
        return np.bincount(succ.ravel(), (weight * v).ravel(), minlength=S + 1)[:S]

    def iterate(product):
        x = np.ones(S)
        x /= x.sum()
        y = product(x)
        lam = 0.0
        for _ in range(_PERRON_MAX_ITER):
            lam_new = y.sum()
            x = y / lam_new
            y = product(x)
            res = np.abs(y - lam_new * x).max() / np.abs(x).max()
            done = (abs(lam_new - lam) <= PERRON_TOL * abs(lam_new)
                    and res <= PERRON_RESIDUAL_TOL)
            lam = lam_new
            if done:
                return lam, x
        raise ValidationError("power iteration failed to converge")

    lam, h = iterate(pull)
    lam_left, nu = iterate(push)
    lam = 0.5 * (lam + lam_left)
    nu = nu / nu.sum()
    h = h / float(nu @ h)
    return float(lam), h, nu


def subnormal_pair(val_11):
    """The range-1 potential on full2 whose nu has a subnormal entry."""
    return Potential(BINARY, 1, (ShapeTable(
        (0, 1), {(0, 0): 700.0, (0, 1): -700.0, (1, 1): float(val_11)}),))


class TestPerronOracle:
    """``perron`` against ``reference_perron``: lambda, h and nu equal bit
    for bit."""

    @staticmethod
    def check(presentation, potential):
        transfer = build_transfer(presentation, potential)
        lam, h, nu = perron(transfer)
        want_lam, want_h, want_nu = reference_perron(transfer)
        assert lam == want_lam
        for got, want in ((h, want_h), (nu, want_nu)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_bundled_pairs(self):
        pairs = _bundled_pairs()
        assert len(pairs) == 12
        for shift, pot in pairs:
            pres = load_shift(data_path(shift))
            self.check(pres, load_potential(data_path(pot), pres.alphabet))

    def test_range_three_sft(self):
        self.check(*range_three_sft(1))

    def test_random_presentations(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(60):
            pres = random_right_resolving(rng)
            if not (pres.irreducible and pres.aperiodic):
                continue
            K = len(pres.alphabet)
            for span in (1, 2):
                values = {pat: rng.uniform(-2, 2) for pat in
                          itertools.product(range(K), repeat=2)}
                self.check(pres, Potential(pres.alphabet, span,
                                           (ShapeTable((0, span), values),)))
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("val_11", [699, 705, 709])
    def test_subnormal_entries(self, full, val_11):
        self.check(full, subnormal_pair(val_11))

    def test_slow_second_eigenvalue_still_refused(self, ev):
        # lambda_2 / lambda is about -0.990 on this cover, so the plain
        # iteration does not get the residual under its bound in time
        pot = Potential(BINARY, 0, (ShapeTable((0,), {(0,): 5.0}),))
        with pytest.raises(ValidationError, match="power iteration failed to converge"):
            perron(build_transfer(ev, pot))


class TestPressureLimit:
    def test_full_exact(self, full, pot_zero):
        est = pressure_limit(full, pot_zero)
        assert est.log_lambda == pytest.approx(math.log(2), abs=1e-12)
        for (_n, p_n, _env) in est.finite_volume:
            assert p_n == pytest.approx(math.log(2), abs=1e-12)

    def test_golden_ratio_value(self, gm, pot_zero):
        est = pressure_limit(gm, pot_zero)
        assert est.log_lambda == pytest.approx(math.log(PHI), abs=1e-9)
        assert est.log_lambda == pytest.approx(0.481211825059603, abs=1e-9)

    def test_even_shift_shares_entropy(self, ev, pot_zero):
        est = pressure_limit(ev, pot_zero)
        assert est.log_lambda == pytest.approx(math.log(PHI), abs=1e-9)
        # independent check: the word-count growth ratio approaches the
        # golden ratio (a unit eigenvalue in the count recursion makes the
        # ratio converge like PHI**-L, so use a longer window)
        ratio = ev.word_count(41) / ev.word_count(40)
        assert ratio == pytest.approx(PHI, abs=1e-8)

    def test_envelope_holds_and_decays(self, gm, ev, full, pot_zero, pot_site,
                                       pot_pair):
        for pres in (gm, ev, full):
            for pot in (pot_zero, pot_site, pot_pair):
                est = pressure_limit(pres, pot)
                for (n, p_n, env) in est.finite_volume:
                    assert abs(p_n - est.log_lambda) <= env
                # constant numerator: envelope scales like 1/(2n+1)
                scaled = [(2 * n + 1) * env for (n, _p, env) in est.finite_volume
                          if n >= pot.span]
                assert max(scaled) - min(scaled) <= 1e-9

    @pytest.mark.parametrize("val_11", [699, 705, 709])
    def test_envelope_finite_with_a_subnormal_multiplier(self, full, val_11):
        # nu has a subnormal entry, so max/min of the multipliers overflows
        pot = subnormal_pair(val_11)
        _lam, h, nu = perron(build_transfer(full, pot))
        assert min(h.min(), nu.min()) < 2.0 ** -1022
        est = pressure_limit(full, pot, ladder=(1, 2, 3, 4))
        for (_n, p_n, env) in est.finite_volume:
            assert math.isfinite(env)
            assert abs(p_n - est.log_lambda) <= env

    def test_residual_reported(self, ev, pot_pair):
        # the limit is the log of the Perron root, whose data solve the
        # eigenproblem to the residual bound
        t = build_transfer(ev, pot_pair)
        lam, h, nu = perron(t)
        assert pressure_limit(ev, pot_pair).log_lambda == math.log(lam)
        assert perron_residual(t, lam, h, nu) <= 1e-11

    def test_scaling_covariance(self, gm, ev, pot_pair):
        c = 0.37
        const = Potential(BINARY, 0,
                          (ShapeTable((0,), {(0,): c, (1,): c}),))
        for pres in (gm, ev):
            shifted = add_potentials(pot_pair, const)
            base = pressure_limit(pres, pot_pair)
            moved = pressure_limit(pres, shifted)
            assert moved.log_lambda - base.log_lambda == pytest.approx(c, abs=1e-12)
            for (n, p_n, _e), (_n2, p_n2, _e2) in zip(base.finite_volume,
                                                      moved.finite_volume):
                assert p_n2 - p_n == pytest.approx(c, abs=1e-12)


SHIFT_FILES = ("full2.shift", "golden_mean.shift", "golden_mean.sft",
               "even.shift", "reducible.shift", "periodic.shift")
POTENTIAL_FILES = ("zero.pot", "site_a.pot", "pair_beta.pot")


def _bundled_pairs():
    """Every bundled irreducible, aperiodic shift file with every bundled
    potential file."""
    pairs = []
    for shift in SHIFT_FILES:
        pres = load_shift(data_path(shift))
        if pres.irreducible and pres.aperiodic:
            pairs += [(shift, pot) for pot in POTENTIAL_FILES]
    return pairs


def cw_bracket(transfer, x, left=False):
    """Exact Collatz-Wielandt bracket of the float weight table: the least
    and the greatest (M x)_i / x_i, or (x M)_j / x_j with ``left``, as
    ``Fraction``s over the weights and the entries of a positive x, summed
    exactly.  The Perron root of the table lies between them."""
    S = transfer.n_states
    xs = [Fraction(v) for v in x.tolist()]
    acc = [Fraction(0)] * S
    for targets, weights in zip(transfer.succ.tolist(), transfer.weight.tolist()):
        for i, (j, w) in enumerate(zip(targets, weights)):
            if j == S:  # the dead sink
                continue
            if left:
                acc[j] += xs[i] * Fraction(w)
            else:
                acc[i] += Fraction(w) * xs[j]
    ratios = [total / v for total, v in zip(acc, xs)]
    return min(ratios), max(ratios)


def perron_bracket(transfer):
    """``perron``'s lambda and the intersection of the brackets of its own
    h and nu."""
    lam, h, nu = perron(transfer)
    (lo_h, hi_h), (lo_nu, hi_nu) = cw_bracket(transfer, h), cw_bracket(transfer, nu, True)
    return lam, max(lo_h, lo_nu), min(hi_h, hi_nu)


def bracket_systems():
    """The 12 bundled primitive pairs and the 100-state SFT, as transfers."""
    systems = []
    for shift, pot in _bundled_pairs():
        pres = load_shift(data_path(shift))
        potential = load_potential(data_path(pot), pres.alphabet)
        systems.append((f"{shift}/{pot}", build_transfer(pres, potential)))
    systems.append(("range-3 SFT", build_transfer(*range_three_sft(1))))
    return systems


class TestCollatzWielandtBracket:
    """The exact check of ROADMAP item 13, on the test side: every ratio of
    a positive vector bounds the Perron root of the float weight table."""

    def test_eigvals_inside_the_bracket(self):
        systems = bracket_systems()
        assert len(systems) == 13
        assert max(t.n_states for _name, t in systems) == 100
        eps = Fraction(2) ** -52
        for name, transfer in systems:
            _lam, lo, hi = perron_bracket(transfer)
            assert lo <= hi, name
            eig = float(np.linalg.eigvals(transfer_matrix(transfer)).real.max())
            # each weight is exp(step) within 1 ulp, and eigvals is good to
            # a few ulps of lambda
            slack = 4 * Fraction(math.ulp(eig))
            assert lo * (1 - eps) - slack <= Fraction(eig) <= hi * (1 + eps) + slack, name

    @pytest.mark.parametrize("shift", ["golden_mean.shift", "even.shift"])
    def test_bracket_holds_phi_under_the_zero_potential(self, shift):
        # every weight is exactly 1.0, so the bracket holds the root of
        # x^2 - x - 1 exactly
        pres = load_shift(data_path(shift))
        transfer = build_transfer(pres, load_potential(data_path("zero.pot"),
                                                       pres.alphabet))
        _lam, lo, hi = perron_bracket(transfer)
        assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1

    def test_perturbed_vector_widens_the_bracket(self):
        # the check is not vacuous: h off by 1e-10 relative in one entry
        # shows in its own bracket
        for name, transfer in bracket_systems():
            _lam, h, _nu = perron(transfer)
            lo, hi = cw_bracket(transfer, h)
            assert (hi - lo) / lo < Fraction(1, 10 ** 11), name
            h[0] *= 1 + 1e-10
            lo, hi = cw_bracket(transfer, h)
            assert (hi - lo) / lo > Fraction(5, 10 ** 11), name

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 13 and 1: perron stops "
                       "on successive lambdas, not on its bracket; on golden_mean "
                       "/ pair_beta lambda = 1.8813827597440413 lies about 35 ulp "
                       "below lo = 1.8813827597440491")
    @pytest.mark.parametrize("shift", ["golden_mean.shift", "golden_mean.sft"])
    def test_perron_lambda_inside_its_own_bracket(self, shift):
        pres = load_shift(data_path(shift))
        transfer = build_transfer(pres, load_potential(data_path("pair_beta.pot"),
                                                       pres.alphabet))
        lam, lo, hi = perron_bracket(transfer)
        assert lo <= Fraction(lam) <= hi


def _range_three(seed: int) -> Potential:
    rng = random.Random(seed)
    shapes = tuple(
        ShapeTable(offs, {pat: rng.uniform(-1, 1) for pat in
                          itertools.product((0, 1), repeat=len(offs))})
        for offs in ((0,), (0, 1), (0, 3), (0, 2, 3)))
    return Potential(BINARY, 3, shapes)


BRUTE_WORDS = 1 << 13  # largest word list the ladder oracle enumerates


def _brute_log_z(pres, potential, length, fixed):
    """log Z over the enumerated words of one length that match the pins."""
    words = pres.word_matrix(length)
    keep = np.ones(words.shape[0], dtype=bool)
    for pos, a in fixed.items():
        if pos < length:
            keep &= words[:, pos] == a
    return log_sum_exp(word_energies(potential, words[keep]))


class TestLadderOracle:
    """One partition-DP pass against per-length runs and brute force."""

    @pytest.mark.parametrize("shift, pot", _bundled_pairs())
    def test_rungs_match_single_length_runs(self, shift, pot):
        pres = load_shift(data_path(shift))
        potential = load_potential(data_path(pot), pres.alphabet)
        est = pressure_limit(pres, potential, tuple(range(1, 13)))
        assert [n for (n, _p, _e) in est.finite_volume] == list(range(1, 13))
        for (n, p_n, _env) in est.finite_volume:
            length = 2 * n + 1
            [alone] = _dp_log_partition(pres, potential, [length])
            assert p_n == alone / length
            if pres.word_count(length) <= BRUTE_WORDS:
                brute = brute_partition(pres, potential, n).log_z / length
                assert p_n == pytest.approx(brute, rel=0, abs=1e-12)

    def test_range_three_first_rung_enumerated(self, ev):
        potential = _range_three(5)
        est = pressure_limit(ev, potential, tuple(range(1, 9)))
        for (n, p_n, _env) in est.finite_volume:
            length = 2 * n + 1
            [alone] = _dp_log_partition(ev, potential, [length])
            assert p_n == alone / length
            brute = brute_partition(ev, potential, n).log_z / length
            assert p_n == pytest.approx(brute, rel=0, abs=1e-12)

    def test_unsorted_ladder_with_repeats(self, ev, pot_pair):
        est = pressure_limit(ev, pot_pair, (3, 1, 3))
        assert [n for (n, _p, _e) in est.finite_volume] == [3, 1, 3]
        for (n, p_n, _env) in est.finite_volume:
            [alone] = _dp_log_partition(ev, pot_pair, [2 * n + 1])
            assert p_n == alone / (2 * n + 1)

    @pytest.mark.parametrize("shift", SHIFT_FILES)
    def test_head_lengths_match_brute(self, shift):
        # lengths up to R + 1 read the per-position head tables
        pres = load_shift(data_path(shift))
        for potential in [load_potential(data_path(pot), pres.alphabet)
                          for pot in POTENTIAL_FILES] + [_range_three(3)]:
            lengths = list(range(1, max(1, potential.span) + 2))
            values = _dp_log_partition(pres, potential, lengths)
            for length, value in zip(lengths, values):
                brute = _brute_log_z(pres, potential, length, {})
                assert value == pytest.approx(brute, rel=0, abs=1e-12)

    def test_steep_mixed_sign_shapes(self, full, ev):
        # step energies of +-800: the keys' log weights lie far apart, and
        # each target is shifted by its own maximum
        potential = Potential(BINARY, 1, (
            ShapeTable((0,), {(0,): 800.0, (1,): -800.0}),
            ShapeTable((0, 1), {(1, 1): 800.0, (0, 1): -800.0})))
        lengths = list(range(1, 12))
        for pres in (full, ev):
            values = _dp_log_partition(pres, potential, lengths)
            for length, value in zip(lengths, values):
                brute = _brute_log_z(pres, potential, length, {})
                assert value == pytest.approx(brute, rel=1e-12, abs=0)

    def test_no_lengths(self, ev, pot_pair):
        assert _dp_log_partition(ev, pot_pair, []) == []

    def test_overflowing_log_z_refused(self, full):
        # each letter 1 adds 1e308: log Z is +inf from length 2 on
        huge = Potential(BINARY, 0, (ShapeTable((0,), {(1,): 1e308}),))
        assert _dp_log_partition(full, huge, [1, 0]) == [1e308, 0.0]
        with pytest.raises(ValidationError,
                           match="log partition of length 2 leaves the float64 range"):
            _dp_log_partition(full, huge, [1, 2])

    def test_overflowing_word_energy_refused(self, full):
        huge = Potential(BINARY, 0, (ShapeTable((0,), {(1,): 1e308}),))
        with pytest.raises(ValidationError,
                           match="word energy leaves the float64 range"):
            word_energies(huge, np.array([[1, 0], [1, 1]]))


def _brute_mean(pres, potential, along, length):
    """The Gibbs mean of ``along``'s word energies over the enumerated
    words of one length, weighted by ``potential``."""
    words = pres.word_matrix(length)
    log_w = word_energies(potential, words)
    return float(np.exp(log_w - log_sum_exp(log_w)) @ word_energies(along, words))


class TestAlongMean:
    """The pass with ``along`` against the brute Gibbs mean of its word
    energies: d/dt log Z(f + t g) at t = 0."""

    LENGTHS = [9, 0, 3, 9, 1, 12, 2]  # unsorted, with a repeat and 0

    def check(self, pres, potential, along):
        values = _dp_log_partition(pres, potential, self.LENGTHS, along)
        for length, value in zip(self.LENGTHS, values):
            brute = _brute_mean(pres, potential, along, length)
            assert value == pytest.approx(brute, rel=1e-12, abs=0)

    @pytest.mark.parametrize("shift, pot", _bundled_pairs())
    def test_bundled_pairs(self, shift, pot):
        pres = load_shift(data_path(shift))
        potential = load_potential(data_path(pot), pres.alphabet)
        u_bar = Word(pres.alphabet, -1, tuple(int(a) for a in pres.word_matrix(3)[-1]))
        for along in (potential, indicator_potential(pres, u_bar)):
            self.check(pres, potential, along)

    def test_range_three_potential(self, ev):
        self.check(ev, _range_three(5), _range_three(6))

    def test_along_wider_than_potential(self, ev, pot_zero):
        # the graph's context comes from the indicator's range 2, not the
        # zero potential's range 0
        self.check(ev, pot_zero, indicator_potential(ev, Word(BINARY, -1, (1, 0, 0))))


def tuple_transfer(presentation, potential):
    """The cover as (vertex, context-tuple) pairs: the sorted states reached
    by R-edge paths from every vertex, the weighted transitions and their
    step energies (``step_energy``), both dense (K, S, S)."""
    R = max(1, potential.span)
    frontier = {(v, ()) for v in range(presentation.n_vertices)}
    for _ in range(R):
        nxt = set()
        for (v, ctx) in frontier:
            for e in presentation.out_edges(v):
                nxt.add((presentation.edge_target(e),
                         (ctx + (presentation.edge_symbol(e),))[-R:]))
        frontier = nxt
    states = tuple(sorted(frontier))
    index = {s: i for i, s in enumerate(states)}
    trans = np.zeros((len(presentation.alphabet), len(states), len(states)))
    steps = np.zeros(trans.shape)
    for (v, ctx), i in index.items():
        for e in presentation.out_edges(v):
            a = presentation.edge_symbol(e)
            j = index[(presentation.edge_target(e), (ctx + (a,))[-R:])]
            steps[a, i, j] = step_energy(potential, ctx + (a,))
            trans[a, i, j] = math.exp(steps[a, i, j])
    return states, trans, steps


class TestCoverKeys:
    """The cover's integer keys against the (vertex, context-tuple) walk."""

    def assert_matches_tuple_walk(self, presentation, potential):
        transfer = build_transfer(presentation, potential)
        states, trans, steps = tuple_transfer(presentation, potential)
        K, R = len(presentation.alphabet), transfer.context_len
        assert [(key // K ** R, tuple(key // K ** p % K for p in range(R - 1, -1, -1)))
                for key in transfer.keys.tolist()] == list(states)
        assert [transfer.state_name(i) for i in range(transfer.n_states)] == [
            presentation.vertices[v] + "|" + presentation.alphabet.text(ctx)
            for v, ctx in states]
        assert np.array_equal(densify(transfer.succ, transfer.weight), trans)
        # the step energies the class pass walks, 0 where there is no edge
        assert np.array_equal(densify(transfer.succ, transfer.step), steps)
        assert not transfer.step[transfer.succ == transfer.n_states].any()

    @pytest.mark.parametrize("shift", SHIFT_FILES)
    @pytest.mark.parametrize("pot", POTENTIAL_FILES)
    def test_bundled(self, shift, pot):
        pres = load_shift(data_path(shift))
        self.assert_matches_tuple_walk(
            pres, load_potential(data_path(pot), pres.alphabet))

    def test_range_three_on_golden_mean_sft(self):
        self.assert_matches_tuple_walk(load_shift(data_path("golden_mean.sft")),
                                       _range_three(11))

    def test_hundred_state_sft(self):
        presentation, potential = range_three_sft(1)
        self.assert_matches_tuple_walk(presentation, potential)


def visited_set_graph(presentation, n_codes):
    """``_partition_graph`` with its keys found by a search over a Python
    set of the keys visited, sorted once."""
    det, start = presentation._det
    seen = {start * n_codes}
    frontier = list(seen)
    while frontier:
        reached = _context_edges(det, np.array(frontier), n_codes)[3]
        frontier = list(set(reached.tolist()) - seen)
        seen.update(frontier)
    keys = np.array(sorted(seen))
    src, _letter, context, target = _context_edges(det, keys, n_codes)
    tgt = np.searchsorted(keys, target)
    home = int(np.searchsorted(keys, start * n_codes))
    order = np.argsort(np.append(tgt, home), kind="stable")
    src, context, tgt = (np.append(src, home)[order],
                         np.append(context, 0)[order],
                         np.append(tgt, home)[order])
    starts = np.flatnonzero(np.diff(tgt, prepend=-1))
    dead = int(np.searchsorted(tgt, home, side="right")) - 1
    return src, context, tgt, starts, home, dead


class TestPartitionGraph:
    """The grown key array against the visited-set search."""

    def assert_same_graph(self, presentation, R):
        n_codes = len(presentation.alphabet) ** R
        got = _partition_graph(presentation, n_codes)
        want = visited_set_graph(presentation, n_codes)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shift", SHIFT_FILES)
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_bundled(self, shift, R):
        self.assert_same_graph(load_shift(data_path(shift)), R)

    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_random_presentations(self, R):
        rng = random.Random(R)
        for _ in range(40):
            self.assert_same_graph(random_right_resolving(rng), R)

    def test_hundred_state_sft(self):
        self.assert_same_graph(range_three_sft(1)[0], 3)
