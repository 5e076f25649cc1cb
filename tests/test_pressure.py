import math

import numpy as np
import pytest

from shiftgibbs import (ValidationError, add_potentials, brute_partition,
                        build_transfer, finite_pressure, perron,
                        pressure_limit)
from shiftgibbs.bundled import (BINARY, SITE_FIELD, data_path, equal_pair,
                                single_site, zero)
from shiftgibbs.fileio import load_shift
from shiftgibbs.potentials import Potential, ShapeTable, zero_potential
from shiftgibbs.pressure import TransferSystem, perron_residual

PHI = (1 + math.sqrt(5)) / 2


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

    def test_routes_agree(self, gm, ev, full, pot_zero, pot_site, pot_pair):
        for pres in (gm, ev, full):
            for pot in (pot_zero, pot_site, pot_pair):
                for n in range(0, 6):
                    a = finite_pressure(pres, pot, n, method="brute")
                    b = finite_pressure(pres, pot, n, method="product")
                    assert b == pytest.approx(a, rel=1e-10)


class TestBuildTransfer:
    def test_full_zero_matrix(self, full, pot_zero):
        t = build_transfer(full, pot_zero)
        assert t.n_states == 2  # range forced to 1: one state per letter
        assert np.allclose(t.matrix, np.ones((2, 2)))
        lam, h, _nu = perron(t)
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(h, h[0])

    def test_golden_adjacency(self, gm, pot_zero):
        t = build_transfer(gm, pot_zero)
        assert np.allclose(t.matrix, [[1.0, 1.0], [1.0, 0.0]])

    def test_bernoulli_columns(self, full, pot_site):
        t = build_transfer(full, pot_site)
        expected = np.array([[1.0, math.exp(SITE_FIELD)]] * 2)
        assert np.allclose(t.matrix, expected)
        lam, _h, _nu = perron(t)
        assert lam == pytest.approx(1 + math.exp(SITE_FIELD), abs=1e-12)

    def test_non_right_resolving_rejected(self, pot_zero):
        from shiftgibbs import SoficPresentation
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

    @pytest.mark.parametrize("name", ["full2.shift", "golden_mean.shift",
                                      "golden_mean.sft", "even.shift",
                                      "reducible.shift", "periodic.shift"])
    def test_cover_predicates_match_presentation(self, name):
        pres = load_shift(data_path(name))
        t = build_transfer(pres, zero_potential(pres.alphabet))
        assert t.irreducible == pres.irreducible
        assert t.primitive == (pres.irreducible and pres.aperiodic)


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

    def test_residual_reported(self, ev, pot_pair):
        assert pressure_limit(ev, pot_pair).residual <= 1e-11

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
