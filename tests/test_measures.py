import math
import tracemalloc
import warnings

import numpy as np
import pytest

from shiftgibbs import (EmptyCylinderWarning, Word, cylinder_prob,
                        equilibrium_measure, enumerate_words)
from shiftgibbs.bundled import BINARY, SITE_FIELD, data_path
from shiftgibbs.fileio import load_potential, load_shift
from shiftgibbs.measures import strong_gibbs_constant
from shiftgibbs.potentials import Potential, ShapeTable
from shiftgibbs.pressure import word_energies
from test_kernels import forward_logprob, state_path_sum
from test_pressure import _bundled_pairs, densify

PHI = (1 + math.sqrt(5)) / 2


def word(letters, start=0):
    return Word(BINARY, start, letters)


def q_by_symbol(mu):
    """The chain's transitions as one dense S x S matrix per letter."""
    return densify(mu.transfer.succ, mu.q)


def q_matrix(mu):
    return q_by_symbol(mu).sum(axis=0)


@pytest.fixture(scope="module")
def bernoulli(full, pot_site):
    return equilibrium_measure(full, pot_site)


@pytest.fixture(scope="module")
def parry(gm, pot_zero):
    return equilibrium_measure(gm, pot_zero)


@pytest.fixture(scope="module")
def even_eq(ev, pot_zero):
    return equilibrium_measure(ev, pot_zero)


class TestEquilibriumMeasure:
    def test_bernoulli_closed_form(self, bernoulli):
        q = math.exp(SITE_FIELD) / (1 + math.exp(SITE_FIELD))
        assert bernoulli.stationary == pytest.approx([1 - q, q], abs=1e-13)
        assert np.allclose(q_matrix(bernoulli), [[1 - q, q], [1 - q, q]], atol=1e-13)

    def test_parry_eigenvector_chain(self, parry):
        # from the eigenvectors of [[1,1],[1,0]]
        assert q_matrix(parry)[0, 0] == pytest.approx(1 / PHI, abs=1e-12)
        assert q_matrix(parry)[0, 1] == pytest.approx(1 / PHI ** 2, abs=1e-12)
        assert q_matrix(parry)[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert parry.stationary == pytest.approx(
            [PHI ** 2 / (1 + PHI ** 2), 1 / (1 + PHI ** 2)], abs=1e-12)

    def test_uniform_on_full_shift(self, full, pot_zero):
        mu = equilibrium_measure(full, pot_zero)
        assert mu.stationary == pytest.approx([0.5, 0.5], abs=1e-13)

    def test_non_right_resolving_rejected(self, pot_zero):
        from shiftgibbs import SoficPresentation, ValidationError
        pres = SoficPresentation(
            BINARY, ("a", "b"),
            (("a", "a", "0"), ("a", "b", "0"), ("b", "a", "1"), ("b", "a", "0")))
        with pytest.raises(ValidationError, match="right-resolving"):
            equilibrium_measure(pres, pot_zero)


class TestChainRows:
    """Each row of q is normalised by its own flow: a lone edge carries
    exactly 1 and every row sums to 1 to rounding."""

    @pytest.mark.parametrize("shift, pot", _bundled_pairs())
    def test_rows_sum_to_one(self, shift, pot):
        pres = load_shift(data_path(shift))
        mu = equilibrium_measure(pres, load_potential(data_path(pot), pres.alphabet))
        present = mu.transfer.succ < mu.transfer.n_states
        lone = present.sum(axis=0) == 1
        assert (mu.q[:, lone][present[:, lone]] == 1.0).all()
        assert np.abs(mu.q.sum(axis=0) - 1.0).max() <= 4 * np.finfo(float).eps

    def test_parry_symbol_marginal(self, parry):
        assert abs(cylinder_prob(parry, word((0,)))
                   - PHI ** 2 / (1 + PHI ** 2)) <= 5e-15


class TestCylinderProb:
    def test_bernoulli_product(self, bernoulli):
        q = math.exp(SITE_FIELD) / (1 + math.exp(SITE_FIELD))
        assert cylinder_prob(bernoulli, word((1, 0, 1))) == pytest.approx(
            q * q * (1 - q), abs=1e-14)

    def test_parry_two_block_marginal(self, parry):
        # direct 2-block distribution from (p, Q)
        p, q = parry.stationary, q_matrix(parry)
        assert cylinder_prob(parry, word((0, 0))) == pytest.approx(
            p[0] * q[0, 0], abs=1e-13)

    def test_empty_cylinder_flagged(self, parry):
        with pytest.warns(EmptyCylinderWarning):
            assert cylinder_prob(parry, word((1, 1))) == 0.0

    def test_even_shift_closed_form(self, even_eq):
        # the even shift's measure of maximal entropy gives the letter 1
        # the weight 1/sqrt(5)
        assert cylinder_prob(even_eq, word((1,))) == pytest.approx(
            1 / math.sqrt(5), abs=1e-12)

    def test_kolmogorov_consistency(self, parry, even_eq):
        for mu in (parry, even_eq):
            for letters in [(0,), (1,), (0, 0), (0, 1), (1, 0)]:
                base = cylinder_prob(mu, word(letters))
                with warnings.catch_warnings():
                    # disallowed one-letter extensions contribute probability 0
                    warnings.simplefilter("ignore", EmptyCylinderWarning)
                    right = sum(cylinder_prob(mu, word(letters + (a,)))
                                for a in (0, 1))
                    left = sum(cylinder_prob(mu, word((a,) + letters))
                               for a in (0, 1))
                assert right == pytest.approx(base, abs=1e-12)
                assert left == pytest.approx(base, abs=1e-12)

    def test_shift_invariance(self, even_eq):
        for start in (-3, 0, 7):
            w = Word(BINARY, start, (0, 0, 1, 0))
            assert cylinder_prob(even_eq, w) == pytest.approx(
                cylinder_prob(even_eq, word((0, 0, 1, 0))), abs=1e-12)

    def test_normalization(self, gm, ev, full, pot_pair, pot_zero):
        for pres in (gm, ev, full):
            for pot in (pot_pair, pot_zero):
                mu = equilibrium_measure(pres, pot)
                for m in (2, 4, 6):
                    words = pres.word_matrix(2 * m + 1)
                    total = float(np.exp(forward_logprob(mu, words)).sum())
                    assert total == pytest.approx(1.0, abs=1e-10)

    def test_state_path_enumeration_oracle(self, gm, ev, pot_pair):
        # exact stationary-chain marginal by summing over all state paths
        for pres in (gm, ev):
            mu = equilibrium_measure(pres, pot_pair)
            for m in (1, 2, 4):
                for w in enumerate_words(pres, m)[:8]:
                    brute = state_path_sum(mu, w.letters)
                    assert cylinder_prob(mu, w) == pytest.approx(brute, abs=1e-10)

    def test_wide_cover_stays_small(self, full):
        # shapes (0, 10) and (0, 1) on full2: 1,024 cover states and 2,048
        # edges, so no array of S x S floats may be built
        pot = Potential(BINARY, 10, (ShapeTable((0, 10), {(1, 1): 0.25}),
                                     ShapeTable((0, 1), {(0, 1): -0.5})))
        tracemalloc.start()
        try:
            mu = equilibrium_measure(full, pot)
            cylinder_prob(mu, word((1, 0, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mu.transfer.n_states == 1024
        assert peak < 16 * 2 ** 20


class TestStrongGibbs:
    def _deviation(self, mu, pot, m):
        pres = mu.presentation
        words = pres.word_matrix(2 * m + 1)
        u = word_energies(pot, words)
        lp = forward_logprob(mu, words)
        return float(np.abs(lp - u + (2 * m + 1) * mu.log_lambda).max())

    def test_bounded_in_m(self, gm, ev, pot_pair):
        for pres in (gm, ev):
            mu = equilibrium_measure(pres, pot_pair)
            assert self._deviation(mu, pot_pair, 10) <= \
                self._deviation(mu, pot_pair, 3) + 1e-9

    def test_certified_constant(self, gm, ev, full, pot_zero, pot_site, pot_pair):
        for pres in (gm, ev, full):
            for pot in (pot_zero, pot_site, pot_pair):
                mu = equilibrium_measure(pres, pot)
                c = strong_gibbs_constant(mu)
                for m in (1, 3, 6):
                    assert self._deviation(mu, pot, m) <= c
