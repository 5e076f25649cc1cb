import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from shiftgibbs import (Potential, ShapeTable, ValidationError, Word,
                        add_potentials, boundary_norm_bound, energy, norms,
                        point_from_words)
from shiftgibbs.bundled import BINARY, SITE_FIELD, PAIR_COUPLING


def word(letters, start=0):
    return Word(BINARY, start, letters)


class TestEnergy:
    def test_zero(self, pot_zero):
        assert energy(pot_zero, word((0, 1, 1, 0))) == 0.0

    def test_single_site(self, pot_site):
        # two ones in 0110
        assert energy(pot_site, word((0, 1, 1, 0))) == pytest.approx(
            2 * SITE_FIELD, abs=1e-15)

    def test_pair_on_0011(self, pot_pair):
        # adjacent pairs 00, 01, 11: two equal
        assert energy(pot_pair, word((0, 0, 1, 1))) == pytest.approx(
            2 * PAIR_COUPLING, abs=1e-15)

    def test_translation_covariance(self, pot_pair):
        w = word((0, 0, 1, 0, 1), start=-2)
        for j in (-3, 0, 5):
            moved = word(w.letters, start=w.start - j)
            assert energy(pot_pair, moved) == energy(pot_pair, w)

    def test_overflowing_sum_refused(self):
        huge = Potential(BINARY, 0, (ShapeTable((0,), {(1,): 1e308}),))
        assert energy(huge, word((1, 0))) == 1e308
        with pytest.raises(ValidationError,
                           match="energy of 0110 leaves the float64 range"):
            energy(huge, word((0, 1, 1, 0)))

    def test_overflowing_step_energy_refused(self):
        huge = Potential(BINARY, 1, (ShapeTable((0,), {(1,): 1e308}),
                                     ShapeTable((0, 1), {(1, 1): 1e308})))
        with pytest.raises(ValidationError,
                           match="step energy of 11 leaves the float64 range"):
            huge.step_tables

    @settings(deadline=None, max_examples=60)
    @given(letters=st.lists(st.integers(0, 1), min_size=2, max_size=14),
           data=st.data())
    def test_additivity_with_interaction(self, pot_pair, pot_site, letters, data):
        pot = add_potentials(pot_pair, pot_site)
        w = word(tuple(letters))
        cut = data.draw(st.integers(0, len(letters) - 2))
        left = w.restrict(0, cut)
        right = w.restrict(cut + 1, len(letters) - 1)
        # the shape translates inside w that straddle the cut
        crossing = [s.value(tuple(letters[a + o] for o in s.offsets))
                    for s in pot.shapes
                    for a in range(max(0, cut - s.span + 1), cut + 1)
                    if a + s.span < len(letters)]
        total = energy(pot, w)
        split = energy(pot, left) + energy(pot, right) + math.fsum(crossing)
        assert total == pytest.approx(split, abs=1e-12)


class TestNorms:
    def test_zero(self, pot_zero):
        rep = norms(pot_zero)
        assert rep.norm == 0.0 and rep.cross_norm == 0.0

    def test_single_site(self, pot_site):
        rep = norms(pot_site)
        assert rep.norm == pytest.approx(SITE_FIELD)
        assert rep.cross_norm == 0.0

    def test_pair(self, pot_pair):
        rep = norms(pot_pair)
        assert rep.norm == pytest.approx(2 * PAIR_COUPLING)
        assert rep.cross_norm == 0.0

    def test_wide_shape_crossing(self):
        # shape {0,4}: the only translate disjoint from [-1,1] that meets
        # both (-inf,-2] and [2,inf) is {-2,2}
        c = 2.0
        pot = Potential(BINARY, 4, (ShapeTable((0, 4), {(1, 1): c}),))
        rep = norms(pot)
        assert rep.norm == pytest.approx(2 * c)
        assert rep.cross_norm == pytest.approx(c)
        assert rep.per_shape == (((0, 4), c),)


def boundary_norm_oracle(potential, m):
    """The boundary sum by counting, for each translate through the origin,
    the positions j in [-m, m] from which it stays inside the window."""
    total = 0.0
    for s in potential.shapes:
        sup = s.sup_norm
        if sup == 0.0:
            continue
        for o in s.offsets:
            n_inside = 0
            for j in range(-m, m + 1):
                if j - o >= -m and j - o + s.span <= m:
                    n_inside += 1
            total += sup * ((2 * m + 1) - n_inside)
    return total


def random_potential(rng):
    """A seeded binary potential of range at most 8 with 1 to 3 shapes."""
    span = rng.randrange(9)
    shapes = {(0, *[o for o in range(1, span + 1) if rng.random() < 0.5])
              for _ in range(rng.randrange(1, 4))}
    tables = tuple(
        ShapeTable(offs, {pat: rng.uniform(-3, 3) for pat in
                          itertools.product((0, 1), repeat=len(offs))})
        for offs in sorted(shapes))
    return Potential(BINARY, span, tables)


class TestBoundaryBound:
    def test_matches_counting_oracle(self, pot_zero, pot_site, pot_pair):
        rng = random.Random(2019)
        pots = [pot_zero, pot_site, pot_pair] + [random_potential(rng)
                                                 for _ in range(200)]
        for pot in pots:
            for m in range(40):
                assert boundary_norm_bound(pot, m) == boundary_norm_oracle(pot, m)

    def test_zero(self, pot_zero):
        assert boundary_norm_bound(pot_zero, 5) == 0.0

    def test_single_site(self, pot_site):
        for m in range(0, 6):
            assert boundary_norm_bound(pot_site, m) == 0.0

    def test_pair_constant(self, pot_pair):
        for m in range(1, 8):
            assert boundary_norm_bound(pot_pair, m) == pytest.approx(
                2 * PAIR_COUPLING)

    def test_density_ratio_decays(self, pot_pair):
        r10 = boundary_norm_bound(pot_pair, 10) / 21
        r100 = boundary_norm_bound(pot_pair, 100) / 201
        assert r100 < r10

    def test_pairing_vs_energy_density(self, ev, gm, full, pot_pair, pot_site):
        def pairing(pot, pt, m):
            """Window average over [-m, m] of the single-site function: the
            value / size of every translate through the site."""
            return math.fsum(
                s.value(tuple(pt.symbol_at(k - o + p) for p in s.offsets)) / s.size
                for k in range(-m, m + 1) for s in pot.shapes
                for o in s.offsets) / (2 * m + 1)

        points = [point_from_words(ev, (0,), (), (0,)),
                  point_from_words(ev, (1,), (0, 0, 1), (0,)),
                  point_from_words(ev, (1,), (0, 0), (0,)),
                  point_from_words(gm, (0, 1), (), (0,)),
                  point_from_words(full, (1, 1, 0), (), (1,)),
                  point_from_words(full, (1, 0, 0), (), (1,))]
        for pot in (pot_pair, pot_site, add_potentials(pot_pair, pot_site)):
            for pt in points:
                for m in range(0, 13):
                    gap = abs(pairing(pot, pt, m)
                              - energy(pot, pt.word(-m, m)) / (2 * m + 1))
                    assert gap <= boundary_norm_bound(pot, m) / (2 * m + 1) + 1e-14


class TestPotentialAlgebra:
    def test_add_scaled(self, pot_pair, pot_site):
        combined = add_potentials(pot_pair, pot_site, coeff=2.0)
        w = word((1, 1, 0, 1))
        assert energy(combined, w) == pytest.approx(
            energy(pot_pair, w) + 2.0 * energy(pot_site, w))

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            ShapeTable((1, 2), {(0, 0): 1.0})  # min offset must be 0
        for offsets in ((1, 0), (0, 2, 1), (0, 1, 1)):
            # unsorted offsets are refused, not re-sorted under their patterns
            with pytest.raises(ValidationError, match="not canonical"):
                ShapeTable(offsets, {(0,) * len(offsets): 1.0})
        with pytest.raises(ValidationError):
            Potential(BINARY, 0, (ShapeTable((0, 1), {(0, 0): 1.0}),))
