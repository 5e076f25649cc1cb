import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftgibbs import (Potential, ShapeTable, ValidationError,
                        VolumeGuardError, Word, add_potentials,
                        boundary_norm_bound, build_transfer, energy,
                        indicator_potential, norms, point_from_words)
from shiftgibbs.bundled import BINARY, SITE_FIELD, PAIR_COUPLING, data_path
from shiftgibbs.fileio import load_potential
from shiftgibbs.shifts import Alphabet, SoficPresentation
from test_verify import range_three_sft


def word(letters, start=0):
    return Word(BINARY, start, letters)


def step_energy(potential, context):
    """The definition of a step energy, context by context: the exact sum
    of the nonzero values of the shape translates inside ``context`` whose
    max lands on its last letter, refused past the float64 range."""
    pos = len(context) - 1
    terms = []
    for s in potential.shapes:
        a = pos - s.span
        if a >= 0:
            v = s.value(tuple(context[a + o] for o in s.offsets))
            if v != 0.0:
                terms.append(v)
    try:
        return math.fsum(terms)
    except OverflowError:
        raise ValidationError(f"step energy of {potential.alphabet.text(context)} "
                              "leaves the float64 range") from None


def definition_tables(potential):
    """``step_energy`` of every context, table by table, in the order of
    ``itertools.product``."""
    K = len(potential.alphabet)
    return [np.array([step_energy(potential, ctx)
                      for ctx in itertools.product(range(K), repeat=p + 1)])
            for p in range(potential.span + 1)]


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


def assert_tables_match_definition(potential):
    """The step tables equal the definition bit for bit (``np.array_equal``
    tells 0.0 from a nonzero, the sign check tells -0.0 from +0.0), or both
    refuse with the same message."""
    try:
        want = definition_tables(potential)
    except (ValidationError, ValueError) as refusal:
        with pytest.raises(type(refusal)) as got:
            potential.step_tables
        assert str(got.value) == str(refusal)
        return
    tables = potential.step_tables
    assert len(tables) == len(want)
    for table, expected in zip(tables, want):
        assert table.dtype == np.float64
        assert np.array_equal(table, expected, equal_nan=True)
        assert not np.signbit(table[table == 0.0]).any()


def overlapping_potentials(n_letters, max_span):
    """Hypothesis potentials with three to five distinct shapes on a common
    window, so that several shapes fit each step context; values mix
    zeros, -0.0, small reals and values near the float64 limit."""
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7e308,
                                       2.0 ** -1074]),
                      st.floats(-1e3, 1e3, allow_nan=False))

    @st.composite
    def build(draw):
        span = draw(st.integers(1, max_span))
        offsets = draw(st.lists(
            st.lists(st.integers(1, span), unique=True, max_size=span).map(
                lambda rest: (0, *sorted(rest))),
            min_size=3, max_size=5, unique=True))
        shapes = tuple(
            ShapeTable(offs, draw(st.dictionaries(
                st.tuples(*[st.integers(0, n_letters - 1)] * len(offs)),
                value, max_size=6)))
            for offs in sorted(offsets))
        alphabet = Alphabet(tuple("0123"[:n_letters]))
        return Potential(alphabet, span, shapes)
    return build()


class TestStepTables:
    """``Potential.step_tables`` against the definition, context by context."""

    @pytest.mark.parametrize("name", ["zero.pot", "site_a.pot", "pair_beta.pot"])
    def test_bundled(self, name):
        assert_tables_match_definition(load_potential(data_path(name), BINARY))

    def test_seeded_range_three_sft(self):
        assert_tables_match_definition(range_three_sft(1)[1])

    @pytest.mark.parametrize("t_step", [1e-4, 0.5, 3.0])
    def test_tangent_potentials(self, ev, pot_pair, t_step):
        # f +- t 1_u, as the tangent check builds them
        for u in ((1,), (0, 1, 0), (1, 0, 0, 1, 1)):
            indicator = indicator_potential(
                ev, Word(BINARY, -(len(u) // 2), u))
            for sign in (1.0, -1.0):
                assert_tables_match_definition(
                    add_potentials(pot_pair, indicator, sign * t_step))

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_overlapping_shapes(self, data):
        n_letters = data.draw(st.integers(2, 4))
        potential = data.draw(overlapping_potentials(n_letters, 4))
        assert_tables_match_definition(potential)

    def test_overflow_names_the_first_context(self):
        # three shapes; the first overflowing context is 01, the second
        # context of table 1 (010 and 0x1 overflow later as well)
        huge = Potential(BINARY, 2, (ShapeTable((0,), {(1,): 1e308}),
                                     ShapeTable((0, 1), {(0, 1): 1e308}),
                                     ShapeTable((0, 2), {(0, 1): 1e308})))
        with pytest.raises(ValidationError) as refusal:
            definition_tables(huge)
        assert str(refusal.value) == ("step energy of 01 leaves the "
                                      "float64 range")
        assert_tables_match_definition(huge)

    def test_overflow_follows_shape_order(self):
        # fsum refuses an intermediate overflow, so the order of the terms
        # matters: in the shapes' order, 101 sums 1e308 + 1e308 - 1e308
        # (as does 111) and is refused, although 1e308 - 1e308 + 1e308 is not
        first, second = (ShapeTable((0, 2), {(1, 1): 1e308}),
                         ShapeTable((0,), {(1,): 1e308}))
        cancel = ShapeTable((0, 1), {(0, 1): -1e308, (1, 1): -1e308})
        refused = Potential(BINARY, 2, (first, second, cancel))
        with pytest.raises(ValidationError,
                           match="^step energy of 101 leaves the float64 range"):
            refused.step_tables
        assert_tables_match_definition(refused)
        fine = Potential(BINARY, 2, (second, cancel, first))
        assert_tables_match_definition(fine)
        assert fine.step_tables[2][0b101] == 1e308

    def test_context_space_guard(self):
        # 17 letters, range 3: 17^4 contexts exceed the tabulation guard
        alphabet = Alphabet(tuple("0123456789abcdefg"))
        pot = Potential(alphabet, 3, (ShapeTable((0, 3), {(0, 16): 0.5}),))
        with pytest.raises(VolumeGuardError, match="transfer context space 17\\^4"):
            pot.step_tables


class TestTransferWeights:
    """``build_transfer`` sums each edge's step energy itself: it does not
    read the step tables or their context-space guard."""

    def test_step_weight_refused_on_an_earlier_edge(self, full):
        # edges in (state, letter) order: 00, 01, 10, 11.  Edge 01 has the
        # finite step 1e308, whose weight overflows; edge 11 would overflow
        # the step energy itself.
        pot = Potential(BINARY, 1, (ShapeTable((0,), {(1,): 1e308}),
                                    ShapeTable((0, 1), {(1, 1): 1e308})))
        with pytest.raises(ValidationError,
                           match=r"^step weight exp\(1e\+308\) leaves"):
            build_transfer(full, pot)

    def test_step_energy_refused_on_an_earlier_edge(self, full):
        # now edge 01 overflows the step energy, edge 11 only the weight
        pot = Potential(BINARY, 1, (ShapeTable((0,), {(1,): 1e308}),
                                    ShapeTable((0, 1), {(0, 1): 1e308})))
        with pytest.raises(ValidationError,
                           match="^step energy of 01 leaves the float64 range"):
            build_transfer(full, pot)

    def test_no_context_space_guard(self):
        alphabet = Alphabet(tuple("0123456789abcdefg"))
        presentation = SoficPresentation(
            alphabet, ["v"], [("v", "v", a) for a in alphabet.symbols])
        pot = Potential(alphabet, 3, (ShapeTable((0, 3), {(0, 16): 0.5}),
                                      ShapeTable((0, 1), {(3, 3): -0.25})))
        transfer = build_transfer(presentation, pot)
        assert transfer.n_states == 17 ** 3
        # edge weights against the definition
        K = 17
        for key_index in (0, 1, 4912):
            code = int(transfer.keys[key_index]) % K ** 3
            ctx = tuple(code // K ** p % K for p in (2, 1, 0))
            for a in range(K):
                assert transfer.weight[a, key_index] == math.exp(
                    step_energy(pot, ctx + (a,)))


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
