import itertools
import math
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from shiftgibbs import _kernels, equilibrium_measure
from shiftgibbs._kernels import batch_energy
from shiftgibbs.bundled import (BINARY, equal_pair, even_shift, golden_mean,
                                single_site, zero)
from shiftgibbs.exceptions import EmptyCylinderWarning
from shiftgibbs.measures import cylinder_prob
from shiftgibbs.potentials import Potential, ShapeTable, add_potentials, energy
from shiftgibbs.pressure import brute_partition
from shiftgibbs.shifts import Alphabet, Word
from test_pressure import densify
from test_verify import BUNDLED_SYSTEMS, range_three_sft


def _five_letter_potential():
    """A seeded 5-letter potential whose shapes leave gaps: (0,), (0,1), (0,3)."""
    rng = random.Random(5)
    shapes = tuple(
        ShapeTable(offs, {pat: rng.uniform(-1, 1)
                          for pat in itertools.product(range(5), repeat=len(offs))})
        for offs in ((0,), (0, 1), (0, 3)))
    return Potential(Alphabet(tuple("abcde")), 3, shapes)


ENERGY_POTENTIALS = {
    "zero": zero,
    "single_site": single_site,
    "equal_pair": equal_pair,
    "pair_plus_site": lambda: add_potentials(equal_pair(), single_site()),
    "five_letter": _five_letter_potential,
}


def forward_logprob(measure, words):
    """log cylinder probability of each row of ``words``, the tests'
    per-word reference: a dense batched forward product from the
    stationary law through ``densify(succ, q)``, one S x S matrix per
    letter, the rows rescaled to sum 1 after each letter; -inf for a word
    that no state path presents."""
    dense = densify(measure.transfer.succ, measure.q)
    v = np.tile(measure.stationary, (words.shape[0], 1))
    out = np.zeros(words.shape[0])
    with np.errstate(divide="ignore"):  # log 0 = -inf on dead words
        for column in np.asarray(words).T:
            for a, q_a in enumerate(dense):
                rows = column == a
                v[rows] = v[rows] @ q_a
            total = v.sum(axis=1)
            out += np.log(total)
            v /= np.where(total > 0.0, total, 1.0)[:, None]
    return out


def state_path_sum(measure, letters):
    """The cylinder probability of a word as the plain sum over every state
    path of the stationary chain."""
    n_states = measure.transfer.n_states
    q = densify(measure.transfer.succ, measure.q)
    total = 0.0
    for path in itertools.product(range(n_states), repeat=len(letters) + 1):
        weight = measure.stationary[path[0]]
        for i, a in enumerate(letters):
            weight *= q[a][path[i], path[i + 1]]
        total += weight
    return total


class TestBackendAgreement:
    """The energy kernel against its per-word oracle, and the dead words of
    the forward reference."""

    @pytest.mark.parametrize("make", ENERGY_POTENTIALS.values(),
                             ids=ENERGY_POTENTIALS.keys())
    def test_energy(self, make):
        # every length up to range + 2 reads each step table, the last one
        # at two positions
        pot = make()
        rng = np.random.default_rng(42)
        for length in [*range(1, pot.span + 3), 11]:
            words = rng.integers(0, len(pot.alphabet),
                                 size=(300, length)).astype(np.uint8)
            kernel = batch_energy(words, pot.step_tables)
            reference = [energy(pot, Word(pot.alphabet, 0, tuple(map(int, row))))
                         for row in words]
            assert np.abs(kernel - reference).max() <= 1e-12

    def test_step_tables_built_once(self):
        pot = equal_pair()
        assert pot.step_tables is pot.step_tables
        # shared by every caller, so no caller may write them
        assert not any(t.flags.writeable for t in pot.step_tables)

    def test_dead_words_flagged(self):
        # 101 is no word of the even shift: the 0 between the 1s is an odd run
        words = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        lp = forward_logprob(equilibrium_measure(even_shift(), equal_pair()), words)
        assert np.isinf(lp[0]) and lp[0] < 0
        assert np.isfinite(lp[1])

    def test_no_shapes(self, ev):
        # the zero potential has no shapes; it takes the kernel like any other
        words = ev.word_matrix(9)
        assert (batch_energy(words, zero().step_tables) == 0.0).all()
        assert brute_partition(ev, zero(), 4).log_z == math.log(ev.word_count(9))


class TestForwardReference:
    """The tests' dense per-word reference against ``cylinder_prob``, the
    one cylinder route, and against the state-path sum."""

    @staticmethod
    def cylinder_log_prob(measure, letters):
        word = Word(measure.presentation.alphabet, 0, tuple(map(int, letters)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyCylinderWarning)
            p = cylinder_prob(measure, word)
        return math.log(p) if p > 0.0 else -math.inf

    def test_matches_cylinder_prob(self):
        # random words over the alphabet, so that some of them are dead
        rng = np.random.default_rng(42)
        cases = [(equilibrium_measure(shift(), pot()), 11)
                 for shift, pot in BUNDLED_SYSTEMS]
        cases.append((equilibrium_measure(*range_three_sft(1)), 6))
        dead_seen = []
        for measure, length in cases:
            K = len(measure.presentation.alphabet)
            words = rng.integers(0, K, size=(200, length)).astype(np.uint8)
            got = forward_logprob(measure, words)
            want = np.array([self.cylinder_log_prob(measure, w) for w in words])
            dead = np.isinf(want)
            assert (np.isinf(got) == dead).all() and (got[dead] < 0).all()
            assert np.abs(got[~dead] - want[~dead]).max(initial=0.0) <= 1e-12
            dead_seen.append(dead.any() and not dead.all())
        assert any(dead_seen)

    def test_matches_state_path_sum(self):
        words = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
        for shift in (golden_mean, even_shift):
            measure = equilibrium_measure(shift(), equal_pair())
            for w, lp in zip(words, forward_logprob(measure, words)):
                brute = state_path_sum(measure, w)
                if brute == 0.0:
                    assert lp == -math.inf
                else:
                    assert lp == pytest.approx(math.log(brute), rel=0, abs=1e-12)


def test_forward_leaves_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma on first use (numpy 2.4); the
    # commands of the benchmark's two workloads, in one process, must not
    script = ("import contextlib, io, sys\n"
              "from shiftgibbs import cli\n"
              "from shiftgibbs.bundled import data_path\n"
              "files = ['--shift', str(data_path('even.shift')),\n"
              "         '--potential', str(data_path('pair_beta.pot'))]\n"
              "for argv in (['weakgibbs', '--m', '1..4'],\n"
              "             ['pressure', '--n-max', '8'],\n"
              "             ['tangent', '--word', '010', '--n', '4'],\n"
              "             ['lemma', '--which', '212', '--n', '6', '--m', '1'],\n"
              "             ['lemma', '--which', '1d', '--n', '6', '--m', '1',\n"
              "              '--q-bar', '1']):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main([argv[0], *files, *argv[1:]]) == 0, argv\n"
              "    assert 'numpy.ma' not in sys.modules, argv\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr


def unique_ids(keys):
    """The reference numbering: ``np.unique`` with its inverse."""
    values, ids = np.unique(keys, return_inverse=True)
    return ids.ravel(), values


def void_rows(maps):
    """The rows of a 2-D array as one ``np.void`` key each."""
    return maps.view(np.dtype((np.void, maps.shape[1] * maps.itemsize))).ravel()


class TestDenseIds:
    """Both routes of ``dense_ids`` against ``np.unique``."""

    @staticmethod
    def check(keys, bound=None):
        ids, rep = _kernels.dense_ids(keys, bound)
        want_ids, want_values = unique_ids(keys)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(keys[rep], want_values)
        return ids, rep

    @pytest.mark.parametrize("extra", [0, 1])
    def test_int_keys_at_the_presence_threshold(self, extra, monkeypatch):
        # bound = 8 * len(keys) takes the presence table, one more the
        # argsort; repeated keys and unused values below the bound
        rng = np.random.default_rng(extra)
        keys = rng.integers(0, 300, size=50, dtype=np.int64)
        bound = _kernels._PRESENCE_SPAN * keys.shape[0] + extra
        sorts = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            sorts.append(args)
            return argsort(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", counted)
            _kernels.dense_ids(keys, bound)
        assert len(sorts) == extra
        self.check(keys, bound)
        self.check(keys)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_void_rows(self, dtype):
        rng = np.random.default_rng(3)
        # small and negative entries: byte order is not numeric order
        maps = rng.integers(-300, 300, size=(200, 4)).astype(dtype)
        maps = np.concatenate([maps, maps[::4], maps[:1]])
        self.check(void_rows(maps))

    @pytest.mark.parametrize("n_keys", [0, 1])
    def test_no_key_and_one_key(self, n_keys):
        for bound in (None, 1, 5):
            ids, rep = self.check(np.zeros(n_keys, dtype=np.int64), bound)
            assert ids.shape == (n_keys,) and rep.shape == (n_keys,)
        ids, rep = self.check(void_rows(np.zeros((n_keys, 3), dtype=np.int16)))
        assert rep.shape == (n_keys,)

    def test_every_rep_shows_its_id(self):
        keys = np.repeat(np.arange(20, dtype=np.int64) * 3, 7)
        np.random.default_rng(4).shuffle(keys)
        for bound in (None, 60):
            ids, rep = _kernels.dense_ids(keys, bound)
            assert np.array_equal(ids[rep], np.arange(20))


def oracle_word_classes(delta, prefix_len, depth):
    """The class pass with one S-wide map row per class: yields
    ``(prefix, maps)`` for each length 0..depth.  Each level maps every
    class through ``delta[a][map]`` for every letter, drops the words no
    state reads and keeps each (prefix, map) byte row once."""
    n_symbols, n_ext = delta.shape
    dead = n_ext - 1
    prefix = np.zeros(1, dtype=np.int64)
    maps = np.arange(dead, dtype=delta.dtype)[None, :]
    yield prefix, maps
    letters = np.arange(n_symbols, dtype=np.int64)[:, None]
    for length in range(1, depth + 1):
        maps = delta[:, maps].reshape(-1, dead)  # row a * n + i: class i, letter a
        if length <= prefix_len:
            prefix = (prefix * n_symbols + letters).ravel()
        else:
            prefix = np.tile(prefix, n_symbols)
        alive = (maps != dead).any(axis=1)
        prefix, maps = prefix[alive], maps[alive]
        rows = np.concatenate([prefix[:, None].view(np.uint8), maps.view(np.uint8)],
                              axis=1)
        _keys, keep = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
                                return_index=True)
        prefix, maps = prefix[keep], maps[keep]
        yield prefix, maps


def oracle_log_g(delta, step, log_start, step_tables, letters):
    """``(ends, log_g)`` of one word, a state at a time along its cover
    path: ``ends[s]`` is where state ``s``'s path ends (the dead sink once
    an edge is missing, whose column of ``step`` is 0) and ``log_g[s] =
    log_start[s] + cross - head``, with ``cross`` the step energies on the
    path and ``head`` the word's energy, both summed letter by letter."""
    last = len(step_tables) - 1
    n_symbols = delta.shape[0]
    head = 0.0
    for i in range(len(letters)):
        code = 0
        for a in letters[max(0, i - last):i + 1]:
            code = code * n_symbols + a
        head += step_tables[min(i, last)][code]
    ends, log_g = [], []
    for s, start in enumerate(log_start.tolist()):
        cross, t = 0.0, s
        for a in letters:
            cross += step[a, t]
            t = delta[a, t]
        ends.append(t)
        log_g.append(start + cross - head)
    return ends, log_g


def oracle_class_deviation(delta, step, log_start, log_end, step_tables,
                           _prefixes, lengths, prefix_len):
    """``class_deviation`` over the S-wide classes, every class of a level
    in one log-sum-exp.  The classes and their prefixes come from
    ``oracle_word_classes`` (the given prefix words are not read) and each
    prefix's log g from ``oracle_log_g``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    worst = np.zeros(lengths.shape[0])
    if lengths.shape[0] == 0:
        return worst
    n_symbols = delta.shape[0]
    levels = oracle_word_classes(delta, prefix_len, int(lengths.max()))
    for length, (prefix, maps) in enumerate(levels):
        hit = lengths == length
        if not hit.any():
            continue
        width = min(length, prefix_len)
        codes, which = np.unique(prefix, return_inverse=True)
        log_g = np.array([
            oracle_log_g(delta, step, log_start, step_tables,
                         [code // n_symbols ** (width - 1 - i) % n_symbols
                          for i in range(width)])[1]
            for code in codes.tolist()]).reshape(codes.shape[0], -1)
        terms = log_end[maps]
        terms += log_g[which.ravel()]
        top = terms.max(axis=1)
        terms -= top[:, None]
        val = top + np.log(np.exp(terms, out=terms).sum(axis=1))
        worst[hit] = float(np.abs(val).max())
    return worst


def scan_inputs(measure):
    """The class pass's arguments as ``weak_gibbs_scan`` builds them, less
    the prefix words and the lengths, and the presentation's
    ``word_matrix``, which gives the prefix words."""
    transfer = measure.transfer
    n_states = transfer.n_states
    delta = np.pad(transfer.succ, ((0, 0), (0, 1)), constant_values=n_states
                   ).astype(np.min_scalar_type(n_states))
    return (delta, np.pad(transfer.step, ((0, 0), (0, 1))),
            np.log(measure.stationary / measure.h),
            np.append(np.log(measure.h), -np.inf),
            transfer.potential.step_tables, transfer.context_len,
            measure.presentation.word_matrix)


def every_word(n_symbols):
    """The ``word_matrix`` of the full shift on ``n_symbols`` letters."""
    def words(length):
        return np.array(list(itertools.product(range(n_symbols), repeat=length)),
                        dtype=np.uint8).reshape(n_symbols ** length, length)
    return words


def deviation_args(case, lengths):
    """``class_deviation``'s arguments for one input case and lengths: the
    prefix words of every length min(L, R) from the case's ``word_matrix``."""
    *cover, step_tables, prefix_len, words = case
    prefixes = {k: words(k) for k in dict.fromkeys(min(n, prefix_len) for n in lengths)}
    return (*cover, step_tables, prefixes, lengths, prefix_len)


def random_cover(rng, n_symbols, n_states, prefix_len, scale):
    """Class-pass inputs for a random cover (every word of the full shift
    is a prefix word; one no state reads is no class): each transition is
    the dead sink with probability 1/3, except that state 0 reads letter 0
    into itself (so no level is empty), and every log weight and step
    energy is uniform in [-scale, scale], 0 on missing edges."""
    dead = n_states
    delta = rng.integers(0, n_states, size=(n_symbols, n_states + 1))
    delta[rng.random(delta.shape) < 1 / 3] = dead
    delta[:, dead] = dead
    delta[0, 0] = 0
    delta = delta.astype(np.min_scalar_type(n_states))
    step = np.where(delta == dead, 0.0,
                    rng.uniform(-scale, scale, size=delta.shape))
    step_tables = tuple(rng.uniform(-scale, scale, size=n_symbols ** (i + 1))
                        for i in range(prefix_len + 1))
    return (delta, step, rng.uniform(-scale, scale, size=n_states),
            np.append(rng.uniform(-scale, scale, size=n_states), -np.inf),
            step_tables, prefix_len, every_word(n_symbols))


PRE_PERIOD, PERIOD = 4, 3
BLOCKS = [1, 7, 64, _kernels.BLOCK]


def periodic_cover(prefix_len):
    """Class-pass inputs for a 2-letter, 5-state cover whose tables of
    suffix maps are periodic from level ``PRE_PERIOD`` on with period
    ``PERIOD``, with seeded log weights and step energies."""
    delta = np.array([[0, 2, 3, 5, 0, 5], [5, 4, 5, 1, 5, 5]], dtype=np.uint8)
    rng = np.random.default_rng(30)
    step = np.where(delta == 5, 0.0, rng.uniform(-1, 1, size=delta.shape))
    step_tables = tuple(rng.uniform(-1, 1, size=2 ** (i + 1))
                        for i in range(prefix_len + 1))
    return (delta, step, rng.uniform(-1, 1, size=5),
            np.append(rng.uniform(-1, 1, size=5), -np.inf), step_tables,
            prefix_len, every_word(2))


def _bundled_inputs():
    for shift, pot in BUNDLED_SYSTEMS:
        yield equilibrium_measure(shift(), pot()), 12
    yield equilibrium_measure(*range_three_sft(1)), 7


def _random_inputs():
    rng = np.random.default_rng(20)
    for n_symbols, n_states in [(1, 1), (1, 4), (2, 1), (3, 1), (2, 5), (3, 6),
                                (4, 3), (2, 9)]:
        for prefix_len in (1, 2, 3):
            for scale in (1.0, 300.0):
                yield random_cover(rng, n_symbols, n_states, prefix_len, scale)


def _tied_inputs():
    """Random covers whose log weights and step energies are whole numbers
    in [-2, 2], so that many classes tie up to rounding; and two scan inputs
    whose potential values are within 1e-13 of 0, so that every class of a
    length ties up to rounding and the short sums and the S-wide sums round
    to different largest classes (at lengths 7, 8 and 9): there a pair that
    attains the S-wide maximum is re-summed only through the margin."""
    for delta, step, log_start, log_end, step_tables, *rest in _random_inputs():
        yield (delta, np.round(step * 2), np.round(log_start * 2),
               np.round(log_end * 2), tuple(np.round(t * 2) for t in step_tables),
               *rest)
    for shift, span, scale in ((golden_mean, 5, 1e-15), (even_shift, 3, 1e-13)):
        rng = random.Random(span)
        shapes = tuple(
            ShapeTable(offs, {pat: rng.uniform(-scale, scale)
                              for pat in itertools.product((0, 1), repeat=len(offs))})
            for offs in ((0,), (0, span)))
        yield scan_inputs(equilibrium_measure(shift(), Potential(BINARY, span, shapes)))


class TestWordClasses:
    """The class pass over tables of distinct maps against the pass with
    one S-wide map per class."""

    @staticmethod
    def check_levels(delta, depth):
        levels = zip(_kernels.word_classes(delta, depth),
                     oracle_word_classes(delta, 0, depth), strict=True)
        for table, (_prefix, want_maps) in levels:
            # the table holds each map of the level's words exactly once,
            # sorted as bytes
            _map_ids, maps = unique_ids(void_rows(want_maps))
            assert np.array_equal(table, maps.view(delta.dtype).reshape(table.shape))
            assert table.dtype == delta.dtype

    def test_bundled_levels(self):
        for measure, depth in _bundled_inputs():
            self.check_levels(scan_inputs(measure)[0], depth)

    def test_random_levels(self):
        for delta, *_rest in _random_inputs():
            self.check_levels(delta, 9)

    def test_walk_against_cover_paths(self):
        # every (word, state) entry, dead paths included, bit for bit
        cases = [scan_inputs(measure) for measure, _depth in _bundled_inputs()]
        for (delta, step, log_start, _end, step_tables, prefix_len,
             words) in cases + list(_random_inputs()):
            for length in range(prefix_len + 1):
                prefix = words(length)
                maps, log_g = _kernels._walk(delta, step, prefix, log_start,
                                             step_tables)
                want = [oracle_log_g(delta, step, log_start, step_tables,
                                     letters.tolist()) for letters in prefix]
                assert np.array_equal(maps, [ends for ends, _g in want])
                assert np.array_equal(log_g, [g for _ends, g in want])

    def test_images_against_brute_sums(self):
        # the even shift reaches both vertices after a 0, and random covers
        # reach many states, so images are wider than one state there
        cases = [scan_inputs(equilibrium_measure(even_shift(), equal_pair()))]
        cases += list(_random_inputs())
        widths = []
        for delta, step, log_start, _end, step_tables, prefix_len, words in cases:
            dead = delta.shape[1] - 1
            maps, log_g = _kernels._walk(delta, step, words(prefix_len), log_start,
                                         step_tables)
            img, log_h = _kernels._images(maps, log_g, dead)
            widths.append(img.shape[1])
            for p in range(maps.shape[0]):
                image = sorted(set(maps[p].tolist()) - {dead})
                assert img[p, :len(image)].tolist() == image
                assert (log_h[p, len(image):] == -np.inf).all()
                for k, state in enumerate(image):
                    want = np.logaddexp.reduce(log_g[p][maps[p] == state])
                    assert log_h[p, k] == pytest.approx(want, rel=1e-13, abs=1e-13)
        assert widths[0] == 2
        assert max(widths) >= 5

    @pytest.mark.parametrize("block", BLOCKS)
    def test_deviation_is_block_free(self, block, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK", block)
        cases = [scan_inputs(measure) for measure, _depth in _bundled_inputs()]
        cases += list(_random_inputs()) + list(_tied_inputs())
        for case in cases:
            prefix_len = case[-2]
            # the last two lists stop below R, so no level groups its states
            for lengths in ([0, 1, 2, 3, 5, 7, 8, 9, 13],
                            [n for n in (0, 1, 2) if n < prefix_len],
                            [n for n in (1, 3) if n < prefix_len]):
                args = deviation_args(case, lengths)
                assert np.array_equal(_kernels.class_deviation(*args),
                                      oracle_class_deviation(*args))

    def test_empty_level_raises(self):
        # every transition dies, so no word of length 1 has a class; the
        # pass is given no word of length 1 at all
        delta = np.full((2, 4), 3, dtype=np.uint8)
        cover = (delta, np.zeros((2, 4)), np.zeros(3),
                 np.append(np.zeros(3), -np.inf), (np.zeros(2), np.zeros(4)))
        no_word = np.zeros((0, 1), dtype=np.uint8)
        empty_word = np.zeros((1, 0), dtype=np.uint8)
        assert _kernels.class_deviation(*cover, {0: empty_word}, [0], 1
                                        ).tolist() == [math.log(3)]
        for deviation in (_kernels.class_deviation, oracle_class_deviation):
            with pytest.raises(ValueError):
                deviation(*cover, {0: empty_word, 1: no_word}, [0, 1], 1)


class TestPeriodicTables:
    """Past the first repeat, ``word_classes`` yields the stored tables of
    the cycle, and ``class_deviation`` evaluates each once per prefix
    level."""

    def test_levels_against_the_oracle(self):
        delta = periodic_cover(1)[0]
        repeat = PRE_PERIOD + PERIOD  # the first level equal to an earlier one
        depth = repeat + 2 * PERIOD
        TestWordClasses.check_levels(delta, depth)
        tables = list(_kernels.word_classes(delta, depth))
        for level in range(repeat):
            assert not any(np.array_equal(tables[j], tables[level])
                           for j in range(level))
        assert np.array_equal(tables[repeat], tables[PRE_PERIOD])
        for level in range(repeat, depth + 1):
            assert tables[level] is tables[level - PERIOD]

    @pytest.mark.parametrize("block", BLOCKS)
    def test_deviation_inside_the_cycle(self, block, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK", block)
        for prefix_len in (1, 2, 3):
            # suffix lengths from the pre-period's last level to two periods
            # past the repeat, and lengths below R
            first = prefix_len + PRE_PERIOD - 1
            lengths = [0, 1, 2] + list(range(first, first + 3 * PERIOD + 2))
            args = deviation_args(periodic_cover(prefix_len), lengths)
            assert np.array_equal(_kernels.class_deviation(*args),
                                  oracle_class_deviation(*args))


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.backend_name() == "numpy"
