import itertools
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from shiftgibbs import _kernels, equilibrium_measure
from shiftgibbs._kernels import batch_energy, batch_forward_logprob
from shiftgibbs.bundled import equal_pair, even_shift, single_site, zero
from shiftgibbs.potentials import Potential, ShapeTable, add_potentials, energy
from shiftgibbs.pressure import brute_partition
from shiftgibbs.shifts import Alphabet, Word
from test_pressure import densify


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


def _batch_forward_logprob_py(words, trans, start):
    n_words, length = words.shape
    n_states = start.shape[0]
    out = np.empty(n_words)
    v = np.empty(n_states)
    w = np.empty(n_states)
    for b in range(n_words):
        acc = 0.0
        for s in range(n_states):
            v[s] = start[s]
        dead = False
        for i in range(length):
            a = words[b, i]
            tot = 0.0
            for t in range(n_states):
                x = 0.0
                for s in range(n_states):
                    x += v[s] * trans[a, s, t]
                w[t] = x
                tot += x
            if tot <= 0.0:
                dead = True
                break
            for t in range(n_states):
                v[t] = w[t] / tot
            acc += np.log(tot)
        out[b] = -np.inf if dead else acc
    return out


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    words = rng.integers(0, 2, size=(400, 11)).astype(np.uint8)
    mu = equilibrium_measure(even_shift(), equal_pair())
    return words, mu.transfer.succ, mu.q, mu.stationary


class TestBackendAgreement:
    """The numpy kernels against their per-word and loop oracles."""

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

    def test_forward_logprob(self, workload):
        words, succ, prob, start = workload
        kernel = batch_forward_logprob(words, succ, prob, start)
        reference = _batch_forward_logprob_py(words, densify(succ, prob), start)
        dead = np.isinf(kernel)
        assert dead.any() and not dead.all()
        assert (dead == np.isinf(reference)).all()
        assert np.abs(kernel[~dead] - reference[~dead]).max() <= 1e-12

    def test_dead_words_flagged(self, workload):
        # 101 is no word of the even shift: the 0 between the 1s is an odd run
        words = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        _w, succ, prob, start = workload
        for lp in (batch_forward_logprob(words, succ, prob, start),
                   _batch_forward_logprob_py(words, densify(succ, prob), start)):
            assert np.isinf(lp[0]) and lp[0] < 0
            assert np.isfinite(lp[1])

    def test_no_shapes(self, ev):
        # the zero potential has no shapes; it takes the kernel like any other
        words = ev.word_matrix(9)
        assert (batch_energy(words, zero().step_tables) == 0.0).all()
        assert brute_partition(ev, zero(), 4).log_z == math.log(ev.word_count(9))


def test_forward_leaves_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma on first use (numpy 2.4)
    script = ("import sys\n"
              "from shiftgibbs import equilibrium_measure\n"
              "from shiftgibbs.bundled import equal_pair, even_shift\n"
              "from shiftgibbs.measures import cylinder_log_probs\n"
              "ev = even_shift()\n"
              "measure = equilibrium_measure(ev, equal_pair())\n"
              "assert 'numpy.ma' not in sys.modules\n"
              "logp = cylinder_log_probs(measure, ev.word_matrix(7))\n"
              "assert logp.shape == (ev.word_count(7),)\n"
              "assert 'numpy.ma' not in sys.modules\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr


def test_lemma_ladder_commands_leave_numpy_ma_unimported():
    # the commands of the benchmark's lemma-ladder workload, in one process
    script = ("import contextlib, io, sys\n"
              "from shiftgibbs import cli\n"
              "from shiftgibbs.bundled import data_path\n"
              "files = ['--shift', str(data_path('even.shift')),\n"
              "         '--potential', str(data_path('pair_beta.pot'))]\n"
              "for argv in (['lemma', '--which', '212', '--n', '6', '--m', '1'],\n"
              "             ['lemma', '--which', '1d', '--n', '6', '--m', '1',\n"
              "              '--q-bar', '1'],\n"
              "             ['pressure', '--n-max', '8'],\n"
              "             ['tangent', '--word', '010', '--n', '4']):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main([argv[0], *files, *argv[1:]]) == 0, argv\n"
              "    assert 'numpy.ma' not in sys.modules, argv\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.backend_name() == "numpy"
