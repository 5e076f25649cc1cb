import math
import subprocess
import sys

import numpy as np
import pytest

from shiftgibbs import _kernels, equilibrium_measure
from shiftgibbs._kernels import batch_energy, batch_forward_logprob
from shiftgibbs.bundled import equal_pair, even_shift, single_site, zero
from shiftgibbs.potentials import add_potentials
from shiftgibbs.pressure import brute_partition


def _batch_energy_py(words, offs, offs_start, offs_len, tables, tab_start, n_symbols):
    n_words, length = words.shape
    out = np.zeros(n_words)
    comp = np.zeros(n_words)
    n_shapes = offs_len.shape[0]
    for j in range(n_shapes):
        k = offs_len[j]
        span = offs[offs_start[j] + k - 1]
        for a in range(length - span):
            for b in range(n_words):
                code = 0
                for t in range(k):
                    code = code * n_symbols + words[b, a + offs[offs_start[j] + t]]
                val = tables[tab_start[j] + code]
                # compensated (Kahan) accumulation
                y = val - comp[b]
                s = out[b] + y
                comp[b] = (s - out[b]) - y
                out[b] = s
    return out


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
    pot = add_potentials(equal_pair(), single_site())
    mu = equilibrium_measure(even_shift(), equal_pair())
    trans = np.ascontiguousarray(mu.q_by_symbol)
    start = np.ascontiguousarray(mu.stationary)
    return words, pot, trans, start


class TestBackendAgreement:
    """The numpy kernels against their loop oracles."""

    def test_energy(self, workload):
        words, pot, _trans, _start = workload
        form = pot._kernel_form
        kernel = batch_energy(words, *form)
        reference = _batch_energy_py(words, *form)
        assert np.abs(kernel - reference).max() <= 1e-12

    def test_forward_logprob(self, workload):
        words, _pot, trans, start = workload
        kernel = batch_forward_logprob(words, trans, start)
        reference = _batch_forward_logprob_py(words, trans, start)
        dead = np.isinf(kernel)
        assert dead.any() and not dead.all()
        assert (dead == np.isinf(reference)).all()
        assert np.abs(kernel[~dead] - reference[~dead]).max() <= 1e-12

    def test_dead_words_flagged(self, workload):
        # 101 is no word of the even shift: the 0 between the 1s is an odd run
        words = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        _w, _p, trans, start = workload
        for lp in (batch_forward_logprob(words, trans, start),
                   _batch_forward_logprob_py(words, trans, start)):
            assert np.isinf(lp[0]) and lp[0] < 0
            assert np.isfinite(lp[1])

    def test_no_shapes(self, ev):
        # the zero potential has no shapes; it takes the kernel like any other
        form = zero()._kernel_form
        words = ev.word_matrix(9)
        assert (batch_energy(words, *form) == 0.0).all()
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


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.backend_name() == "numpy"
