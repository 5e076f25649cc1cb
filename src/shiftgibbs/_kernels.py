"""Batched numpy kernels over word lists and the word-automaton trie.

Kernels operate on batches of words encoded as ``uint8`` symbol indices,
shape ``(n_words, length)``.  Finite-range potentials are passed in the
flattened dense-table form produced by ``Potential._kernel_form``.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# energy of many words under a finite-range potential (dense-table form)
# ---------------------------------------------------------------------------

def batch_energy(words, offs, offs_start, offs_len, tables, tab_start, n_symbols):
    """Energy of each word: the table values of every shape translate that
    fits inside it (all zeros when there are no shapes)."""
    n_words, length = words.shape
    out = np.zeros(n_words)
    n_shapes = offs_len.shape[0]
    for j in range(n_shapes):
        k = int(offs_len[j])
        o = offs[offs_start[j]:offs_start[j] + k]
        span = int(o[-1])
        tab = tables[tab_start[j]:tab_start[j] + n_symbols ** k]
        for a in range(length - span):
            code = np.zeros(n_words, dtype=np.int64)
            for t in range(k):
                code = code * n_symbols + words[:, a + int(o[t])]
            out += tab[code]
    return out


# ---------------------------------------------------------------------------
# log of label-restricted forward products (hidden-Markov marginals)
# ---------------------------------------------------------------------------

def batch_forward_logprob(words, trans, start):
    """Log of ``start @ trans[w_0] @ ... @ trans[w_{L-1}]`` summed over the
    end states, by the scaled forward recursion; ``-inf`` for a word that no
    path presents."""
    n_words, length = words.shape
    n_states = start.shape[0]
    v = np.broadcast_to(start, (n_words, n_states)).copy()
    acc = np.zeros(n_words)
    alive = np.ones(n_words, dtype=bool)
    for i in range(length):
        col = words[:, i]
        w = np.empty_like(v)
        for a in np.unique(col):
            rows = col == a
            w[rows] = v[rows] @ trans[a]
        tot = w.sum(axis=1)
        dead = tot <= 0.0
        alive &= ~dead
        tot = np.where(dead, 1.0, tot)
        v = w / tot[:, None]
        v[dead] = 0.0
        acc += np.log(tot)
    acc[~alive] = -np.inf
    return acc


# ---------------------------------------------------------------------------
# weak-Gibbs deviation by one walk of the word trie
# ---------------------------------------------------------------------------

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

