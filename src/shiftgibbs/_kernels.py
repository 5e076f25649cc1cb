"""Batched numpy kernels: the energy of a word list and the word classes
of the transfer cover.

The energy kernel takes a batch of words encoded as ``uint8`` symbol
indices, shape ``(n_words, length)``, and a finite-range potential as its
per-position step tables, ``Potential.step_tables``.  The class pass takes
the cover as its (letter, state) table of targets with a dead sink.
The word classes of a length are (prefix code, map id) pairs into a table
of that length's distinct state maps, and their deviation is summed in
blocks of at most about ``BLOCK`` terms.  Cylinder probabilities are not
computed here: ``measures.cylinder_prob`` is their one route.

Every site in the package that numbers keys densely (word classes, lemma
classes, cover states) goes through ``dense_ids``.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# dense renumbering of keys
# ---------------------------------------------------------------------------

# integer keys whose bound is at most this many times their number are
# renumbered through a presence table
_PRESENCE_SPAN = 8


def dense_ids(keys, bound=None):
    """Dense ids of the 1-D array ``keys``, numbered in the sorted order of
    the key values, and ``rep``: ``rep[i]`` is the index of some key with id
    ``i``, so ``keys[rep]`` is the sorted distinct keys.  Which duplicate
    ``rep`` names is unspecified.

    Integer keys in ``[0, bound)`` with ``bound`` at most ``_PRESENCE_SPAN``
    times their number are renumbered by a boolean presence table over the
    key space and its running count, with no sort.  Any other keys (void
    rows included) are argsorted with the default kind (a stable sort costs
    more time and memory) and compared with their neighbours.  Neither
    route calls ``np.unique``, which imports ``numpy.ma`` on first use
    (numpy 2.4)."""
    n_keys = keys.shape[0]
    if bound is not None and bound <= _PRESENCE_SPAN * n_keys:
        present = np.zeros(bound, dtype=bool)
        present[keys] = True
        rank = np.cumsum(present)
        ids = rank[keys]
        ids -= 1
        rep = np.empty(int(rank[-1]) if bound else 0, dtype=np.intp)
        rep[ids] = np.arange(n_keys)
        return ids, rep
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.ones(n_keys, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    del ordered
    rank = np.cumsum(first)
    rank -= 1
    ids = np.empty(n_keys, dtype=np.intp)
    ids[order] = rank
    return ids, order[first]


# ---------------------------------------------------------------------------
# energy of many words under a finite-range potential (step tables)
# ---------------------------------------------------------------------------

def batch_energy(words, step_tables):
    """Energy of each word: the step energy of every letter under the
    letters before it.  Entry ``code`` of ``step_tables[p]`` is the
    increment of the (p+1)-letter context with base-K code ``code``; the
    last table serves every later position on its trailing letters.  One
    rolling code per word reads them all: past the last table the letter
    that leaves the context is subtracted before the next one is shifted
    in (the same code as ``% table.size``, without an integer division)."""
    n_words, length = words.shape
    n_symbols = step_tables[0].shape[0]
    last = len(step_tables) - 1
    lead = np.int64(n_symbols ** last)  # weight of a full context's first letter
    out = np.zeros(n_words)
    code = np.zeros(n_words, dtype=np.int64)
    for p in range(length):
        if p > last:
            code -= lead * words[:, p - last - 1]
        code *= n_symbols
        code += words[:, p]
        out += step_tables[min(p, last)][code]
    return out


# ---------------------------------------------------------------------------
# weak-Gibbs deviation over the reachable word classes
# ---------------------------------------------------------------------------

# terms per block of the deviation's log-sum-exp: a block holds
# max(1, BLOCK // S) classes of S terms each
BLOCK = 1 << 16


def word_classes(delta, prefix_len, depth):
    """Yield the classes of the allowed words of each length 0..depth, one
    level per length, shortest first.

    ``delta[a, s]`` is the cover state that state ``s`` reaches on letter
    ``a``; the last index is a dead sink (no such transition), which maps to
    itself.  The class of a word ``u`` is its first ``prefix_len`` letters
    (all of ``u`` while it is shorter) together with the map ``s -> t_s(u)``
    over the cover states.  A level is a triple ``(prefix, ids, table)``:
    ``table`` holds the level's distinct maps, one row of ``delta``'s dtype
    each, and class ``i`` has the base-K code ``prefix[i]`` (first letter
    most significant) and the map ``table[ids[i]]``.

    A class's next map is ``delta[a][map]``, a function of its map and the
    letter alone, so the next table comes from the ``K x n_maps`` candidate
    rows ``delta[:, table]``: rows no state reads are dropped and the rest
    are kept once (sorted as bytes).  The next classes are the integer codes
    ``prefix * n_maps + id`` of the children, kept once.  Both are numbered
    by ``dense_ids``.  So no level holds more classes than there are words
    of its length, and each distinct map is S wide only once.
    """
    n_symbols, n_ext = delta.shape
    dead = n_ext - 1
    row = np.dtype((np.void, dead * delta.itemsize))
    prefix = np.zeros(1, dtype=np.int64)
    ids = np.zeros(1, dtype=np.int64)
    table = np.arange(dead, dtype=delta.dtype)[None, :]
    yield prefix, ids, table
    letters = np.arange(n_symbols, dtype=np.int64)[:, None]
    for length in range(1, depth + 1):
        n_maps = table.shape[0]
        # row a * n_maps + j: map j, then letter a
        cand = np.take(delta, table, axis=1).reshape(-1, dead)
        alive = np.flatnonzero((cand != dead).any(axis=1))
        inv, rep = dense_ids(cand[alive].view(row).ravel())
        table = cand[alive[rep]]
        new_id = np.full(cand.shape[0], -1, dtype=np.int64)
        new_id[alive] = inv
        child = new_id[ids + letters * n_maps]  # row a: letter a after each class
        width = min(length, prefix_len)
        if length <= prefix_len:
            prefix = prefix * n_symbols + letters
        else:
            prefix = np.broadcast_to(prefix, child.shape)
        keep = child >= 0
        codes = prefix[keep] * table.shape[0] + child[keep]
        codes = codes[dense_ids(codes, n_symbols ** width * table.shape[0])[1]]
        prefix, ids = np.divmod(codes, table.shape[0])
        yield prefix, ids, table


def class_deviation(delta, contexts, log_start, log_end, step_tables, lengths,
                    prefix_len):
    """Largest ``|val(c)|`` over the classes ``c`` of the allowed words of
    each length in ``lengths`` (one entry per length).

    The classes come from ``word_classes(delta, prefix_len, ...)``.  For a
    class with prefix ``p`` and map ``t``,

        val = log sum_s exp(log g[p, s] + log_end[t(s)]),
        log g[p, s] = log_start[s] + cross(s, p) - head(p),

    where ``cross(s, p)`` sums the step energies of the letters of ``p``
    read after the base-K context code ``contexts[s]`` and ``head(p)`` is
    the energy of ``p`` alone, both from ``step_tables`` (entry ``code`` of
    table ``i`` is the increment of the letter at position ``i`` under the
    last ``i + 1`` letters; the last table serves every later position, and
    there are at least ``prefix_len`` tables).  ``log_end`` ends in
    ``-inf`` for the dead sink.  The sum is a log-sum-exp shifted by its
    largest term, taken over blocks of ``max(1, BLOCK // S)`` classes; each
    row's operands and summation do not depend on the block, so neither
    does any ``val``.  A requested length without classes raises
    ``ValueError``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    worst = np.zeros(lengths.shape[0])
    if lengths.shape[0] == 0:
        return worst
    n_symbols = delta.shape[0]
    last = step_tables[-1]
    modulus = last.shape[0]
    rows = max(1, BLOCK // (delta.shape[1] - 1))
    levels = word_classes(delta, prefix_len, int(lengths.max()))
    for length, (prefix, ids, table) in enumerate(levels):
        hit = lengths == length
        if not hit.any():
            continue
        width = min(length, prefix_len)
        which, rep = dense_ids(prefix, n_symbols ** width)
        codes = prefix[rep]
        # log g of every reached prefix, letter by letter
        ctx = np.broadcast_to(contexts, (codes.shape[0], contexts.shape[0]))
        cross = np.zeros(ctx.shape)
        head = np.zeros(codes.shape[0])
        for i in range(width):
            first = codes // n_symbols ** (width - 1 - i)  # the first i + 1 letters
            ctx = (ctx * n_symbols + first[:, None] % n_symbols) % modulus
            cross += last[ctx]
            head += step_tables[i][first]
        log_g = log_start + cross - head[:, None]
        ends = log_end[table]
        val = np.empty(ids.shape[0])
        for lo in range(0, ids.shape[0], rows):
            terms = ends[ids[lo:lo + rows]]
            terms += log_g[which[lo:lo + rows]]
            top = terms.max(axis=1)
            terms -= top[:, None]
            val[lo:lo + rows] = top + np.log(np.exp(terms, out=terms).sum(axis=1))
        worst[hit] = float(np.abs(val).max())
    return worst
