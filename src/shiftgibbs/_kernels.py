"""Batched numpy kernels: the energy of a word list and the word classes
of the transfer cover.

The energy kernel takes a batch of words encoded as ``uint8`` symbol
indices, shape ``(n_words, length)``, and a finite-range potential as its
per-position step tables, ``Potential.step_tables``.  The class pass takes
the cover as its (letter, state) tables of targets and step energies with
a dead sink, and its prefix words from ``word_matrix``; it keeps one table
of distinct state maps per length, and walks the cover for each prefix's
map and log g.  The tables repeat: each is a function of the one before,
so from the first table equal to an earlier one the sequence runs round a
cycle of stored tables, computed once.  Every length is a set of (prefix,
suffix map) pairs, a length up to the context length R with the identity
table, and one routine sums them, once per prefix level and distinct
table: first over the prefix's image, its map's targets with their mass
grouped by state (at R letters at most one state per vertex), then S-wide
only where a pair may attain the maximum.  Every sum runs in blocks of
about ``BLOCK`` terms.  Cylinder probabilities are not computed here:
``measures.cylinder_prob`` is their one route.

Every site in the package that numbers keys densely (word classes, lemma
classes and the 211 suite's exteriors, cover states, the partition pass's
keys) goes through ``dense_ids``; only the subset automaton,
``SoficPresentation._det``, still numbers its vertex sets with a dict of
frozensets.
"""

from __future__ import annotations

from itertools import cycle, islice

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

# terms per block of the deviation's log-sum-exp: a block holds about BLOCK
# terms, at least one row
BLOCK = 1 << 16


def word_classes(delta, depth):
    """Yield the table of distinct state maps of each length 0..depth,
    shortest first.

    ``delta[a, s]`` is the cover state that state ``s`` reaches on letter
    ``a``; the last index is a dead sink (no such transition), which maps to
    itself.  The map of a word ``u`` is ``s -> t_s(u)`` over the cover
    states.  A level's table holds the distinct maps of the words of that
    length that some state reads, one row of ``delta``'s dtype each, sorted
    as bytes; level 0's table is the identity.

    A word's next map is ``delta[a][map]``, a function of its map and the
    letter alone, so the next table comes from the ``K x n_maps`` candidate
    rows ``delta[:, table]``: rows no state reads are dropped and the rest
    are kept once, numbered by ``dense_ids``.  So no table holds more maps
    than there are words of its length, and each distinct map is S wide
    only once.

    Each table is a function of the one before, so the sequence of tables
    is eventually periodic.  Each table is kept, under the hash of its
    bytes; the first level whose table equals an earlier one's (compared
    whole) closes the cycle, and it and every later level yield the stored
    table of their place in the cycle, the same object, computing nothing.
    So until the repeat the generator holds every distinct table so far,
    not only the current one: on full2 at range 10 the table pass peaks
    about 0.5 MiB higher (4.5 against 4.0 MiB), below the scan's own peak,
    which the prefix walk sets (44 MiB at m = 9).
    """
    dead = delta.shape[1] - 1
    row = np.dtype((np.void, dead * delta.itemsize))
    table = np.arange(dead, dtype=delta.dtype)[None, :]
    orbit, seen = [table], {hash(table.tobytes()): 0}  # hash of the bytes -> level
    yield table
    for level in range(1, depth + 1):
        cand = np.take(delta, table, axis=1).reshape(-1, dead)
        cand = cand[(cand != dead).any(axis=1)]
        table = cand[dense_ids(cand.view(row).ravel())[1]]
        first = seen.setdefault(hash(table.tobytes()), level)
        if first < level and np.array_equal(orbit[first], table):
            yield from islice(cycle(orbit[first:]), depth + 1 - level)
            return
        orbit.append(table)
        yield table


def _walk(delta, step, words, log_start, step_tables):
    """Each word's map and log g, read off the cover one letter column at a
    time: ``maps[p, s]`` is the state that state ``s`` reaches along word
    ``p`` (the dead sink once an edge is missing), and

        log g[p, s] = log_start[s] + cross(s, p) - head(p),

    where ``cross(s, p)`` sums ``step`` over the edges of that path (the
    sink's column is 0) and ``head(p)`` is the energy of ``p`` alone
    (``batch_energy``)."""
    n_ext = delta.shape[1]
    state = np.broadcast_to(np.arange(n_ext - 1), (words.shape[0], n_ext - 1))
    cross = np.zeros(state.shape)
    for letter in words.T:
        at = letter.astype(np.intp)[:, None] * n_ext + state
        cross += np.take(step, at)
        state = np.take(delta, at)
    head = batch_energy(words, step_tables)
    return state, log_start + cross - head[:, None]


def _lse_rows(terms):
    """Log-sum-exp over the last axis of ``terms`` (overwritten), each row
    shifted by its largest term; a row with no live term gives nan.  A
    row's operands and summation do not depend on the other rows, so
    neither does its value."""
    top = terms.max(axis=-1)
    with np.errstate(invalid="ignore"):
        terms -= top[..., None]
    return top + np.log(np.exp(terms, out=terms).sum(axis=-1))


def _images(maps, log_g, dead):
    """The image of each prefix's map and the mass it sends to each image
    state: ``img[p, k]`` is the k-th state of T_p, in ascending order, and
    ``log_h[p, k] = log sum over {s : maps[p, s] = img[p, k]} of
    exp(log_g[p, s])``, each shifted by its own largest term.  The (prefix,
    target) pairs are numbered by ``dense_ids``.  Rows are padded to the
    widest image with state 0 and ``log_h = -inf``."""
    n_prefixes = maps.shape[0]
    keys = (np.arange(n_prefixes)[:, None] * (dead + 1) + maps).ravel()
    pair, rep = dense_ids(keys, n_prefixes * (dead + 1))
    g = log_g.ravel()
    top = np.full(rep.shape[0], -np.inf)
    np.maximum.at(top, pair, g)
    log_h = top + np.log(np.bincount(pair, np.exp(g - top[pair]), rep.shape[0]))
    owner, state = np.divmod(keys[rep], dead + 1)  # ascending by (owner, state)
    image = state != dead
    owner, state, log_h = owner[image], state[image], log_h[image]
    count = np.bincount(owner, minlength=n_prefixes)
    slot = np.arange(owner.shape[0]) - (np.cumsum(count) - count)[owner]
    width = int(count.max()) if n_prefixes else 0
    img = np.zeros((n_prefixes, width), dtype=np.intp)
    img[owner, slot] = state
    padded = np.full((n_prefixes, width), -np.inf)
    padded[owner, slot] = log_h
    return img, padded


def class_deviation(delta, step, log_start, log_end, step_tables, prefixes,
                    lengths, prefix_len):
    """Largest ``|val(c)|`` over the classes ``c`` of the allowed words of
    each length in ``lengths`` (one entry per length).

    The class of a word ``u`` is its first R = ``prefix_len`` letters ``p``
    (all of ``u`` while it is shorter) and its map ``t: s -> t_s(u)``, and

        val = log sum_s exp(log g[p, s] + log_end[t(s)]),

    with ``log g`` from ``_walk``: ``step[a, s]`` is the step energy of
    state ``s``'s ``a``-edge (0 where ``delta`` has none, and in the dead
    sink's column) and ``step_tables`` give the energy of ``p`` alone.
    ``prefixes[k]`` holds the k-letter words, one ``uint8`` row each, for
    every k = min(L, R) with L in ``lengths``; a word no state reads is no
    class.  ``log_start`` is finite and ``log_end`` is finite but for its
    last entry, ``-inf`` for the dead sink.  This S-wide sum, shifted by
    its largest term (``_lse_rows``), is the value reported; a requested
    length without classes raises ``ValueError``.

    One routine, ``_pair_level``, evaluates every length.  With width =
    min(R, longest requested length), a word of length L is ``u = p u'``
    with ``|p| = k = min(L, width)`` and ``t_s(u) = t_{t_s(p)}(u')``: a
    length is the set of pairs of a k-letter prefix (``prefixes[k]``) and a
    suffix map (the table of level L - k of ``word_classes``, the identity
    when L <= width), and

        val(p, u') = log sum over sigma in T_p of
                     exp(log_h[p, sigma] + log_end[t_sigma(u')]),

    with T_p the image of p's map and ``log_h`` the log of the mass of
    ``g[p, .]`` on each image state (``_images``).  Every prefix level is
    grouped so; at R letters every state of T_p has the context p, so
    there is at most one per vertex, and a shorter level's image may be as
    wide as S.  The short sum runs over every pair, in blocks of about
    ``BLOCK`` terms; a pair with no live term is not a class.  The suffix
    tables are built first, then each prefix level is walked, evaluated and
    dropped, and each of its lengths L reads the table of level L - k.
    Lengths whose suffix levels lie on the tables' cycle a whole number of
    periods apart read one table object, and each prefix level evaluates
    each distinct table once.

    The short sum may round differently from the S-wide one, so it only
    picks the pairs to re-sum S-wide, with the map ``table[j][maps_p]``, in
    blocks of ``max(1, BLOCK // S)`` pairs.  The margin, one per prefix
    level, holds at every level: let eps be the machine epsilon and ``a =
    max |log g| + max |log_end|`` over finite entries (an entry of ``log
    g`` on a path into the dead sink is finite too, and only widens the
    margin).  A term of
    the S-wide sum is at most ``a`` in size; ``|log_h| <= max |log g| +
    log S``, so a term of the short sum is at most ``a + S``.  A
    log-sum-exp of at most S terms of size at most A is 1-Lipschitz in its
    terms (sup norm), and its own rounding (a shift, an ``exp``, a sum of
    at most S positive numbers, a ``log`` and an add) is below about ``eps
    (2A + 4S)``.  The S-wide route
    adds the rounding of each term's sum, the short route that of ``log_h``
    (one more such log-sum-exp) and of its terms, so each route is within
    ``16 eps (S + a)`` of the exact value, and the two within ``32 eps (S +
    a)`` of each other.  A pair whose S-wide value attains the largest
    ``|val|`` therefore has a short value within ``64 eps (S + a)`` of the
    largest short one.  Only the pairs within that margin are re-summed, and
    the largest of their S-wide values is the largest over every class.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    worst = np.zeros(lengths.shape[0])
    if lengths.shape[0] == 0:
        return worst
    dead = delta.shape[1] - 1
    width = min(prefix_len, int(lengths.max()))
    prefix_of = np.minimum(lengths, width)
    suffix_len = lengths - prefix_of
    end_size = np.abs(log_end[:-1]).max(initial=0.0)
    # suffix length -> its table of maps (one object for repeating levels)
    levels = enumerate(word_classes(delta, int(suffix_len.max())))
    tables = {n: table for n, table in levels if (suffix_len == n).any()}
    for prefix in dict.fromkeys(prefix_of.tolist()):
        maps, log_g = _walk(delta, step, prefixes[prefix], log_start, step_tables)
        margin = 64 * np.finfo(float).eps * (dead + np.abs(log_g).max(initial=0.0)
                                             + end_size)
        level = (maps, log_g, *_images(maps, log_g, dead), margin)
        value = {}  # id of a suffix table -> its value at this level
        for length in dict.fromkeys(lengths[prefix_of == prefix].tolist()):
            table = tables[length - prefix]
            if id(table) not in value:
                value[id(table)] = _pair_level(level, table, log_end)
            worst[lengths == length] = value[id(table)]
    return worst


def _pair_level(level, table, log_end):
    """Largest S-wide ``|val|`` over the pairs of one prefix level
    ``(maps, log_g, img, log_h, margin)`` and one table of suffix maps: the
    short sums over each prefix's ``img`` pick the pairs within ``margin``
    of the largest, and only those are re-summed S-wide."""
    maps, log_g, img, log_h, margin = level
    n_prefixes, width = img.shape
    n_maps, dead = table.shape
    rows = max(1, BLOCK // dead)
    ends = np.empty((n_maps, dead + 1))
    ends[:, :dead] = log_end[table]
    ends[:, dead] = -np.inf
    short = np.empty((n_maps, n_prefixes))
    p_step = max(1, BLOCK // max(width, 1))
    m_step = max(1, BLOCK // (max(width, 1) * max(1, min(n_prefixes, p_step))))
    for plo in range(0, n_prefixes, p_step):
        im, lh = img[plo:plo + p_step], log_h[plo:plo + p_step]
        for mlo in range(0, n_maps, m_step):
            terms = ends[mlo:mlo + m_step, im]  # (suffix map, prefix, image state)
            terms += lh
            short[mlo:mlo + m_step, plo:plo + p_step] = _lse_rows(terms)
    short = short.ravel()
    live = np.flatnonzero(~np.isnan(short))
    score = np.abs(short[live])
    near = live[score >= score.max() - margin]
    suffix, prefix = np.divmod(near, n_prefixes)
    suffix *= dead + 1  # row offset into the flat ends
    # one set of block buffers, filled by np.take (with a mode other than
    # "raise" it writes straight into them; every index is in range)
    shape = (min(rows, near.shape[0]), dead)
    flat, terms, heads = np.empty(shape, dtype=np.intp), np.empty(shape), np.empty(shape)
    val = np.empty(near.shape[0])
    for lo in range(0, near.shape[0], rows):
        p = prefix[lo:lo + rows]
        n = p.shape[0]
        np.add(suffix[lo:lo + rows, None], maps[p], out=flat[:n])
        block = np.take(ends, flat[:n], out=terms[:n], mode="wrap")
        block += np.take(log_g, p, axis=0, out=heads[:n], mode="wrap")
        val[lo:lo + rows] = _lse_rows(block)
    return float(np.abs(val).max())
