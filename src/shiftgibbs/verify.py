"""Numerical certification of the weak-Gibbs estimate and the lemma
inequalities behind it.

Every check substitutes exact computable constants for the asymptotic
epsilon terms, so each recorded inequality is unconditional and meaningful
at small volumes.  Partition-type quantities that get compared against one
another are exact integers: each word's term exp(E - max E) is a dyadic
rational, and its multiple by 2**_SHIFT is split into 32-bit limbs in int64
arrays (``_exact_terms``).  The lemma suites group words by integer class
ids of their column windows (``_class_ids``, rows folded into int64 codes
and renumbered by ``_kernels.dense_ids``) and sum the limbs per class
(``_limb_sums``); only the per-class totals become Python integers, so
subset and partition relations hold exactly rather than up to rounding.
The 211 pass (``lemma_211_worst``) groups the word table by the same
exterior ids as the 212 suite (``_exterior_ids``), finds the worst pair
over every pair and shift, and makes ``Word`` objects for that pair alone.
The other two suites are split in two: a tables builder
(``lemma_212_tables``, ``decoupling_1d_tables``) does everything that does
not read the center word once per volume and holds every per-center
quantity as an array indexed by center class, and the per-center check
(``lemma_212_check``, ``decoupling_1d_check``) finds the center's class
(``_center_id``) and adds the rows that read it, one lookup each.
Every certificate here, the weak-Gibbs bound included, reads its gap q
from the presentation (``SoficPresentation.gap``); no caller passes one.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ValidationError, VolumeGuardError
from . import _kernels
from ._records import record
from .measures import RPFMeasure, cylinder_prob, equilibrium_measure
from .potentials import (Potential, ShapeTable, _check_context_space,
                         add_potentials, boundary_norm_bound, energy, norms)
from .pressure import (BrutePartition, _check_cover, _dp_log_partition,
                       brute_partition, finite_pressure, word_energies)
from .shifts import DENSE_ENTRIES_CAP, SoficPresentation, Word

_LN2 = math.log(2.0)
_SHIFT = 1100  # dyadic rescale exponent; covers the double exponent range
# Exact sums in int64 arrays of 32-bit limbs.  frexp gives a term t in
# [0, 1] as a 53-bit mantissa at bit e - 53 + _SHIFT of t * 2**_SHIFT.
# That bit is negative for a subnormal t (t * 2**_SHIFT is still an
# integer), so every term carries _BIAS more low bits.  A term adds below
# 2**32, 2**33 and 2**21 to three consecutive limbs, so fewer than
# _MAX_ENTRIES = 2**30 entries per sum keep every limb, with the carry it
# takes in, below 2**63.  A term is at most 2**(_SHIFT + _BIAS), so such a
# sum has at most _SHIFT + _BIAS + 30 bits: _LIMBS limbs.
_BIAS = 32
_LIMB_MASK = 0xFFFFFFFF
_MAX_ENTRIES = 1 << 30
_LIMBS = (_SHIFT + _BIAS + 30) // 32 + 1


def _limb_terms(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split floats t in [0, 1], exactly, into limb contributions of
    t * 2**(_SHIFT + _BIAS): ``limb[i]`` is the lowest of the three limbs
    of term i and ``parts[k, i]`` what it adds to limb ``limb[i] + k``."""
    frac, exp = np.frexp(values)
    mant = (frac * 2.0 ** 53).astype(np.int64)
    pos = exp.astype(np.int64) + (_SHIFT + _BIAS - 53)
    limb, off = pos >> 5, pos & 31
    lo = (mant & _LIMB_MASK) << off
    hi = (mant >> 32) << off
    return limb, np.stack([lo & _LIMB_MASK, (lo >> 32) + (hi & _LIMB_MASK),
                           hi >> 32])


def _exact_terms(energies: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """The limb terms (``_limb_terms``) of exp(energies) relative to the
    common scale max(energies), and that scale."""
    scale = float(energies.max()) if energies.size else 0.0
    return _limb_terms(np.exp(energies - scale)), scale


def _limb_sums(ids: np.ndarray, terms: tuple[np.ndarray, np.ndarray],
               n_classes: int, rows=slice(None)) -> np.ndarray:
    """Exact per-class sums, as an object array of Python ints: entry c is
    the sum of the terms (``_exact_terms``) of the words ``rows[i]`` over
    the entries i with ``ids[i] == c``, times 2**_SHIFT.  Refuses
    (``VolumeGuardError``) as many entries as could overflow a limb."""
    if len(ids) >= _MAX_ENTRIES:
        raise VolumeGuardError(
            f"volume too large for brute force: {len(ids)} terms in one exact "
            f"sum exceed the limb bound {_MAX_ENTRIES}")
    limb, parts = terms
    acc = np.zeros((n_classes, _LIMBS), dtype=np.int64)
    flat = acc.ravel()
    at = ids * _LIMBS + limb[rows]
    for k in range(3):
        np.add.at(flat[k:], at, parts[k, rows])
    for k in range(_LIMBS - 1):
        acc[:, k + 1] += acc[:, k] >> 32
    data = (acc & _LIMB_MASK).astype("<u4").tobytes()
    step = 4 * _LIMBS
    return np.array([int.from_bytes(data[i:i + step], "little") >> _BIAS
                     for i in range(0, len(data), step)], dtype=object)


def _log_scaled(total: int, scale: float) -> float:
    if total <= 0:
        return -math.inf
    bl = total.bit_length()
    if bl <= 900:
        return math.log(total) + scale - _SHIFT * _LN2
    sh = bl - 60
    return math.log(total >> sh) + sh * _LN2 + scale - _SHIFT * _LN2


@record
class InequalityRecord:
    name: str
    lhs: float
    rhs: float
    holds: bool


@record
class LemmaReport:
    """Inequality slacks of one lemma check with its exact constants."""

    context: dict
    constants: dict
    inequalities: tuple[InequalityRecord, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.inequalities)


@record
class WeakGibbsReport:
    """Scan rows (m, D_m, analytic bound), sorted by m."""

    rows: tuple[tuple[int, float, float], ...]

    def delta_to_n(self, delta: float) -> int | None:
        """Smallest scanned m with D_m' <= delta for all scanned m' >= m."""
        best = None
        for (m, d, _bound) in sorted(self.rows, reverse=True):
            if d <= delta:
                best = m
            else:
                break
        return best


# ---------------------------------------------------------------------------
# exact constants
# ---------------------------------------------------------------------------

def sandwich_log_constant(potential: Potential, m: int, q: int) -> float:
    """log of the volume-comparison constant: the asymptotic epsilon term is
    replaced by the exact interaction bound, making the sandwich
    unconditional in m."""
    phi_norm = norms(potential).norm
    return 2.0 * (2 * q) * phi_norm + 2.0 * boundary_norm_bound(potential, m)


def ratio_log_constant(potential: Potential, m: int, q: int, n_symbols: int) -> float:
    """log K: collar-count times alphabet-entropy of the collar times the
    sandwich constant."""
    return (math.log(2 * q + 1) + 2 * q * math.log(n_symbols)
            + sandwich_log_constant(potential, m, q))


def sandwich_1d_log_constant(potential: Potential, m: int, q_bar: int) -> float:
    """log C' for the one-dimensional variant: exact interaction bound,
    crossing norm, and the 6*q_bar junk-region allowance."""
    rep = norms(potential)
    return 2.0 * (boundary_norm_bound(potential, m) + rep.cross_norm
                  + 6 * q_bar * rep.norm)


def ratio_1d_log_constant(potential: Potential, m: int, q_bar: int,
                          n_symbols: int) -> float:
    return (2 * math.log(2 * q_bar + 1) + 6 * q_bar * math.log(n_symbols)
            + sandwich_1d_log_constant(potential, m, q_bar))


# ---------------------------------------------------------------------------
# weak-Gibbs deviation scan
# ---------------------------------------------------------------------------

def weak_gibbs_scan(measure: RPFMeasure, m_list,
                    cap: int | None = None) -> WeakGibbsReport:
    """Maximal per-site deviation between log cylinder measure and the
    energy density minus pressure, over all allowed center words.

    With U the energy of the measure's own potential
    (``measure.transfer.potential``) and log lambda its limiting pressure
    (``measure.log_lambda``),

    D_m = max over allowed (2m+1)-words u of
          |log nu([u]) - (U(u) - (2m+1) log lambda)| / (2m+1).

    On the right-resolving transfer cover, with pi the stationary vector,
    h the right Perron vector, ctx_s the context of cover state s and
    t_s(u) the state s reaches along u,

        log nu([u]) - U(u) + L log lambda
          = log sum_s (pi_s / h_s) exp(cross(ctx_s, u[:R]) - U(u[:R])) h_{t_s(u)},

    because every step energy past the first R = ``context_len`` letters
    cancels.  The right side depends only on the class of u: its first R
    letters and the map s -> t_s(u).  So each row is a max over the classes
    reached at its length (``_kernels.class_deviation``).  Every row goes
    through one routine: a class is a pair of a prefix p (the first R
    letters of u, all of u while it is shorter, from ``word_matrix``) and
    the map of the rest of u, the identity when nothing is left, taken from
    one table of distinct maps per length (each found from the last through
    the cover's transitions).  A walk along the cover gives each prefix's
    map and cross(ctx_s, p), the ``TransferSystem.step`` energies on the
    path from s.  Its sum runs first over the states p leads to (at R
    letters all with the context p, so at most one per vertex), and only
    the pairs that may attain the row's maximum are summed again over all
    S states, which gives the reported bits.  Those tables are S wide, so
    the scan first refuses (``VolumeGuardError``) a cover whose S x S
    exceeds ``DENSE_ENTRIES_CAP``; it is the only bound on S, since
    ``build_transfer`` and the measure built on it hold nothing S x S.  The
    enumeration cap (``DEFAULT_ENUM_CAP`` when ``cap`` is None) still
    applies to the deepest length and is checked next, before any work.  The
    tests keep the per-word route (``iter_word_blocks`` words through
    ``word_energies`` and a dense batched forward product, itself checked
    against ``cylinder_prob``), the trie walk and the pass with one S-wide
    map per class as oracles.

    The analytic bound per row combines the exact-constant cylinder
    sandwich, the finite-volume pressure gap |P_m - log lambda| (every P_m
    from one partition-DP pass), and the empirical-pairing substitution
    error (boundary bound over volume).
    """
    presentation = measure.presentation
    transfer = measure.transfer
    potential = transfer.potential
    S = transfer.n_states
    # the class pass's tables of distinct maps are S wide
    if S * S > DENSE_ENTRIES_CAP:
        raise VolumeGuardError(
            f"volume too large for brute force: transfer support of {S} x {S} "
            f"entries for a range-{potential.span} potential")
    ms = sorted(m_list)
    if any(m < 0 for m in ms):
        raise ValidationError("m must be nonnegative")
    lengths = [2 * m + 1 for m in ms]
    presentation.check_volume(max(lengths, default=0), cap)
    n_symbols = len(presentation.alphabet)
    delta = np.pad(transfer.succ, ((0, 0), (0, 1)), constant_values=S
                   ).astype(np.min_scalar_type(S))
    R = transfer.context_len
    prefixes = {k: presentation.word_matrix(k, cap)
                for k in dict.fromkeys(min(length, R) for length in lengths)}
    worst = _kernels.class_deviation(
        delta, np.pad(transfer.step, ((0, 0), (0, 1))),
        np.log(measure.stationary / measure.h),
        np.append(np.log(measure.h), -np.inf), potential.step_tables, prefixes,
        lengths, R)
    q = presentation.gap
    log_z = _dp_log_partition(presentation, potential, lengths)
    rows = []
    for m, length, dev, lz in zip(ms, lengths, worst, log_z):
        p_m = lz / length
        log_k = ratio_log_constant(potential, m, q, n_symbols)
        bound = ((math.log(2 * q + 1) + log_k + boundary_norm_bound(potential, m))
                 / length + abs(p_m - measure.log_lambda))
        rows.append((m, float(dev) / length, bound))
    return WeakGibbsReport(tuple(rows))


# ---------------------------------------------------------------------------
# tangent functional and the exact derivative of the partition pass
# ---------------------------------------------------------------------------

def indicator_potential(presentation: SoficPresentation, u_bar: Word) -> Potential:
    """Potential with a single interval shape whose value is 1 exactly on
    the given allowed center word."""
    _require_allowed_center(presentation, u_bar)
    span = len(u_bar) - 1
    shape = ShapeTable(tuple(range(span + 1)), {u_bar.letters: 1.0})
    return Potential(presentation.alphabet, span, (shape,))


def tangent_derivative_check(presentation: SoficPresentation, potential: Potential,
                             u_bar: Word, n: int, t_step: float
                             ) -> tuple[float, float, float]:
    """Compare three routes to the cylinder weight of a center word:

    * central finite difference of P_n along the indicator direction, from
      partition passes on f + t 1_u and f - t 1_u,
    * the exact derivative E[occurrences of u] / (2n+1), from one pass on
      f that carries the mean of the indicator's energy
      (``_dp_log_partition``'s ``along``),
    * the equilibrium measure's cylinder probability.

    That is three partition passes for every n.  The measure comes first,
    so a refused transfer or a reducible or periodic shift costs no pass;
    a context space of f too large for the step tables is refused after
    the cover's own checks and before the measure.  No word is enumerated.
    """
    indicator = indicator_potential(presentation, u_bar)  # refuses a bad center
    _check_cover(presentation, potential)
    _check_context_space(potential)
    measure = equilibrium_measure(presentation, potential)
    cylinder_value = cylinder_prob(measure, u_bar)
    length = 2 * n + 1

    def log_z(pot: Potential) -> float:
        return _dp_log_partition(presentation, pot, [length])[0]

    finite_diff = (log_z(add_potentials(potential, indicator, t_step))
                   - log_z(add_potentials(potential, indicator, -t_step))
                   ) / (2.0 * t_step * length)
    formula = _dp_log_partition(presentation, potential, [length],
                                indicator)[0] / length
    return finite_diff, formula, cylinder_value


# ---------------------------------------------------------------------------
# constrained partitions and the lemma suites
# ---------------------------------------------------------------------------

def _require_allowed_center(presentation: SoficPresentation, v: Word) -> None:
    if len(v) % 2 == 0 or v.start != -(len(v) // 2):
        raise ValidationError("center word must live on a symmetric window [-m, m]")
    if not presentation.allows(v.letters):
        raise ValidationError("disallowed word")


def _class_ids(windows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense class ids of the rows of a 2-D array of letter indices,
    numbered in the lexicographic order of the rows' letters, and the number
    of classes.  The columns fold into int64 codes base b = largest letter + 1,
    a chunk at a time: each code is the dense id of the row's columns so
    far followed by as many more columns as keep the code space within
    rows * b.  ``_kernels.dense_ids`` renumbers the codes densely after
    each fold, bounded by that code space.  Rows of width 0 form one
    class."""
    rows, width = windows.shape
    base = int(windows.max(initial=0)) + 1
    ids = np.zeros(rows, dtype=np.intp)
    n_ids, col = 1, 0
    while col < width and n_ids:
        step = 1
        while col + step < width and n_ids * base ** (step + 1) <= rows * base:
            step += 1
        codes = ids
        for letters in windows[:, col:col + step].T:
            codes = codes * base + letters
        ids, rep = _kernels.dense_ids(codes, n_ids * base ** step)
        n_ids, col = rep.shape[0], col + step
    return ids, n_ids


def _shifted_class_ids(words: np.ndarray, window: tuple[int, int],
                       shifts: range) -> tuple[np.ndarray, int]:
    """``_class_ids`` of the positions [lo + ell, hi + ell] of words on
    [-n, n] at every shift ell, in one numbering; row k holds shift k."""
    n = words.shape[1] // 2
    ids, n_ids = _class_ids(np.concatenate(
        [words[:, n + window[0] + ell:n + window[1] + ell + 1] for ell in shifts]))
    return ids.reshape(len(shifts), words.shape[0]), n_ids


def _exterior_ids(words: np.ndarray, j: int, reach: int) -> tuple[np.ndarray, int]:
    """``_class_ids`` of the exteriors of words on [-n, n]: the positions k
    with |k - j| > ``reach``."""
    n = words.shape[1] // 2
    return _class_ids(words[:, np.abs(np.arange(-n, n + 1) - j) > reach])


def _distinct_per_word(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct class ids in each column of ``ids`` (column i belongs to
    word i) as parallel arrays of (class id, word index).  Sorts ``ids`` in
    place; a caller that reads them afterwards passes a copy."""
    ids.sort(axis=0)
    first = np.empty(ids.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return ids[first], np.broadcast_to(np.arange(ids.shape[1]), ids.shape)[first]


def lemma_211_check(presentation: SoficPresentation, potential: Potential,
                    n: int, m: int, j: int, ell: int, ell_prime: int,
                    x: Word, y: Word) -> LemmaReport:
    """Exact-constant sandwich between full-volume and center-window energy
    differences for two words agreeing outside the collar window, q the
    presentation's gap (``SoficPresentation.gap``)."""
    q = presentation.gap
    for w in (x, y):
        if w.window != (-n, n):
            raise ValidationError("windows inconsistent: words must live on [-n, n]")
    if abs(ell) > q or abs(ell_prime) > q:
        raise ValidationError("windows inconsistent: shifted windows leave the collar")
    if abs(j) > n - (m + q):
        raise ValidationError("windows inconsistent: collar leaves the volume")
    for k in range(-n, n + 1):
        if abs(k - j) > m + q and x.symbol_at(k) != y.symbol_at(k):
            raise ValidationError("words differ outside the collar window")
    log_c = sandwich_log_constant(potential, m, q)
    du_full = energy(potential, x) - energy(potential, y)
    du_small = (energy(potential, x.restrict(j + ell - m, j + ell + m))
                - energy(potential, y.restrict(j + ell_prime - m, j + ell_prime + m)))
    records = (
        InequalityRecord("sandwich_lower", du_small - log_c, du_full,
                         du_small - log_c <= du_full),
        InequalityRecord("sandwich_upper", du_full, du_small + log_c,
                         du_full <= du_small + log_c),
    )
    return LemmaReport(
        context={"n": n, "m": m, "q": q, "j": j, "ell": ell, "ell_prime": ell_prime,
                 "x": x.text(), "y": y.text()},
        constants={"log_C": log_c},
        inequalities=records)


def lemma_211_worst(presentation: SoficPresentation, potential: Potential,
                    n: int, m: int, j: int, cap: int | None = None) -> LemmaReport:
    """``lemma_211_check`` at the pair with the worst |du_full - du_small|
    over every two words on [-n, n] that agree outside the collar window (q
    the presentation's gap) and every two shifts ell, ell' in [-q, q].

    With A(x, ell) = U(x) - U(x on [j+ell-m, j+ell+m]), two words that share
    their exterior (``_exterior_ids``) have du_full - du_small =
    A(x, ell) - A(y, ell'), so the worst pair lies in the exterior group
    with the largest max A - min A: x and ell attain its max, y and ell' its
    min.  Ties go to the first group in id order, then to the first (shift,
    word).  x = y counts, so every volume has a pair.  A context space too
    large for the step tables is refused first, before the gap is computed;
    the collar is checked to lie in the volume before any word is
    enumerated, and only the two words of the pair become ``Word`` objects."""
    _check_context_space(potential)
    q = presentation.gap
    if abs(j) > n - (m + q):
        raise ValidationError("windows inconsistent: collar leaves the volume")
    words = presentation.word_matrix(2 * n + 1, cap=cap)
    ids, n_ids = _exterior_ids(words, j, m + q)
    lo = n + j - m - q  # first column of the window at ell = -q
    a = word_energies(potential, words) - np.stack(
        [word_energies(potential, words[:, lo + k:lo + k + 2 * m + 1])
         for k in range(2 * q + 1)])
    top, bottom = np.full(n_ids, -np.inf), np.full(n_ids, np.inf)
    np.maximum.at(top, ids, a.max(axis=0))
    np.minimum.at(bottom, ids, a.min(axis=0))
    members = np.flatnonzero(ids == np.argmax(top - bottom))
    group = a[:, members]
    (k, i), (k_p, i_p) = (np.unravel_index(pick(group), group.shape)
                          for pick in (np.argmax, np.argmin))
    x, y = (Word(presentation.alphabet, -n, tuple(words[members[r]].tolist()))
            for r in (i, i_p))
    return lemma_211_check(presentation, potential, n, m, j, int(k) - q,
                           int(k_p) - q, x, y)


@record(eq=False)
class Lemma212Tables:
    """The center-free part of the 212 suite at one (n, m, j): the brute
    partition, every per-center quantity as an array indexed by center
    class (the exact class sums times 2**_SHIFT, the exterior counts), the
    rows that do not read the center word, and the constants.
    ``lemma_212_check`` evaluates one center word from them by lookups; q
    is the presentation's gap."""

    presentation: SoficPresentation
    potential: Potential
    n: int
    m: int
    j: int
    partition: BrutePartition
    scale: float
    z_n: int
    centers: np.ndarray      # the center words in class order, one row each
    n_ext: int
    ext_count: np.ndarray    # exteriors of the words showing each center at some shift
    z_ell: np.ndarray        # Z_{n,ell}(v) per (shift, center class)
    records: tuple[InequalityRecord, ...]
    constants: dict


@record(eq=False)
class Decoupling1dTables:
    """The center-free part of the 1d suite at one (n, m, j, q_bar): the
    brute partition, every per-center quantity as an array indexed by
    center class (the exact class sums times 2**_SHIFT, the energy
    sandwich's worst spread), the rows that do not read the center word,
    and the constants.  The lemma's premise asks q_bar to reach the
    presentation's gap.  ``decoupling_1d_check`` evaluates one center word
    from them by lookups."""

    presentation: SoficPresentation
    potential: Potential
    n: int
    m: int
    j: int
    q_bar: int
    lam_minus: tuple[int, int]
    lam_plus: tuple[int, int]
    partition: BrutePartition
    scale: float
    z_n: int
    centers: np.ndarray      # the center words in class order, one row each
    est: np.ndarray          # worst energy spread against each center's classes
    z_v: np.ndarray          # Z_n(v) per center class
    records: tuple[InequalityRecord, ...]
    constants: dict


def require_center(presentation: SoficPresentation, m: int, u_bar: Word) -> None:
    """Refuse a center word that is not an allowed word on [-m, m]."""
    _require_allowed_center(presentation, u_bar)
    if len(u_bar) != 2 * m + 1:
        raise ValidationError("windows inconsistent: center word must have length 2m+1")


def _center_id(tables, u_bar: Word) -> int:
    """The class id of the center word: its row in ``tables.centers``.
    Class ids follow the lexicographic order of the center words, and every
    letter is one byte (``_check_context_space`` refuses more than 256
    letters), so the rows sort as their bytes do and one ``np.searchsorted``
    over a void view of them finds the row."""
    require_center(tables.presentation, tables.m, u_bar)
    centers = tables.centers
    row = np.dtype((np.void, centers.shape[1] * centers.itemsize))
    key = np.array(u_bar.letters, dtype=centers.dtype).view(row)
    c = int(np.searchsorted(centers.view(row).ravel(), key)[0])
    if c == centers.shape[0] or centers[c].tobytes() != key.tobytes():
        raise ValidationError("center word does not extend to the volume")
    return c


def lemma_212_tables(presentation: SoficPresentation, potential: Potential,
                     n: int, m: int, j: int,
                     cap: int | None = None) -> Lemma212Tables:
    """Build the center-free tables of the 212 suite once; every center word
    is then checked from them by ``lemma_212_check``.

    Records the chain of intermediate relations (single-shift sums versus
    the union partition function, the union's partition identity envelope)
    over every center pattern, all with exact constants.  A context space
    too large for the step tables is refused first, before the gap is
    computed.
    """
    _check_context_space(potential)
    q = presentation.gap
    if abs(j) > n - (m + q):
        raise ValidationError("windows inconsistent: |j| must be at most n-(m+q)")
    bp = brute_partition(presentation, potential, n, cap=cap)
    words = bp.words
    terms, scale = _exact_terms(bp.energies)
    shifts = range(-q, q + 1)

    # class ids: the center pattern at every shift (one numbering across
    # shifts, in byte order of the patterns) and each word's exterior
    center_ids, n_centers = _shifted_class_ids(words, (j - m, j + m), shifts)
    ext_ids, n_ext = _exterior_ids(words, j, m + q)
    # the exteriors of the words that show each center at some shift, from
    # a center x exterior table: when decoupling_nonempty holds, every
    # entry is a realized (center, exterior) pair, so it holds at most
    # (2q+1) x words entries
    seen = np.zeros((n_centers, n_ext), dtype=bool)
    seen[center_ids, ext_ids] = True
    ext_count = np.count_nonzero(seen, axis=1)

    # Z_{n,ell}(v) per (shift, center), one shift at a time; each shift
    # splits Z_n.  Zbar(v) takes each word once per center it shows at
    # some shift
    z_ell = np.stack([_limb_sums(ids, terms, n_centers) for ids in center_ids])
    z_n = z_ell[0].sum()
    pair_center, pair_word = _distinct_per_word(center_ids.copy())
    z_bar = _limb_sums(pair_center, terms, n_centers, pair_word)

    records: list[InequalityRecord] = []

    def add(name: str, lhs: float, rhs: float, holds: bool) -> None:
        records.append(InequalityRecord(name, lhs, rhs, holds))

    def log_terms(total: int) -> float:
        return _log_scaled(total, scale)

    # eqineqell1: Z_{n,ell}(v) <= Zbar(v) <= sum_ell' Z_{n,ell'}(v); each
    # row is the first smallest slack in (center, ell) order
    c, s = divmod(int(np.argmin(z_bar[:, None] - z_ell.T)), len(shifts))
    add("eqineqell1_lower", log_terms(z_ell[s, c]), log_terms(z_bar[c]),
        z_ell[s, c] <= z_bar[c])
    z_sum = z_ell.sum(axis=0)
    c = int(np.argmin(z_sum - z_bar))
    add("eqineqell1_upper", log_terms(z_bar[c]), log_terms(z_sum[c]),
        z_bar[c] <= z_sum[c])

    # eqineqell2: Z_n <= sum_v Zbar(v) <= (2q+1) Z_n
    z_bar_total = z_bar.sum()
    add("eqineqell2_lower", log_terms(z_n), log_terms(z_bar_total),
        z_n <= z_bar_total)
    add("eqineqell2_upper", log_terms(z_bar_total),
        math.log(2 * q + 1) + log_terms(z_n),
        z_bar_total <= (2 * q + 1) * z_n)

    reps = _kernels.dense_ids(center_ids[q], n_centers)[1]
    return Lemma212Tables(
        presentation, potential, n, m, j, bp, scale, z_n,
        words[reps, n + j - m:n + j + m + 1], n_ext, ext_count, z_ell,
        tuple(records),
        {"log_C": sandwich_log_constant(potential, m, q),
         "log_K": ratio_log_constant(potential, m, q, len(presentation.alphabet)),
         "P_m": finite_pressure(presentation, potential, m)})


def lemma_212_check(tables: Lemma212Tables, u_bar: Word) -> LemmaReport:
    """Brute-force verification of the constrained-partition ratio bounds
    for one center word: the center-free rows of ``tables``, the
    nonemptiness of the union classes for the word, and the two displayed
    two-sided bounds with exact constants."""
    t = tables
    u_id = _center_id(t, u_bar)
    q, length = t.presentation.gap, 2 * t.m + 1
    log_k, p_m = t.constants["log_K"], t.constants["P_m"]
    log_z_n = _log_scaled(t.z_n, t.scale)
    # nonemptiness of the union classes for the word
    u_ext = int(t.ext_count[u_id])
    u_energy = energy(t.potential, u_bar)
    lhs_up = _log_scaled(t.z_ell[q, u_id], t.scale) - log_z_n
    rhs_up = math.log(2 * q + 1) + log_k + u_energy - length * p_m
    lhs_low = u_energy - log_k - length * p_m
    rhs_low = _log_scaled(t.z_ell[:, u_id].sum(), t.scale) - log_z_n
    return LemmaReport(
        context={"n": t.n, "m": t.m, "j": t.j, "q": q, "u_bar": u_bar.text()},
        constants=dict(t.constants),
        inequalities=t.records + (
            InequalityRecord("decoupling_nonempty", float(t.n_ext), float(u_ext),
                             t.n_ext <= u_ext),
            InequalityRecord("main_upper", lhs_up, rhs_up, lhs_up <= rhs_up),
            InequalityRecord("main_lower", lhs_low, rhs_low, lhs_low <= rhs_low)))


def decoupling_1d_tables(presentation: SoficPresentation, potential: Potential,
                         n: int, m: int, j: int, q_bar: int | None = None,
                         cap: int | None = None) -> Decoupling1dTables:
    """Build the center-free tables of the 1d suite once; every center word
    is then checked from them by ``decoupling_1d_check``.

    Records the two-tail class decomposition, its cardinality window and
    the union trick, all with exact constants.  A context space too large
    for the step tables is refused first, before the gap is computed.
    """
    _check_context_space(potential)
    # the gap refuses a reducible presentation even when q_bar is given
    gap = presentation.gap
    q_bar = gap if q_bar is None else q_bar
    if n <= m + 2 * q_bar:
        raise ValidationError("window preconditions violated: need n > m + 2*q_bar")
    if abs(j) >= n - (m + 3 * q_bar):
        raise ValidationError(
            "window preconditions violated: need |j| < n - (m + 3*q_bar)")
    bp = brute_partition(presentation, potential, n, cap=cap)
    words, energies = bp.words, bp.energies
    terms, scale = _exact_terms(energies)
    n_words, length = words.shape[0], 2 * m + 1

    # window geometry (positions, then columns by +n)
    lam_minus = (-n + q_bar, j - (m + 2 * q_bar) - 1)
    lam_plus = (j + m + 2 * q_bar + 1, n - q_bar)
    center = slice(n + j - m, n + j + m + 1)
    shifts = range(-q_bar, q_bar + 1)
    n_pairs = len(shifts) ** 2

    # class decomposition: a class is a triple (v, w-, w+) of the center
    # word and the tail patterns matched at a pair of shifted windows.  The
    # (w-, w+) pairs over all (ell-, ell+) are renumbered densely before
    # they are packed with v, so no packed key overflows.
    center_ids, n_centers = _class_ids(words[:, center])
    minus_ids, n_minus = _shifted_class_ids(words, lam_minus, shifts)
    plus_ids, n_plus = _shifted_class_ids(words, lam_plus, shifts)
    tails, tail_reps = _kernels.dense_ids(
        (minus_ids[:, None] * n_plus + plus_ids[None]).ravel(), n_minus * n_plus)
    n_tails = tail_reps.shape[0]
    class_keys = np.tile(center_ids, n_pairs) * n_tails + tails
    class_ids, class_reps = _kernels.dense_ids(class_keys, n_centers * n_tails)
    class_keys = class_keys[class_reps]
    # class_ids is not read again, so its columns are sorted where they lie
    pair_class, pair_word = _distinct_per_word(class_ids.reshape(n_pairs, n_words))
    sizes = np.bincount(pair_class)

    # every (v, w-, w+) triple with allowed components must be realized
    expected = (presentation.word_count(length)
                * presentation.word_count(lam_minus[1] - lam_minus[0] + 1)
                * presentation.word_count(lam_plus[1] - lam_plus[0] + 1))
    realized = len(class_keys)
    min_size, max_size = int(sizes.min()), int(sizes.max())
    card_bound = (2 * q_bar + 1) ** 2 * len(presentation.alphabet) ** (6 * q_bar)

    records: list[InequalityRecord] = []

    def add(name, lhs, rhs, holds):
        records.append(InequalityRecord(name, lhs, rhs, holds))

    add("nonempty_classes", float(expected), float(realized), expected <= realized)
    add("cardinality_lower", 1.0, float(min_size), 1 <= min_size)
    try:
        card_rhs = float(card_bound)
    except OverflowError:  # past the float range
        card_rhs = math.inf
    add("cardinality_upper", float(max_size), card_rhs, max_size <= card_bound)

    # trick: Z_n(v) <= Zbar_n(v) <= (2q+1)^2 Z_n(v), the union taking each
    # word once per class (v, w-, w+) it lies in; each row is the first
    # smallest slack in center order
    z_v = _limb_sums(center_ids, terms, n_centers)
    z_n = z_v.sum()
    z_bar = _limb_sums(class_keys[pair_class] // n_tails, terms, n_centers,
                       pair_word)

    def log_terms(total: int) -> float:
        return _log_scaled(total, scale)

    c = int(np.argmin(z_bar - z_v))
    add("trick_lower", log_terms(z_v[c]), log_terms(z_bar[c]), z_v[c] <= z_bar[c])
    c = int(np.argmin(n_pairs * z_v - z_bar))
    add("trick_upper", log_terms(z_bar[c]), log_terms(n_pairs * z_v[c]),
        z_bar[c] <= n_pairs * z_v[c])

    # energy sandwich: est[u] is the largest spread max(g_max(v, w-, w+) -
    # g_min(u, w-, w+), g_max(u, w-, w+) - g_min(v, w-, w+)) over the
    # classes of u and every class sharing both tails, with g the energy
    # outside the center.  Float subtraction rounds monotonically, so the
    # max over v is each tail pair's top minus g_min, bit for bit
    g = energies - word_energies(potential, words[:, center])
    g_min = np.full(realized, np.inf)
    g_max = np.full(realized, -np.inf)
    np.minimum.at(g_min, pair_class, g[pair_word])
    np.maximum.at(g_max, pair_class, g[pair_word])
    class_center, class_tail = np.divmod(class_keys, n_tails)
    top = np.full(n_tails, -np.inf)
    bottom = np.full(n_tails, np.inf)
    np.maximum.at(top, class_tail, g_max)
    np.minimum.at(bottom, class_tail, g_min)
    est = np.full(n_centers, -np.inf)
    np.maximum.at(est, class_center, np.maximum(top[class_tail] - g_min,
                                                g_max - bottom[class_tail]))

    reps = _kernels.dense_ids(center_ids, n_centers)[1]
    return Decoupling1dTables(
        presentation, potential, n, m, j, q_bar, lam_minus, lam_plus, bp,
        scale, z_n, words[reps, center], est, z_v, tuple(records),
        {"log_C_prime": sandwich_1d_log_constant(potential, m, q_bar),
         "log_K_bar": ratio_1d_log_constant(potential, m, q_bar,
                                            len(presentation.alphabet)),
         "P_m": finite_pressure(presentation, potential, m)})


def decoupling_1d_check(tables: Decoupling1dTables, u_bar: Word) -> LemmaReport:
    """Brute-force verification of the one-dimensional splice variant for
    one center word: the center-free rows of ``tables``, the energy
    sandwich between each class and the class of the word sharing both
    tails, and the final two-sided ratio bound with exact constants."""
    t = tables
    u_id = _center_id(t, u_bar)
    length = 2 * t.m + 1
    log_c1, log_k, p_m = (t.constants["log_C_prime"], t.constants["log_K_bar"],
                          t.constants["P_m"])

    # energy sandwich between each class (v, w-, w+) and (u_bar, w-, w+)
    worst_est = float(t.est[u_id])

    # final two-sided ratio bound with exact constants
    pair_log = 2 * math.log(2 * t.q_bar + 1)
    u_energy = energy(t.potential, u_bar)
    ratio = _log_scaled(t.z_v[u_id], t.scale) - _log_scaled(t.z_n, t.scale)
    lhs_low = u_energy - pair_log - log_k - length * p_m
    rhs_up = pair_log + log_k + u_energy - length * p_m
    return LemmaReport(
        context={"n": t.n, "m": t.m, "j": t.j, "q_bar": t.q_bar,
                 "gap": t.presentation.gap, "u_bar": u_bar.text(),
                 "lam_minus": t.lam_minus, "lam_plus": t.lam_plus},
        constants=dict(t.constants),
        inequalities=t.records + (
            InequalityRecord("est", worst_est, log_c1, worst_est <= log_c1),
            InequalityRecord("final_lower", lhs_low, ratio, lhs_low <= ratio),
            InequalityRecord("final_upper", ratio, rhs_up, ratio <= rhs_up)))
