"""Numerical certification of the weak-Gibbs estimate and the lemma
inequalities behind it.

Every check substitutes exact computable constants for the asymptotic
epsilon terms, so each recorded inequality is unconditional and meaningful
at small volumes.  Partition-type quantities that get compared against one
another are accumulated as exact dyadic integers over a shared term list,
which makes subset and partition relations hold exactly rather than up to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from . import _kernels
from .measures import RPFMeasure, cylinder_prob, equilibrium_measure
from .potentials import (Potential, ShapeTable, boundary_norm_bound, energy,
                         norms)
from .pressure import (_dp_log_partition, _step_tables, brute_partition,
                       finite_pressure, log_sum_exp, word_energies)
from .shifts import SoficPresentation, Word, decoupling_gap

_LN2 = math.log(2.0)
_SHIFT = 1100  # dyadic rescale exponent; covers the double exponent range


def _dyadic_ints(values: list[float]) -> list[int]:
    """The integers t * 2**_SHIFT of floats t in [0, 1]: each t is m / d with
    d a power of two at most 2**1074, so t * 2**_SHIFT = m * 2**(_SHIFT -
    log2 d) exactly."""
    return [m << (_SHIFT + 1 - d.bit_length())
            for m, d in map(float.as_integer_ratio, values)]


def _exact_terms(energies: np.ndarray) -> tuple[list[int], float]:
    """Represent exp(energies) exactly as integers times 2**-_SHIFT relative
    to the common scale max(energies)."""
    scale = float(energies.max()) if energies.size else 0.0
    return _dyadic_ints(np.exp(energies - scale).tolist()), scale


def _log_scaled(total: int, scale: float) -> float:
    if total <= 0:
        return -math.inf
    bl = total.bit_length()
    if bl <= 900:
        return math.log(total) + scale - _SHIFT * _LN2
    sh = bl - 60
    return math.log(total >> sh) + sh * _LN2 + scale - _SHIFT * _LN2


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class LemmaReport:
    """Inequality slacks of one lemma check with its exact constants."""

    context: dict
    constants: dict
    inequalities: tuple[InequalityRecord, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.inequalities)


@dataclass(frozen=True)
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

def weak_gibbs_scan(measure: RPFMeasure, potential: Potential, p_limit: float,
                    m_list, cap: int | None = None) -> WeakGibbsReport:
    """Maximal per-site deviation between log cylinder measure and the
    energy density minus pressure, over all allowed center words.

    D_m = max over allowed (2m+1)-words u of
          |log nu([u]) - (U(u) - (2m+1) p_limit)| / (2m+1).

    All rows come from one walk of the word automaton's trie down to the
    deepest length (``_kernels.scan_deviation``): each trie node carries its
    scaled forward vector, log normaliser and energy (summed from the step
    energies of the transfer cover), so every word costs O(1) amortized.
    The walk runs in bounded blocks of subtrees and never holds a word
    matrix; the enumeration cap still applies to the deepest length and is
    checked before any work.  The tests keep the per-word route as the
    oracle: ``iter_word_blocks`` words through ``word_energies`` and
    ``cylinder_log_probs``.

    The analytic bound per row combines the exact-constant cylinder
    sandwich, the finite-volume pressure gap |P_m - p_limit| (every P_m
    from one partition-DP pass), and the empirical-pairing substitution
    error (boundary bound over volume).
    """
    presentation = measure.presentation
    ms = sorted(m_list)
    if any(m < 0 for m in ms):
        raise ValidationError("m must be nonnegative")
    lengths = [2 * m + 1 for m in ms]
    counts = presentation.check_volume(max(lengths, default=0), cap)
    det, start = presentation._det
    worst = _kernels.scan_deviation(
        det, start, measure.q_by_symbol, measure.stationary,
        _step_tables(potential), lengths, p_limit,
        [np.asarray(c, dtype=float) for c in counts])
    q = decoupling_gap(presentation, "bounded-length").gap
    n_symbols = len(presentation.alphabet)
    log_z = _dp_log_partition(presentation, potential, lengths)
    rows = []
    for m, length, dev, lz in zip(ms, lengths, worst, log_z):
        p_m = lz / length
        log_k = ratio_log_constant(potential, m, q, n_symbols)
        bound = ((math.log(2 * q + 1) + log_k + boundary_norm_bound(potential, m))
                 / length + abs(p_m - p_limit))
        rows.append((m, float(dev) / length, bound))
    return WeakGibbsReport(tuple(rows))


# ---------------------------------------------------------------------------
# tangent functional and its brute-force derivative
# ---------------------------------------------------------------------------

def indicator_potential(presentation: SoficPresentation, u_bar: Word) -> Potential:
    """Potential with a single interval shape whose value is 1 exactly on
    the given allowed center word."""
    _require_allowed_center(presentation, u_bar)
    span = len(u_bar) - 1
    shape = ShapeTable(tuple(range(span + 1)), {u_bar.letters: 1.0})
    return Potential(presentation.alphabet, span, (shape,))


def _occurrence_counts(words: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    length = words.shape[1]
    width = len(pattern)
    pat = np.array(pattern, dtype=words.dtype)
    counts = np.zeros(words.shape[0], dtype=np.int64)
    for a in range(length - width + 1):
        counts += (words[:, a:a + width] == pat).all(axis=1)
    return counts


def tangent_derivative_check(presentation: SoficPresentation, potential: Potential,
                             u_bar: Word, n: int, t_step: float,
                             cap: int | None = None
                             ) -> tuple[float, float, float]:
    """Compare three routes to the cylinder weight of a center word:

    * central finite difference of P_n along the indicator direction,
    * the exact brute-force derivative (occurrence-weighted Gibbs average),
    * the equilibrium measure's cylinder probability.
    """
    indicator_potential(presentation, u_bar)  # validates the word
    length = 2 * n + 1
    bp = brute_partition(presentation, potential, n, cap=cap)
    counts = _occurrence_counts(bp.words, u_bar.letters)
    log_z = bp.log_z

    def p_n(t: float) -> float:
        return log_sum_exp(bp.energies + t * counts) / length

    finite_diff = (p_n(t_step) - p_n(-t_step)) / (2.0 * t_step)
    weights = np.exp(bp.energies - log_z)
    formula = float((counts * weights).sum()) / length
    measure = equilibrium_measure(presentation, potential)
    cylinder_value = cylinder_prob(measure, u_bar)
    return finite_diff, formula, cylinder_value


# ---------------------------------------------------------------------------
# constrained partitions and the lemma suites
# ---------------------------------------------------------------------------

def _require_allowed_center(presentation: SoficPresentation, v: Word) -> None:
    if len(v) % 2 == 0 or v.start != -(len(v) // 2):
        raise ValidationError("center word must live on a symmetric window [-m, m]")
    if not presentation.allows(v.letters):
        raise ValidationError("disallowed word")


def constrained_partition(presentation: SoficPresentation, potential: Potential,
                          n: int, j: int, ell: int, v: Word,
                          cap: int | None = None) -> float:
    """log of the partition sum over allowed (2n+1)-words whose restriction
    to the shifted center window equals the given pattern."""
    _require_allowed_center(presentation, v)
    m = len(v) // 2
    q = decoupling_gap(presentation, "bounded-length").gap
    if abs(ell) > q:
        raise ValidationError(f"windows inconsistent: |ell| must be at most q={q}")
    if abs(j) > n - (m + q):
        raise ValidationError("windows inconsistent: |j| must be at most n-(m+q)")
    bp = brute_partition(presentation, potential, n, cap=cap)
    lo = n + j + ell - m  # column of window position j+ell-m
    cols = bp.words[:, lo:lo + 2 * m + 1]
    mask = (cols == np.array(v.letters, dtype=bp.words.dtype)).all(axis=1)
    return log_sum_exp(bp.energies[mask])


def lemma_211_check(presentation: SoficPresentation, potential: Potential,
                    n: int, m: int, q: int, j: int, ell: int, ell_prime: int,
                    x: Word, y: Word) -> LemmaReport:
    """Exact-constant sandwich between full-volume and center-window energy
    differences for two words agreeing outside the collar window."""
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
        context={"n": n, "m": m, "q": q, "j": j, "ell": ell, "ell_prime": ell_prime},
        constants={"log_C": log_c},
        inequalities=records)


def lemma_212_check(presentation: SoficPresentation, potential: Potential,
                    n: int, m: int, j: int, u_bar: Word,
                    cap: int | None = None) -> LemmaReport:
    """Brute-force verification of the constrained-partition ratio bounds.

    Records the chain of intermediate relations (single-shift sums versus
    the union partition function, the union's partition identity envelope)
    and the two displayed two-sided bounds, all with exact constants.
    """
    _require_allowed_center(presentation, u_bar)
    if len(u_bar) != 2 * m + 1:
        raise ValidationError("windows inconsistent: center word must have length 2m+1")
    q = decoupling_gap(presentation, "bounded-length").gap
    if abs(j) > n - (m + q):
        raise ValidationError("windows inconsistent: |j| must be at most n-(m+q)")
    bp = brute_partition(presentation, potential, n, cap=cap)
    words, energies = bp.words, bp.energies
    terms, scale = _exact_terms(energies)
    z_n = sum(terms)
    length = 2 * m + 1
    shifts = range(-q, q + 1)

    # center patterns per shift, exterior pattern per word
    center_cols = {ell: slice(n + j + ell - m, n + j + ell + m + 1) for ell in shifts}
    ext_cols = [k for k in range(2 * n + 1) if abs(k - n - j) > m + q]
    ext_idx = np.array(ext_cols, dtype=np.int64)

    z_ell: dict[tuple[int, bytes], int] = {}
    union_members: dict[tuple[bytes, bytes], set[int]] = {}
    centers: set[bytes] = set()
    for i in range(words.shape[0]):
        row = words[i]
        w_key = row[ext_idx].tobytes()
        for ell in shifts:
            v_key = row[center_cols[ell]].tobytes()
            centers.add(v_key)
            z_ell[(ell, v_key)] = z_ell.get((ell, v_key), 0) + terms[i]
            union_members.setdefault((v_key, w_key), set()).add(i)

    z_bar: dict[bytes, int] = {}
    for (v_key, _w_key), members in union_members.items():
        z_bar[v_key] = z_bar.get(v_key, 0) + sum(terms[i] for i in members)

    u_key = np.array(u_bar.letters, dtype=words.dtype).tobytes()
    if (0, u_key) not in z_ell:
        raise ValidationError("center word does not extend to the volume")

    records: list[InequalityRecord] = []

    def add(name: str, lhs: float, rhs: float, holds: bool) -> None:
        records.append(InequalityRecord(name, lhs, rhs, holds))

    def log_terms(total: int) -> float:
        return _log_scaled(total, scale)

    # eqineqell1: Z_{n,ell}(v) <= Zbar(v) <= sum_ell' Z_{n,ell'}(v)
    worst_low = None
    worst_up = None
    for v_key in sorted(centers):
        zb = z_bar.get(v_key, 0)
        for ell in shifts:
            z = z_ell.get((ell, v_key), 0)
            slack = zb - z
            if worst_low is None or slack < worst_low[0]:
                worst_low = (slack, z, zb)
        z_sum = sum(z_ell.get((ell, v_key), 0) for ell in shifts)
        slack = z_sum - zb
        if worst_up is None or slack < worst_up[0]:
            worst_up = (slack, zb, z_sum)
    add("eqineqell1_lower", log_terms(worst_low[1]), log_terms(worst_low[2]),
        worst_low[1] <= worst_low[2])
    add("eqineqell1_upper", log_terms(worst_up[1]), log_terms(worst_up[2]),
        worst_up[1] <= worst_up[2])

    # eqineqell2: Z_n <= sum_v Zbar(v) <= (2q+1) Z_n
    z_bar_total = sum(z_bar.values())
    add("eqineqell2_lower", log_terms(z_n), log_terms(z_bar_total),
        z_n <= z_bar_total)
    add("eqineqell2_upper", log_terms(z_bar_total),
        math.log(2 * q + 1) + log_terms(z_n),
        z_bar_total <= (2 * q + 1) * z_n)

    # nonemptiness of the union classes for the reference word
    occupied_ext = {w_key for (_v, w_key) in union_members}
    u_ext = {w_key for (v_key, w_key) in union_members if v_key == u_key}
    add("decoupling_nonempty", float(len(occupied_ext)), float(len(u_ext)),
        len(occupied_ext) <= len(u_ext))

    # the two displayed bounds, with exact constants
    log_k = ratio_log_constant(potential, m, q, len(presentation.alphabet))
    u_energy = energy(potential, u_bar)
    p_m = finite_pressure(presentation, potential, m, method="product")
    lhs_up = log_terms(z_ell[(0, u_key)]) - log_terms(z_n)
    rhs_up = math.log(2 * q + 1) + log_k + u_energy - length * p_m
    add("main_upper", lhs_up, rhs_up, lhs_up <= rhs_up)
    z_u_sum = sum(z_ell.get((ell, u_key), 0) for ell in shifts)
    lhs_low = u_energy - log_k - length * p_m
    rhs_low = log_terms(z_u_sum) - log_terms(z_n)
    add("main_lower", lhs_low, rhs_low, lhs_low <= rhs_low)

    return LemmaReport(
        context={"n": n, "m": m, "j": j, "q": q, "u_bar": u_bar.text()},
        constants={"log_C": sandwich_log_constant(potential, m, q),
                   "log_K": log_k, "P_m": p_m},
        inequalities=tuple(records))


def decoupling_1d_check(presentation: SoficPresentation, potential: Potential,
                        n: int, m: int, j: int, u_bar: Word,
                        q_bar: int | None = None,
                        cap: int | None = None) -> LemmaReport:
    """Brute-force verification of the one-dimensional splice variant: the
    two-tail class decomposition, its cardinality window, the union trick,
    the energy sandwich with exact constants, and the final two-sided ratio
    bound."""
    _require_allowed_center(presentation, u_bar)
    if len(u_bar) != 2 * m + 1:
        raise ValidationError("windows inconsistent: center word must have length 2m+1")
    # refuses a reducible presentation even when q_bar is given
    gap = decoupling_gap(presentation, "bounded-length").gap
    if q_bar is None:
        q_bar = gap
    if n <= m + 2 * q_bar:
        raise ValidationError("window preconditions violated: need n > m + 2*q_bar")
    if abs(j) >= n - (m + 3 * q_bar):
        raise ValidationError(
            "window preconditions violated: need |j| < n - (m + 3*q_bar)")
    bp = brute_partition(presentation, potential, n, cap=cap)
    words, energies = bp.words, bp.energies
    terms, scale = _exact_terms(energies)
    length = 2 * m + 1
    n_words = words.shape[0]

    # window geometry (positions, then columns by +n)
    lam_minus = (-n + q_bar, j - (m + 2 * q_bar) - 1)
    lam_plus = (j + m + 2 * q_bar + 1, n - q_bar)
    center = slice(n + j - m, n + j + m + 1)
    shifts = range(-q_bar, q_bar + 1)

    def window_cols(window: tuple[int, int], ell: int) -> slice:
        return slice(n + window[0] + ell, n + window[1] + ell + 1)

    # class decomposition: for each word and each (ell-, ell+) pair, the
    # matched tail patterns; union classes collect members and multiplicity
    center_keys = words[:, center]
    members: dict[tuple[bytes, bytes, bytes], set[int]] = {}
    key_count: dict[int, set[tuple[bytes, bytes]]] = {i: set() for i in range(n_words)}
    for ell_m in shifts:
        cols_m = window_cols(lam_minus, ell_m)
        for ell_p in shifts:
            cols_p = window_cols(lam_plus, ell_p)
            for i in range(n_words):
                row = words[i]
                # the pattern matched at the shifted window is the tail word
                key = (center_keys[i].tobytes(), row[cols_m].tobytes(),
                       row[cols_p].tobytes())
                members.setdefault(key, set()).add(i)
                key_count[i].add((key[1], key[2]))

    # every (v, w-, w+) triple with allowed components must be realized
    expected = (presentation.word_count(length)
                * presentation.word_count(lam_minus[1] - lam_minus[0] + 1)
                * presentation.word_count(lam_plus[1] - lam_plus[0] + 1))
    realized = len(members)
    min_size = min(len(s) for s in members.values()) if members else 0
    max_size = max(len(s) for s in members.values()) if members else 0
    card_bound = (2 * q_bar + 1) ** 2 * len(presentation.alphabet) ** (6 * q_bar)

    records: list[InequalityRecord] = []

    def add(name, lhs, rhs, holds):
        records.append(InequalityRecord(name, lhs, rhs, holds))

    add("nonempty_classes", float(expected), float(realized), expected <= realized)
    add("cardinality_lower", 1.0, float(min_size), 1 <= min_size)
    add("cardinality_upper", float(max_size), float(card_bound),
        max_size <= card_bound)

    # trick: Z_n(v) <= Zbar_n(v) <= (2q+1)^2 Z_n(v), union weighted with
    # tail-class multiplicity
    z_v: dict[bytes, int] = {}
    z_bar: dict[bytes, int] = {}
    for i in range(n_words):
        v_key = center_keys[i].tobytes()
        z_v[v_key] = z_v.get(v_key, 0) + terms[i]
        z_bar[v_key] = z_bar.get(v_key, 0) + len(key_count[i]) * terms[i]
    worst_low = None
    worst_up = None
    for v_key, zv in sorted(z_v.items()):
        zb = z_bar[v_key]
        if worst_low is None or zb - zv < worst_low[0]:
            worst_low = (zb - zv, zv, zb)
        slack = (2 * q_bar + 1) ** 2 * zv - zb
        if worst_up is None or slack < worst_up[0]:
            worst_up = (slack, zb, (2 * q_bar + 1) ** 2 * zv)

    def log_terms(total: int) -> float:
        return _log_scaled(total, scale)

    add("trick_lower", log_terms(worst_low[1]), log_terms(worst_low[2]),
        worst_low[1] <= worst_low[2])
    add("trick_upper", log_terms(worst_up[1]), log_terms(worst_up[2]),
        worst_up[1] <= worst_up[2])

    # energy sandwich between union classes sharing both tails
    log_c1 = sandwich_1d_log_constant(potential, m, q_bar)
    u_ctr = word_energies(presentation, potential, words[:, center])
    g = energies - u_ctr
    g_min: dict[tuple[bytes, bytes, bytes], float] = {}
    g_max: dict[tuple[bytes, bytes, bytes], float] = {}
    for key, mem in members.items():
        vals = [float(g[i]) for i in mem]
        g_min[key] = min(vals)
        g_max[key] = max(vals)
    u_key = np.array(u_bar.letters, dtype=words.dtype).tobytes()
    worst_est = None
    for (v_key, w_m, w_p), _mem in members.items():
        ref = (u_key, w_m, w_p)
        if ref not in members:
            continue
        spread = max(g_max[(v_key, w_m, w_p)] - g_min[ref],
                     g_max[ref] - g_min[(v_key, w_m, w_p)])
        if worst_est is None or spread > worst_est:
            worst_est = spread
    add("est", worst_est if worst_est is not None else 0.0, log_c1,
        (worst_est if worst_est is not None else 0.0) <= log_c1)

    # final two-sided ratio bound with exact constants
    log_k = ratio_1d_log_constant(potential, m, q_bar, len(presentation.alphabet))
    pair_log = 2 * math.log(2 * q_bar + 1)
    u_energy = energy(potential, u_bar)
    p_m = finite_pressure(presentation, potential, m, method="product")
    z_n = sum(terms)
    if u_key not in z_v:
        raise ValidationError("center word does not extend to the volume")
    ratio = log_terms(z_v[u_key]) - log_terms(z_n)
    lhs_low = u_energy - pair_log - log_k - length * p_m
    rhs_up = pair_log + log_k + u_energy - length * p_m
    add("final_lower", lhs_low, ratio, lhs_low <= ratio)
    add("final_upper", ratio, rhs_up, ratio <= rhs_up)

    return LemmaReport(
        context={"n": n, "m": m, "j": j, "q_bar": q_bar, "u_bar": u_bar.text(),
                 "lam_minus": lam_minus, "lam_plus": lam_plus},
        constants={"log_C_prime": log_c1, "log_K_bar": log_k, "P_m": p_m},
        inequalities=tuple(records))
