"""Finite-volume pressure and its limit.

Finite-volume partition sums are computed two ways: brute-force over the
enumerated word list, and as a product of label transitions over the
determinized word automaton (one path per word, so the two agree exactly
up to rounding even for sofic shifts where words carry several presenting
paths).  The limiting pressure is the log Perron root of the weighted
transfer system on the (vertex, trailing-context) cover.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .exceptions import ValidationError, VolumeGuardError
from .potentials import Potential, boundary_norm_bound, energy
from .shifts import (SoficPresentation, Word, strongly_connected,
                     support_period)

PERRON_TOL = 1e-13
PERRON_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransferSystem:
    """Weighted transfer system on the (vertex, trailing R letters) cover.

    ``trans[a][u, v]`` is the step weight exp(step energy) of the unique
    a-labeled transition u -> v, zero when absent; ``matrix`` sums over
    labels.
    """

    presentation: SoficPresentation
    potential: Potential
    context_len: int
    states: tuple[tuple[int, tuple[int, ...]], ...]
    trans: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.trans.sum(axis=0)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def irreducible(self) -> bool:
        return strongly_connected(self.matrix > 0)

    @cached_property
    def primitive(self) -> bool:
        return self.irreducible and support_period(self.matrix > 0) == 1

    def state_name(self, i: int) -> str:
        v, ctx = self.states[i]
        label = self.presentation.vertices[v]
        if ctx:
            label += "|" + self.presentation.alphabet.text(ctx)
        return label


@dataclass(frozen=True)
class PressureEstimate:
    """Perron pressure with finite-volume diagnostics."""

    log_lambda: float
    finite_volume: tuple[tuple[int, float, float], ...]  # (n, P_n, envelope)
    residual: float


def _step_energy(potential: Potential, context: tuple[int, ...]) -> float:
    """Energy increment collected when the last letter of ``context`` is
    appended: all shape translates inside the context whose max lands on it."""
    pos = len(context) - 1
    terms = []
    for s in potential.shapes:
        a = pos - s.span
        if a >= 0:
            v = s.value(tuple(context[a + o] for o in s.offsets))
            if v != 0.0:
                terms.append(v)
    return math.fsum(terms)


def _check_context_space(potential: Potential) -> None:
    """Refuse potentials whose (R+1)-letter contexts, R = max(1, range),
    are too many to tabulate."""
    K = len(potential.alphabet)
    R = max(1, potential.span)
    if K ** (R + 1) > 65536:
        raise VolumeGuardError(
            "volume too large for brute force: transfer context space "
            f"{K}^{R + 1} for a range-{potential.span} potential")


def _step_tables(potential: Potential) -> tuple[np.ndarray, ...]:
    """``_step_energy`` of every context, one table per position
    p = 0..range: entry ``code`` of table p is the increment of the
    (p+1)-letter context whose base-K code is ``code`` (first letter most
    significant).  Later positions use the last table on their trailing
    range+1 letters."""
    _check_context_space(potential)
    K = len(potential.alphabet)
    return tuple(
        np.array([_step_energy(potential, ctx)
                  for ctx in itertools.product(range(K), repeat=p + 1)])
        for p in range(potential.span + 1))


def _head_energy(potential: Potential, context: tuple[int, ...]) -> float:
    """Energy of a bare length-R prefix (all shapes fully inside it)."""
    alph = potential.alphabet
    if not context:
        return 0.0
    return energy(potential, Word(alph, 0, context))


def build_transfer(presentation: SoficPresentation,
                   potential: Potential) -> TransferSystem:
    """Weighted transfer system whose states are reachable
    (vertex, trailing r-letter context) pairs, r = max(1, potential range).

    For an SFT ingested as a vertex shift the context is determined by the
    vertex and the cover collapses to the defining graph.  Requires a
    right-resolving presentation.
    """
    if not presentation.right_resolving:
        raise ValidationError("determinize or supply right-resolving presentation")
    R = max(1, potential.span)
    if len(presentation.alphabet) ** R * presentation.n_vertices > 65536:
        raise VolumeGuardError(
            "volume too large for brute force: transfer cover for a "
            f"range-{potential.span} potential")
    # states reachable by R-edge paths
    frontier = {(v, ()) for v in range(presentation.n_vertices)}
    for _ in range(R):
        nxt = set()
        for (v, ctx) in frontier:
            for e in presentation.out_edges(v):
                nxt.add((presentation.edge_target(e),
                         (ctx + (presentation.edge_symbol(e),))[-R:]))
        frontier = nxt
    states = tuple(sorted(frontier))
    index = {s: i for i, s in enumerate(states)}
    K = len(presentation.alphabet)
    S = len(states)
    trans = np.zeros((K, S, S))
    for (v, ctx), i in index.items():
        for e in presentation.out_edges(v):
            a = presentation.edge_symbol(e)
            j = index[(presentation.edge_target(e), (ctx + (a,))[-R:])]
            step = _step_energy(potential, ctx + (a,))
            try:
                w = math.exp(step)
            except OverflowError:
                w = math.inf
            if not 0.0 < w < math.inf:
                raise ValidationError(f"step weight exp({step!r}) leaves the float64 range")
            trans[a, i, j] = w
    return TransferSystem(presentation, potential, R, states, trans)


def perron(transfer: TransferSystem, tol: float = PERRON_TOL,
           max_iter: int = 200000) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron data (lambda, right vector h, left vector nu) by deterministic
    power iteration from the all-ones vector.

    Normalization: sum(nu) = 1 and sum(nu * h) = 1.  Requires a primitive
    weight matrix; converged when successive eigenvalue estimates agree to
    ``tol`` relative and the sup-norm residual is below 1e-12.
    """
    M = transfer.matrix
    if not transfer.irreducible:
        raise ValidationError("reducible transfer system: Perron data not computed")
    if not transfer.primitive:
        raise ValidationError("periodic transfer system: Perron data not computed")

    def iterate(mat: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.ones(mat.shape[0])
        x /= x.sum()
        lam = 0.0
        for _ in range(max_iter):
            y = mat @ x
            lam_new = y.sum()
            y /= lam_new
            res = np.abs(mat @ y - lam_new * y).max() / np.abs(y).max()
            done = (abs(lam_new - lam) <= tol * abs(lam_new)
                    and res <= PERRON_RESIDUAL_TOL)
            x, lam = y, lam_new
            if done:
                return lam, x
        raise ValidationError("power iteration failed to converge")

    lam, h = iterate(M)
    lam_left, nu = iterate(M.T)
    lam = 0.5 * (lam + lam_left)
    nu = nu / nu.sum()
    h = h / float(nu @ h)
    return float(lam), h, nu


def perron_residual(transfer: TransferSystem, lam: float, h: np.ndarray,
                    nu: np.ndarray) -> float:
    M = transfer.matrix
    right = np.abs(M @ h - lam * h).max() / np.abs(h).max()
    left = np.abs(M.T @ nu - lam * nu).max() / np.abs(nu).max()
    return max(right, left)


@dataclass(frozen=True, eq=False)
class BrutePartition:
    """Brute-force partition data: log Z, the word list, per-word energies."""

    log_z: float
    words: np.ndarray
    energies: np.ndarray


def word_energies(potential: Potential, words: np.ndarray) -> np.ndarray:
    """Energies of a batch of words over the potential's alphabet (kernel
    path when the potential's tables compile to dense form, exact per-word
    summation otherwise)."""
    form = potential._kernel_form
    if words.shape[0] == 0:
        return np.zeros(0)
    if form is not None:
        return _kernels.batch_energy(np.ascontiguousarray(words, dtype=np.uint8),
                                     *form)
    alph = potential.alphabet
    return np.array([energy(potential, Word(alph, 0, tuple(int(a) for a in row)))
                     for row in words])


def log_sum_exp(values: np.ndarray) -> float:
    if values.size == 0:
        return -math.inf
    m = float(values.max())
    if math.isinf(m):
        return m
    return m + math.log(float(np.exp(values - m).sum()))


def brute_partition(presentation: SoficPresentation, potential: Potential,
                    n: int, cap: int | None = None) -> BrutePartition:
    """Partition sum over the allowed words on [-n, n] by enumeration,
    accumulated through log-sum-exp."""
    words = presentation.word_matrix(2 * n + 1, cap=cap)
    energies = word_energies(potential, words)
    return BrutePartition(log_sum_exp(energies), words, energies)


def _dp_log_partition(presentation: SoficPresentation, potential: Potential,
                      lengths: Sequence[int],
                      fixed: dict[int, int] | None = None) -> list[float]:
    """Word-sum log partitions over the determinized automaton, one per
    entry of ``lengths`` (in the same order).

    Each allowed word corresponds to exactly one automaton path, so each
    value equals the brute-force sum.  One forward pass runs to the deepest
    length and reads log Z at every requested length on the way; lengths
    of at most R = max(1, range) letters are enumerated directly.  ``fixed``
    optionally pins positions (0-based within the window) to single
    symbols, which restricts every sum to matching words; positions past a
    length do not constrain it.  Once no word survives, every longer
    length gets -inf.
    """
    det, start = presentation._det
    K = len(presentation.alphabet)
    fixed = fixed or {}
    R = max(1, potential.span)
    _check_context_space(potential)
    log_z: dict[int, float] = {}
    for length in {L for L in lengths if L <= R}:
        # tiny windows: enumerate directly (at most K^R <= 32768 words,
        # far below the enumeration cap)
        words = presentation.word_matrix(length)
        keep = np.ones(words.shape[0], dtype=bool)
        for pos, a in fixed.items():
            if pos < length:
                keep &= words[:, pos] == a
        energies = word_energies(potential, words[keep])
        log_z[length] = log_sum_exp(energies)
    wanted = {L for L in lengths if L > R}
    if not wanted:
        return [log_z[L] for L in lengths]

    step_cache: dict[tuple[int, ...], float] = {}

    def step(ctx_a: tuple[int, ...]) -> float:
        if ctx_a not in step_cache:
            step_cache[ctx_a] = _step_energy(potential, ctx_a)
        return step_cache[ctx_a]

    # seed with all allowed R-prefixes
    cur: dict[tuple[int, tuple[int, ...]], float] = {}
    seeds: list[tuple[tuple[int, ...], int]] = [((), start)]
    for pos in range(R):
        grown = []
        for ctx, s in seeds:
            for a in range(K):
                if pos in fixed and a != fixed[pos]:
                    continue
                t = det[s][a]
                if t >= 0:
                    grown.append((ctx + (a,), int(t)))
        seeds = grown
    for ctx, s in seeds:
        w = _head_energy(potential, ctx)
        key = (s, ctx)
        cur[key] = np.logaddexp(cur[key], w) if key in cur else w
    for pos in range(R, max(wanted)):
        nxt: dict[tuple[int, tuple[int, ...]], float] = {}
        for (s, ctx), lw in cur.items():
            for a in range(K):
                if pos in fixed and a != fixed[pos]:
                    continue
                t = det[s][a]
                if t < 0:
                    continue
                key = (int(t), ctx[1:] + (a,))
                w = lw + step(ctx + (a,))
                nxt[key] = np.logaddexp(nxt[key], w) if key in nxt else w
        cur = nxt
        if not cur:
            log_z.update((L, -math.inf) for L in wanted if L > pos)
            break
        if pos + 1 in wanted:
            log_z[pos + 1] = log_sum_exp(np.array(list(cur.values())))
    return [log_z[L] for L in lengths]


def finite_pressure(presentation: SoficPresentation, potential: Potential,
                    n: int, cap: int | None = None,
                    method: str = "product") -> float:
    """Finite-volume pressure P_n = log(Z_n) / (2n + 1).

    ``method`` picks the evaluation route: "product" runs the transfer
    product over the determinized automaton, "brute" enumerates words (up
    to ``cap``).  The two routes agree to rounding.
    """
    length = 2 * n + 1
    if method not in ("brute", "product"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "brute":
        return brute_partition(presentation, potential, n, cap=cap).log_z / length
    return _dp_log_partition(presentation, potential, [length])[0] / length


def _state_multiplier_spread(h: np.ndarray, nu: np.ndarray) -> float:
    """log(max/min) over the state multipliers {h_s} U {nu_s} U {1}."""
    hi = max(float(h.max()), float(nu.max()), 1.0)
    lo = min(float(h.min()), float(nu.min()), 1.0)
    return math.log(hi / lo)


def pressure_envelope(transfer: TransferSystem, h: np.ndarray, nu: np.ndarray,
                      n: int) -> float:
    """Computable deviation envelope: |P_n - log lambda| is at most
    (2 * boundary bound + 2 * multiplier spread + log #states) / (2n + 1)."""
    bnb = boundary_norm_bound(transfer.potential, n)
    spread = _state_multiplier_spread(h, nu)
    return (2.0 * bnb + 2.0 * spread + math.log(transfer.n_states)) / (2 * n + 1)


DEFAULT_LADDER = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 26, 32, 48, 64)


def pressure_limit(presentation: SoficPresentation, potential: Potential,
                   ladder: tuple[int, ...] = DEFAULT_LADDER) -> PressureEstimate:
    """Limiting pressure as the log Perron root, with finite-volume rows and
    the computable envelope checked along the ladder (``ValidationError``
    when a rung falls outside it).

    Every rung's P_n = log Z_{2n+1} / (2n+1) comes from one partition-DP
    pass to the deepest rung; the rows follow the ladder's order, repeats
    included."""
    transfer = build_transfer(presentation, potential)
    lam, h, nu = perron(transfer)
    log_lambda = math.log(lam)
    log_z = _dp_log_partition(presentation, potential,
                              [2 * n + 1 for n in ladder])
    rows = []
    for n, lz in zip(ladder, log_z):
        p_n = lz / (2 * n + 1)
        env = pressure_envelope(transfer, h, nu, n)
        if abs(p_n - log_lambda) > env:
            raise ValidationError(
                f"pressure envelope violated at n={n}: |{p_n} - {log_lambda}| > {env}")
        rows.append((n, p_n, env))
    residual = perron_residual(transfer, lam, h, nu)
    return PressureEstimate(log_lambda, tuple(rows), residual)
