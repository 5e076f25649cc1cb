"""Finite-volume pressure and its limit.

Finite-volume partition sums are computed two ways: brute-force over the
enumerated word list (the oracle), and by one log-domain pass over the
determinized word automaton (``_dp_log_partition``), whose keys pair an
automaton state with the code of the last letters and whose edges
(``_partition_graph``) are weighed by per-position step tables.  Both
routes read the potential's ``step_tables``, which each ``Potential``
builds once.  Each word is one automaton path, so the two agree up to
rounding even for sofic shifts where words carry several presenting
paths.  The limiting pressure is the
log Perron root of the weighted transfer system on the (vertex,
trailing-context) cover, (letter, state) tables of targets, step
energies and step weights; every product reads the targets and weights
(M x and v M inside ``perron``, v M for the measures in ``_push``); its
step energies come from ``potentials._step_energies`` directly, not from
the step tables and their context-space guard.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import _kernels
from ._records import record
from .exceptions import ValidationError, VolumeGuardError
from .potentials import (Potential, _check_context_space, _step_energies,
                         boundary_norm_bound)
from .shifts import SoficPresentation

PERRON_TOL = 1e-13
PERRON_RESIDUAL_TOL = 1e-12
_PERRON_MAX_ITER = 200000
_NEG_FLOOR = -np.finfo(float).max


@record(eq=False)
class TransferSystem:
    """Weighted transfer system on the (vertex, trailing R letters) cover.

    State i is ``keys[i]`` = vertex * K**R + base-K code of its last R
    letters, in ascending order; no other module reads that format.
    ``succ[a, i]`` is the target of state i's unique a-edge (``n_states``,
    a dead sink, when absent), ``step[a, i]`` its step energy and
    ``weight[a, i]`` its step weight exp(step energy), both zero when
    absent.
    """

    presentation: SoficPresentation
    potential: Potential
    context_len: int
    keys: np.ndarray
    succ: np.ndarray
    step: np.ndarray
    weight: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.keys)

    def state_name(self, i: int) -> str:
        K = len(self.presentation.alphabet)
        v, code = divmod(int(self.keys[i]), K ** self.context_len)
        ctx = [code // K ** p % K for p in range(self.context_len - 1, -1, -1)]
        return (self.presentation.vertices[v] + "|"
                + self.presentation.alphabet.text(ctx))


@record
class PressureEstimate:
    """Perron pressure with finite-volume diagnostics."""

    log_lambda: float
    finite_volume: tuple[tuple[int, float, float], ...]  # (n, P_n, envelope)


def _context_edges(succ: np.ndarray, keys: np.ndarray, n_codes: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every letter edge out of ``keys`` (node * K**R + base-K code of the
    last R letters, n_codes = K**R), where ``succ[node, a]`` is the node
    letter a leads to (-1: none).  Per edge, in (key, letter) order: the
    source's index in ``keys``, the letter, the code of the (R+1)-letter
    context (the source's letters, then the letter) and the target key."""
    node, code = np.divmod(keys, n_codes)
    nxt = succ[node]
    src, letter = np.nonzero(nxt >= 0)
    context = code[src] * succ.shape[1] + letter
    return src, letter, context, nxt[src, letter] * n_codes + context % n_codes


def _check_cover(presentation: SoficPresentation, potential: Potential) -> None:
    """What ``build_transfer`` refuses before it builds anything: a
    presentation that is not right-resolving, and more than 65,536
    (vertex, context) codes."""
    if not presentation.right_resolving:
        raise ValidationError("determinize or supply right-resolving presentation")
    if len(presentation.alphabet) ** max(1, potential.span) * presentation.n_vertices > 65536:
        raise VolumeGuardError(
            "volume too large for brute force: transfer cover for a "
            f"range-{potential.span} potential")


def build_transfer(presentation: SoficPresentation,
                   potential: Potential) -> TransferSystem:
    """Weighted transfer system whose states are reachable
    (vertex, trailing r-letter context) pairs, r = max(1, potential range).

    For an SFT ingested as a vertex shift the context is determined by the
    vertex and the cover collapses to the defining graph.  Requires a
    right-resolving presentation.  The one size refusal (exit 3) is on the
    key space: at most 65,536 (vertex, context) codes.  Nothing here or in
    the products that read the system is S x S, so S needs no bound of its
    own; the weak-Gibbs scan, whose tables are S wide, bounds it there.
    """
    _check_cover(presentation, potential)
    R = max(1, potential.span)
    K = len(presentation.alphabet)
    n_codes = K ** R
    out = np.full((presentation.n_vertices, K), -1)
    for (v, d, a) in presentation.edges:
        out[v, a] = d
    # states reachable by R-edge paths: R steps from every vertex, code 0
    keys = np.arange(presentation.n_vertices) * n_codes
    for _ in range(R):
        keys = _context_edges(out, keys, n_codes)[3]
        keys = keys[_kernels.dense_ids(keys, presentation.n_vertices * n_codes)[1]]
    S = len(keys)
    src, letter, context, target = _context_edges(out, keys, n_codes)
    succ = np.full((K, S), S)
    succ[letter, src] = np.searchsorted(keys, target)
    weight = np.zeros((K, S))
    # the edges before the first overflowing step energy, in (state,
    # letter) order: a step weight refused there comes first
    steps, refusal = _step_energies(potential, context, R + 1)
    for a, i, step in zip(letter.tolist(), src.tolist(), steps.tolist()):
        try:
            w = math.exp(step)
        except OverflowError:
            w = math.inf
        if not 0.0 < w < math.inf:
            raise ValidationError(f"step weight exp({step!r}) leaves the float64 range")
        weight[a, i] = w
    if refusal is not None:
        raise refusal
    step = np.zeros((K, S))
    step[letter, src] = steps
    return TransferSystem(presentation, potential, R, keys, succ, step, weight)


def _push(succ: np.ndarray, weight: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v M over the table (``succ``, ``weight``) or one letter's row of it;
    the dead sink's entry is dropped."""
    return np.bincount(succ.ravel(), (weight * v).ravel(), minlength=v.size + 1)[:v.size]


def perron(transfer: TransferSystem) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron data (lambda, right vector h, left vector nu) by deterministic
    power iteration from the all-ones vector.

    Normalization: sum(nu) = 1 and sum(nu * h) = 1.  Requires a primitive
    weight matrix.  Every edge weight is positive and the cover keeps the
    presentation's cycle lengths, so the matrix is primitive exactly when
    the presentation is irreducible and aperiodic; those flags decide.
    Converged when successive eigenvalue estimates agree to ``PERRON_TOL``
    relative and the sup-norm residual is below ``PERRON_RESIDUAL_TOL``,
    and refused when that takes more than ``_PERRON_MAX_ITER`` steps.  Each
    step writes one product into a preallocated (S+1)-vector whose last
    entry, the dead sink's, stays 0: M x gathers x along ``succ``,
    multiplies by ``weight`` and sums over letters; v M is ``_push``.  A step's
    residual reads the next step's product, and is computed only once the
    eigenvalue estimates agree.
    """
    presentation = transfer.presentation
    if not presentation.irreducible:
        raise ValidationError("reducible transfer system: Perron data not computed")
    if not presentation.aperiodic:
        raise ValidationError("periodic transfer system: Perron data not computed")
    succ, weight, S = transfer.succ, transfer.weight, transfer.n_states
    terms = np.empty(weight.shape)

    def pull(x: np.ndarray, y: np.ndarray) -> None:
        np.take(x, succ, out=terms, mode="wrap")  # every index is in range
        np.multiply(terms, weight, out=terms).sum(axis=0, out=y[:S])

    def push(x: np.ndarray, y: np.ndarray) -> None:
        y[:S] = _push(succ, weight, x[:S])

    def iterate(product) -> tuple[float, np.ndarray]:
        x, y = np.append(np.full(S, 1.0 / S), 0.0), np.zeros(S + 1)
        product(x, y)
        lam = 0.0
        for _ in range(_PERRON_MAX_ITER):
            lam_new = y[:S].sum()
            np.divide(y, lam_new, out=x)
            product(x, y)
            if (abs(lam_new - lam) <= PERRON_TOL * abs(lam_new)
                    and np.abs(y - lam_new * x).max() / np.abs(x).max()
                    <= PERRON_RESIDUAL_TOL):
                return lam_new, x[:S]
            lam = lam_new
        raise ValidationError("power iteration failed to converge")

    lam, h = iterate(pull)
    lam_left, nu = iterate(push)
    lam = 0.5 * (lam + lam_left)
    nu = nu / nu.sum()
    h = h / float(nu @ h)
    return float(lam), h, nu


@record(eq=False)
class BrutePartition:
    """Brute-force partition data: log Z, the word list, per-word energies."""

    log_z: float
    words: np.ndarray
    energies: np.ndarray


def word_energies(potential: Potential, words: np.ndarray) -> np.ndarray:
    """Energies of a batch of words over the potential's alphabet, read
    from its step tables by ``_kernels.batch_energy``; refused when one
    leaves the float64 range."""
    with np.errstate(over="ignore", invalid="ignore"):
        energies = _kernels.batch_energy(
            np.ascontiguousarray(words, dtype=np.uint8), potential.step_tables)
    if not np.isfinite(energies).all():
        raise ValidationError("word energy leaves the float64 range")
    return energies


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


def _partition_graph(presentation: SoficPresentation, n_codes: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                int, int]:
    """The partition pass's graph on the determinized automaton for
    n_codes = K**R: its keys (automaton state, base-K code of the last R
    letters) reachable from the start key (empty context), and their
    letter edges sorted by target.  The keys, encoded as state * n_codes +
    code, grow from the start key: each round adds the targets of every
    key's edges (``_context_edges``) and keeps the sorted distinct keys
    (``_kernels.dense_ids``), until a round adds none.  Returns ``(src,
    context, tgt, starts, home, dead)``: edge e runs ``src[e]`` ->
    ``tgt[e]`` with the base-K code ``context[e]`` of the source's R
    letters followed by its letter; the edges into key k are ``starts[k]``
    up to ``starts[k + 1]``; ``home`` is the start key, and edge ``dead`` a
    self-loop on it that the pass weighs -inf, so that every key has an
    incoming edge (and ``starts`` one entry per key)."""
    det, start = presentation._det
    keys, n_keys = np.array([start * n_codes]), 0
    while keys.shape[0] > n_keys:
        n_keys = keys.shape[0]
        keys = np.append(keys, _context_edges(det, keys, n_codes)[3])
        keys = keys[_kernels.dense_ids(keys, det.shape[0] * n_codes)[1]]
    src, _letter, context, target = _context_edges(det, keys, n_codes)
    tgt = np.searchsorted(keys, target)
    home = int(np.searchsorted(keys, start * n_codes))
    order = np.argsort(np.append(tgt, home), kind="stable")
    src, context, tgt = (np.append(src, home)[order],
                         np.append(context, 0)[order],
                         np.append(tgt, home)[order])
    starts = np.flatnonzero(np.diff(tgt, prepend=-1))
    # the stable sort puts the appended loop last among home's edges
    dead = int(np.searchsorted(tgt, home, side="right")) - 1
    return src, context, tgt, starts, home, dead


def _dp_log_partition(presentation: SoficPresentation, potential: Potential,
                      lengths: Sequence[int],
                      along: Potential | None = None) -> list[float]:
    """Word-sum log partitions over the determinized automaton, one per
    entry of ``lengths`` (in the same order); with ``along``, the
    derivative d/dt log Z(potential + t along) at t = 0 instead, that is
    the Gibbs mean of ``along``'s word energy over the words of that
    length.

    Each allowed word corresponds to exactly one automaton path from the
    start state, so each value equals the brute-force sum.  One pass runs
    to the deepest length and reads every requested length on the way.  A
    key is (automaton state, base-K code of the last R letters), R = max(1,
    range of ``potential`` and of ``along``); the keys reachable from the
    start key and their letter edges, sorted by target, come from
    ``_partition_graph``.  Position p weighs the edges by
    ``potential.step_tables[min(p, range)]``, so the first R letters need
    no separate treatment.  Each step is a log-sum-exp over every target's
    incoming edges, shifted by that target's own maximum.  With ``along``,
    each key also carries the mean of ``along``'s energy over the paths
    into it (the first-order expectation semiring, Eisner 2002): the same
    edge weights' average of the source's mean plus ``along``'s step on
    the edge.  A negative length, and a log Z that overflows (+inf or
    nan), are refused.
    """
    if min(lengths, default=0) < 0:
        raise ValidationError(
            f"word length must be nonnegative, not {min(lengths)}")
    R = max(1, potential.span, 0 if along is None else along.span)
    src, context, tgt, starts, home, dead = _partition_graph(
        presentation, len(presentation.alphabet) ** R)
    weights = [t[context % t.size] for t in potential.step_tables]
    for w in weights:
        w[dead] = -np.inf
    steps = [] if along is None else [t[context % t.size]
                                      for t in along.step_tables]

    want = set(lengths)
    log_z = {0: 0.0}
    value = {0: 0.0}
    cur = np.full(starts.size, -np.inf)
    cur[home] = 0.0
    mean = np.zeros(starts.size)
    # log 0 = -inf on dead keys; overflow is refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for pos in range(max(want, default=0)):
            v = cur[src] + weights[min(pos, len(weights) - 1)]
            # a dead key (every incoming edge -inf) is shifted by a finite
            # floor, so it stays -inf instead of becoming nan
            top = np.maximum(np.maximum.reduceat(v, starts), _NEG_FLOOR)
            v -= top[tgt]
            np.exp(v, out=v)
            total = np.add.reduceat(v, starts)
            cur = top + np.log(total)
            if steps:
                # a dead key keeps mean 0, so no nan spreads from it
                v *= mean[src] + steps[min(pos, len(steps) - 1)]
                mean = np.add.reduceat(v, starts) / np.where(total > 0, total, 1)
            if pos + 1 in want:
                log_z[pos + 1] = log_sum_exp(cur)
                if steps:
                    # softmax(cur) @ mean, shifted by the largest entry
                    # rather than log Z, whose rounding grows with the length
                    p = np.exp(cur - cur.max())
                    value[pos + 1] = float(p @ mean / p.sum())
    for L in lengths:
        if not log_z[L] < math.inf:  # +inf or nan
            raise ValidationError(f"log partition of length {L} leaves the float64 range")
    return [(log_z if along is None else value)[L] for L in lengths]


def finite_pressure(presentation: SoficPresentation, potential: Potential,
                    n: int, method: str = "product") -> float:
    """Finite-volume pressure P_n = log(Z_n) / (2n + 1).

    ``method`` picks the evaluation route: "product" runs the transfer
    product over the determinized automaton, "brute" enumerates words (up
    to ``DEFAULT_ENUM_CAP``).  The two routes agree to rounding.
    """
    length = 2 * n + 1
    if method not in ("brute", "product"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "brute":
        return brute_partition(presentation, potential, n).log_z / length
    return _dp_log_partition(presentation, potential, [length])[0] / length


def _state_multiplier_spread(h: np.ndarray, nu: np.ndarray) -> float:
    """log(max/min) over the state multipliers {h_s} U {nu_s} U {1}; the
    difference of the logs when the quotient leaves the float64 range.
    Refused (``ValidationError``) when a multiplier underflows to 0."""
    hi = max(float(h.max()), float(nu.max()), 1.0)
    lo = min(float(h.min()), float(nu.min()), 1.0)
    if lo == 0.0:
        raise ValidationError("a Perron vector entry underflows to 0: the "
                              "pressure envelope is unbounded")
    ratio = hi / lo
    return math.log(ratio) if math.isfinite(ratio) else math.log(hi) - math.log(lo)


def pressure_envelope(transfer: TransferSystem, spread: float, n: int) -> float:
    """Computable deviation envelope: |P_n - log lambda| is at most
    (2 * boundary bound + 2 * multiplier spread + log #states) / (2n + 1),
    with ``spread`` from ``_state_multiplier_spread``, which does not
    depend on n."""
    bnb = boundary_norm_bound(transfer.potential, n)
    return (2.0 * bnb + 2.0 * spread + math.log(transfer.n_states)) / (2 * n + 1)


DEFAULT_LADDER = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 26, 32, 48, 64)


def pressure_limit(presentation: SoficPresentation, potential: Potential,
                   ladder: tuple[int, ...] = DEFAULT_LADDER) -> PressureEstimate:
    """Limiting pressure as the log Perron root, with finite-volume rows and
    the computable envelope checked along the ladder (``ValidationError``
    when a rung falls outside it).

    Every rung's P_n = log Z_{2n+1} / (2n+1) comes from one partition-DP
    pass to the deepest rung; the rows follow the ladder's order, repeats
    included.  A context space too large for the step tables is refused
    after the cover's own checks and before the cover is built."""
    _check_cover(presentation, potential)
    _check_context_space(potential)
    transfer = build_transfer(presentation, potential)
    lam, h, nu = perron(transfer)
    log_lambda = math.log(lam)
    log_z = _dp_log_partition(presentation, potential,
                              [2 * n + 1 for n in ladder])
    # the spread is refused when a Perron entry underflows; an empty ladder
    # checks no envelope
    spread = _state_multiplier_spread(h, nu) if ladder else 0.0
    rows = []
    for n, lz in zip(ladder, log_z):
        p_n = lz / (2 * n + 1)
        env = pressure_envelope(transfer, spread, n)
        if abs(p_n - log_lambda) > env:
            raise ValidationError(
                f"pressure envelope violated at n={n}: |{p_n} - {log_lambda}| > {env}")
        rows.append((n, p_n, env))
    return PressureEstimate(log_lambda, tuple(rows))
