"""Equilibrium measures as stationary Markov chains on the transfer cover.

The chain is assembled from Perron data of the weighted transfer system
on its (letter, state) table; cylinder probabilities on the sofic shift
are label-restricted forward products over that table (hidden-Markov
marginalization), one code path for SFTs and proper sofic shifts alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .exceptions import EmptyCylinderWarning, ValidationError
from .potentials import Potential, energy, phi_function
from .pressure import TransferSystem, _push, build_transfer, perron
from .shifts import Point, SoficPresentation, Word

_STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RPFMeasure:
    """Equilibrium measure data: Perron eigendata, the stationary state
    distribution p = nu * h, and the transition probabilities on the
    transfer table, q[a, i] = weight[a, i] h[succ[a, i]] / (lambda h[i])
    for state i's a-edge (zero when absent)."""

    transfer: TransferSystem
    lam: float
    h: np.ndarray
    nu: np.ndarray

    @cached_property
    def stationary(self) -> np.ndarray:
        return self.nu * self.h

    @cached_property
    def q(self) -> np.ndarray:
        t = self.transfer
        return t.weight * np.append(self.h, 0.0)[t.succ] / (self.lam * self.h)

    @property
    def log_lambda(self) -> float:
        return math.log(self.lam)

    @property
    def presentation(self) -> SoficPresentation:
        return self.transfer.presentation

    def validate(self, tol: float = _STOCHASTIC_TOL) -> None:
        q = self.q
        if np.abs(q.sum(axis=0) - 1.0).max() > tol:
            raise ValidationError("transition matrix is not stochastic")
        p = self.stationary
        if np.abs(_push(self.transfer.succ, q, p) - p).max() > tol:
            raise ValidationError("state distribution is not stationary")
        if (p == 0).any():
            raise ValidationError("a stationary entry nu * h underflows to 0")
        if (p < 0).any() or abs(p.sum() - 1.0) > tol:
            raise ValidationError("state distribution is not a positive probability vector")


@dataclass(frozen=True)
class EmpiricalPairing:
    """Window average of the single-site function along a point's orbit."""

    point: Point
    m: int
    value: float


def equilibrium_measure(presentation: SoficPresentation,
                        potential: Potential) -> RPFMeasure:
    """Equilibrium measure for the potential on the presented shift,
    constructed on the right-resolving cover and pushed forward through the
    labeling (the supported regime: irreducible, aperiodic presentations)."""
    transfer = build_transfer(presentation, potential)
    lam, h, nu = perron(transfer)
    measure = RPFMeasure(transfer, lam, h, nu)
    measure.validate()
    return measure


def cylinder_prob(measure: RPFMeasure, word: Word) -> float:
    """Measure of the cylinder set of a word: sum over state paths
    compatible with the labels, computed by the forward algorithm from the
    stationary distribution.  Returns 0 for words outside the language."""
    v = measure.stationary
    for a in word.letters:
        v = _push(measure.transfer.succ[a], measure.q[a], v)
    total = float(v.sum())
    if total == 0.0:
        warnings.warn("empty cylinder: word is not in the shift language",
                      EmptyCylinderWarning, stacklevel=2)
    return total


def cylinder_log_probs(measure: RPFMeasure, words: np.ndarray) -> np.ndarray:
    """log cylinder probabilities for a batch of words (kernel-backed)."""
    return _kernels.batch_forward_logprob(
        np.ascontiguousarray(words, dtype=np.uint8), measure.transfer.succ,
        measure.q, measure.stationary)


def empirical_pairing(potential: Potential, point: Point, m: int) -> EmpiricalPairing:
    """Average of the single-site function over the orbit window [-m, m]."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    vals = [phi_function(potential, point, k) for k in range(-m, m + 1)]
    return EmpiricalPairing(point, m, math.fsum(vals) / (2 * m + 1))


def energy_density_gap(potential: Potential, point: Point, m: int) -> float:
    """|window-averaged pairing - energy density|; bounded by the boundary
    norm bound divided by the window size."""
    pairing = empirical_pairing(potential, point, m).value
    u = energy(potential, point.word(-m, m))
    return abs(pairing - u / (2 * m + 1))


def strong_gibbs_constant(measure: RPFMeasure) -> float:
    """Computable constant C with |log nu([u]) - U(u) + L log lambda| <= C
    for every allowed word u (finite-range strong-Gibbs bound on the cover)."""
    h = measure.h
    nu = measure.nu
    n_states = measure.transfer.n_states
    pot = measure.transfer.potential
    # one-cut interaction allowance between the hidden context and the word
    w_cut = sum(s.sup_norm * s.span for s in pot.shapes)
    c_min = float(nu.min()) * float(h.min())
    c_max = float(nu.max()) * float(h.max())
    return w_cut + max(-math.log(c_min), math.log(n_states * c_max))
