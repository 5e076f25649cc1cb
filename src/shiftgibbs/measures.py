"""Equilibrium measures as stationary Markov chains on the transfer cover.

The chain is assembled from Perron data of the weighted transfer system
on its (letter, state) table.  A cylinder probability on the sofic shift
is one label-restricted forward product over that table (hidden-Markov
marginalization), ``cylinder_prob``: the only cylinder route, for SFTs and
proper sofic shifts alike.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from ._records import record
from .exceptions import EmptyCylinderWarning, ValidationError
from .potentials import Potential
from .pressure import TransferSystem, _push, build_transfer, perron
from .shifts import SoficPresentation, Word

_STOCHASTIC_TOL = 1e-12


@record(eq=False)
class RPFMeasure:
    """Equilibrium measure data: Perron eigendata, the stationary state
    distribution p = nu * h, and the transition probabilities on the
    transfer table: state i's a-edge carries the flow weight[a, i]
    h[succ[a, i]] (zero when absent), and q[a, i] is that flow over the sum
    of state i's flows, which is lambda h[i] at the exact Perron vector;
    so every row sums to 1 to rounding and a lone edge gets exactly 1."""

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
        flow = t.weight * np.append(self.h, 0.0)[t.succ]
        return flow / flow.sum(axis=0)

    @property
    def log_lambda(self) -> float:
        return math.log(self.lam)

    @property
    def presentation(self) -> SoficPresentation:
        return self.transfer.presentation

    def validate(self) -> None:
        q = self.q
        if np.abs(q.sum(axis=0) - 1.0).max() > _STOCHASTIC_TOL:
            raise ValidationError("transition matrix is not stochastic")
        p = self.stationary
        if np.abs(_push(self.transfer.succ, q, p) - p).max() > _STOCHASTIC_TOL:
            raise ValidationError("state distribution is not stationary")
        if (p == 0).any():
            raise ValidationError("a stationary entry nu * h underflows to 0")
        if (p < 0).any() or abs(p.sum() - 1.0) > _STOCHASTIC_TOL:
            raise ValidationError("state distribution is not a positive probability vector")


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
