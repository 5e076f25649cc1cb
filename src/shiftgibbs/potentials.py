"""Finite-range translation-covariant potentials.

A potential is a finite list of canonical shapes (finite subsets of the
integers anchored with min 0) with value tables on symbol patterns.
Translation covariance is structural: the value on any translated set is
read off the canonical shape.  Tables are total by the convention that
unlisted patterns have value 0.

Every kernel reads a potential through one compiled form, its step tables
(``Potential.step_tables``, built once per object): the energy increment
of each letter under the letters before it, one table per position up to
the range.  A step energy is the exact sum (``math.fsum``) of the values
of the shape translates whose max lands on the new letter.
``_step_energies`` gathers those values for a batch of contexts from one
dense value array per shape and sums each context's values in one
``map``; the step tables and the transfer weights both come from it.
``energy`` stays the definition and the per-word oracle.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ._records import record
from .exceptions import ValidationError, VolumeGuardError
from .shifts import Alphabet, Word


def _canonical_offsets(offsets: Sequence[int]) -> tuple[int, ...]:
    """The offsets of a canonical shape as ints; refuses offsets that do not
    strictly increase from 0 (the pattern letters follow the offsets in the
    order given, so they are never re-sorted)."""
    offs = tuple(int(o) for o in offsets)
    if not offs:
        raise ValidationError("shape must be nonempty")
    if offs[0] != 0 or any(b <= a for a, b in zip(offs, offs[1:])):
        raise ValidationError(f"shape {','.join(map(str, offs))} is not "
                              "canonical: offsets must strictly increase from 0")
    return offs


@record
class ShapeTable:
    """One canonical shape with its pattern values (missing patterns are 0)."""

    offsets: tuple[int, ...]
    values: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        offs = _canonical_offsets(self.offsets)
        object.__setattr__(self, "offsets", offs)
        vals = {tuple(int(a) for a in k): float(v) for k, v in self.values.items()}
        for k in vals:
            if len(k) != len(offs):
                raise ValidationError("pattern length must match shape size")
        object.__setattr__(self, "values", vals)

    @property
    def span(self) -> int:
        return self.offsets[-1]

    @property
    def size(self) -> int:
        return len(self.offsets)

    @cached_property
    def sup_norm(self) -> float:
        """Largest |value|, found once per shape (every rung of the
        pressure ladder reads it)."""
        return max((abs(v) for v in self.values.values()), default=0.0)

    def value(self, pattern: tuple[int, ...]) -> float:
        return self.values.get(pattern, 0.0)


@record
class Potential:
    """Finite-range potential over a fixed alphabet."""

    alphabet: Alphabet
    span: int
    shapes: tuple[ShapeTable, ...]

    def __post_init__(self):
        object.__setattr__(self, "shapes", tuple(self.shapes))
        if self.span < 0:
            raise ValidationError("range must be nonnegative")
        seen = set()
        for s in self.shapes:
            if s.span > self.span:
                raise ValidationError("shape exceeds the declared range")
            if s.offsets in seen:
                raise ValidationError(f"duplicate shape {s.offsets}")
            seen.add(s.offsets)

    @cached_property
    def step_tables(self) -> tuple[np.ndarray, ...]:
        """The step energy of every context (``_step_energies``), one
        table per position p = 0..range: entry ``code`` of table p is the
        increment of the (p+1)-letter context whose base-K code is
        ``code`` (first letter most significant).  Later positions use the
        last table on their trailing range+1 letters.  Built on first use
        and kept; read-only, since every caller shares them."""
        _check_context_space(self)
        K = len(self.alphabet)
        tables = []
        for p in range(self.span + 1):
            table, refusal = _step_energies(self, np.arange(K ** (p + 1)), p + 1)
            if refusal is not None:
                raise refusal
            table.flags.writeable = False
            tables.append(table)
        return tuple(tables)

    @cached_property
    def _dense_values(self) -> tuple[np.ndarray, ...]:
        """Per shape, its value on every pattern, indexed by the pattern's
        base-K code (first letter most significant); unlisted and zero
        values are +0.0, and patterns with a letter outside the alphabet
        are left out."""
        K = len(self.alphabet)
        dense = []
        for s in self.shapes:
            values = np.zeros(K ** s.size)
            patterns = np.array(list(s.values), dtype=np.int64).reshape(-1, s.size)
            inside = ((patterns >= 0) & (patterns < K)).all(axis=1)
            values[patterns[inside] @ K ** np.arange(s.size - 1, -1, -1)] = \
                np.array(list(s.values.values()))[inside]
            values[values == 0.0] = 0.0  # +0.0: no sum can come out -0.0
            dense.append(values)
        return tuple(dense)


def zero_potential(alphabet: Alphabet) -> Potential:
    return Potential(alphabet, 0, ())


def add_potentials(a: Potential, b: Potential, coeff: float = 1.0) -> Potential:
    """The potential a + coeff * b (shapes merged by offsets)."""
    if a.alphabet != b.alphabet:
        raise ValidationError("potentials live on different alphabets")
    merged: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
    for s in a.shapes:
        merged.setdefault(s.offsets, {}).update(s.values)
    for s in b.shapes:
        tab = merged.setdefault(s.offsets, {})
        for k, v in s.values.items():
            tab[k] = tab.get(k, 0.0) + coeff * v
    shapes = tuple(ShapeTable(o, t) for o, t in sorted(merged.items()))
    return Potential(a.alphabet, max(a.span, b.span), shapes)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def energy(potential: Potential, w: Word) -> float:
    """Total energy of a word: the sum of shape values over every translate
    of every canonical shape that fits inside the window.  Compensated
    summation keeps long windows exact enough for downstream exponentials;
    a sum past the float64 range is refused."""
    terms = []
    lo, hi = w.start, w.end
    for s in potential.shapes:
        for a in range(lo, hi - s.span + 1):
            v = s.value(tuple(w.letters[a - lo + o] for o in s.offsets))
            if v != 0.0:
                terms.append(v)
    try:
        return math.fsum(terms)
    except OverflowError:
        raise ValidationError(
            f"energy of {w.text()} leaves the float64 range") from None


def _step_energies(potential: Potential, codes: np.ndarray, length: int
                   ) -> tuple[np.ndarray, ValidationError | None]:
    """Step energy of each ``length``-letter context in ``codes`` (base-K
    codes, first letter most significant), in order: the energy increment
    collected when the context's last letter is appended, i.e. the sum of
    the values of the shape translates inside the context whose max lands
    on it.  Each context's values are gathered from the shapes' dense value
    arrays, in shape order, and summed exactly by ``math.fsum``; the zeros
    of unlisted patterns change no sum.  Returns the step energies of the
    contexts before the first whose sum leaves the float64 range, and the
    refusal that names it (None when every sum fits)."""
    K = len(potential.alphabet)
    pos = length - 1
    letters = np.asarray(codes)[:, None] // K ** np.arange(pos, -1, -1) % K
    columns = [values[letters[:, [pos - s.span + o for o in s.offsets]]
                      @ K ** np.arange(s.size - 1, -1, -1)]
               for s, values in zip(potential.shapes, potential._dense_values)
               if s.span <= pos]
    rows = np.stack(columns, axis=1).tolist() if columns else [[]] * len(letters)
    refusal = None
    try:
        sums = list(map(math.fsum, rows))
    except OverflowError:
        # sum again, one context at a time, up to the first refused one
        sums = []
        for row in rows:
            try:
                sums.append(math.fsum(row))
            except OverflowError:
                break
        context = potential.alphabet.text(letters[len(sums)].tolist())
        refusal = ValidationError(f"step energy of {context} leaves the float64 range")
    return np.array(sums, dtype=float), refusal


def _check_context_space(potential: Potential) -> None:
    """Refuse potentials whose (R+1)-letter contexts, R = max(1, range),
    are too many to tabulate."""
    K = len(potential.alphabet)
    R = max(1, potential.span)
    if K ** (R + 1) > 65536:
        raise VolumeGuardError(
            "volume too large for brute force: transfer context space "
            f"{K}^{R + 1} for a range-{potential.span} potential")


@record
class NormReport:
    """Summability norm and the crossing norm."""

    norm: float
    cross_norm: float


def norms(potential: Potential) -> NormReport:
    """Exact norm data.

    ``norm`` sums sup norms over all translated shapes containing 0 (each
    canonical shape contributes size-many translates).  ``cross_norm`` sums
    sup norms over translates disjoint from [-1, 1] that meet both
    (-inf, -2] and [2, inf); the literal sum over all subsets of the
    complement of [-1, 1] diverges for any nonzero covariant potential, so
    only these crossing translates are counted (see README).
    """
    total = 0.0
    cross = 0.0
    for s in potential.shapes:
        sup = s.sup_norm
        total += s.size * sup
        for t in range(2 - s.span, -1):  # t <= -2 and t + span >= 2
            cells = {t + o for o in s.offsets}
            if cells & {-1, 0, 1}:
                continue
            if min(cells) <= -2 and max(cells) >= 2:
                cross += sup
    return NormReport(total, cross)


def boundary_norm_bound(potential: Potential, m: int) -> float:
    """Exact value of the boundary sum: for each translated shape through
    the origin, the number of positions in [-m, m] from which it overhangs
    the window, weighted by the sup norm.  Upper-bounds the sup of the
    interaction between [-m, m] and its complement."""
    if m < 0:
        raise ValidationError("m must be nonnegative")
    total = 0.0
    for s in potential.shapes:
        sup = s.sup_norm
        if sup == 0.0:
            continue
        # the translate S - o + j lies inside [-m, m] iff o - m <= j <=
        # o + m - span, so min(span, 2m+1) of the 2m+1 positions j overhang
        overhang = min(s.span, 2 * m + 1)
        for _o in s.offsets:
            total += sup * overhang
    return total
