"""Presentation invariance of the weak-Gibbs class pass and of pressure.

Two right-resolving presentations of one shift must give the same numbers
about the shift: the ``weak_gibbs_scan`` rows D_m, ``log lambda`` and the
finite-volume pressures P_n, to 1e-13 relative (they are computed on
different covers, so they may round differently).  The pairs are an
in-split of the even shift (Lind & Marcus, section 2.4), a permutation of
its vertices, and the golden-mean ``.sft`` file against the matching
``.shift`` file.  A row's ``bound`` is left out: it reads the decoupling
gap of the graph, which differs between presentations of one shift.
"""

import math

import pytest

from shiftgibbs import (SoficPresentation, equilibrium_measure,
                        finite_pressure, weak_gibbs_scan)
from shiftgibbs.bundled import (BINARY, data_path, equal_pair, even_shift,
                                single_site, zero)
from shiftgibbs.fileio import load_shift

REL_TOL = 1e-13


def in_split_even():
    """The even shift with E split by its incoming edges: E1 receives the
    1-loop, E2 the 0-edge from O, and both keep E's outgoing edges."""
    return SoficPresentation(
        BINARY, ("E1", "E2", "O"),
        (("E1", "E1", "1"), ("E2", "E1", "1"), ("E1", "O", "0"),
         ("E2", "O", "0"), ("O", "E2", "0")))


def permuted_even():
    """The even shift with its vertices listed in the other order."""
    return SoficPresentation(BINARY, ("O", "E"),
                             (("O", "E", "0"), ("E", "E", "1"), ("E", "O", "0")))


PAIRS = {
    "in-split": (even_shift, in_split_even),
    "permuted": (even_shift, permuted_even),
    "sft-file": (lambda: load_shift(data_path("golden_mean.shift")),
                 lambda: load_shift(data_path("golden_mean.sft"))),
}


def shift_numbers(presentation, potential):
    """log lambda, then D_0..D_8, then P_0..P_8."""
    measure = equilibrium_measure(presentation, potential)
    rows = weak_gibbs_scan(measure, range(9)).rows
    return ([measure.log_lambda] + [d for _m, d, _bound in rows]
            + [finite_pressure(presentation, potential, n) for n in range(9)])


@pytest.mark.parametrize("pot", [zero, single_site, equal_pair],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("pair", PAIRS)
def test_same_numbers_on_both_presentations(pair, pot):
    first, second = (build() for build in PAIRS[pair])
    for a, b in zip(shift_numbers(first, pot()), shift_numbers(second, pot()),
                    strict=True):
        assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0), (a, b)
