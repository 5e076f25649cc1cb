"""Bundled example systems: the shifts and potentials the test suite and
CLI examples run on, both as constructors and as data files."""

from __future__ import annotations

from importlib import resources

from .potentials import Potential, ShapeTable, zero_potential
from .shifts import Alphabet, BlockCode, SoficPresentation

BINARY = Alphabet(("0", "1"))

SITE_FIELD = 0.5   # single-site weight on the symbol 1
PAIR_COUPLING = 0.3  # nearest-neighbor weight on equal adjacent symbols


def full_shift_2() -> SoficPresentation:
    """Full shift on {0, 1}: one vertex, two self-loops."""
    return SoficPresentation(BINARY, ("v",), (("v", "v", "0"), ("v", "v", "1")))


def golden_mean() -> SoficPresentation:
    """Golden-mean SFT (no two adjacent 1s) as a vertex shift."""
    return SoficPresentation(BINARY, ("0", "1"),
                             (("0", "0", "0"), ("0", "1", "1"), ("1", "0", "0")))


def even_shift() -> SoficPresentation:
    """Even shift: runs of 0s between 1s have even length."""
    return SoficPresentation(BINARY, ("E", "O"),
                             (("E", "E", "1"), ("E", "O", "0"), ("O", "E", "0")))


def reducible_pair() -> SoficPresentation:
    """Two disjoint self-loops; essential but not irreducible."""
    return SoficPresentation(BINARY, ("a", "b"), (("a", "a", "0"), ("b", "b", "1")))


def periodic_cycle() -> SoficPresentation:
    """A pure 2-cycle; irreducible but periodic."""
    return SoficPresentation(BINARY, ("a", "b"), (("a", "b", "0"), ("b", "a", "1")))


def zero() -> Potential:
    return zero_potential(BINARY)


def single_site(a: float = SITE_FIELD) -> Potential:
    """Single-site potential paying ``a`` on the symbol 1."""
    return Potential(BINARY, 0, (ShapeTable((0,), {(1,): a}),))


def equal_pair(beta: float = PAIR_COUPLING) -> Potential:
    """Nearest-neighbor potential paying ``beta`` on equal adjacent symbols."""
    return Potential(BINARY, 1, (ShapeTable((0, 1), {(0, 0): beta, (1, 1): beta}),))


def ten_detector_code() -> BlockCode:
    """Radius-1 code over the binary alphabet: output 1 when the pattern 10
    occurs inside the 3-letter window."""
    def block_map(pattern: tuple[int, ...]) -> int:
        return 1 if (pattern[0], pattern[1]) == (1, 0) or \
                    (pattern[1], pattern[2]) == (1, 0) else 0
    return BlockCode(1, BINARY, block_map)


def data_path(name: str):
    """Filesystem path of a bundled data file (e.g. ``even.shift``)."""
    return resources.files("shiftgibbs").joinpath("data", name)
