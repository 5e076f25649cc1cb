"""Shift spaces presented by labeled graphs.

Words, bi-infinite eventually-periodic points with presenting paths, the
decoupling gap, the splice construction, and sliding-block factor codes.
A presentation's gap q has one home, ``SoficPresentation.gap`` (the
bounded-length graph gap, cached): every certificate reads its q there,
and ``decoupling_gap`` only adds the exact-length variant for the ``gap``
command.  Graph questions go through helpers on boolean adjacency
matrices: every search through ``_levels`` (breadth-first levels, which
``strongly_connected``, ``support_period`` and the pair distances read)
and every trim through ``_forward_infinite`` (the vertices that start an
infinite path; with its transpose it gives the essential part of a
graph).  The word automaton is walked one way, along its cached edge list
``_det_edges``, both to count words and to grow them.  All types are
immutable after construction and every operation is a pure function, so
everything here is safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from ._records import record
from .exceptions import ValidationError, VolumeGuardError

DEFAULT_ENUM_CAP = 2_000_000
_DET_STATE_CAP = 65536
DENSE_ENTRIES_CAP = 2 ** 27  # entries of the largest dense matrix a guard lets through


def _count_text(count: int) -> str:
    """A volume guard's count in decimal, or ``~10^k`` (k the rounded
    log10) when it has more digits than Python converts to a string."""
    try:
        return str(count)
    except ValueError:
        return f"~10^{round(math.log10(count))}"


def _levels(support: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Breadth-first level of every vertex in the digraph with boolean
    adjacency ``support``, from the vertex mask ``seed`` (or from each row
    of a stack of masks, one per source): 0 on the seed, k where a k-edge
    path first arrives, -1 where none does.  One float32 product per level
    (its entries count at most n vertices, so they are exact)."""
    adj = support.astype(np.float32)
    frontier = seen = seed
    level = np.where(seed, 0, -1)
    depth = 0
    while frontier.any():
        depth += 1
        frontier = (frontier.astype(np.float32) @ adj > 0) & ~seen
        level[frontier] = depth
        seen = seen | frontier
    return level


def strongly_connected(support: np.ndarray) -> bool:
    """True iff the digraph with boolean adjacency ``support`` is strongly
    connected: vertex 0 reaches every vertex and every vertex reaches it."""
    start = np.arange(support.shape[0]) == 0
    return all((_levels(adj, start) >= 0).all() for adj in (support, support.T))


def support_period(support: np.ndarray) -> int:
    """Period (gcd of cycle lengths) of the strongly connected digraph with
    boolean adjacency ``support``: the gcd of level(v) + 1 - level(w) over
    its edges v -> w, with level the breadth-first distance from vertex 0
    (edges out of vertices that vertex 0 does not reach are ignored)."""
    level = _levels(support, np.arange(support.shape[0]) == 0)
    src, dst = np.nonzero(support & (level >= 0)[:, None])
    return int(np.gcd.reduce(level[src] + 1 - level[dst]))


def _forward_infinite(support: np.ndarray) -> np.ndarray:
    """Mask of the vertices that start an infinite path in the digraph with
    boolean adjacency ``support``: the largest vertex set in which every
    vertex has an edge into the set.  On the transpose, the vertices that
    end an infinite path."""
    alive = np.ones(support.shape[0], dtype=bool)
    while True:
        keep = alive & support[:, alive].any(axis=1)
        if np.array_equal(keep, alive):
            return alive
        alive = keep


def _tail(node, step: Callable) -> tuple[list[int], list[int]]:
    """Follow ``step`` (node -> (edge, next node)) from ``node`` until a
    node repeats; return the edges of the cycle closed there and the
    lead-in edges before it, in walking order."""
    seen = {node: 0}
    edges: list[int] = []
    while True:
        e, node = step(node)
        edges.append(e)
        if node in seen:
            return edges[seen[node]:], edges[:seen[node]]
        seen[node] = len(edges)


@record
class Alphabet:
    """Ordered finite set of symbol tokens; the order fixes all iteration order."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(str(s) for s in self.symbols))
        if not self.symbols:
            raise ValidationError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(range(len(self.symbols)))

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValidationError(f"symbol {symbol!r} not in alphabet") from None

    def text(self, letters: Sequence[int]) -> str:
        """Render letter indices as text (concatenated, or comma separated
        when some symbol is longer than one character)."""
        syms = [self.symbols[i] for i in letters]
        if all(len(s) == 1 for s in self.symbols):
            return "".join(syms)
        return ",".join(syms)

    def parse(self, text: str) -> tuple[int, ...]:
        """Inverse of :meth:`text` for well-formed input."""
        if "," in text:
            parts = text.split(",")
        elif all(len(s) == 1 for s in self.symbols):
            parts = list(text)
        else:
            parts = text.split()
        return tuple(self.index(p) for p in parts)


@record
class Word:
    """Finite configuration on a closed integer window ``[start, start+len-1]``."""

    alphabet: Alphabet
    start: int
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(a) for a in self.letters))
        for a in self.letters:
            if not 0 <= a < len(self.alphabet):
                raise ValidationError(f"letter index {a} out of range")

    @property
    def end(self) -> int:
        return self.start + len(self.letters) - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.start, self.end)

    def __len__(self) -> int:
        return len(self.letters)

    def symbol_at(self, k: int) -> int:
        if not self.start <= k <= self.end:
            raise ValidationError(f"position {k} outside window {self.window}")
        return self.letters[k - self.start]

    def restrict(self, a: int, b: int) -> "Word":
        if a < self.start or b > self.end:
            raise ValidationError("restriction window exceeds word window")
        return Word(self.alphabet, a, self.letters[a - self.start:b - self.start + 1])

    def text(self) -> str:
        return self.alphabet.text(self.letters)


class SoficPresentation:
    """Labeled directed graph presenting a sofic shift.

    The presented shift space is exactly the set of bi-infinite label
    sequences of paths.  The graph must be essential (every vertex has at
    least one outgoing and one incoming edge).
    """

    def __init__(self, alphabet: Alphabet, vertices: Sequence[str],
                 edges: Sequence[tuple[str, str, str]]):
        self.alphabet = alphabet
        self.vertices = tuple(str(v) for v in vertices)
        if not self.vertices:
            raise ValidationError("presentation needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("vertex names must be distinct")
        vindex = {v: i for i, v in enumerate(self.vertices)}
        parsed = []
        for (src, dst, sym) in edges:
            if str(src) not in vindex:
                raise ValidationError(f"unknown vertex {src!r} in edge")
            if str(dst) not in vindex:
                raise ValidationError(f"unknown vertex {dst!r} in edge")
            parsed.append((vindex[str(src)], vindex[str(dst)], alphabet.index(str(sym))))
        self.edges = tuple(parsed)
        if not self.edges:
            raise ValidationError("presentation needs at least one edge")
        n = len(self.vertices)
        out_lists: list[list[int]] = [[] for _ in range(n)]
        in_lists: list[list[int]] = [[] for _ in range(n)]
        for e, (s, d, _a) in enumerate(self.edges):
            out_lists[s].append(e)
            in_lists[d].append(e)
        for v in range(n):
            if not out_lists[v] or not in_lists[v]:
                raise ValidationError(
                    f"vertex {self.vertices[v]!r} is stranded: presentation must be essential")
        self._out = tuple(tuple(es) for es in out_lists)
        self._in = tuple(tuple(es) for es in in_lists)

    # -- basic structure ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def edge_source(self, e: int) -> int:
        return self.edges[e][0]

    def edge_target(self, e: int) -> int:
        return self.edges[e][1]

    def edge_symbol(self, e: int) -> int:
        return self.edges[e][2]

    def out_edges(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_edges(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SoficPresentation)
                and self.alphabet == other.alphabet
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.alphabet, self.vertices, self.edges))

    def __repr__(self):
        return (f"SoficPresentation({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, alphabet {self.alphabet.symbols})")

    # -- cached structural flags --------------------------------------------

    @cached_property
    def right_resolving(self) -> bool:
        for v in range(self.n_vertices):
            labels = [self.edge_symbol(e) for e in self._out[v]]
            if len(labels) != len(set(labels)):
                return False
        return True

    @cached_property
    def _adjacency(self) -> np.ndarray:
        """Boolean vertex adjacency: ``[s, d]`` iff some edge runs s -> d."""
        adj = np.zeros((self.n_vertices, self.n_vertices), dtype=bool)
        src, dst, _labels = np.array(self.edges).T
        adj[src, dst] = True
        return adj

    @cached_property
    def irreducible(self) -> bool:
        return strongly_connected(self._adjacency)

    @cached_property
    def period(self) -> int:
        """gcd of cycle lengths; defined only for irreducible graphs."""
        if not self.irreducible:
            raise ValidationError("aperiodicity undefined on reducible graph")
        return support_period(self._adjacency)

    @cached_property
    def aperiodic(self) -> bool:
        return self.period == 1

    # -- determinized word automaton -----------------------------------------

    @cached_property
    def _det(self) -> tuple[np.ndarray, int]:
        """Subset automaton over label transitions, reachable from the full
        vertex set.  Words of the shift correspond one-to-one to paths from
        the start state, which makes word counting and word-sum partition
        products exact even when a word has several presenting paths."""
        K = len(self.alphabet)
        by_symbol: list[list[list[int]]] = [
            [[] for _ in range(K)] for _ in range(self.n_vertices)]
        for (s, d, a) in self.edges:
            by_symbol[s][a].append(d)
        start = frozenset(range(self.n_vertices))
        ids = {start: 0}
        order = [start]
        rows = []
        i = 0
        while i < len(order):
            cur = order[i]
            row = []
            for a in range(K):
                tgt = frozenset(t for v in cur for t in by_symbol[v][a])
                if tgt:
                    if tgt not in ids:
                        if len(ids) >= _DET_STATE_CAP:
                            raise VolumeGuardError(
                                "volume too large for brute force: determinized "
                                "automaton exceeds state cap")
                        ids[tgt] = len(order)
                        order.append(tgt)
                    row.append(ids[tgt])
                else:
                    row.append(-1)
            rows.append(row)
            i += 1
        return np.array(rows, dtype=np.int64), 0

    @cached_property
    def _det_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The subset automaton's (state, letter) edges in row-major order,
        so each state's letters ascend: each edge's letter and target, and
        each state's first edge (one more entry, the edge count, closes the
        last state's block).  Every state has an allowed letter, so no
        block is empty."""
        det, _ = self._det
        state_of, letter = np.nonzero(det >= 0)
        first = np.searchsorted(state_of, np.arange(det.shape[0] + 1))
        return letter, det[state_of, letter], first

    def _counts(self, length: int) -> Iterator[int]:
        """Yield the exact number of allowed words of each length 0..length
        (Python integers): one vector of per-state counts of the words read
        from each automaton state, extended a letter at a time by summing
        the counts at each state's edge targets (``_det_edges``), read at
        the start state.  A negative length is refused."""
        if length < 0:
            raise ValidationError(f"word length must be nonnegative, not {length}")
        _letter, target, first = self._det_edges
        start = self._det[1]
        counts = np.ones(first.shape[0] - 1, dtype=object)
        yield int(counts[start])
        for _ in range(length):
            counts = np.add.reduceat(counts[target], first[:-1])
            yield int(counts[start])

    def word_count(self, length: int) -> int:
        """Exact number of allowed words of the given length (``_counts``)."""
        for count in self._counts(length):
            pass
        return count

    def allows(self, letters: Sequence[int]) -> bool:
        """True iff the letter sequence labels at least one path."""
        det, s = self._det
        for a in letters:
            s = det[s][a]
            if s < 0:
                return False
        return True

    # -- word enumeration ------------------------------------------------------

    def _grow(self, words: np.ndarray, states: np.ndarray, steps: int
              ) -> tuple[np.ndarray, np.ndarray]:
        """Extend each word (in automaton state ``states[i]``) by every
        allowed letter, ``steps`` times; the letters take the words' dtype.
        Each word's children follow it in increasing letter order, from its
        state's own allowed letters, so lexicographic input stays
        lexicographic and no temporary has more entries than the output has
        words."""
        letter, target, first = self._det_edges
        letter = letter.astype(words.dtype)
        degree = np.diff(first)
        for _ in range(steps):
            fan = degree[states]
            # the (state, letter) pair of each child: its parent's block of
            # pairs, offset by the child's place among its siblings
            pair = np.repeat(first[states] + fan - np.cumsum(fan), fan)
            pair += np.arange(pair.shape[0])
            words = np.concatenate(
                [np.repeat(words, fan, axis=0), letter[pair][:, None]], axis=1)
            states = target[pair]
        return words, states

    def check_volume(self, length: int, cap: int | None = None) -> None:
        """Refuse (``VolumeGuardError``) when the allowed words of the given
        length exceed the enumeration cap (``DEFAULT_ENUM_CAP`` when ``cap``
        is None).  The counts of ``_counts`` are read only up to the first
        one past the cap, which settles it: every automaton state has an
        allowed letter, so each shorter word extends to a word of the full
        length and no count falls as the length grows."""
        limit = DEFAULT_ENUM_CAP if cap is None else cap
        if any(count > limit for count in self._counts(length)):
            raise VolumeGuardError(
                f"volume too large for brute force: more than {limit} words "
                f"of length {length}")

    def word_matrix(self, length: int, cap: int | None = None) -> np.ndarray:
        """All allowed words of the given length, lexicographic order, as a
        ``(count, length)`` array of letter indices (``uint8`` up to 256
        letters, the smallest unsigned type that holds every index beyond),
        grown by ``_grow`` from the start state.  Refuses above the
        enumeration cap (``check_volume``)."""
        self.check_volume(length, cap)
        start = np.zeros((1, 0), dtype=np.min_scalar_type(len(self.alphabet) - 1))
        return self._grow(start, np.array([self._det[1]]), length)[0]

    def iter_word_blocks(self, length: int, cap: int | None = None
                         ) -> Iterator[np.ndarray]:
        """Yield the word list of ``word_matrix`` as a single block."""
        yield self.word_matrix(length, cap)

    # -- path utilities ---------------------------------------------------------

    @cached_property
    def gap(self) -> int:
        """The decoupling gap q that every certificate reads: the
        bounded-length graph gap, the longest shortest nonempty path between
        two vertices (``_pair_dist``), so every ordered vertex pair is
        joined by a path of 1 to q edges.  Refuses a reducible
        presentation."""
        if not self.irreducible:
            raise ValidationError("no finite gap: presentation is not irreducible")
        return int(self._pair_dist.max())

    @cached_property
    def _pair_dist(self) -> np.ndarray:
        """Shortest nonempty path lengths between ordered vertex pairs (-1
        when unreachable): ``_levels`` from every source's out-neighbours
        at once, plus the first edge."""
        level = _levels(self._adjacency, self._adjacency)
        return np.where(level >= 0, level + 1, -1)

    def shortest_path_edges(self, src: int, dst: int) -> tuple[int, ...]:
        """Edge list of a shortest nonempty path src -> dst, the
        lexicographically first among the shortest: from each vertex take
        the smallest out-edge whose target is one step closer to ``dst``
        (by ``_pair_dist``).  Requires reachability."""
        dist = self._pair_dist
        remaining = int(dist[src, dst])
        if remaining < 0:
            raise ValidationError("no finite gap: target vertex unreachable")
        path = []
        v = src
        while remaining:
            remaining -= 1
            e = next(e for e in self._out[v]
                     if (self.edge_target(e) == dst if remaining == 0
                         else dist[self.edge_target(e), dst] == remaining))
            path.append(e)
            v = self.edge_target(e)
        return tuple(path)


@record
class BlockCode:
    """Sliding-block code with window radius ``radius``: maps each allowed
    source word on ``[-radius, radius]`` to a target symbol."""

    radius: int
    target_alphabet: Alphabet
    block_map: Callable[[tuple[int, ...]], int]

    @staticmethod
    def from_table(radius: int, target_alphabet: Alphabet,
                   table: dict[tuple[int, ...], int],
                   default: int | None = None) -> "BlockCode":
        def fn(pattern: tuple[int, ...]) -> int:
            if pattern in table:
                return table[pattern]
            if default is None:
                raise ValidationError(f"block map undefined on pattern {pattern}")
            return default
        return BlockCode(radius, target_alphabet, fn)


class Point:
    """Bi-infinite eventually-periodic point with an explicit presenting path.

    The path is stored as three edge lists: ``left_cycle`` repeated toward
    -infinity on ``(-inf, core_start)``, ``core`` on
    ``[core_start, core_start + len(core) - 1]``, and ``right_cycle``
    repeated toward +infinity.  Symbols are the edge labels, so every
    coordinate is queryable in O(1).
    """

    def __init__(self, presentation: SoficPresentation,
                 left_cycle: Sequence[int], core: Sequence[int],
                 right_cycle: Sequence[int], core_start: int = 0):
        self.presentation = presentation
        self.left_cycle = tuple(int(e) for e in left_cycle)
        self.core = tuple(int(e) for e in core)
        self.right_cycle = tuple(int(e) for e in right_cycle)
        self.core_start = int(core_start)
        if not self.left_cycle or not self.right_cycle:
            raise ValidationError("tail cycles must be nonempty")
        p = presentation
        for e in self.left_cycle + self.core + self.right_cycle:
            if not 0 <= e < len(p.edges):
                raise ValidationError(f"edge id {e} out of range")
        # cycles must close up
        for cyc in (self.left_cycle, self.right_cycle):
            for i, e in enumerate(cyc):
                nxt = cyc[(i + 1) % len(cyc)]
                if p.edge_target(e) != p.edge_source(nxt):
                    raise ValidationError("tail cycle is not a closed path")
        # the full edge assignment must chain correctly across joints
        lo = self.core_start - 1
        hi = self.core_start + len(self.core)
        for k in range(lo, hi + 1):
            if p.edge_target(self.edge_at(k)) != p.edge_source(self.edge_at(k + 1)):
                raise ValidationError("presenting path edges do not chain")

    @property
    def right_start(self) -> int:
        """First coordinate governed by the right cycle."""
        return self.core_start + len(self.core)

    def edge_at(self, k: int) -> int:
        if k < self.core_start:
            return self.left_cycle[(k - self.core_start) % len(self.left_cycle)]
        if k >= self.right_start:
            return self.right_cycle[(k - self.right_start) % len(self.right_cycle)]
        return self.core[k - self.core_start]

    def symbol_at(self, k: int) -> int:
        return self.presentation.edge_symbol(self.edge_at(k))

    def vertex_at(self, k: int) -> int:
        """Vertex visited at position k (source of the edge at k)."""
        return self.presentation.edge_source(self.edge_at(k))

    def word(self, a: int, b: int) -> Word:
        return Word(self.presentation.alphabet, a,
                    tuple(self.symbol_at(k) for k in range(a, b + 1)))

    def __repr__(self):
        w = self.word(-3, 3)
        return f"Point(...{w.text()}... core_start={self.core_start})"


def point_from_words(presentation: SoficPresentation, left: Sequence[int],
                     core: Sequence[int], right: Sequence[int],
                     core_start: int = 0) -> Point:
    """Find a presenting path for the eventually periodic symbol sequence
    given by ``left`` repeated on the left, ``core`` in the middle and
    ``right`` repeated on the right; bounded search over (phase, vertex)
    pairs synchronized with the cycles.
    """
    p = presentation
    left = tuple(int(a) for a in left)
    core = tuple(int(a) for a in core)
    right = tuple(int(a) for a in right)
    if not left or not right:
        raise ValidationError("tail cycle words must be nonempty")

    def sym_edges(v: int, a: int) -> list[int]:
        return [e for e in p.out_edges(v) if p.edge_symbol(e) == a]

    n = p.n_vertices
    src, dst, labels = np.array(p.edges).T
    labeled = np.zeros((len(p.alphabet), n, n), dtype=bool)
    labeled[labels, src, dst] = True

    def phase_graph(word: tuple[int, ...]) -> np.ndarray:
        # node (phase i, vertex v) at i*n + v, with an edge
        # (i, v) -> (i+1 mod len, w) when v --word[i]--> w
        L = len(word)
        g = np.zeros((L, n, L, n), dtype=bool)
        g[np.arange(L), :, (np.arange(L) + 1) % L, :] = labeled[list(word)]
        return g.reshape(L * n, L * n)

    # (phase, vertex) nodes that the left word reaches from -infinity, and
    # from which the right word runs on to +infinity
    P, Q = len(left), len(right)
    good_left = _forward_infinite(phase_graph(left).T).reshape(P, n)
    good_right = _forward_infinite(phase_graph(right)).reshape(Q, n)

    # read the core from a good left node to a good right node; the left
    # cycle is aligned so that left[0] sits at core_start - P
    paths: dict[int, list[int]] = {
        v: [] for v in np.flatnonzero(good_left[0]).tolist()}
    for a in core:
        nxt: dict[int, list[int]] = {}
        for v, path in sorted(paths.items()):
            for e in sorted(sym_edges(v, a)):
                w = p.edge_target(e)
                if w not in nxt:
                    nxt[w] = path + [e]
        paths = nxt
    ends = [v for v in paths if good_right[0, v]]
    if not ends:
        raise ValidationError("word has no presenting path in this presentation")
    end = min(ends)
    core_edges = paths[end]

    # realize concrete cycles through the chosen joints, taking the
    # smallest admissible edge at each step
    def left_step(node: tuple[int, int]) -> tuple[int, tuple[int, int]]:
        i, u = node
        j = (i - 1) % P
        e = min(e for e in p.in_edges(u)
                if p.edge_symbol(e) == left[j] and good_left[j, p.edge_source(e)])
        return e, (j, p.edge_source(e))

    def right_step(node: tuple[int, int]) -> tuple[int, tuple[int, int]]:
        i, u = node
        j = (i + 1) % Q
        e = min(e for e in sym_edges(u, right[i]) if good_right[j, p.edge_target(e)])
        return e, (j, p.edge_target(e))

    start_vertex = (p.edge_source(core_edges[0]) if core_edges else end)
    left_cyc, left_lead = _tail((0, start_vertex), left_step)
    right_cyc, right_lead = _tail((0, end), right_step)
    # the left tail walks backwards; fold the acyclic lead-ins into the
    # core so the tails are purely periodic
    full_core = left_lead[::-1] + core_edges + right_lead
    return Point(presentation, left_cyc[::-1], full_core, right_cyc,
                 core_start - len(left_lead))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def enumerate_words(presentation: SoficPresentation, n: int,
                    cap: int | None = None) -> list[Word]:
    """All allowed words on the window [-n, n], lexicographic in the
    alphabet order.  Refuses above the enumeration cap."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    mat = presentation.word_matrix(2 * n + 1, cap=cap)
    alph = presentation.alphabet
    return [Word(alph, -n, tuple(int(a) for a in row)) for row in mat]


def decoupling_gap(presentation: SoficPresentation,
                   variant: str = "bounded-length") -> int:
    """Minimal gap of the requested variant.

    bounded-length: ``presentation.gap``, every ordered vertex pair joined
    by a nonempty path of length at most q.  exact-length: the minimal q
    whose q-th Boolean adjacency power is all-positive, every pair joined by
    a path of length exactly q (requires aperiodicity).  ``gap`` refuses a
    reducible graph and the aperiodicity check a periodic one, so the graph
    is primitive and, by Wielandt's bound on the exponent of a primitive
    n-vertex graph, q <= (n - 1)**2 + 1: the loop ends.
    """
    if variant not in ("bounded-length", "exact-length"):
        raise ValidationError(f"unknown gap variant {variant!r}")
    bounded = presentation.gap  # refuses a reducible presentation
    if variant == "bounded-length":
        return bounded
    if not presentation.aperiodic:
        raise ValidationError("exact-length gap does not exist: graph is periodic")
    power = adj = presentation._adjacency
    q = 1
    while not power.all():
        power = (power.astype(np.int64) @ adj.astype(np.int64)) > 0
        q += 1
    return q


def splice(presentation: SoficPresentation, x_minus: Point, y: Point,
           x_plus: Point, m: int) -> tuple[Point, int, int]:
    """Glue the center of ``y`` on [-m, m] to the far tails of ``x_minus``
    and ``x_plus`` through connecting graph paths.

    Returns ``(z, l_minus, l_plus)`` with ``|l_minus|, |l_plus| <= q``, q
    the graph gap ``presentation.gap`` (the joins are graph paths), such
    that

    * ``z`` agrees with ``y`` on ``[-m, m]``,
    * ``z`` agrees with ``T^{-l_minus} x_minus`` on ``(-inf, -m-q)``,
    * ``z`` agrees with ``T^{-l_plus} x_plus`` on ``(m+q, inf)``.
    """
    for pt in (x_minus, y, x_plus):
        if pt.presentation is not presentation and pt.presentation != presentation:
            raise ValidationError("foreign point: not presented in this presentation")
    q = presentation.gap  # refuses a reducible presentation
    if m < 0:
        raise ValidationError("m must be nonnegative")

    p = presentation
    vQ = y.vertex_at(-m)                       # start of the middle block
    vR = p.edge_target(y.edge_at(m))           # end of the middle block
    vP = p.edge_target(x_minus.edge_at(-(m + q) - 1))  # end of the left tail
    vS = x_plus.vertex_at(m + q + 1)           # start of the right tail

    conn_left = p.shortest_path_edges(vP, vQ)
    conn_right = p.shortest_path_edges(vR, vS)
    q_minus, q_plus = len(conn_left), len(conn_right)
    l_minus = q - q_minus
    l_plus = q_plus - q

    def z_edge(k: int) -> int:
        if k < -m - q_minus:
            return x_minus.edge_at(k - l_minus)
        if k < -m:
            return conn_left[k + m + q_minus]
        if k <= m:
            return y.edge_at(k)
        if k <= m + q_plus:
            return conn_right[k - m - 1]
        return x_plus.edge_at(k - l_plus)

    p_left = len(x_minus.left_cycle)
    p_right = len(x_plus.right_cycle)
    core_lo = min(-m - q_minus, x_minus.core_start + l_minus)
    core_hi = max(m + q_plus, x_plus.right_start + l_plus - 1)
    left_cycle = [z_edge(core_lo - p_left + i) for i in range(p_left)]
    right_cycle = [z_edge(core_hi + 1 + i) for i in range(p_right)]
    core = [z_edge(k) for k in range(core_lo, core_hi + 1)]
    z = Point(presentation, left_cycle, core, right_cycle, core_lo)
    return z, l_minus, l_plus


def apply_block_code(code: BlockCode, w: Word) -> Word:
    """Apply a radius-k sliding-block code to a word on [a-k, b+k],
    producing the image word on [a, b]."""
    k = code.radius
    if len(w) < 2 * k + 1:
        raise ValidationError("insufficient context: window too short for code radius")
    a, b = w.start + k, w.end - k
    letters = []
    for pos in range(a, b + 1):
        pattern = tuple(w.letters[pos - k - w.start: pos + k + 1 - w.start])
        letters.append(code.block_map(pattern))
    return Word(code.target_alphabet, a, tuple(letters))


def factor_presentation(presentation: SoficPresentation,
                        code: BlockCode) -> SoficPresentation:
    """Presentation of the image shift under a sliding-block code.

    Vertices are length-2k paths of the source graph (for k = 0 the empty
    path at each source vertex), listed by start vertex and then by edge
    ids, the order they are grown in; an edge extends the path by one
    source edge, carries the code's output on the (2k+1)-letter label
    window and leads to the window's last 2k edges, started at the target
    of its first edge.  The presented language is exactly the image of the
    source language.
    """
    k = code.radius
    p = presentation
    # the image has one vertex per 2k-edge path: count them exactly first
    mult = np.zeros((p.n_vertices, p.n_vertices), dtype=object)
    for (s, d, _a) in p.edges:
        mult[s, d] += 1
    counts = np.ones(p.n_vertices, dtype=object)
    for _ in range(2 * k):
        counts = mult @ counts
    n_image = int(counts.sum())
    if n_image ** 2 > DENSE_ENTRIES_CAP:
        n_text = _count_text(n_image)
        raise VolumeGuardError(
            f"volume too large for brute force: factor image with {n_text} "
            f"vertices needs {n_text} x {n_text} matrices")
    paths = [(v, v, ()) for v in range(p.n_vertices)]  # (start, end, edges)
    for _ in range(2 * k):
        paths = [(v0, p.edge_target(e), es + (e,))
                 for (v0, v, es) in paths for e in p.out_edges(v)]
    index = {(v0, es): i for i, (v0, _v, es) in enumerate(paths)}
    edges = []
    for i, (_v0, end, es) in enumerate(paths):
        for window in (es + (f,) for f in p.out_edges(end)):
            label = code.block_map(tuple(p.edge_symbol(e) for e in window))
            tgt = index[(p.edge_target(window[0]), window[1:])]
            edges.append((f"b{i}", f"b{tgt}", code.target_alphabet.symbols[label]))
    return SoficPresentation(code.target_alphabet, [f"b{i}" for i in range(len(paths))], edges)


def factor_gap_bound(q: int, k: int) -> int:
    """Gap bound propagated through a radius-k factor code: q + 2k."""
    return q + 2 * k


def _forbidden_test(fwords: Sequence[tuple[int, ...]]
                    ) -> Callable[[tuple[int, ...]], bool]:
    """Predicate: does a letter tuple contain one of ``fwords``?  Each
    window of each forbidden length is looked up in the set of forbidden
    words of that length."""
    by_length: dict[int, set[tuple[int, ...]]] = {}
    for f in fwords:
        by_length.setdefault(len(f), set()).add(tuple(f))

    def contains_forbidden(seq: tuple[int, ...]) -> bool:
        return any(seq[i:i + L] in words for L, words in by_length.items()
                   for i in range(len(seq) - L + 1))
    return contains_forbidden


def sft_presentation(alphabet: Alphabet,
                     forbidden: Sequence[str]) -> SoficPresentation:
    """Vertex-shift presentation of the SFT with the given forbidden words.

    Vertices are the allowed (F-1)-blocks (F = longest forbidden word,
    minimum memory 1); the edge u -> v exists when the overlap word u·v[-1]
    avoids every forbidden word, and is labeled with the newly exposed
    letter v[-1].  Stranded blocks are pruned so the graph is essential.
    """
    fwords = [alphabet.parse(t) for t in forbidden]
    if any(len(f) == 0 for f in fwords):
        raise ValidationError("forbidden words must be nonempty")
    memory = max((len(f) - 1 for f in fwords), default=1)
    memory = max(memory, 1)
    K = len(alphabet)

    contains_forbidden = _forbidden_test(fwords)
    blocks = [b for b in itertools.product(range(K), repeat=memory)
              if not contains_forbidden(b)]
    index = {b: i for i, b in enumerate(blocks)}
    support = np.zeros((len(blocks), len(blocks)), dtype=bool)
    for b in blocks:
        for a in range(K):
            t = b[1:] + (a,)
            if t in index and not contains_forbidden(b + (a,)):
                support[index[b], index[t]] = True
    # the essential core: blocks on a bi-infinite path
    core = _forward_infinite(support) & _forward_infinite(support.T)
    if not core.any():
        raise ValidationError("SFT language is empty")
    text = [alphabet.text(b) for b in blocks]
    names = [text[i] for i in np.flatnonzero(core)]
    edges = [(text[i], text[j], alphabet.symbols[blocks[j][-1]])
             for i in np.flatnonzero(core) for j in np.flatnonzero(support[i] & core)]
    return SoficPresentation(alphabet, names, edges)
