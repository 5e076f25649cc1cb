import itertools
import random

import numpy as np
import pytest

from shiftgibbs import (Alphabet, BlockCode, Point, SoficPresentation,
                        ValidationError, VolumeGuardError, Word,
                        apply_block_code, decoupling_gap, enumerate_words,
                        factor_gap_bound, factor_presentation,
                        point_from_words, sft_presentation, splice)
from shiftgibbs.bundled import BINARY, data_path, ten_detector_code
from shiftgibbs.fileio import load_shift
from shiftgibbs.shifts import (_forward_infinite, strongly_connected,
                               support_period)


def texts(words):
    return [w.text() for w in words]


class TestEnumeration:
    def test_full_shift_n1(self, full):
        assert texts(enumerate_words(full, 1)) == [
            "000", "001", "010", "011", "100", "101", "110", "111"]

    def test_golden_mean_n1(self, gm):
        # brute-force filter of the 8 binary 3-words against the block 11
        expected = [w for w in ("000", "001", "010", "011", "100", "101", "110", "111")
                    if "11" not in w]
        assert texts(enumerate_words(gm, 1)) == expected == [
            "000", "001", "010", "100", "101"]

    def test_even_shift_n0(self, ev):
        assert texts(enumerate_words(ev, 0)) == ["0", "1"]

    def test_volume_guard(self, full):
        with pytest.raises(VolumeGuardError, match="volume too large for brute force"):
            enumerate_words(full, 10)  # 2^21 candidates > default cap

    def test_cap_override(self, full):
        words = enumerate_words(full, 2, cap=64)
        assert len(words) == 32
        with pytest.raises(VolumeGuardError):
            enumerate_words(full, 2, cap=31)

    def test_language_factorial_and_extendable(self, gm, ev, full):
        for pres in (gm, ev, full):
            for n in range(0, 4):
                small = {w.letters for w in enumerate_words(pres, n)}
                big = enumerate_words(pres, n + 1)
                centers = {w.letters[1:-1] for w in big}
                assert centers == small

    def test_blocks_concatenate_to_word_matrix(self, ev, full):
        for pres in (ev, full):
            blocks = list(pres.iter_word_blocks(9, block_size=7))
            assert all(0 < b.shape[0] <= 7 for b in blocks)
            assert np.array_equal(np.concatenate(blocks), pres.word_matrix(9))

    def test_word_count_matches_enumeration(self, ev):
        for n in range(0, 5):
            assert ev.word_count(2 * n + 1) == len(enumerate_words(ev, n))


class TestGraphPredicates:
    def test_irreducible(self, ev, reducible, full):
        assert ev.irreducible
        assert not reducible.irreducible
        assert full.irreducible

    def test_aperiodic(self, ev, periodic, full):
        assert ev.aperiodic  # cycles of length 1 and 2
        assert not periodic.aperiodic
        assert full.aperiodic

    @pytest.mark.parametrize("support, connected, period", [
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], True, 3),  # 3-cycle
        ([[1, 1], [1, 0]], True, 1),  # self-loop plus 2-cycle
        ([[1, 1], [0, 1]], False, None),  # 1 never returns to 0
    ])
    def test_support_helpers(self, support, connected, period):
        support = np.array(support, dtype=bool)
        assert strongly_connected(support) == connected
        if period is not None:
            assert support_period(support) == period

    def test_aperiodic_requires_irreducible(self, reducible):
        with pytest.raises(ValidationError, match="aperiodicity undefined"):
            reducible.aperiodic

    def test_essentiality_enforced(self):
        with pytest.raises(ValidationError, match="essential"):
            SoficPresentation(BINARY, ("a", "b"),
                              (("a", "a", "0"), ("a", "b", "1")))

    def test_right_resolving_flag(self, gm):
        assert gm.right_resolving
        doubled = SoficPresentation(
            BINARY, ("a", "b"),
            (("a", "a", "0"), ("a", "b", "0"), ("b", "a", "1"), ("b", "a", "0")))
        assert not doubled.right_resolving


class TestDecouplingGap:
    def test_even_bounded(self, ev):
        assert decoupling_gap(ev, "bounded-length").gap == 2

    def test_full_shift_both(self, full):
        assert decoupling_gap(full, "bounded-length").gap == 1
        assert decoupling_gap(full, "exact-length").gap == 1

    def test_golden_exact(self, gm):
        # Boolean powers of [[1,1],[1,0]]: the square is already positive
        assert decoupling_gap(gm, "exact-length").gap == 2

    def test_reducible_rejected(self, reducible):
        with pytest.raises(ValidationError, match="no finite gap"):
            decoupling_gap(reducible)

    def test_periodic_exact_rejected(self, periodic):
        with pytest.raises(ValidationError, match="exact-length gap does not exist"):
            decoupling_gap(periodic, "exact-length")
        assert decoupling_gap(periodic, "bounded-length").gap == 2

    def test_bounded_gap_is_tight(self, gm, ev, full):
        # reachability within q steps is total; within q-1 it is not
        for pres in (gm, ev, full):
            q = decoupling_gap(pres, "bounded-length").gap
            dist = pres._pair_dist
            assert dist.max() == q
            assert (dist >= 1).all()


def random_point(presentation, rng):
    p = presentation

    def random_cycle(start):
        v = start
        edges = []
        seen = {v: 0}
        while True:
            e = rng.choice(p.out_edges(v))
            edges.append(e)
            v = p.edge_target(e)
            if v in seen:
                return edges[seen[v]:], edges[:seen[v]]
            seen[v] = len(edges)

    left_cycle, _ = random_cycle(rng.randrange(p.n_vertices))
    v = p.edge_target(left_cycle[-1])
    core = []
    for _ in range(rng.randrange(0, 8)):
        e = rng.choice(p.out_edges(v))
        core.append(e)
        v = p.edge_target(e)
    right_cycle, lead = random_cycle(v)
    return Point(p, left_cycle, core + lead, right_cycle, rng.randrange(-5, 6))


def check_splice_case(presentation, x_minus, y, x_plus, m, window=30):
    q = decoupling_gap(presentation, "bounded-length").gap
    z, l_minus, l_plus = splice(presentation, x_minus, y, x_plus, m)
    assert abs(l_minus) <= q and abs(l_plus) <= q
    for k in range(-m, m + 1):
        assert z.symbol_at(k) == y.symbol_at(k)
    for k in range(-(m + q) - window, -(m + q)):
        assert z.symbol_at(k) == x_minus.symbol_at(k - l_minus)
    for k in range(m + q + 1, m + q + window + 1):
        assert z.symbol_at(k) == x_plus.symbol_at(k - l_plus)
    lc, xc = z.left_cycle, x_minus.left_cycle
    assert any(lc == xc[i:] + xc[:i] for i in range(len(xc)))
    rc, pc = z.right_cycle, x_plus.right_cycle
    assert any(rc == pc[i:] + pc[:i] for i in range(len(pc)))
    return z, l_minus, l_plus


class TestSplice:
    def test_full_shift_trivial(self, full):
        rng = random.Random(3)
        x_minus, y, x_plus = (random_point(full, rng) for _ in range(3))
        z, l_minus, l_plus = check_splice_case(full, x_minus, y, x_plus, 4)
        # q = 1 on the one-vertex presentation: splicing is free
        assert l_minus == 0 and l_plus == 0
        for k in range(-40, -5):
            assert z.symbol_at(k) == x_minus.symbol_at(k)
        for k in range(6, 40):
            assert z.symbol_at(k) == x_plus.symbol_at(k)

    def test_even_shift_ones_zeros(self, ev):
        ones = point_from_words(ev, (1,), (), (1,))
        zeros = point_from_words(ev, (0,), (), (0,))
        z, _, _ = check_splice_case(ev, ones, zeros, ones, 2, window=20)
        assert z.word(-2, 2).text() == "00000"

    def test_consistency_same_point(self, ev):
        rng = random.Random(11)
        y = random_point(ev, rng)
        z, l_minus, l_plus = check_splice_case(ev, y, y, y, 3)
        for k in range(-3, 4):
            assert z.symbol_at(k) == y.symbol_at(k)

    def test_randomized_smoke(self, gm, ev, full):
        for pres in (gm, ev, full):
            rng = random.Random(99)
            for _ in range(50):
                pts = [random_point(pres, rng) for _ in range(3)]
                check_splice_case(pres, *pts, m=rng.randrange(0, 7))

    def test_foreign_point(self, gm, ev):
        p_gm = point_from_words(gm, (0,), (), (0,))
        zeros = point_from_words(ev, (0,), (), (0,))
        with pytest.raises(ValidationError, match="foreign point"):
            splice(ev, zeros, p_gm, zeros, 1)


def bfs_shortest_path(p, src, dst):
    """Oracle: the edge list of the lexicographically first shortest
    nonempty path src -> dst by breadth-first search over edge-id-ordered
    out-edges (None when dst is unreachable)."""
    best = {}
    frontier = [(src, ())]
    while frontier:
        nxt = []
        for v, path in frontier:
            for e in p.out_edges(v):
                w = p.edge_target(e)
                cand = path + (e,)
                if w == dst:
                    return cand
                if w not in best:
                    best[w] = cand
                    nxt.append((w, cand))
        frontier = nxt
    return None


def random_essential_graph(rng):
    """A random essential presentation on 1..6 vertices with parallel
    edges allowed, so ties between shortest paths are common."""
    while True:
        n = rng.randint(1, 6)
        edges = [(str(rng.randrange(n)), str(rng.randrange(n)),
                  str(rng.randrange(2))) for _ in range(rng.randint(n, 3 * n))]
        try:
            return SoficPresentation(BINARY, [str(v) for v in range(n)], edges)
        except ValidationError:
            continue


BUNDLED_SHIFT_FILES = ("full2.shift", "golden_mean.shift", "golden_mean.sft",
                       "even.shift", "reducible.shift", "periodic.shift")


class TestShortestPath:
    def check_every_pair(self, p):
        for src in range(p.n_vertices):
            for dst in range(p.n_vertices):
                want = bfs_shortest_path(p, src, dst)
                if want is None:
                    with pytest.raises(ValidationError, match="unreachable"):
                        p.shortest_path_edges(src, dst)
                else:
                    assert p.shortest_path_edges(src, dst) == want

    @pytest.mark.parametrize("name", BUNDLED_SHIFT_FILES)
    def test_matches_bfs_on_bundled_presentations(self, name):
        self.check_every_pair(load_shift(data_path(name)))

    def test_matches_bfs_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(200):
            self.check_every_pair(random_essential_graph(rng))


class TestPoints:
    def test_point_from_words_roundtrip(self, gm):
        pt = point_from_words(gm, (0, 1), (0, 0, 1), (0,), core_start=-1)
        for k in range(-9, -1):
            assert pt.symbol_at(k) == (0, 1)[(k + 1) % 2]
        assert [pt.symbol_at(k) for k in (-1, 0, 1)] == [0, 0, 1]
        for k in range(2, 9):
            assert pt.symbol_at(k) == 0
        assert pt.presentation is gm

    def test_point_rejects_bad_word(self, gm):
        with pytest.raises(ValidationError, match="no presenting path"):
            point_from_words(gm, (1,), (), (1,))  # ...111... is forbidden

    def test_shifted(self, ev):
        pt = point_from_words(ev, (0,), (1,), (0,))
        moved = pt.shifted(4)
        for k in range(-10, 10):
            assert moved.symbol_at(k) == pt.symbol_at(k + 4)

    def test_invalid_path_rejected(self, ev):
        # edge ids: 0: E->E (1), 1: E->O (0), 2: O->E (0)
        with pytest.raises(ValidationError):
            Point(ev, (0,), (1, 1), (0,), 0)  # E->O followed by E->O breaks


class TestBlockCodes:
    def test_identity(self, gm):
        ident = BlockCode(0, BINARY, lambda p: p[0])
        w = Word(BINARY, -1, (0, 1, 0))
        assert apply_block_code(ident, w) == w

    def test_ten_detector_example(self):
        code = ten_detector_code()
        w = Word(BINARY, -1, (0, 1, 0, 1))
        out = apply_block_code(code, w)
        assert out.window == (0, 1)
        assert out.text() == "11"

    def test_constant(self, gm):
        const = BlockCode(1, BINARY, lambda p: 0)
        out = apply_block_code(const, Word(BINARY, 0, (0, 1, 0, 0)))
        assert out.text() == "00"

    def test_insufficient_context(self):
        code = ten_detector_code()
        with pytest.raises(ValidationError, match="insufficient context"):
            apply_block_code(code, Word(BINARY, 0, (0, 1)))


class TestFactor:
    def test_identity_code_preserves_language(self, gm):
        ident = BlockCode(0, BINARY, lambda p: p[0])
        image = factor_presentation(gm, ident)
        for n in range(0, 5):
            assert texts(enumerate_words(image, n)) == texts(enumerate_words(gm, n))
        assert [image.word_count(k) for k in range(1, 7)] == [2, 3, 5, 8, 13, 21]

    def test_image_language_matches_brute_force(self, gm):
        code = ten_detector_code()
        image = factor_presentation(gm, code)
        for n in range(0, 5):
            brute = {apply_block_code(code, w).letters
                     for w in enumerate_words(gm, n + code.radius)}
            direct = {w.letters for w in enumerate_words(image, n)}
            assert brute == direct

    def test_constant_code_single_letter(self, gm):
        const = BlockCode(1, BINARY, lambda p: 1)
        image = factor_presentation(gm, const)
        for n in range(0, 3):
            assert texts(enumerate_words(image, n)) == ["1" * (2 * n + 1)]

    def test_gap_bound_formula(self):
        from shiftgibbs import DecouplingCertificate
        assert factor_gap_bound(DecouplingCertificate(2, "bounded-length"), 1) == 4
        assert factor_gap_bound(DecouplingCertificate(1, "bounded-length"), 0) == 1
        assert factor_gap_bound(DecouplingCertificate(3, "bounded-length"), 2) == 7

    def test_factor_gap_within_bound(self, gm):
        code = ten_detector_code()
        image = factor_presentation(gm, code)
        bound = factor_gap_bound(decoupling_gap(gm, "bounded-length"), code.radius)
        assert decoupling_gap(image, "bounded-length").gap <= bound


class TestSftIngestion:
    def test_golden_mean_from_forbidden_word(self, gm):
        built = sft_presentation(BINARY, ["11"])
        for n in range(0, 4):
            assert texts(enumerate_words(built, n)) == texts(enumerate_words(gm, n))

    def test_longer_memory(self):
        pres = sft_presentation(BINARY, ["111"])
        words = texts(enumerate_words(pres, 1))
        assert "111" not in words and "110" in words and "011" in words

    def test_empty_language_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            sft_presentation(Alphabet(("0",)), ["0"])


def oracle_point_from_words(presentation, left, core, right, core_start=0):
    """Oracle: ``point_from_words`` by set-based fixed-point trims of the
    (phase, vertex) graphs and one hand-written walker per tail."""
    p = presentation
    left = tuple(int(a) for a in left)
    core = tuple(int(a) for a in core)
    right = tuple(int(a) for a in right)
    if not left or not right:
        raise ValidationError("tail cycle words must be nonempty")

    def sym_edges(v: int, a: int) -> list[int]:
        return [e for e in p.out_edges(v) if p.edge_symbol(e) == a]

    n = p.n_vertices
    # product-graph nodes (phase i, vertex v) for the left cycle word:
    # an edge (i, v) -> (i+1 mod P, w) exists when v --left[i]--> w.
    P = len(left)
    good_left = {(i, v) for i in range(P) for v in range(n)}
    # greatest fixed point: keep (i, v) only if it has a predecessor, so the
    # periodic tail can extend to -infinity
    changed = True
    while changed:
        changed = False
        keep = set()
        for (i, v) in good_left:
            prev_i = (i - 1) % P
            if any((prev_i, p.edge_source(e)) in good_left
                   for e in p.in_edges(v) if p.edge_symbol(e) == left[prev_i]):
                keep.add((i, v))
        if keep != good_left:
            good_left = keep
            changed = True
    # symmetric construction for the right cycle: keep nodes with a successor
    Q = len(right)
    good_right = {(i, v) for i in range(Q) for v in range(n)}
    changed = True
    while changed:
        changed = False
        keep = set()
        for (i, v) in good_right:
            if any(((i + 1) % Q, p.edge_target(e)) in good_right
                   for e in sym_edges(v, right[i])):
                keep.add((i, v))
        if keep != good_right:
            good_right = keep
            changed = True
    if not good_left or not good_right:
        raise ValidationError("word has no presenting path in this presentation")

    # read the core from a good left node to a good right node
    start_phase = 0  # left cycle aligned so that left[0] sits at core_start - P
    paths: dict[int, list[int]] = {
        v: [] for (i, v) in sorted(good_left) if i == start_phase}
    if not paths:
        raise ValidationError("word has no presenting path in this presentation")
    for a in core:
        nxt: dict[int, list[int]] = {}
        for v, path in sorted(paths.items()):
            for e in sorted(sym_edges(v, a)):
                w = p.edge_target(e)
                if w not in nxt:
                    nxt[w] = path + [e]
        paths = nxt
        if not paths:
            raise ValidationError("word has no presenting path in this presentation")
    ends = [v for v in paths if (0, v) in good_right]
    if not ends:
        raise ValidationError("word has no presenting path in this presentation")
    end = min(ends)
    core_edges = paths[end]

    # realize concrete cycles through the chosen joints
    def walk_left_cycle(v: int) -> tuple[list[int], list[int]]:
        # walk backwards through good_left until a (phase, vertex) repeats
        trail = [(start_phase, v)]
        edges: list[int] = []
        seen = {trail[0]: 0}
        while True:
            i, u = trail[-1]
            prev_i = (i - 1) % P
            cands = [e for e in p.in_edges(u)
                     if p.edge_symbol(e) == left[prev_i]
                     and (prev_i, p.edge_source(e)) in good_left]
            e = min(cands)
            node = (prev_i, p.edge_source(e))
            edges.append(e)
            if node in seen:
                # cycle found: the edges from `node`'s first occurrence on
                cut = seen[node]
                cyc = list(reversed(edges[cut:]))
                lead = list(reversed(edges[:cut]))
                return cyc, lead
            seen[node] = len(edges)
            trail.append(node)

    def walk_right_cycle(v: int) -> tuple[list[int], list[int]]:
        trail = [(0, v)]
        edges: list[int] = []
        seen = {trail[0]: 0}
        while True:
            i, u = trail[-1]
            cands = [e for e in sym_edges(u, right[i])
                     if ((i + 1) % Q, p.edge_target(e)) in good_right]
            e = min(cands)
            node = ((i + 1) % Q, p.edge_target(e))
            edges.append(e)
            if node in seen:
                cut = seen[node]
                return edges[cut:], edges[:cut]
            seen[node] = len(edges)
            trail.append(node)

    start_vertex = (p.edge_source(core_edges[0]) if core_edges else end)
    left_cyc, left_lead = walk_left_cycle(start_vertex)
    right_cyc, right_lead = walk_right_cycle(end)
    # fold the acyclic lead-ins into the core so the tails are purely periodic
    full_core = left_lead + core_edges + right_lead
    return Point(presentation, left_cyc, full_core, right_cyc,
                 core_start - len(left_lead))


def oracle_sft_presentation(alphabet, forbidden):
    """Oracle: ``sft_presentation`` by a joint two-sided prune loop that
    re-evaluates the forbidden-word test on every pass."""
    fwords = [alphabet.parse(t) for t in forbidden]
    if any(len(f) == 0 for f in fwords):
        raise ValidationError("forbidden words must be nonempty")
    memory = max((len(f) - 1 for f in fwords), default=1)
    memory = max(memory, 1)
    K = len(alphabet)

    def contains_forbidden(seq: tuple[int, ...]) -> bool:
        for f in fwords:
            L = len(f)
            for i in range(len(seq) - L + 1):
                if seq[i:i + L] == tuple(f):
                    return True
        return False

    blocks = [b for b in itertools.product(range(K), repeat=memory)
              if not contains_forbidden(b)]
    alive = set(blocks)
    # prune to the essential core
    changed = True
    while changed:
        changed = False
        keep = set()
        for b in alive:
            has_out = any(b[1:] + (a,) in alive and
                          not contains_forbidden(b + (a,))
                          for a in range(K))
            has_in = any((a,) + b[:-1] in alive and
                         not contains_forbidden((a,) + b)
                         for a in range(K))
            if has_out and has_in:
                keep.add(b)
        if keep != alive:
            alive = keep
            changed = True
    if not alive:
        raise ValidationError("SFT language is empty")
    blocks = sorted(alive)
    names = [alphabet.text(b) for b in blocks]
    edges = []
    for b in blocks:
        for a in range(K):
            t = b[1:] + (a,)
            if t in alive and not contains_forbidden(b + (a,)):
                edges.append((alphabet.text(b), alphabet.text(t),
                              alphabet.symbols[a]))
    return SoficPresentation(alphabet, names, edges)


def oracle_pair_dist(p):
    """Oracle: ``_pair_dist`` by one Python breadth-first search per source."""
    n = p.n_vertices
    dist = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        frontier = [p.edge_target(e) for e in p._out[src]]
        d = 1
        seen: set[int] = set()
        while frontier:
            fresh = []
            for v in frontier:
                if v not in seen:
                    seen.add(v)
                    if dist[src, v] < 0:
                        dist[src, v] = d
                    fresh.append(v)
            frontier = sorted({p.edge_target(e) for v in fresh for e in p._out[v]}
                              - seen)
            d += 1
    return dist

def point_outcome(solver, p, left, core, right, core_start=0):
    """The presenting path found by ``solver``, or its error message."""
    try:
        pt = solver(p, left, core, right, core_start)
    except ValidationError as exc:
        return str(exc)
    return pt.left_cycle, pt.core, pt.right_cycle, pt.core_start


def sft_outcome(solver, alphabet, forbidden):
    """The presentation built by ``solver``, or its error message."""
    try:
        return solver(alphabet, forbidden)
    except ValidationError as exc:
        return str(exc)


def random_words(p, rng):
    """Left, core and right words for ``point_from_words``: each the label
    sequence of a random walk or random letters, so that unsolvable
    requests are common."""
    def word(length):
        if rng.random() < 0.5:
            return tuple(rng.randrange(len(p.alphabet)) for _ in range(length))
        v = rng.randrange(p.n_vertices)
        letters = []
        for _ in range(length):
            e = rng.choice(p.out_edges(v))
            letters.append(p.edge_symbol(e))
            v = p.edge_target(e)
        return tuple(letters)
    return word(rng.randint(1, 4)), word(rng.randint(0, 4)), word(rng.randint(1, 4))


def random_forbidden(rng):
    """A random alphabet of 1..3 letters and up to four forbidden words of
    length 1..4 over it."""
    alphabet = Alphabet(tuple("abc"[:rng.randint(1, 3)]))
    words = ["".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(0, 4))]
    return alphabet, words


class TestGraphSearchOracles:
    """The trims, tail walkers and pair distances against the set-based
    searches they replaced, kept above as oracles."""

    @pytest.mark.parametrize("name", BUNDLED_SHIFT_FILES)
    def test_bundled_shift_files(self, name):
        p = load_shift(data_path(name))
        assert np.array_equal(p._pair_dist, oracle_pair_dist(p))
        words = [w for L in range(1, 4)
                 for w in itertools.product(range(len(p.alphabet)), repeat=L)]
        for left in words:
            for right in words:
                for core in ((), (0,), (1, 0)):
                    assert (point_outcome(point_from_words, p, left, core, right, 2)
                            == point_outcome(oracle_point_from_words, p, left, core,
                                             right, 2))

    def test_random_essential_graphs(self):
        rng = random.Random(17)
        solved = failed = 0
        for _ in range(600):
            p = random_essential_graph(rng)
            assert np.array_equal(p._pair_dist, oracle_pair_dist(p))
            for _ in range(4):
                left, core, right = random_words(p, rng)
                start = rng.randrange(-3, 4)
                got = point_outcome(point_from_words, p, left, core, right, start)
                assert got == point_outcome(oracle_point_from_words, p, left, core,
                                            right, start)
                solved += not isinstance(got, str)
                failed += isinstance(got, str)
        assert solved > 500 and failed > 500

    def test_random_sfts(self):
        rng = random.Random(23)
        empty = 0
        for _ in range(600):
            alphabet, forbidden = random_forbidden(rng)
            got = sft_outcome(sft_presentation, alphabet, forbidden)
            assert got == sft_outcome(oracle_sft_presentation, alphabet, forbidden)
            if isinstance(got, str):
                empty += 1
            else:
                assert np.array_equal(got._pair_dist, oracle_pair_dist(got))
        assert 0 < empty < 600


class TestForwardInfinite:
    @staticmethod
    def support(n, edges):
        s = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            s[u, v] = True
        return s

    def test_chain_into_a_sink(self):
        chain = self.support(3, [(0, 1), (1, 2)])
        assert not _forward_infinite(chain).any()
        assert not _forward_infinite(chain.T).any()

    def test_cycle_with_an_in_tail(self):
        g = self.support(4, [(0, 1), (1, 2), (2, 1), (3, 0)])
        assert _forward_infinite(g).tolist() == [True, True, True, True]
        assert _forward_infinite(g.T).tolist() == [False, True, True, False]

    def test_cycle_with_an_out_tail(self):
        g = self.support(3, [(0, 1), (1, 0), (1, 2)])
        assert _forward_infinite(g).tolist() == [True, True, False]
        assert _forward_infinite(g.T).tolist() == [True, True, True]

    def test_empty_graph(self):
        assert _forward_infinite(np.zeros((0, 0), dtype=bool)).shape == (0,)

    def test_essential_part_is_forward_and_backward(self):
        # the largest vertex set in which every vertex has an edge into the
        # set and an edge from it, by the joint two-sided prune
        rng = np.random.default_rng(29)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            g = rng.random((n, n)) < rng.uniform(0.05, 0.4)
            alive = np.ones(n, dtype=bool)
            while True:
                keep = alive & g[:, alive].any(axis=1) & g[alive].any(axis=0)
                if np.array_equal(keep, alive):
                    break
                alive = keep
            assert np.array_equal(_forward_infinite(g) & _forward_infinite(g.T), alive)
