"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Runtime budgets are asserted where stated; kernels are warmed by the
session fixture so JIT compilation is not charged against them.
"""

import math
import random
import time

import numpy as np

from shiftgibbs import (apply_block_code, brute_partition, decoupling_1d_check,
                        decoupling_1d_tables, decoupling_gap, enumerate_words,
                        equilibrium_measure, factor_gap_bound,
                        factor_presentation, finite_pressure, lemma_211_worst,
                        lemma_212_check, lemma_212_tables, pressure_limit,
                        tangent_derivative_check, weak_gibbs_scan, Word)
from shiftgibbs.bundled import BINARY, ten_detector_code
from shiftgibbs.measures import cylinder_prob
from shiftgibbs.pressure import word_energies

from test_kernels import forward_logprob, state_path_sum
from test_pressure import densify
from test_shifts import check_splice_case, random_point

PHI = (1 + math.sqrt(5)) / 2


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_pressure_exactness(full, gm, pot_zero):
    t0 = time.perf_counter()
    worst = max(abs(finite_pressure(full, pot_zero, n, method="product")
                    - math.log(2)) for n in range(0, 201))
    est = pressure_limit(gm, pot_zero, ladder=(1, 2, 4, 8))
    lam_err = abs(est.log_lambda - math.log(PHI))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and lam_err <= 1e-9 and elapsed < 1.0
    report(1, "pressure exactness", ok,
           f"max|P_n - ln2|={worst:.2e}, |lambda - ln phi|={lam_err:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(full, gm, ev, pot_zero, pot_site,
                                        pot_pair):
    t0 = time.perf_counter()
    worst = 0.0
    for pres in (full, gm, ev):
        for pot in (pot_zero, pot_site, pot_pair):
            for n in range(0, 8):
                length = 2 * n + 1
                brute = brute_partition(pres, pot, n).log_z
                product = finite_pressure(pres, pot, n,
                                          method="product") * length
                worst = max(worst, abs(product - brute) / max(1.0, abs(brute)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(2, "transfer product vs brute force", ok,
           f"worst rel dev={worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_weak_gibbs_exact_case(full, pot_site):
    mu = equilibrium_measure(full, pot_site)
    rep = weak_gibbs_scan(mu, range(1, 13), cap=2 ** 26)
    worst = max(d for (_m, d, _b) in rep.rows)
    ok = worst <= 1e-10 and len(rep.rows) == 12
    report(3, "weak Gibbs exactness for the product measure", ok,
           f"max D_m={worst:.2e} over m<=12")


def test_criterion_4_weak_gibbs_convergence(gm, ev, pot_pair):
    t0 = time.perf_counter()
    details = []
    ok = True
    for pres, name in ((gm, "golden-mean"), (ev, "even")):
        mu = equilibrium_measure(pres, pot_pair)
        rep = weak_gibbs_scan(mu, range(1, 11))
        rows = {m: (d, b) for (m, d, b) in rep.rows}
        ok &= all(d <= b for (d, b) in rows.values())
        ok &= rows[10][0] < rows[2][0]
        scaled = max((2 * m + 1) * d for m, (d, _b) in rows.items())
        from shiftgibbs.measures import strong_gibbs_constant
        ok &= scaled <= strong_gibbs_constant(mu)
        details.append(f"{name}: D_2={rows[2][0]:.4f} D_10={rows[10][0]:.4f} "
                       f"sup(2m+1)D={scaled:.3f}<=C={strong_gibbs_constant(mu):.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(4, "weak Gibbs convergence with the pair potential", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_5_lemma_suites(ev, pot_pair, pot_zero):
    t0 = time.perf_counter()
    q = decoupling_gap(ev, "bounded-length")
    assert q == 2

    # the energy sandwich at the worst of every pair and every two shifts
    worst = lemma_211_worst(ev, pot_pair, 6, 1, 0)
    log_c = worst.constants["log_C"]
    upper = worst.inequalities[1]
    gap = upper.lhs - (upper.rhs - log_c)
    ok211 = worst.all_hold and worst.context["q"] == q

    # exhaustive ratio bounds over all center words and j in {-1, 0, 1}
    ok212 = True
    for j in (-1, 0, 1):
        tables = lemma_212_tables(ev, pot_pair, 6, 1, j)
        for u in enumerate_words(ev, 1):
            rep = lemma_212_check(tables, u)
            ok212 &= rep.all_hold

    # the one-dimensional variant: nonempty classes and all inequalities,
    # run at the smallest gap the window arithmetic admits at n = 7
    ok1d = True
    for pot in (pot_zero, pot_pair):
        tables = decoupling_1d_tables(ev, pot, 7, 1, 0, q_bar=1)
        for u in enumerate_words(ev, 1):
            rep = decoupling_1d_check(tables, u)
            names = {r.name: r.holds for r in rep.inequalities}
            ok1d &= names["nonempty_classes"] and names["cardinality_lower"]
            ok1d &= rep.all_hold
    elapsed = time.perf_counter() - t0
    ok = ok211 and ok212 and ok1d and elapsed < 300.0
    report(5, "lemma suites", ok,
           f"sandwich at the worst pair (gap {gap:.3f}, log C {log_c:.3f}) "
           f"holds={ok211}, ratio-bounds all hold={ok212}, "
           f"splice-variant all hold={ok1d}, {elapsed:.1f}s")


def test_criterion_6_tangent_identity(full, pot_zero):
    fd, formula, cyl = tangent_derivative_check(full, pot_zero,
                                                Word(BINARY, 0, (1,)), 3, 1e-3)
    ok = (abs(formula - 0.5) <= 1e-12 and abs(fd - 0.5) <= 1e-6
          and abs(cyl - 0.5) <= 1e-12)
    report(6, "tangent derivative identity", ok,
           f"formula={formula!r}, finite_diff={fd!r}, cylinder={cyl!r}")


def test_criterion_7_splice_property(full, gm, ev):
    total = 0
    for pres, name in ((full, "full"), (gm, "golden-mean"), (ev, "even")):
        rng = random.Random(31337)
        for _ in range(1000):
            x_minus, y, x_plus = (random_point(pres, rng) for _ in range(3))
            m = rng.randrange(0, 7)
            check_splice_case(pres, x_minus, y, x_plus, m, window=30)
            total += 1
    report(7, "splice property", total == 3000,
           f"{total}/3000 randomized cases satisfy the gluing equalities")


def test_criterion_8_factor_propagation(gm):
    code = ten_detector_code()
    image = factor_presentation(gm, code)
    source_gap = decoupling_gap(gm, "bounded-length")
    bound = factor_gap_bound(source_gap, code.radius)
    measured = decoupling_gap(image, "bounded-length")
    ok = measured <= bound
    for n in range(0, 6):
        brute = {apply_block_code(code, w).letters
                 for w in enumerate_words(gm, n + code.radius)}
        direct = {w.letters for w in enumerate_words(image, n)}
        ok &= brute == direct
    report(8, "factor gap propagation and image language", ok,
           f"image gap {measured} <= {bound}; n-word sets match for n<=5")


def test_criterion_9_measure_invariants(full, gm, ev, pot_zero, pot_site,
                                        pot_pair):
    ok = True
    details = []
    systems = [(full, pot_site), (gm, pot_zero), (gm, pot_pair),
               (ev, pot_zero), (ev, pot_pair)]
    for pres, pot in systems:
        mu = equilibrium_measure(pres, pot)
        q = densify(mu.transfer.succ, mu.q).sum(axis=0)
        p = mu.stationary
        ok &= float(np.abs(q.sum(axis=1) - 1.0).max()) <= 1e-12
        ok &= float(np.abs(p @ q - p).max()) <= 1e-12
        ok &= (p > 0).all() and abs(float(p.sum()) - 1.0) <= 1e-12
        # consistency in both directions for all 2-letter words
        for w in enumerate_words(pres, 0):
            base = cylinder_prob(mu, w)
            exts = [Word(BINARY, w.start, w.letters + (a,)) for a in (0, 1)]
            lefts = [Word(BINARY, w.start - 1, (a,) + w.letters) for a in (0, 1)]
            import warnings as _warnings
            from shiftgibbs import EmptyCylinderWarning
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", EmptyCylinderWarning)
                ok &= abs(sum(cylinder_prob(mu, e) for e in exts) - base) <= 1e-12
                ok &= abs(sum(cylinder_prob(mu, e) for e in lefts) - base) <= 1e-12
        # normalization over all center words up to m = 6
        for m in (3, 6):
            words = pres.word_matrix(2 * m + 1)
            total = float(np.exp(forward_logprob(mu, words)).sum())
            ok &= abs(total - 1.0) <= 1e-10
    # brute-force state-path oracle at small m
    for pres in (gm, ev):
        mu = equilibrium_measure(pres, pot_pair)
        for m in (1, 4):
            for w in enumerate_words(pres, m)[:6]:
                ok &= abs(cylinder_prob(mu, w) - state_path_sum(mu, w.letters)) <= 1e-10
        # strong-Gibbs boundedness: deviation sup at m=10 vs m=3
        sups = {}
        for m in (3, 10):
            words = pres.word_matrix(2 * m + 1)
            u = word_energies(pot_pair, words)
            lp = forward_logprob(mu, words)
            sups[m] = float(np.abs(lp - u + (2 * m + 1) * mu.log_lambda).max())
        ok &= sups[10] <= sups[3] + 1e-9
        details.append(f"sup@3={sups[3]:.4f} sup@10={sups[10]:.4f}")
    report(9, "measure invariants", ok, "; ".join(details))
