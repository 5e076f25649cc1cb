"""Benchmark the hot kernels under the active backend.

Run once per backend and compare:

    python benchmarks/bench_kernels.py
    SHIFTGIBBS_NO_NUMBA=1 python benchmarks/bench_kernels.py

The workload is the per-word route of the weak-Gibbs deviation (the
scan's test oracle): per-word energies and label-restricted forward
products over every allowed window word of the even shift with the
bundled pair potential.
"""

import argparse
import time

import numpy as np

from shiftgibbs import _kernels, equilibrium_measure
from shiftgibbs.bundled import equal_pair, even_shift
from shiftgibbs.pressure import word_energies


def timed(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=9,
                        help="window radius of the scan workload")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    presentation = even_shift()
    potential = equal_pair()
    measure = equilibrium_measure(presentation, potential)
    words = presentation.word_matrix(2 * args.m + 1, cap=10_000_000)
    trans = np.ascontiguousarray(measure.q_by_symbol)
    start = np.ascontiguousarray(measure.stationary)
    form = potential._kernel_form

    print(f"backend: {_kernels.backend_name()}")
    print(f"workload: {words.shape[0]} words of length {words.shape[1]}")

    _kernels.warm_up()
    t_energy, energies = timed(
        lambda: _kernels.batch_energy(words, *form), args.repeats)
    t_forward, logps = timed(
        lambda: _kernels.batch_forward_logprob(words, trans, start),
        args.repeats)

    per_word_ns = 1e9 / words.shape[0]
    print(f"batch_energy:          {t_energy * 1e3:9.2f} ms "
          f"({t_energy * per_word_ns:7.1f} ns/word)")
    print(f"batch_forward_logprob: {t_forward * 1e3:9.2f} ms "
          f"({t_forward * per_word_ns:7.1f} ns/word)")

    # keep the optimizer honest and give a checksum to compare backends
    dev = np.abs(logps - energies + words.shape[1] * measure.log_lambda)
    print(f"checksum max deviation: {dev.max():.12f}")


if __name__ == "__main__":
    main()
