"""One measured process of the benchmark; started by ``run.py``.

Modes:

* ``setup``: import ``shiftgibbs``, parse the workload's input files through
  ``fileio`` and build each word automaton, then exit.
* ``run``: set up, then repeat the workload's CLI job sequence, untraced,
  for about ``--seconds`` seconds (at least ``MIN_REPS`` times), checking
  every output.  The reference loop of ``calibrate.py`` runs a few times
  before each job and after the last one; each job's time is scaled by
  the loops on either side of it.
* ``trace``: set up under the tracer, then alternate an untraced and a
  traced job sequence for about ``--seconds`` seconds (at least one pair).

Each mode prints one JSON record on stdout.  Its ``ready`` field is the
``time.monotonic()`` reading when set-up finished; on Linux that clock is
system-wide, so the parent subtracts its own reading taken just before it
started this process.  ``trace`` also writes the spans of the set-up and
of the last traced pass to ``spans.jsonl`` in the inputs directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

# job_s is the median of at least this many passes, so that one pass slowed
# by other load on the machine cannot set it
MIN_REPS = 3


def set_up(workload: str, d: Path, tracer=None) -> None:
    """Import the program, load every input system and build its automaton."""
    import shiftgibbs.cli  # noqa: F401  (the full CLI import a user pays)
    from shiftgibbs import fileio
    if tracer is not None:
        tracer.install()
        token = tracer.begin()
    for shift, pot in workloads.systems(workload):
        presentation = fileio.load_shift(d / shift)
        fileio.load_potential(d / pot, presentation.alphabet)
        presentation._det
    if tracer is not None:
        tracer.end("bench.setup", token)


def run_sequence(argvs: list[list[str]], sizes, tracer=None,
                 rep: int = 0, calibrated: bool = False) -> dict:
    """One pass over the job sequence; each job's CLI call is timed alone.
    The outputs are checked after the pass, so that a traced pass can
    uninstall the tracer before the oracle runs.  With ``calibrated`` the
    reference loop runs between the jobs and the pass also reports
    ``scaled_job_s``, its job times scaled to the reference host speed."""
    import calibrate  # after set-up: it imports numpy and builds its inputs
    from shiftgibbs import cli
    jobs = []
    gaps = [calibrate.gap()] if calibrated else []
    for i, argv in enumerate(argvs):
        buf = io.StringIO()
        error = None
        if tracer is not None:
            tracer.run = f"rep{rep}.job{i}"
            token = tracer.begin()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end("bench.job", token)
        if calibrated:
            gaps.append(calibrate.gap())
        if error is None and code != 0:
            error = f"exit status {code}"
        jobs.append({"argv": argv, "seconds": seconds, "error": error,
                     "stdout": buf.getvalue()})
    result = {"job_s": sum(j["seconds"] for j in jobs), "jobs": jobs}
    if calibrated:
        result["loop_s"] = gaps
        result["scaled_job_s"] = sum(
            calibrate.scale(j["seconds"], gaps[i], gaps[i + 1])
            for i, j in enumerate(jobs))
    return result


def check_sequence(rep: dict, sizes, passed: set) -> None:
    """Run the oracle on each job output of a pass and keep only its digest.
    An output byte-identical to one that already passed (its job index and
    digest are in ``passed``) is not checked again."""
    for i, job in enumerate(rep["jobs"]):
        argv, out = job.pop("argv"), job.pop("stdout")
        job["command"] = argv[0]
        job["digest"] = hashlib.sha256(out.encode()).hexdigest()
        if job["error"] is None and (i, job["digest"]) not in passed:
            try:
                job["error"] = workloads.check(argv, out, sizes)
            except Exception:
                job["error"] = "oracle raised:\n" + traceback.format_exc()
            if job["error"] is None:
                passed.add((i, job["digest"]))
        if job["error"] is not None:
            print(f"job {argv[0]} failed: {job['error']}", file=sys.stderr)


def _repeat(step, seconds: float, at_least: int) -> list:
    """Run ``step`` ``at_least`` times, then again while another run is
    expected to end within ``seconds`` of the first start."""
    start = time.perf_counter()
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(step(len(out)))
        last = time.perf_counter() - t0
        if len(out) >= at_least and time.perf_counter() - start + last > seconds:
            return out


def write_spans(path: Path, spans) -> None:
    """Write the spans kept in memory, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def _env() -> dict:
    import numpy
    from shiftgibbs import _kernels
    return {"backend": _kernels.backend_name(), "numpy": numpy.__version__,
            "python": sys.version.split()[0]}


def _tally(reps: list[dict]) -> dict:
    """Attempted and failed job counts, and how many outputs differ from
    the first output of the same job."""
    jobs = [j for r in reps for j in r["jobs"]]
    first = [j["digest"] for j in reps[0]["jobs"]]
    changed = sum(j["digest"] != first[i] for r in reps
                  for i, j in enumerate(r["jobs"]))
    return {"attempted": len(jobs),
            "failed": sum(j["error"] is not None for j in jobs),
            "digest_changes": changed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)
    sizes = workloads.SMALL if args.small else workloads.FULL

    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
    set_up(args.workload, args.inputs, tracer)
    record: dict = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    argvs = workloads.jobs(args.workload, args.inputs, sizes)
    passed: set = set()
    record["env"] = _env()
    if args.mode == "run":
        def step(_rep: int) -> dict:
            rep = run_sequence(argvs, sizes, calibrated=True)
            check_sequence(rep, sizes, passed)
            return rep

        reps = _repeat(step, args.seconds, MIN_REPS)
        record["job_s"] = [r["job_s"] for r in reps]
        record["scaled_job_s"] = [r["scaled_job_s"] for r in reps]
        record["loop_s"] = [r["loop_s"] for r in reps]
        record["per_job_s"] = [[j["seconds"] for j in r["jobs"]] for r in reps]
    else:
        from spans import layer_metrics
        setup_counters = dict(tracer.counters)
        setup_spans = list(tracer.spans)
        tracer.uninstall()
        untraced, traced, tables = [], [], []

        def pair(rep: int) -> None:
            untraced.append(run_sequence(argvs, sizes))
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_sequence(argvs, sizes, tracer, rep))
            finally:
                tracer.uninstall()
            check_sequence(untraced[-1], sizes, passed)
            check_sequence(traced[-1], sizes, passed)
            tables.append(layer_metrics(setup_spans + tracer.spans,
                                        setup_counters, tracer.counters))

        _repeat(pair, args.seconds, 1)
        write_spans(args.inputs / "spans.jsonl", setup_spans + tracer.spans)
        reps = untraced + traced
        layers = {k: statistics.median_low(t[k] for t in tables) for k in tables[0]}
        layers["trace_overhead_s"] = (statistics.median(r["job_s"] for r in traced)
                                      - statistics.median(r["job_s"] for r in untraced))
        record["layers"] = layers
        record["job_s"] = [r["job_s"] for r in untraced]
        record["traced_job_s"] = [r["job_s"] for r in traced]
    record.update(_tally(reps))
    record["jobs"] = [{k: j[k] for k in ("command", "digest")}
                      for j in reps[0]["jobs"]]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
