"""The shiftgibbs benchmark: ``scan`` and ``lemma-ladder`` CLI workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 55 --trace 0

The seed draws the workload's input files (``workloads.py``), written under
``.perfbench_work/``.  Every measured process is a fresh single-threaded
Python process (``worker.py``) that imports ``shiftgibbs`` from ``src/``
and calls ``shiftgibbs.cli.main(argv)``; each CLI output is checked by the
workload's oracle.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median time from starting a process until ``shiftgibbs`` is
  imported, the input files are parsed through ``fileio`` and each word
  automaton is built; sampled in ``SETUP_SAMPLES_EACH_SIDE`` set-up-only
  processes before the measured worker and as many after it;
* ``job_s``: median wall time of the workload's CLI job sequence, untraced,
  over the passes that fit in ``--seconds`` (at least three);
* ``peak_rss_mb``: peak resident memory of the worker.

Both times are scaled to a reference host speed (``calibrate.py``): the
reference loop runs a few times between two set-up processes and between
two jobs, and each sample is multiplied by ``REFERENCE_S`` over the median
time of the loops on either side of it.
On a shared host whose speed drifts over minutes this keeps the figures of
the same code steady from run to run; the loop's own work never changes, so
a change to the program moves the scaled times as it moves the wall times.
The unscaled samples are in the run record.

``--trace 1`` runs the job sequence traced (``spans.py``) and reports the
per-layer table.  Lines before the last one hold the run record: the
environment, the seed's structural counts, sample counts and per-job stdout
digests.  The last line is the result object.  A job fails when the CLI
exits non-zero, raises, or fails its oracle; ``failed / attempted`` is the
error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import METRICS  # noqa: E402

# set-up-only processes started before and again after the measured worker,
# so that the set-up samples span the run
SETUP_SAMPLES_EACH_SIDE = 6
DEADLINE_S = 170.0


def git_rev(root: Path) -> str:
    """The checked-out commit read from ``.git``, or ``unknown``."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SHIFTGIBBS_ENUM_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker, wait for it, and return its set-up time and record."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {args[:2]} ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited with {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    return record["ready"] - t0, record


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shiftgibbs" / "cli.py").is_file():
        print("error: run from a shiftgibbs checkout (no src/shiftgibbs/cli.py)",
              file=sys.stderr)
        return 2
    inputs = root / ".perfbench_work" / (
        f"{args.workload}-{args.seed}" + ("-small" if args.small else ""))
    inputs_record = workloads.write_inputs(args.workload, args.seed, inputs)
    env = child_env(root)
    deadline = start + DEADLINE_S
    common = ["--workload", args.workload, "--inputs", str(inputs),
              "--seconds", str(args.seconds)] + (["--small"] if args.small else [])

    setup: list[float] = []
    scaled_setup: list[float] = []
    setup_loops: list[list[float]] = []

    def sample_setup() -> None:
        """Time set-up-only processes, with reference loops between them."""
        if args.trace:
            return
        import calibrate
        setup_loops.append(calibrate.gap())
        for _ in range(SETUP_SAMPLES_EACH_SIDE):
            setup.append(spawn(["--mode", "setup", *common], env, deadline)[0])
            setup_loops.append(calibrate.gap())
            scaled_setup.append(calibrate.scale(setup[-1], *setup_loops[-2:]))

    try:
        sample_setup()
        record = spawn(["--mode", "trace" if args.trace else "run", *common],
                       env, deadline)[1]
        sample_setup()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env_record = dict(record["env"], nproc=os.cpu_count(), git_rev=git_rev(root))
    print(json.dumps({"env": env_record}))
    print(json.dumps({"inputs": inputs_record}))
    print(json.dumps({
        "setup_s_samples": setup, "setup_loop_s_samples": setup_loops,
        "scaled_setup_s_samples": scaled_setup,
        "job_s_samples": record["job_s"],
        "scaled_job_s_samples": record.get("scaled_job_s"),
        "job_loop_s_samples": record.get("loop_s"),
        "traced_job_s_samples": record.get("traced_job_s"),
        "per_job_s_samples": record.get("per_job_s"),
        "digest_changes": record["digest_changes"], "jobs": record["jobs"],
        "error_rate": record["failed"] / record["attempted"]}))

    if args.trace == 0:
        metrics = {"setup_s": metric(statistics.median(scaled_setup), "s"),
                   "job_s": metric(statistics.median(record["scaled_job_s"]), "s"),
                   "peak_rss_mb": metric(record["peak_rss_mb"], "MB")}
    else:
        layers = dict(record["layers"], **{"cli.digest_changes": record["digest_changes"]})
        metrics = {name: metric(layers[name], unit) for name, unit in METRICS.items()}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
