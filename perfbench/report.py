"""Print every benchmark metric by name with its unit, and the environment.

Run from the root of a source checkout:

    python3 perfbench/report.py --seed 1 [--seconds 55] [--workload scan ...]

For each workload this runs ``run.py`` untraced (end-to-end metrics) and
traced (per-layer metrics), and exits non-zero if any output failed its
check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--workload", nargs="*", choices=workloads.WORKLOADS,
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workload:
        for trace in (0, 1):
            lines = run(workload, args.seed, args.seconds, trace)
            record, result = lines[2], lines[-1]
            if trace == 0:
                print(f"# {workload}  seed {args.seed}  {json.dumps(lines[0]['env'])}")
                print(f"# inputs {json.dumps(lines[1]['inputs'])}")
                print(f"{workload}\terror_rate\t{record['error_rate']:.6g}\t"
                      f"({result['failed']}/{result['attempted']})")
                print(f"{workload}\tsamples\tsetup_s {len(record['setup_s_samples'])}"
                      f"\tjob_s {len(record['job_s_samples'])}")
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
                print(f"{workload}\t{name}\t{value}\t{m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
