#!/usr/bin/env python3
"""The repository benchmark: one workload, checked, with its metrics.

    python3 bench/run.py --workload comparison --seed 1 --seconds 24 --trace 0

Workloads: comparison, pao-desk, pao-large, kernel-sweep (see README.md).
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (setup_s, ops_per_s, peak_rss_mb); with ``--trace 1`` it carries
the per-layer metrics of a traced run instead.

The workload runs in one fresh interpreter (bench/worker.py) with numeric
libraries held to one thread.  Set-up is also measured in SETUP_PROBES more
fresh interpreters that stop after set-up; setup_s and pao.import_ms are
medians over all of them.  ops_per_s counts reference seconds, which follow
the machine's speed (see RefClock in workloads.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 6
THREADS = "1"
DEADLINE_S = 170  # the whole benchmark, probes included


def _worker(bench_dir, args, phase, env, deadline):
    cmd = [
        sys.executable, os.path.join(bench_dir, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--phase", phase,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE, timeout=max(deadline - t0, 1.0), text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({phase}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("comparison", "pao-desk", "pao-large", "kernel-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "pao", "__init__.py")):
        print(f"no package source at {os.path.join(root, 'src', 'pao')}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = THREADS

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = [_worker(bench_dir, args, "setup", env, deadline) for _ in range(SETUP_PROBES)]
        main_run = _worker(bench_dir, args, "run", env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in probes] + [main_run["setup_s"]]
    imports = [p["import_ms"] for p in probes] + [main_run["import_ms"]]
    if args.trace:
        metrics = main_run["layers"]
        metrics["pao.import_ms"]["value"] = statistics.median(imports)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": main_run["ops_per_s"], "unit": "op/s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": main_run["correct"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
