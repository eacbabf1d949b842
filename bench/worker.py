"""One workload in one fresh interpreter; started by run.py.

    python3 bench/worker.py --workload W --seed N --seconds T --trace 0|1 \
        --phase setup|run --t0 <time.monotonic() of the launcher at spawn>

``--phase setup`` stops after set-up (import, inputs, one warm-up
operation) and reports its duration; ``--phase run`` goes on to the timed
rounds and the checks.  The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench_dir), "src")
    sys.path.insert(0, src)
    t_import = time.monotonic()
    import pao

    imported = time.monotonic()
    import_ms = (imported - t_import) * 1e3
    if not os.path.abspath(pao.__file__).startswith(src + os.sep):
        raise ImportError(f"pao imported from {pao.__file__}, not from {src}")

    import tracer
    import workloads

    # set-up: wall time up to `import pao` (the clock needs NumPy), then
    # reference seconds for building the inputs and the warm-up operation
    clock = workloads.RefClock()
    wl = workloads.build(args.workload, args.seed, bench_dir, clock, traced=bool(args.trace))
    setup_s = (imported - args.t0) + clock.stop() + wl.warm_up()
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "import_ms": import_ms}))
        return 0

    tr = tracer.Tracer().install() if args.trace else None
    unit_times, failed, rounds, problems = [], 0, 0, []
    start = time.monotonic()
    last = 0.0
    # whole rounds only; start another while it is expected to end in time
    while rounds == 0 or time.monotonic() - start + last <= args.seconds:
        t_round = time.monotonic()
        times, round_failed, found = wl.run_round()
        last = time.monotonic() - t_round
        unit_times.append(times)
        failed += round_failed
        problems += found
        rounds += 1
    if tr is not None:
        tr.uninstall()
    problems += wl.rerun()

    # each timed unit's median over the rounds, summed: one round's time
    round_s = sum(statistics.median(col) for col in zip(*unit_times))
    ops_per_s = wl.ops_per_round / round_s
    for p in problems[:20]:
        print(f"{args.workload}: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds * wl.ops_per_round,
        "failed": failed,
        "setup_s": setup_s,
        "import_ms": import_ms,
        "ops_per_s": ops_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tr is not None:
        result["layers"] = tracer.layer_metrics(tr, rounds, import_ms, wl.inaccurate_per_round, clock.factor())
        os.makedirs(os.path.join(bench_dir, "out"), exist_ok=True)
        with open(os.path.join(bench_dir, "out", f"trace-{args.workload}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "ops_per_s_traced": ops_per_s, **tr.dump()}, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
