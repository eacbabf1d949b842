#!/usr/bin/env python3
"""Print a digest of every run in the reference sweep, one JSON line per run.

The sweep is PSO, QPSO, DE and SADE on the nine problems in 2D and 8D, plus
PAO with the benchmark's three pao-desk attractor menus (default; derand1bin
with reflect bounds; stochastic with uniform-scaled velocities), at pop 100
and 100 generations, for seeds 0 .. N-1.  Each line holds the sha256 of the
record JSON without ``duration_ms`` followed by the bytes of ``best_pos``, the
one field a record keeps in memory only, and the final ``shifted_best``.

Only the public API is used, so the same script can digest another checkout:

    PYTHONPATH=src python3 scripts/record_digests.py --seeds 1 > after.jsonl
    PYTHONPATH=/path/to/other/src python3 scripts/record_digests.py --seeds 1 > before.jsonl

``--compare BEFORE AFTER`` reads two such files (without importing pao) and
prints, per (optimizer, menu), how many digests are identical and the fewest
significant digits on which the final ``shifted_best`` of a changed run
agrees, over the changed runs above 1e-9; the last line reads
``all: K of N digests identical``.  It exits non-zero if the two files list
different runs.
"""

import argparse
import hashlib
import json
import math
import sys

POP = 100
GENS = 100
DIMS = (2, 8)
BASELINES = ("pso", "qpso", "de", "sade")
# runs below this final shifted_best are left out of the agreeing-digits figure
AGREEMENT_FLOOR = 1e-9
RUN_KEY = ("optimizer", "menu", "problem", "dim", "seed")


def menus():
    from pao import AttractorSpec, Hyperparams, PaoConfig

    return {
        "default": PaoConfig(),
        "derand1bin": PaoConfig(
            hp=Hyperparams(k=(1.0, 1.0, 1.0)),
            specs=(AttractorSpec("localbest"), AttractorSpec("globalbest"), AttractorSpec("derand1bin")),
            bounds_policy="reflect",
        ),
        "stochastic": PaoConfig(
            hp=Hyperparams(k=(1.0, 1.0, 1.0)),
            specs=(
                AttractorSpec("stochasticgaussian"),
                AttractorSpec("weightedaverageparticle"),
                AttractorSpec("averagelocalbest"),
            ),
            velocity_init="uniform-scaled",
        ),
    }


def digest(rec) -> str:
    import numpy as np

    h = hashlib.sha256(json.dumps(rec.to_json_dict(include_duration=False)).encode())
    h.update(np.asarray(rec.best_pos, dtype=float).tobytes())
    return h.hexdigest()


def sweep(seeds):
    """(optimizer, menu, problem, dim, seed, cfg) for every run of the sweep."""
    from pao import PROBLEM_NAMES

    runs = [(opt, None, None) for opt in BASELINES]
    runs += [("pao", menu, cfg) for menu, cfg in menus().items()]
    for seed in range(seeds):
        for opt, menu, cfg in runs:
            for dim in DIMS:
                for name in PROBLEM_NAMES:
                    yield opt, menu, name, dim, seed, cfg


def record(seeds):
    from pao import make_problem, run_one

    for opt, menu, name, dim, seed, cfg in sweep(seeds):
        rec = run_one(opt, make_problem(name, dim), POP, GENS, seed, cfg)
        line = {"optimizer": opt, "menu": menu, "problem": name, "dim": dim, "seed": seed,
                "digest": digest(rec), "shifted_best": rec.final_shifted_best()}
        print(json.dumps(line), flush=True)


def agreeing_digits(a, b):
    """Significant digits on which a and b agree: -log10 of their relative gap."""
    if a == b:
        return math.inf
    return -math.log10(abs(a - b) / max(abs(a), abs(b)))


def _read(path):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return {tuple(line[k] for k in RUN_KEY): line for line in lines}


def compare(before_path, after_path) -> int:
    before, after = _read(before_path), _read(after_path)
    if before.keys() != after.keys():
        print(f"the files list different runs: {len(before.keys() - after.keys())} only in "
              f"{before_path}, {len(after.keys() - before.keys())} only in {after_path}")
        return 1
    groups = {}
    for key, old in before.items():
        new = after[key]
        same, digits = groups.setdefault(key[:2], ([], []))
        same.append(old["digest"] == new["digest"])
        if not same[-1] and min(abs(old["shifted_best"]), abs(new["shifted_best"])) > AGREEMENT_FLOOR:
            digits.append(agreeing_digits(old["shifted_best"], new["shifted_best"]))
    for (opt, menu), (same, digits) in groups.items():
        line = f"{opt}/{menu}: {sum(same)} of {len(same)} digests identical"
        if digits:
            line += f"; changed runs above {AGREEMENT_FLOOR:g} agree to >= {min(digits):.1f} significant digits"
        print(line.replace("/None", ""))
    total = sum(sum(same) for same, _ in groups.values())
    print(f"all: {total} of {len(before)} digests identical")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=1, help="run seeds 0 .. N-1 (default 1)")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two digest files instead of running the sweep")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    record(args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
