#!/usr/bin/env python3
"""Print a digest of every run in the reference sweep, one JSON line per run.

The sweep is PSO, QPSO, DE and SADE on the nine problems in 2D and 8D, plus
PAO with the benchmark's three pao-desk attractor menus (default; derand1bin
with reflect bounds; stochastic with uniform-scaled velocities), at pop 100
and 100 generations, for seeds 0 .. N-1.  Each line holds the sha256 of the
record JSON without ``duration_ms``, followed by the bytes of ``best_pos`` and
``nu``, and the final ``shifted_best``.

Only the public API is used, so the same script can digest another checkout:

    PYTHONPATH=src python3 scripts/record_digests.py --seeds 1 > after.jsonl
    PYTHONPATH=/path/to/other/src python3 scripts/record_digests.py --seeds 1 > before.jsonl
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from pao import PROBLEM_NAMES, AttractorSpec, Hyperparams, PaoConfig, make_problem, run_one

POP = 100
GENS = 100
DIMS = (2, 8)
BASELINES = ("pso", "qpso", "de", "sade")
MENUS = {
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
    h = hashlib.sha256(json.dumps(rec.to_json_dict(include_duration=False)).encode())
    h.update(np.asarray(rec.best_pos, dtype=float).tobytes())
    h.update(np.asarray(rec.nu, dtype=float).tobytes())
    return h.hexdigest()


def sweep(seeds):
    """(optimizer, menu, problem, dim, seed, cfg) for every run of the sweep."""
    runs = [(opt, None, None) for opt in BASELINES]
    runs += [("pao", menu, cfg) for menu, cfg in MENUS.items()]
    for seed in range(seeds):
        for opt, menu, cfg in runs:
            for dim in DIMS:
                for name in PROBLEM_NAMES:
                    yield opt, menu, name, dim, seed, cfg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=1, help="run seeds 0 .. N-1 (default 1)")
    args = ap.parse_args(argv)
    for opt, menu, name, dim, seed, cfg in sweep(args.seeds):
        rec = run_one(opt, make_problem(name, dim), POP, GENS, seed, cfg)
        line = {"optimizer": opt, "menu": menu, "problem": name, "dim": dim, "seed": seed,
                "digest": digest(rec), "shifted_best": rec.final_shifted_best()}
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
