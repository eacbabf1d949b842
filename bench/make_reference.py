#!/usr/bin/env python3
"""Rebuild the kernel-sweep reference: A and Sigma for the 240-config grid.

For each config (m, zeta, k', dt) the transition matrix A = expm(F dt) and the
unit-diffusion process-noise covariance Sigma = int_0^dt e^{Fs} L L^T e^{F^T s} ds
are computed in 250-digit arithmetic with mpmath, from the block exponential
expm([[F, L L^T], [0, -F^T]] dt) (Sigma = upper-right @ inv(lower-right)).
At this precision the e^{|lambda| dt} growth of the lower-right block costs
nothing.  Each entry is cross-checked against an independent expm(F dt) and
against the Lyapunov identity F Sigma + Sigma F^T = A L L^T A^T - L L^T.
Nothing here imports pao.

    python3 bench/make_reference.py            # writes bench/kernel_reference.json
"""

import argparse
import itertools
import json
import os
import sys

import mpmath as mp

DPS = 250
DIGITS = 30  # significant digits written per entry; float() of it is exact

# The grid: inertia m, damping ratio zeta, total stiffness k' (split evenly
# over two attractors) and interval dt.
M = (0.25, 0.5, 1.0, 2.0)
ZETA = (0.0, 0.2, 1.0, 1.5, 3.0)
K_TOTAL = (0.5, 2.0, 8.0)
DT = (0.1, 1.0, 1.5, 3.0)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel_reference.json")


def grid():
    """The 240 configs as (m, zeta, (k1, k2), dt) float tuples, in file order."""
    return [
        (m, zeta, (kt / 2.0, kt / 2.0), dt)
        for m, zeta, kt, dt in itertools.product(M, ZETA, K_TOTAL, DT)
    ]


def reference(m, zeta, k, dt):
    """(A, Sigma) as 2x2 mpmath matrices for the exact binary values given."""
    m, zeta, dt = mp.mpf(m), mp.mpf(zeta), mp.mpf(dt)
    wn2 = (mp.mpf(k[0]) + mp.mpf(k[1])) / m
    f = mp.matrix([[0, 1], [-wn2, -2 * mp.sqrt(wn2) * zeta]])
    block = mp.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            block[i, j] = f[i, j] * dt
            block[2 + i, 2 + j] = -f[j, i] * dt
    block[1, 3] = dt  # L L^T with L = (0, 1)^T
    e = mp.expm(block)
    a = e[0:2, 0:2]
    sigma = e[0:2, 2:4] * mp.inverse(e[2:4, 2:4])
    sigma = (sigma + sigma.T) / 2

    a_direct = mp.expm(f * dt)
    q = mp.matrix([[0, 0], [0, 1]])
    lyap = f * sigma + sigma * f.T - (a * q * a.T - q)
    scale = max(abs(x) for x in sigma) + 1
    if mp.mnorm(a - a_direct, 1) > mp.mpf(10) ** (-200) * (mp.mnorm(a, 1) + 1):
        raise ArithmeticError(f"A disagrees with expm(F dt) at {(m, zeta, k, dt)}")
    if mp.mnorm(lyap, 1) > mp.mpf(10) ** (-150) * scale * (mp.mnorm(f, 1) + 1):
        raise ArithmeticError(f"Lyapunov identity fails at {(m, zeta, k, dt)}")
    return a, sigma


def _strings(mat):
    return [[mp.nstr(mat[i, j], DIGITS, min_fixed=1, max_fixed=0) for j in range(2)] for i in range(2)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=OUT, help="output JSON file")
    args = ap.parse_args(argv)
    mp.mp.dps = DPS
    configs = []
    for m, zeta, k, dt in grid():
        a, sigma = reference(m, zeta, k, dt)
        configs.append(
            {"m": m, "zeta": zeta, "k": list(k), "dt": dt, "A": _strings(a), "Sigma": _strings(sigma)}
        )
    with open(args.out, "w") as fh:
        fh.write(f'{{"dps": {DPS}, "digits": {DIGITS}, "configs": [\n')
        fh.write(",\n".join(json.dumps(c) for c in configs))
        fh.write("\n]}\n")
    print(f"{len(configs)} configs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
