"""The speed kernel: a fixed piece of numpy and Python work, timed on request.

    python3 perfbench/kernel.py

run.py starts this as a child process.  For every line it reads on stdin it
runs the kernel once and writes its time in seconds on a line of stdout; it
ends at the end of stdin.  The kernel does not import the package and runs
in its own process, so nothing the package does to the benchmark process
(its heap, its garbage, threads it leaves) can move the kernel's time; only
the machine can.
"""

import sys
from time import perf_counter

import numpy as np


def main():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((230, 3)) + 1j * rng.uniform(0.1, 2.0, (230, 3))
    exps = [np.array(e) for e in rng.integers(0, 3, (20, 3))]
    coeffs = rng.standard_normal((20, 2, 2)) + 0j
    for _ in sys.stdin:
        t0 = perf_counter()
        for _ in range(5):
            out = np.zeros((len(points), 2, 2), dtype=np.complex128)
            for e, a in zip(exps, coeffs):
                out += np.prod(points ** e, axis=1)[:, None, None] * a[None]
            prod = {}
            for e1, a1 in zip(exps, coeffs):
                for e2, a2 in zip(exps, coeffs):
                    key = tuple((e1 + e2).tolist())
                    prod[key] = prod[key] + a1 @ a2 if key in prod else a1 @ a2
            np.linalg.eigvalsh(out[:50])
        print(perf_counter() - t0, flush=True)


if __name__ == "__main__":
    main()
