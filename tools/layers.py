"""Per-layer timings of ringhopf, best of k, pinned to one CPU.

    PYTHONPATH=src python tools/layers.py [--sizes 3 10 20 40 64] [--repeat 3]

For each ring size, the same RINGS random rings (a_j, b_j ~ U(-3, 3), fixed
seed) go through `eigenvalues` on each Aberth sweep, the two forbidden
sets (k <= 3) and `remove_multiple`; one RK4 step is timed on a 3-node
family. Each figure is the best of --repeat passes of the mean time per
call, in microseconds; a layer that raised on some rings says on how many.
The process runs on one CPU while it measures and gets its CPUs back after.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import time

import numpy as np

from ringhopf import genericity, simulate, spectra
from ringhopf.model import AdmissibleOdeFamily, RingParams

SEED = 0
RINGS = 30
EPSILON = 1e-3
K_MAX = 3
RK4_STEPS = 20_000
# the reference ring of the paper, with cubic terms -1, just past its Hopf point
RK4_FAMILY = AdmissibleOdeFamily(RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0)), lam=0.1)


@contextlib.contextmanager
def sweep(vector: bool):
    """Send every ring to one Aberth sweep, whatever its size."""
    saved = spectra.VECTOR_SWEEP_MIN_N
    spectra.VECTOR_SWEEP_MIN_N = 0 if vector else math.inf
    try:
        yield
    finally:
        spectra.VECTOR_SWEEP_MIN_N = saved


def rings(n: int) -> list[RingParams]:
    rng = np.random.default_rng([SEED, n])
    return [
        RingParams(n, tuple(rng.uniform(-3, 3, n)), tuple(rng.uniform(-3, 3, n)))
        for _ in range(RINGS)
    ]


def best_per_call(fn, inputs, repeat: int) -> tuple[float, int]:
    """Best over `repeat` passes of the mean seconds per call, and the calls that raised."""
    best, failed = math.inf, 0
    for _ in range(repeat):
        failed = 0
        t0 = time.perf_counter()
        for x in inputs:
            try:
                fn(x)
            except (RuntimeError, ValueError):
                failed += 1
        best = min(best, (time.perf_counter() - t0) / len(inputs))
    return best, failed


def measure(sizes, repeat: int) -> list[tuple[str, int, float, int]]:
    """(layer, n, microseconds per call, calls that raised), one row per layer and size."""
    rows = []
    for n in sizes:
        batch = rings(n)
        for name, vector in (("eigenvalues, scalar sweep", False), ("eigenvalues, vector sweep", True)):
            with sweep(vector):
                rows.append((name, n, *best_per_call(spectra.eigenvalues, batch, repeat)))
        layers = (
            ("multiplicity_forbidden_set", genericity.multiplicity_forbidden_set),
            ("resonance_forbidden_set, k <= 3", lambda r: genericity.resonance_forbidden_set(r, K_MAX)),
            ("remove_multiple", lambda r: genericity.remove_multiple(r, EPSILON)),
        )
        for name, fn in layers:
            rows.append((name, n, *best_per_call(fn, batch, repeat)))
    h = 2 * math.pi / simulate.DEFAULT_STEPS_PER_PERIOD
    t_end = RK4_STEPS * h
    x0 = (0.1, 0.0, 0.0)
    seconds, failed = best_per_call(lambda _: simulate.integrate(RK4_FAMILY, x0, t_end, h), [None], repeat)
    rows.append(("RK4 step", 3, seconds / RK4_STEPS, failed))
    return [(name, n, seconds * 1e6, failed) for name, n, seconds, failed in rows]


def main(argv=None) -> list[tuple[str, int, float, int]]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 10, 20, 40, 64])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        rows = measure(args.sizes, args.repeat)
    finally:
        os.sched_setaffinity(0, cpus)
    for name, n, us, failed in rows:
        note = f"  ({failed} calls raised)" if failed else ""
        print(f"{name:34s} n = {n:3d}  {us:12.2f} us{note}")
    return rows


if __name__ == "__main__":
    main()
