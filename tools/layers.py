"""Per-layer timings of ringhopf, best of k, pinned to one CPU.

    PYTHONPATH=src python tools/layers.py [--sizes 3 10 20 40 64] [--repeat 3] [--cli K] [--tier1]
                                          [--json FILE]

For each ring size, the same RINGS random rings (a_j, b_j ~ U(-3, 3), fixed
seed) go through `eigenvalues` on each Aberth sweep, `char_poly`, the two
forbidden sets (k <= 3), `remove_multiple` and `remove_resonances`, and
RINGS rings with an axis pair through `phase_shifts`; one RK4 step and one
`find_limit_cycle` hunt (settle time 150) are timed on a 3-node family.
Each batch holds distinct rings, so no memo answers.
Each figure is the best of --repeat passes of the mean time per call, in
microseconds; a layer that raised on some rings says on how many.
With --cli K, each subcommand also runs K times as a child process on a
small input, beside a bare interpreter and a bare `import numpy`; each row
is the median wall time, the children take turns, and a row says how many
runs exited nonzero. With --tier1, the tier-1 suite (TIER1, run from the
repository root) runs once as a child, and its row is the wall time and the
number of tests that failed or errored; the run in FILE also gets the seconds
of each test file, summed from the suite's --durations=0 rows. The process,
and so every child, runs on one CPU while it measures and gets its CPUs back
after.
With --json FILE, the run (its rows, the machine, the pinned CPU and the git
revision of the ringhopf it imported) is appended to the JSON list in FILE,
so one file holds a trajectory of readings; BENCH_layers.json is that file.
Beside its figure, each row there records the median and the worst of its
passes (of its K runs for a CLI row), so a reading shows its own spread.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import ringhopf
from ringhopf import genericity, phases, simulate, spectra
from ringhopf.model import AdjacencyMatrix, AdmissibleOdeFamily, RingParams, save

SEED = 0
RINGS = 30
EPSILON = 1e-3
K_MAX = 3
RK4_STEPS = 20_000
# the reference ring of the paper, with cubic terms -1, just past its Hopf point
RK4_FAMILY = AdmissibleOdeFamily(RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0)), lam=0.1)
ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]


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


def axis_rings(n: int) -> list[tuple[RingParams, float]]:
    """RINGS rings with the eigenvalue i*omega: a_1 makes A(i*omega) real, and b_1 sets c to -A there."""
    rng = np.random.default_rng([SEED, n, 1])
    out = []
    while len(out) < RINGS:
        omega, rest = rng.uniform(0.5, 3), rng.uniform(-3, 3, n - 1)
        phi = sum(cmath.phase(v - 1j * omega) for v in rest)
        a = (omega / math.tan(phi), *rest)
        if abs(a[0]) <= 3:
            c = -math.prod(v - 1j * omega for v in a).real
            b = rng.uniform(-3, 3, n)
            b[0] = (-1) ** (n + 1) * c / math.prod(b[1:])
            out.append((RingParams(n, a, tuple(b)), omega))
    return out


def per_call(fn, inputs, repeat: int) -> tuple[list[float], int]:
    """The mean seconds per call of each of `repeat` passes, and the calls that raised in one pass."""
    passes = []
    for _ in range(repeat):
        failed = 0
        t0 = time.perf_counter()
        for x in inputs:
            try:
                fn(x)
            except (RuntimeError, ValueError):
                failed += 1
        passes.append((time.perf_counter() - t0) / len(inputs))
    return passes, failed


def measure(sizes, repeat: int) -> list[tuple[str, int, float, int, list[float]]]:
    """(layer, n, best microseconds per call, calls that raised, every pass's microseconds per call),
    one row per layer and size."""
    rows = []
    for n in sizes:
        batch = rings(n)
        for name, vector in (("eigenvalues, scalar sweep", False), ("eigenvalues, vector sweep", True)):
            with sweep(vector):
                rows.append((name, n, *per_call(spectra.eigenvalues, batch, repeat)))
        layers = (
            ("char_poly", spectra.char_poly, batch),
            ("phase_shifts", lambda pair: phases.phase_shifts(*pair), axis_rings(n)),
            ("multiplicity_forbidden_set", genericity.multiplicity_forbidden_set, batch),
            ("resonance_forbidden_set, k <= 3", lambda r: genericity.resonance_forbidden_set(r, K_MAX), batch),
            ("remove_multiple", lambda r: genericity.remove_multiple(r, EPSILON), batch),
            ("remove_resonances, k <= 3", lambda r: genericity.remove_resonances(r, K_MAX, EPSILON), batch),
        )
        for name, fn, inputs in layers:
            rows.append((name, n, *per_call(fn, inputs, repeat)))
    h = 2 * math.pi / simulate.DEFAULT_STEPS_PER_PERIOD
    t_end = RK4_STEPS * h
    x0 = (0.1, 0.0, 0.0)
    passes, failed = per_call(lambda _: simulate.integrate(RK4_FAMILY, x0, t_end, h), [None], repeat)
    rows.append(("RK4 step", 3, [s / RK4_STEPS for s in passes], failed))
    hunt = lambda _: simulate.find_limit_cycle(RK4_FAMILY, 0.1, settle_time=150.0)
    rows.append(("find_limit_cycle", 3, *per_call(hunt, [None], repeat)))
    return [(name, n, min(passes) * 1e6, failed, [s * 1e6 for s in passes]) for name, n, passes, failed in rows]


def cli_children(folder: Path) -> list[tuple[str, int, list[str]]]:
    """(row, ring size or 0, interpreter arguments) of each child, its inputs saved in folder."""
    inputs = {
        "ring3": RK4_FAMILY.base,
        "double4": RingParams(4, (0.0, 0.0, 1.0, 1.0), (0.5,) * 4),  # double root at 1/2
        "ring6": RingParams(6, (-1.0, -2.0, -3.0, -0.5, -1.5, -2.5), (1.0, -1.0, 2.0, 1.0, 1.5, -0.5)),
        "adjacency": AdjacencyMatrix(6, [[int(j == (i + 1) % 6) for j in range(6)] for i in range(6)]),
        "family": RK4_FAMILY,
    }
    for name, doc in inputs.items():
        save(doc, folder / f"{name}.json")
    f = {name: str(folder / f"{name}.json") for name in inputs}
    cli = ["-m", "ringhopf.cli"]
    return [
        ("python -c pass", 0, ["-c", "pass"]),
        ("python -c 'import numpy'", 0, ["-c", "import numpy"]),
        ("cli analyze", 3, [*cli, "analyze", f["ring3"]]),
        ("cli tables", 3, [*cli, "tables", "--format", "csv", "--discrepancies"]),
        ("cli phases", 3, [*cli, "phases", f["ring3"]]),
        ("cli perturb", 4, [*cli, "perturb", f["double4"]]),
        ("cli spectrum", 6, [*cli, "spectrum", f["ring6"]]),
        ("cli spectrum --adjacency", 6, [*cli, "spectrum", f["adjacency"], "--adjacency", "--kmax", "5"]),
        ("cli simulate", 3, [*cli, "simulate", f["family"], "--lambda", "0.1", "--settle", "150",
                             "--step", "0.05"]),
    ]


def measure_cli(k: int) -> list[tuple[str, int, float, int, list[float]]]:
    """(row, ring size, median microseconds of k runs, runs that exited nonzero, each run's
    microseconds) per child."""
    env = {**os.environ, "PYTHONPATH": str(Path(ringhopf.__file__).resolve().parent.parent)}
    with tempfile.TemporaryDirectory() as folder:
        children = cli_children(Path(folder))
        seconds, failed = [[] for _ in children], [0] * len(children)
        for _ in range(k):  # each round runs every child once, so drift hits every row alike
            for i, (_, _, args) in enumerate(children):
                t0 = time.perf_counter()
                done = subprocess.run([sys.executable, *args], env=env, cwd=folder, capture_output=True)
                seconds[i].append(time.perf_counter() - t0)
                failed[i] += done.returncode != 0
    return [
        (name, n, statistics.median(s) * 1e6, fails, [t * 1e6 for t in s])
        for (name, n, _), s, fails in zip(children, seconds, failed)
    ]


def measure_tier1() -> tuple[str, int, float, int, list[float], dict[str, float]]:
    """(row, 0, wall microseconds, tests failed or errored, [wall microseconds], seconds per test
    file) of one run of TIER1 as a child."""
    env = {**os.environ, "PYTHONPATH": str(Path(ringhopf.__file__).resolve().parent.parent)}
    t0 = time.perf_counter()
    done = subprocess.run(TIER1, env=env, cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    # pytest's last line, as "2 failed, 472 passed, 1 error in 43.13s"; a run that ends without
    # one, and exits nonzero, counts as one failure
    summary = done.stdout.splitlines()[-1] if done.stdout.strip() else ""
    failed = sum(int(k) for k, _ in re.findall(r"(\d+) (failed|errors?)\b", summary))
    # each --durations row, as "0.52s call     tests/test_cli.py::test_log_env_variable"
    files = {}
    for t, path in re.findall(r"^(\d+\.\d+)s +(?:setup|call|teardown) +([^\s:]+)::", done.stdout, re.M):
        files[path] = round(files.get(path, 0.0) + float(t), 2)
    return ("tier-1 suite", 0, seconds * 1e6, failed or int(done.returncode != 0), [seconds * 1e6], files)


def machine() -> dict:
    """The CPU model, the CPU count and the software the figures were taken with."""
    models = [line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
              if line.startswith("model name")]  # Linux, as sched_setaffinity is
    return {
        "cpu": models[0] if models else platform.processor(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def revision() -> str:
    """`git describe --always --dirty` of the checkout ringhopf was imported from, or 'unknown'."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(ringhopf.__file__).resolve().parent, capture_output=True, text=True,
        )
    except OSError:  # no git
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def append_run(path: Path, rows, cpu: int, repeat: int, tier1_files: dict[str, float] | None) -> None:
    """Add one run to the JSON list in path, which need not exist yet."""
    runs = json.loads(path.read_text()) if path.exists() else []
    run = {
        "revision": revision(),
        "machine": machine(),
        "pinned_cpu": cpu,
        "repeat": repeat,
        "rows": [
            {"layer": name, "n": n, "us": us, "median_us": statistics.median(passes), "worst_us": max(passes),
             "failed": failed}
            for name, n, us, failed, passes in rows
        ],
    }
    if tier1_files is not None:
        run["tier1_files"] = tier1_files
    runs.append(run)
    path.write_text(json.dumps(runs, indent=1) + "\n")


def main(argv=None) -> list[tuple[str, int, float, int]]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 10, 20, 40, 64])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--cli", type=int, default=0, metavar="K", help="also time the CLI, median of K runs")
    parser.add_argument("--tier1", action="store_true", help="also time one run of the tier-1 suite")
    parser.add_argument("--json", type=Path, metavar="FILE", help="append the run to the JSON list in FILE")
    args = parser.parse_args(argv)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        rows = measure(args.sizes, args.repeat)
        if args.cli:
            rows += measure_cli(args.cli)
        tier1_files = None
        if args.tier1:
            *row, tier1_files = measure_tier1()
            rows.append(tuple(row))
    finally:
        os.sched_setaffinity(0, cpus)
    for name, n, us, failed, _ in rows:
        note = f"  ({failed} failed)" if failed else ""
        size = f"n = {n:3d}" if n else " " * 7
        print(f"{name:34s} {size}  {us:12.2f} us{note}")
    if args.json:
        append_run(args.json, rows, min(cpus), args.repeat, tier1_files)
    return [row[:4] for row in rows]


if __name__ == "__main__":
    main()
