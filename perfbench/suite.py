"""Run every workload, or check that two sets of runs agree.

    python3 perfbench/suite.py                     # each workload untraced, then traced
    python3 perfbench/suite.py --steadiness        # two sets of ten seeds per workload

Both take every workload and the run length from BENCHMARK.json. The
first form prints every end-to-end and per-layer metric with its unit,
the operations attempted and failed per workload, and the tracing
overhead: the traced run's end-to-end figures minus the untraced run's.

--steadiness runs run.py ten times per workload and set, with seeds 1-10
in the first set and 1001-1010 in the second, one set after the other.
For every end-to-end metric and workload it reports each set's median
and quartile spread (the distance between the first and third quartile
as a share of the median) and whether the sets agree within the bounds
in BENCHMARK.json: each spread within the bound, the two medians apart
by no more than the bound in either direction, and the same share of
failed operations in every run. Raw results go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ALIASES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
RUNS = 10
SEEDS = (1, 1001)  # the first seed of each set


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report() -> None:
    for w in WORKLOADS:
        plain, text = run(w, SEEDS[0], 0)
        traced, ttext = run(w, SEEDS[0], 1)
        print(f"== {w}: attempted {plain['attempted']}, failed {plain['failed']}, correct {plain['correct']}")
        print(text)
        print(ttext)
        print(f"-- {w}: tracing overhead, traced run minus untraced run")
        for name, m in plain["metrics"].items():
            if f"traced.{name}" in traced["metrics"]:
                delta = traced["metrics"][f"traced.{name}"]["value"] - m["value"]
                alias = ALIASES[w].get(name, name)
                print(f"overhead.{name} {delta:+.6g} {m['unit']}  ({100 * delta / m['value']:+.1f}% of {alias})")
        print()


def verdict(metric: dict, vals: list) -> list:
    """What keeps two sets of one metric's values from agreeing; upper case fails.

    vals holds the two sets' values. Each set's spread must stay within the
    bound, and the medians may differ by at most the bound, either way.
    """
    bound = metric["bound"]
    med = [statistics.median(v) for v in vals]
    out = []
    if max(spread(v) for v in vals) > bound:
        out.append("SPREAD>BOUND")
    elif max(spread(v) for v in vals) > bound / 3:
        out.append("spread>bound/3")
    if abs(med[1] - med[0]) / med[0] > bound:
        out.append("MEDIANS DISAGREE")
    return out


def steadiness() -> int:
    sets = {w: [[], []] for w in WORKLOADS}
    for k, first_seed in enumerate(SEEDS):
        for w in WORKLOADS:
            for i in range(RUNS):
                seed = first_seed + i
                t = time.perf_counter()
                res, _ = run(w, seed, 0)
                sets[w][k].append(res)
                print(f"set {k + 1} {w} seed {seed}: {time.perf_counter() - t:.1f} s wall, "
                      f"failed {res['failed']}/{res['attempted']}", flush=True)
    out = ROOT / ".perfbench_out" / f"steadiness-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets))
    ok = True
    print(f"\n{'workload':9} {'metric':12} {'median 1':>11} {'median 2':>11} {'spread 1':>9} "
          f"{'spread 2':>9} {'bound':>6}  verdict")
    for w in WORKLOADS:
        shares = {r["failed"] / r["attempted"] for s in sets[w] for r in s}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
        for m in SPEC["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in s] for s in sets[w]]
            found = verdict(m, vals)
            ok = ok and not any(v.isupper() for v in found)
            print(f"{w:9} {m['name']:12} {statistics.median(vals[0]):11.5g} "
                  f"{statistics.median(vals[1]):11.5g} {spread(vals[0]):9.4f} {spread(vals[1]):9.4f} "
                  f"{m['bound']:6.3f}  {', '.join(found) or 'ok'}")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steadiness", action="store_true")
    if parser.parse_args(argv).steadiness:
        return steadiness()
    report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
