"""Run one workload of the ringhopf benchmark and print its metrics.

    python3 perfbench/run.py --workload hopf3 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; `src` goes on the workers' path, as
tier-1 has it, so nothing is installed. This process makes the inputs
from --seed and the independent references (numpy, scipy). It then starts
fresh worker interpreters one at a time: with --trace 0, set-up is timed
SETUP_SAMPLES times (import ringhopf, one warm-up call), each between two
bare interpreter starts that scale it, and the last worker measures; with --trace 1 one worker alternates untraced and traced
rounds. The last line of output is one JSON object: correct, attempted,
failed and the metrics, end-to-end with --trace 0, per layer with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import BARE_START_S, REFERENCE_S, bare_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hopf3", "ringscan", "cycle", "cli")
SETUP_SAMPLES = 7
# A run must end within 180 s. Past RUN_LIMIT_S the worker is told to cut
# its round short and report; STOP_GRACE_S later it is killed.
RUN_LIMIT_S = 160.0
STOP_GRACE_S = 10.0


def commit() -> str:
    """The checked-out commit, read from .git inside the checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """One fresh interpreter running perfbench/worker.py."""

    def __init__(self, workload: str, workdir: Path, env: dict):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(ROOT), str(workdir)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.t0
        if line.strip() != b"ready":
            self.stop()
            raise RuntimeError(f"worker for {workload} failed during set-up")

    def run(self, job: dict) -> dict:
        try:
            out, _ = self.proc.communicate(json.dumps(job).encode(), timeout=job["budget_s"])
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGUSR1)
            out, _ = self.proc.communicate(timeout=STOP_GRACE_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def stop(self) -> None:
        """Kill the worker and any CLI child it is running, then wait for it."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.communicate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ringhopf" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'ringhopf'} not found; run from a checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: the speed
    # samples then run where the program runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    started = time.perf_counter()
    job = workloads.build_job(args.workload, args.seed)
    job.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = workloads.cli_env(ROOT)
    setup, bare = [], [bare_start(ROOT, env)]

    def start_worker():
        """A fresh worker, its set-up time and the bare start after it.

        The worker then waits for its job, so nothing else runs meanwhile.
        """
        w = Worker(args.workload, workdir, env)
        setup.append(w.setup_s)
        bare.append(bare_start(ROOT, env))
        return w

    try:
        for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
            start_worker().stop()
        worker = start_worker()
        try:
            job["budget_s"] = RUN_LIMIT_S - (time.perf_counter() - started)
            res = worker.run(job)
        finally:
            worker.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = res["layers"]
    else:
        e2e = res["e2e"]
        scaled = [BARE_START_S * s / (0.5 * (bare[i] + bare[i + 1])) for i, s in enumerate(setup)]
        metrics = {
            "setup_s": (float(statistics.median(scaled)), "s"),
            "ops_per_s": (e2e["ops_per_s"], "1/s"),
            "op_ms.p50": (e2e["op_ms.p50"], "ms"),
            "op_ms.p99": (e2e["op_ms.p99"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    report(args, res, metrics, setup, bare)
    result = {
        "correct": bool(res["same_failures_every_round"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# the names the end-to-end metrics were planned with, per workload
ALIASES = {
    "hopf3": {"ops_per_s": "rings_per_s", "op_ms.p50": "ring_ms.p50", "op_ms.p99": "ring_ms.p99"},
    "ringscan": {"ops_per_s": "rings_per_s", "op_ms.p50": "ring_ms.p50", "op_ms.p99": "ring_ms.p99"},
    "cycle": {"op_ms.p50": "verify_s, in ms"},
    "cli": {"op_ms.p50": "cli_ms"},
}


def report(args, res, metrics, setup, bare) -> None:
    import numpy

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={commit()} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    print(f"# rounds={res['rounds']} attempted={res['attempted']} failed={res['failed']} "
          f"same_failures_every_round={res['same_failures_every_round']}")
    for reason, count in res["reasons"]:
        print(f"# failed x{count}: {reason}")
    print(f"# reference computation: median {res['reference_ms']:.4f} ms in the worker; "
          f"figures are scaled to {1e3 * REFERENCE_S:g} ms (perfbench/speed.py)")
    print(f"# bare starts (s) {' '.join(f'{v:.4f}' for v in bare)}; set-up is scaled "
          f"to {BARE_START_S:g} s of them")
    print("# unscaled: setup samples (s) " + " ".join(f"{v:.4f}" for v in setup)
          + "; " + " ".join(f"{k}={v:.6g}" for k, v in res["e2e_raw"].items()))
    if args.trace:
        print("# untraced rounds of this run: "
              + " ".join(f"{k}={v:.6g}" for k, v in res["e2e"].items()))
        print(f"# spans written to {res['trace_file']}")
    aliases = ALIASES[args.workload]
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name} {value:.6g} {unit}{alias}")


if __name__ == "__main__":
    sys.exit(main())
