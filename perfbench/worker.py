"""The process that does a workload's work: import, warm up, measure, report.

run.py starts it as a fresh interpreter with `src` on PYTHONPATH:

    python3 perfbench/worker.py WORKLOAD ROOT WORKDIR

It prints `ready` once ringhopf is imported and one warm-up call has
returned; run.py times that as set-up. It then reads the job (JSON) from
stdin, repeats whole rounds until the job's seconds have passed and
prints its figures as one JSON line. With stdin closed and no job, it
exits after `ready`: that is a set-up probe. A traced job alternates
untraced and traced rounds, so the same process measures the overhead.

The job's budget_s bounds the measuring: the worker starts no round that
the longest so far says would end after it, and SIGUSR1 (sent by run.py
when the budget has passed) cuts the running round short. Every
operation of a round cut short counts as attempted and failed, so a
program that became too slow to finish a round is reported, not lost.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

CUT_SHORT = "round not finished within the run's time limit"


class Deadline(BaseException):
    """Raised in a running round when the budget has passed.

    A BaseException, so the rounds' per-operation `except Exception` lets it through.
    """


def timing(rounds: list) -> dict:
    """ops_per_s, op_ms.p50 and op_ms.p99 from each round's unit times (s).

    Throughput is the median over rounds of each round's, which sets aside
    a round that a burst of other work on the machine disturbed. The
    percentiles are over the units of all rounds pooled, so p99 is the
    tail of the run's operations, not of one round's.
    """
    ops = np.median([len(u) / np.sum(u) for u in rounds])
    units = np.concatenate(rounds)
    return {"ops_per_s": float(ops),
            "op_ms.p50": float(np.percentile(units, 50) * 1e3),
            "op_ms.p99": float(np.percentile(units, 99) * 1e3)}


def measure(workload: str, job: dict, ctx) -> dict:
    """Repeat whole rounds until job["seconds"] have passed, within job["budget_s"]."""
    import workloads

    run_round = workloads.ROUNDS[workload]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    units = {False: [], True: []}  # per round: speed-scaled unit times (s), by traced
    raw, counts, reasons = [], Counter(), Counter()
    attempted = failed = rounds = 0
    first_pattern, same = None, True
    state = {"in_round": False, "late": False}

    def on_deadline(*_):
        state["late"] = True
        if state["in_round"]:
            raise Deadline

    # left installed after the loop: a late signal must not end the process before it reports
    signal.signal(signal.SIGUSR1, on_deadline)
    start, longest = time.perf_counter(), 0.0
    while True:
        rounds += 1
        use_trace = tracer is not None and len(units[False]) > len(units[True])
        ctx.counts = {}
        if use_trace:
            tracer.install()
            ctx.tracer = tracer
        t0 = time.perf_counter()
        try:
            state["in_round"] = True
            rnd = run_round(job, ctx)
        except Deadline:
            rnd = None
        finally:
            state["in_round"] = False
            if use_trace:
                tracer.uninstall()
                ctx.tracer = None
        t1 = time.perf_counter()
        if rnd is None:
            n = workloads.ops_per_round(workload, job)
            attempted += n
            failed += n
            reasons[CUT_SHORT] += n
            # where no round of a kind ended, the time so far bounds a round from below
            bound = np.array([(t1 - t0) * ctx.speed.factor(t0, t1)])
            for kind in (False, True) if tracer is not None else (False,):
                if not units[kind]:
                    units[kind].append(bound)
            if not raw:
                raw.append(np.array([t1 - t0]))
            break
        pattern = [f is None for f in rnd.failures]
        first_pattern = pattern if first_pattern is None else first_pattern
        same = same and pattern == first_pattern
        attempted += len(pattern)
        failed += pattern.count(False)
        reasons.update(f for f in rnd.failures if f is not None)
        rnd_units = np.array(rnd.units)
        k = rnd.scale if rnd.scale is not None else ctx.speed.factor(rnd.starts[0], t1)
        units[use_trace].append(rnd_units * k)
        if use_trace:
            counts.update(ctx.counts)
        else:
            raw.append(rnd_units)
        longest = max(longest, t1 - t0)
        elapsed = t1 - start
        traced_done = tracer is None or units[True]
        if state["late"] or (traced_done and (
                elapsed >= job["seconds"] or elapsed + longest > job["budget_s"])):
            break
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    out = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "same_failures_every_round": same,
        "reasons": reasons.most_common(12),
        "e2e": timing(units[False]),
        "e2e_raw": timing(raw),
        "reference_ms": float(np.median(ctx.speed.took)) * 1e3,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics

        layers = layer_metrics(tracer.summary(), counts)
        startup = statistics.median(ctx.startup) * 1e3 if ctx.startup else 0.0
        layers["cli.startup_ms"] = (startup, "ms")
        traced_t = timing(units[True])
        for name, unit in (("ops_per_s", "1/s"), ("op_ms.p50", "ms"), ("op_ms.p99", "ms")):
            layers[f"traced.{name}"] = (traced_t[name], unit)
        # the same process's untraced rounds are the base
        layers["trace.overhead_pct"] = (100.0 * (out["e2e"]["ops_per_s"] / traced_t["ops_per_s"] - 1.0), "%")
        layers["trace.spans"] = (len(tracer.name), "count")
        out["layers"] = layers
        path = ctx.root / ".perfbench_out" / f"trace-{workload}-seed{job['seed']}.npz"
        tracer.dump(path)
        out["trace_file"] = str(path.relative_to(ctx.root))
    return out


def main() -> int:
    workload, root, workdir = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    import workloads  # imports ringhopf

    ctx = workloads.Context(root=root, workdir=workdir)
    workloads.warm_up(workload, ctx)
    print("ready", flush=True)
    raw = sys.stdin.buffer.read()
    if not raw:
        return 0
    print(json.dumps(measure(workload, json.loads(raw), ctx)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
