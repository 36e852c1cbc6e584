"""Fast self-test of the benchmark harness (not part of tier-1).

    python3 perfbench/selftest.py

Runs tiny rounds of every workload, feeds every check one correct and
one corrupted output, checks the tracer's self times and that run.py
prints the keys and metric names BENCHMARK.json lists, and that run.py
refuses to run without the sources. Exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import speed  # noqa: E402
import suite  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ringhopf import genericity, model, spectra  # noqa: E402

OUT = ROOT / ".perfbench_out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def context() -> workloads.Context:
    OUT.mkdir(parents=True, exist_ok=True)
    return workloads.Context(root=ROOT, workdir=OUT)


def test_constructions():
    rng = np.random.default_rng(7)
    for n in (4, 10):
        a, b, omega = oracle.axis_ring(n, rng)
        assert np.min(np.abs(oracle.dense_eigvals(a, b) - 1j * omega)) < 1e-9
        a, b, lam = oracle.double_ring(n, rng)
        dense = oracle.dense_eigvals(a, b)
        assert np.sort(np.abs(dense - lam))[1] < 1e-5, "no double root at lambda"
    for r in oracle.hopf3_inputs(rng, 6)[::2]:
        a, b = r["a"], r["b"]
        lhs = (a[0] + a[1]) * (a[0] + a[2]) * (a[1] + a[2])
        assert abs(lhs - b[0] * b[1] * b[2]) <= 1e-12 * max(1.0, abs(lhs))


def test_spectrum_check():
    a, b = (1.0, -2.0, -3.0), (1.0, 1.0, -10.0)
    dense = oracle.dense_eigvals(a, b)
    assert oracle.spectrum_mismatch(list(dense[::-1]), dense) is None
    assert oracle.spectrum_mismatch(list(dense[:-1]) + [dense[-1] + 1e-6], dense)
    assert oracle.spectrum_mismatch(list(dense[:-1]) + [complex("nan")], dense)
    assert oracle.spectrum_mismatch(list(dense[:-1]), dense)
    double = np.array([1.0, 1.0 + 1e-9, -2.0])
    assert oracle.spectrum_mismatch([1.0 + 1e-5, 1.0 - 1e-5, -2.0], double) is None
    assert oracle.spectrum_mismatch([1.0 + 1e-2, 1.0 - 1e-2, -2.0], double)


def test_theta_check():
    a, b = oracle.REFERENCE_A, oracle.REFERENCE_B
    theta = oracle.expected_theta(a, b, 1.0)
    assert abs(theta[0] - 5 * math.pi / 4) < 1e-12
    labels = ["2", "1", "3"]
    assert oracle.theta_mismatch(theta, labels, a, b, 1.0) is None
    assert oracle.theta_mismatch([theta[0] + 1e-6, *theta[1:]], labels, a, b, 1.0)
    assert oracle.theta_mismatch(theta, ["1", "1", "3"], a, b, 1.0)


def test_hopf3_round():
    ctx = context()
    rng = np.random.default_rng(3)
    job = {"rings": oracle.hopf3_inputs(rng, 40)}
    rnd = workloads.hopf3_round(job, ctx)
    assert len(rnd.units) == len(rnd.failures) == 40
    assert not any(rnd.failures), rnd.failures
    r = job["rings"][0]
    ring = model.RingParams(3, r["a"], r["b"])
    ref = ctx.cache["hopf3"][0]
    res = {"b3": r["b"][2], "report": workloads.hopf.hopf_conditions_3(ring),
           "spectrum": spectra.eigenvalues(ring)}
    wrong = SimpleNamespace(eigenvalues=[m + 1e-3 for m in res["spectrum"].eigenvalues], omega=None)
    assert workloads.check_hopf3(r, ref, {**res, "spectrum": wrong}).startswith("spectrum")
    assert "solve_coupling" in workloads.check_hopf3(r, ref, {**res, "b3": r["b"][2] * 1.01})


def test_ringscan_round_counts_failures():
    """A raising and a wrong eigenvalues call each fail their ring and count as eigenvalues failures."""
    ctx = context()
    rng = np.random.default_rng(5)
    rings = [workloads._scan_ring(kind, n, rng) for n in (4, 10) for kind in workloads.KINDS]
    rnd = workloads.ringscan_round({"rings": rings}, ctx)
    assert len(rnd.units) == 6 and not any(rnd.failures), rnd.failures
    assert "eigenvalues_failed" not in ctx.counts
    original = spectra.eigenvalues

    def faulty(ring, *args, **kwargs):
        if ring.a == tuple(rings[0]["a"]):
            raise spectra.RootFindingError("injected")
        got = original(ring, *args, **kwargs)
        if ring.a == tuple(rings[1]["a"]):
            got = dataclasses.replace(got, eigenvalues=tuple(m + 1e-3 for m in got.eigenvalues))
        return got

    spectra.eigenvalues = faulty
    try:
        rnd = workloads.ringscan_round({"rings": rings}, ctx)
    finally:
        spectra.eigenvalues = original
    assert "RootFindingError: injected" in rnd.failures[0]
    assert rnd.failures[1].startswith("spectrum n=4"), rnd.failures[1]
    assert not any(rnd.failures[2:]), rnd.failures
    assert ctx.counts.get("eigenvalues_failed") == 2


def test_repair_and_vector_checks():
    rng = np.random.default_rng(11)
    a, b, _ = oracle.double_ring(4, rng)
    ring = model.RingParams(4, a, b)
    res = genericity.remove_multiple(ring, epsilon=workloads.EPSILON)
    p = res.perturbed
    assert workloads.repair_mismatch(a, b, p.a, p.b, res.delta) is None
    assert workloads.repair_mismatch(a, b, a, b, 0.0), "an unrepaired double root passed"
    assert workloads.repair_mismatch(a, b, (a[0] + 1e-9, *a[1:]), p.b, res.delta)
    assert workloads.repair_mismatch(a, b, p.a, (p.b[0] + 1.0, *p.b[1:]), 1.0)
    a, b, omega = oracle.axis_ring(4, rng)
    ring = model.RingParams(4, a, b)
    vec = spectra.eigenvector_for(ring, 1j * omega)
    scale = 1.0 + float(np.max(np.abs(oracle.dense_eigvals(a, b))))
    assert workloads.eigenvector_mismatch(vec, a, b, 1j * omega, scale) is None
    bent = SimpleNamespace(entries=(1.0, *(2 * v for v in vec.entries[1:])),
                           moduli=vec.moduli, arguments=vec.arguments)
    assert workloads.eigenvector_mismatch(bent, a, b, 1j * omega, scale)


def test_cycle_checks():
    ref = oracle.reference_cycle(0.1, 150.0, h=0.05)
    _, fam = workloads._reference_family()
    m = workloads.simulate.find_limit_cycle(fam, 0.1, settle_time=150.0, h=0.05)
    assert workloads.cycle_mismatch(m.period, m.phase_diffs, ref, workloads.CLI_CYCLE_TOL) is None
    assert workloads.cycle_mismatch(m.period * (1 + 1e-5), m.phase_diffs, ref, workloads.CLI_CYCLE_TOL)
    assert workloads.cycle_mismatch(m.period, m.phase_diffs, None, 1.0)
    profile = workloads.phases.phase_shifts(model.RingParams(3, oracle.REFERENCE_A, oracle.REFERENCE_B), 1.0)
    cmp = workloads.simulate.compare_predicted(m, profile)
    assert workloads.comparison_mismatch(cmp, m.phase_diffs, profile.theta) is None
    assert workloads.comparison_mismatch(cmp, [d + 0.1 for d in m.phase_diffs], profile.theta)
    good = SimpleNamespace(dsigma_dlambda=1.0, drho_dlambda=0.0, sigma=(0, 0, 0), rho=(1, 1, 1))
    far = SimpleNamespace(max_distance=0.2)
    results = {"profile": profile, "crossing": good, "far": (m, far),
               "near": (m, SimpleNamespace(max_distance=0.1, distances=cmp.distances)),
               "default": workloads.simulate.NoCycleError("only 9 full cycles observed")}
    refs = {"far": ref, "near": ref, "default": ref}
    failures = workloads.check_cycle(results, refs)
    assert failures[0] is None and failures[1] is None
    assert failures[4] and "NoCycleError" in failures[4]
    bad = {**results, "crossing": SimpleNamespace(dsigma_dlambda=0.5, drho_dlambda=0.0, sigma=(0, 0, 0), rho=(1, 1, 1))}
    assert workloads.check_cycle(bad, refs)[1]
    assert workloads.near_mismatch(results, SimpleNamespace(max_distance=0.4)), "5% of 2 pi not enforced"
    assert workloads.near_mismatch(results, SimpleNamespace(max_distance=0.25)), "shrinking not enforced"


def test_cli_round_and_checks():
    ctx = context()
    job = workloads.build_job("cli", 1)
    rnd = workloads.cli_round(job, ctx)
    assert len(rnd.units) == 7 and not any(rnd.failures), rnd.failures
    assert 0 < rnd.scale < 10 and ctx.bare > 0, "the round is not scaled by its bare starts"
    failed = SimpleNamespace(returncode=1, stdout="", stderr="error: boom")
    assert "exit 1" in workloads.check_cli("phases", [], failed, job)
    rows = [["case", "omega_sign", "b1", "b2", "b3", "theta1", "theta2", "theta3"]]
    rows += [["A", "1", "-1", "-1", "-1", "3", "3", "3"]] * 24
    assert workloads.tables_mismatch(rows) is None
    rows[5] = ["A", "1", "-1", "-1", "-1", "3", "3", "2"]
    assert workloads.tables_mismatch(rows)
    r3 = math.sqrt(3)
    dense = np.array([3, 6, 1j * r3, -1j * r3, 2j * r3, -2j * r3])
    assert workloads.resonances(dense, 5) == [(2, round(r3, 6))]


def test_tracer():
    t = tracer.Tracer()
    original = spectra.eigenvalues
    t.install()
    try:
        ring = model.RingParams(4, (-1.0, -2.0, -3.0, 0.5), (1.0, -1.0, 2.0, 1.5))
        t.op_id = 0
        genericity.remove_multiple(ring, epsilon=1e-3)
        with t.span("cli.perturb"):
            genericity.remove_multiple(ring, epsilon=1e-3)
    finally:
        t.uninstall()
    assert spectra.eigenvalues is original and genericity.eigenvalues is original
    s = t.summary()
    rm, eig = s["genericity.remove_multiple"], s["spectra.eigenvalues"]
    assert len(rm["dur"]) == 2 and eig["attr"] == [4] * len(eig["dur"])
    children = [i for i in range(len(t.name)) if t.parent[i] == 0]
    direct = sum(t.end[i] - t.start[i] for i in children)
    assert children and abs(rm["self"][0] - (rm["dur"][0] - direct)) < 1e-12
    assert set(t.op) == {0}
    m = tracer.layer_metrics(s, {"eigenvalues_failed": 2})
    assert m["genericity.remove_multiple.calls"][0] == 2
    assert m["cli.perturb.calls"][0] == 1 and m["spectra.eigenvalues.failed"][0] == 2
    assert m["spectra.eigenvalues.n40_us"][0] == 0.0


def test_statistics():
    rounds = [np.full(100, 0.001), np.full(100, 0.002), np.array([0.001] * 99 + [0.101])]
    tm = worker.timing(rounds)
    assert abs(tm["ops_per_s"] - 100 / 0.2) < 1e-9, "throughput is not the median round's"
    pooled = np.concatenate(rounds)
    assert tm["op_ms.p50"] == np.percentile(pooled, 50) * 1e3
    assert tm["op_ms.p99"] == np.percentile(pooled, 99) * 1e3 and tm["op_ms.p99"] == 2.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert suite.spread(values) == (q3 - q1) / 5.5


def test_steadiness_verdict():
    metric = {"name": "setup_s", "bound": 0.25}
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert suite.verdict(metric, [steady, steady]) == []
    for factor in (0.6, 1.4):  # either direction disagrees
        assert suite.verdict(metric, [steady, [v * factor for v in steady]]) == ["MEDIANS DISAGREE"]
    wide = [0.5, 1.5] * 5
    assert suite.verdict(metric, [steady, wide]) == ["SPREAD>BOUND"]
    assert suite.verdict(metric, [steady, [1.0 + 0.1 * (-1) ** i for i in range(10)]]) == ["spread>bound/3"]


def test_time_limit():
    """A round cut short by SIGUSR1 counts every one of its operations as failed."""
    ctx = context()
    job = {"rings": [0] * 4, "trace": 0, "seconds": 60.0, "budget_s": 60.0}

    def slow(job, ctx):
        rnd = workloads.Round()
        for _ in job["rings"]:
            ctx.next_op()
            rnd.timed(time.perf_counter(), 0.1)
            rnd.failures.append(None)
            time.sleep(0.1)
        return rnd

    original = workloads.ROUNDS["hopf3"]
    workloads.ROUNDS["hopf3"] = slow
    timer = threading.Timer(0.65, os.kill, (os.getpid(), signal.SIGUSR1))
    try:
        timer.start()
        out = worker.measure("hopf3", job, ctx)
        assert (out["rounds"], out["attempted"], out["failed"]) == (2, 8, 4), out
        assert out["reasons"] == [(worker.CUT_SHORT, 4)] and out["e2e"]["op_ms.p50"] > 0
        # a round that would not end within the budget is not started
        out = worker.measure("hopf3", {**job, "budget_s": 0.6}, ctx)
        assert (out["rounds"], out["attempted"], out["failed"]) == (1, 4, 0), out
    finally:
        timer.cancel()
        workloads.ROUNDS["hopf3"] = original


def test_speed_scaling():
    s = speed.Speedometer()
    s.at = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    s.took = [speed.REFERENCE_S] * 3 + [2 * speed.REFERENCE_S] * 3
    assert s.factor(0.0, 2.0) == 1.0 and s.factor(9.0, 13.0) == 0.5
    assert abs(s.factor(5.0, 5.5) - 2.5 / 3) < 1e-12  # the three nearest: 2, 10 and 1
    s = speed.Speedometer()
    s.tick()
    s.tick()
    assert len(s.took) == 1 and s.took[0] > 0
    with s.timer():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.45:
            sum(range(1000))
    assert len(s.took) >= 4 and s.busy >= sum(s.took)


def run_py(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_py_contract():
    proc = run_py(ROOT, "--workload", "hopf3", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"} and res["correct"]
    assert (res["attempted"], res["failed"]) == (workloads.HOPF3_RINGS, 0)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(res["metrics"])
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"] and res["metrics"][m["name"]]["value"] > 0
    proc = run_py(ROOT, "--workload", "ringscan", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    assert 0 <= res["failed"] <= res["attempted"] and res["correct"]


def test_run_py_refuses_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_py(bare, "--workload", "hopf3", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    try:
        for test in tests:
            test()
            print(f"PASS {test.__name__}", flush=True)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"all {len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
