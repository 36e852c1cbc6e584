"""The four workloads: their inputs, one round of program calls, and the checks.

A round runs the same operations every time, so a run that repeats whole
rounds fails the same share of its operations whatever its length. Each
round returns the timed units (a ring's pipeline, a verification pass, a
CLI child) and one failure reason or None per checked operation. Checks
run outside the timed sections and compare against `oracle`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from speed import BARE_START_S, Speedometer, bare_start
from ringhopf import cli, genericity, hopf, model, phases, simulate, spectra

TWO_PI = 2 * math.pi
EPSILON = 1e-3
K_MAX = 3
HOPF3_RINGS = 10_000
KINDS = ("axis", "double", "plain")
# ringscan rings per kind and round. n = 4 rings come from --seed. The
# program fails on a ring-dependent share of the larger ones (F1 at n = 20
# and 40, F3 on double roots at n = 10 and 20), so those come from one
# fixed panel and fail the same operations in every run.
RINGSCAN_SEEDED = {4: 40}
RINGSCAN_PANEL = {10: 4, 20: 2, 40: 2}
PANEL_SEED = 0
# (name, lambda, settle time; None for the program's default)
CYCLE_HUNTS = (("far", 0.1, 150.0), ("near", 0.01, None), ("default", 0.1, None))
CLI_LAMBDA, CLI_SETTLE, CLI_STEP = 0.1, 150.0, 0.05
# hunts on the program's own grid agree with DOP853 to about 1e-12
CYCLE_TOL = 1e-9
# the CLI's coarse step: RK4 at h = 0.05 agrees to about 3e-8
CLI_CYCLE_TOL = 1e-6
# a hunt with a longer tail than the program's may measure a cycle that
# has converged a little further
F2_CYCLE_TOL = 1e-6


# ------------------------------------------------------------------ inputs


def build_job(workload: str, seed: int) -> dict:
    """Inputs and scipy references, made in the parent before anything is timed."""
    rng = np.random.default_rng([seed, sorted(ROUNDS).index(workload)])
    if workload == "hopf3":
        return {"rings": oracle.hopf3_inputs(rng, HOPF3_RINGS)}
    if workload == "ringscan":
        rings = []
        panel = np.random.default_rng(PANEL_SEED)
        for sizes, source in ((RINGSCAN_SEEDED, rng), (RINGSCAN_PANEL, panel)):
            for n, count in sizes.items():
                for kind in KINDS:
                    for _ in range(count):
                        rings.append(_scan_ring(kind, n, source))
        return {"rings": rings}
    if workload == "cycle":
        refs = {}
        for name, lam, settle in CYCLE_HUNTS:
            settle = _default_settle(lam) if settle is None else settle
            extra = 2 if name == "default" else 0
            refs[name] = oracle.reference_cycle(lam, settle, extra_cycles=extra)
        return {"references": refs}
    if workload == "cli":
        a, b = _hopf3_ring(rng)
        da, db, _ = oracle.double_ring(4, rng)
        pa, pb = oracle.plain_ring(6, rng)
        return {
            "ring3": {"a": a, "b": b},
            "double4": {"a": da, "b": db},
            "ring6": {"a": pa, "b": pb},
            "adjacency": oracle.adjacency_matrix(6, rng),
            "reference": oracle.reference_cycle(CLI_LAMBDA, CLI_SETTLE, h=CLI_STEP),
        }
    raise ValueError(f"unknown workload {workload!r}")


def _scan_ring(kind, n, rng) -> dict:
    if kind == "axis":
        a, b, omega = oracle.axis_ring(n, rng)
        return {"kind": kind, "n": n, "a": a, "b": b, "omega": omega}
    if kind == "double":
        a, b, _ = oracle.double_ring(n, rng)
    else:
        a, b = oracle.plain_ring(n, rng)
    return {"kind": kind, "n": n, "a": a, "b": b}


def _hopf3_ring(rng):
    """A 3-node Hopf ring from a stable equilibrium (omega^2 > 0, trace < 0)."""
    while True:
        a = rng.uniform(-3.0, 3.0, size=3)
        a1, a2, a3 = a
        if a1 * a2 + a1 * a3 + a2 * a3 > 0.1 and a.sum() < 0:
            b1, b2 = rng.uniform(0.5, 2.0, size=2) * rng.choice((-1.0, 1.0), size=2)
            b3 = (a1 + a2) * (a1 + a3) * (a2 + a3) / (b1 * b2)
            return tuple(float(v) for v in a), (float(b1), float(b2), float(b3))


def _default_settle(lam: float) -> float:
    """find_limit_cycle's default settle time for the reference ring (omega = 1)."""
    return max(40 * TWO_PI, 4.0 / max(abs(lam), 1e-6))


# ----------------------------------------------------------------- context


@dataclass
class Context:
    root: Path
    workdir: Path
    tracer: object = None  # tracer.Tracer while a traced round runs
    counts: dict = field(default_factory=dict)
    startup: list = field(default_factory=list)  # cli: child minus in-process (s)
    cache: dict = field(default_factory=dict)  # oracle values, made once
    bare: float | None = None  # cli: the last bare start (s)
    speed: Speedometer = field(default_factory=Speedometer)

    def next_op(self):
        """Between operations: sample the machine's speed, advance the span op id."""
        self.speed.tick()
        if self.tracer is not None:
            self.tracer.op_id += 1

    def eigenvalues_failed(self):
        """A direct eigenvalues call raised or failed its check."""
        self.counts["eigenvalues_failed"] = self.counts.get("eigenvalues_failed", 0) + 1


@dataclass
class Round:
    starts: list = field(default_factory=list)  # perf_counter at each unit's start
    units: list = field(default_factory=list)  # timed wall times (s)
    failures: list = field(default_factory=list)  # per checked operation
    scale: float | None = None  # the factor for units; None: from the speed samples

    def timed(self, t0: float, seconds: float | None = None) -> None:
        self.starts.append(t0)
        self.units.append(time.perf_counter() - t0 if seconds is None else seconds)


def _reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc)[:160]}"


# ------------------------------------------------------------------- hopf3


def _hopf3_oracle(rings):
    out = []
    for r in rings:
        a, b = r["a"], r["b"]
        e2 = a[0] * a[1] + a[0] * a[2] + a[1] * a[2]
        dense = oracle.dense_eigvals(a, b)
        out.append({
            "dense": dense,
            "e2": e2,
            "hopf": r["hopf"] and e2 > 0,
            "scale": 1.0 + float(np.max(np.abs(dense))),
        })
    return out


def hopf3_round(job, ctx: Context) -> Round:
    rings = job["rings"]
    if "hopf3" not in ctx.cache:
        ctx.cache["hopf3"] = _hopf3_oracle(rings)
    refs = ctx.cache["hopf3"]
    out = Round()
    for r, ref in zip(rings, refs):
        ctx.next_op()
        a, b = tuple(r["a"]), tuple(r["b"])
        res = {}
        t0 = time.perf_counter()
        try:
            if r["hopf"]:
                res["b3"] = hopf.solve_coupling_for_hopf(a, b[0], b[1])
                b = (b[0], b[1], res["b3"])
            ring = model.RingParams(3, a, b)
            res["report"] = hopf.hopf_conditions_3(ring)
            res["spectrum"] = None  # until eigenvalues returns
            res["spectrum"] = spectra.eigenvalues(ring)
            if res["spectrum"].omega is not None:
                res["profile"] = phases.phase_shifts(ring, res["spectrum"].omega)
                try:
                    res["case"] = phases.classify_case(ring).label
                except ValueError as exc:  # no case A/B/C: two positive a_j
                    res["case"] = exc
                if sum(a) < 0:
                    res["signs"] = hopf.sign_constraints(ring)
        except Exception as exc:
            out.timed(t0)
            out.failures.append(_reason(exc))
            if "spectrum" in res and res["spectrum"] is None:
                ctx.eigenvalues_failed()
            continue
        out.timed(t0)
        failure = check_hopf3(r, ref, res)
        if failure and failure.startswith("spectrum"):
            ctx.eigenvalues_failed()
        out.failures.append(failure)
    return out


def check_hopf3(r, ref, res) -> str | None:
    a, b = r["a"], r["b"]
    if r["hopf"] and not abs(res["b3"] - b[2]) <= 1e-12 * abs(b[2]):
        return f"solve_coupling_for_hopf gave {res['b3']}, expected {b[2]}"
    s, rep = res["spectrum"], res["report"]
    bad = oracle.spectrum_mismatch(s.eigenvalues, ref["dense"])
    if bad:
        return f"spectrum: {bad}"
    if not abs(rep.omega_sq - ref["e2"]) <= 1e-12 * (1.0 + abs(ref["e2"])):
        return f"omega_sq {rep.omega_sq} != {ref['e2']}"
    if rep.is_hopf_point != ref["hopf"]:
        return f"closed form says hopf={rep.is_hopf_point}, construction {ref['hopf']}"
    if (s.omega is not None) != ref["hopf"]:
        return f"spectral detection omega={s.omega} disagrees with the closed form"
    if not ref["hopf"]:
        return None
    omega = math.sqrt(ref["e2"])
    if not abs(s.omega - omega) <= oracle.SIMPLE_TOL * ref["scale"]:
        return f"omega {s.omega} != constructed {omega}"
    p = res["profile"]
    bad = oracle.theta_mismatch(p.theta, [q.label() for q in p.ratio_quadrant], a, b, omega)
    if bad:
        return f"phase_shifts: {bad}"
    want = oracle.case_label(a)
    got = res["case"]
    if want is None and not isinstance(got, ValueError):
        return f"classify_case gave {got} for two positive a_j"
    if want is not None and got != want:
        return f"classify_case gave {got}, sign count gives {want}"
    if sum(a) < 0:
        sums = (a[0] + a[1], a[0] + a[2], a[1] + a[2])
        sc = res["signs"]
        if not (max(sums) < 0 and b[0] * b[1] * b[2] < 0):
            return f"sign lemma fails on the input itself: sums {sums}"
        if not (sc.all_sums_negative and sc.coupling_product_negative):
            return "sign_constraints reports a non-negative sum or product"
    return None


# ---------------------------------------------------------------- ringscan


def ringscan_round(job, ctx: Context) -> Round:
    rings = job["rings"]
    if "ringscan" not in ctx.cache:
        ctx.cache["ringscan"] = [oracle.dense_eigvals(r["a"], r["b"]) for r in rings]
    out = Round()
    for r, dense in zip(rings, ctx.cache["ringscan"]):
        ctx.next_op()
        res = {}
        t0 = time.perf_counter()
        try:
            ring = model.RingParams(r["n"], r["a"], r["b"])
            res["spectrum"] = None  # until eigenvalues returns
            res["spectrum"] = spectra.eigenvalues(ring)
            res["pair"] = hopf.detect_imaginary_pair(res["spectrum"])
            if r["kind"] == "axis":
                res["profile"] = phases.phase_shifts(ring, r["omega"])
                res["vector"] = spectra.eigenvector_for(ring, 1j * r["omega"])
            res["multiple"] = genericity.remove_multiple(ring, epsilon=EPSILON)
            res["resonances"] = genericity.remove_resonances(
                res["multiple"].perturbed, k_max=K_MAX, epsilon=EPSILON
            )
        except Exception as exc:
            out.timed(t0)
            out.failures.append(_reason(exc))
            if "spectrum" in res and res["spectrum"] is None:
                ctx.eigenvalues_failed()
            continue
        out.timed(t0)
        failure = check_ringscan(r, dense, res)
        if failure and failure.startswith("spectrum"):
            ctx.eigenvalues_failed()
        out.failures.append(failure)
    return out


def check_ringscan(r, dense, res) -> str | None:
    bad = oracle.spectrum_mismatch(res["spectrum"].eigenvalues, dense)
    if bad:
        return f"spectrum n={r['n']} {r['kind']}: {bad}"
    scale = 1.0 + float(np.max(np.abs(dense)))
    want = r["omega"] if r["kind"] == "axis" else oracle.axis_omega(dense)
    got = res["pair"].omega
    if (got is None) != (want is None) or (
        want is not None and not abs(got - want) <= oracle.SIMPLE_TOL * scale
    ):
        return f"detect_imaginary_pair gave {got}, expected {want}"
    if r["kind"] == "axis":
        p = res["profile"]
        bad = oracle.theta_mismatch(p.theta, [q.label() for q in p.ratio_quadrant], r["a"], r["b"], want)
        if bad:
            return f"phase_shifts: {bad}"
        bad = eigenvector_mismatch(res["vector"], r["a"], r["b"], 1j * want, scale)
        if bad:
            return f"eigenvector_for: {bad}"
    rm, rr = res["multiple"], res["resonances"]
    bad = repair_mismatch(r["a"], r["b"], rm.perturbed.a, rm.perturbed.b, rm.delta)
    if bad:
        return f"remove_multiple n={r['n']} {r['kind']}: {bad}"
    bad = repair_mismatch(r["a"], rm.perturbed.b, rr.perturbed.a, rr.perturbed.b, rr.delta)
    if bad:
        return f"remove_resonances n={r['n']} {r['kind']}: {bad}"
    return None


def eigenvector_mismatch(vec, a, b, mu, scale) -> str | None:
    u = np.array(vec.entries)
    if u[0] != 1.0:
        return f"u_1 = {u[0]}, expected 1"
    residual = float(np.max(np.abs(oracle.jacobian(a, b) @ u - mu * u)))
    if not residual <= oracle.SIMPLE_TOL * scale * float(np.max(np.abs(u))):
        return f"|J u - mu u| = {residual:.2e}"
    if not np.allclose(vec.moduli, np.abs(u), rtol=1e-12, atol=0):
        return "moduli differ from |u_j|"
    if max(oracle.circular_distance(x, float(np.angle(v))) for x, v in zip(vec.arguments, u)) > 1e-12:
        return "arguments differ from arg u_j"
    return None


def repair_mismatch(a, b, new_a, new_b, delta) -> str | None:
    """delta <= epsilon, a bitwise unchanged, dense-QR gap above the gap tolerance."""
    if tuple(new_a) != tuple(a):
        return "diagonal changed"
    moved = max(abs(x - y) for x, y in zip(b, new_b))
    if not (delta <= EPSILON and moved <= EPSILON):
        return f"delta {delta} (measured {moved}) exceeds {EPSILON}"
    dense = oracle.dense_eigvals(new_a, new_b)
    gap, tol = oracle.min_gap(dense), oracle.gap_tol(dense)
    if not gap > tol:
        return f"dense-QR min gap {gap:.2e} <= gap tolerance {tol:.2e}"
    return None


# ------------------------------------------------------------------- cycle


def _reference_family():
    ring = model.RingParams(3, oracle.REFERENCE_A, oracle.REFERENCE_B)
    return ring, model.AdmissibleOdeFamily(ring, cubic=oracle.REFERENCE_CUBIC)


def cycle_round(job, ctx: Context) -> Round:
    """One verification pass: the sum of its calls' times, without the speed samples.

    The hunts last seconds, so the machine's speed is also sampled during them.
    """
    refs = job["references"]
    ring, fam = _reference_family()
    out = Round()
    results = {}
    spent = 0.0
    start = time.perf_counter()

    def call(key, fn, *args, **kwargs):
        nonlocal spent
        ctx.next_op()
        t0, busy = time.perf_counter(), ctx.speed.busy
        try:
            results[key] = fn(*args, **kwargs)
        except Exception as exc:
            results[key] = exc
        spent += time.perf_counter() - t0 - (ctx.speed.busy - busy)

    with ctx.speed.timer():
        call("profile", phases.phase_shifts, ring, 1.0)
        call("crossing", hopf.crossing_check, fam, 0.0, 1e-3)
        for name, lam, settle in CYCLE_HUNTS:
            call(name, _hunt, fam, lam, settle, results["profile"])
    out.timed(start, spent)
    out.failures = check_cycle(results, refs)
    return out


def _hunt(fam, lam, settle, profile):
    m = simulate.find_limit_cycle(fam, lam, settle_time=settle)
    cmp = None if isinstance(profile, Exception) else simulate.compare_predicted(m, profile)
    return m, cmp


def check_cycle(results, refs) -> list:
    a, b = oracle.REFERENCE_A, oracle.REFERENCE_B
    failures = []
    prof = results["profile"]
    if isinstance(prof, Exception):
        failures.append(f"phase_shifts: {_reason(prof)}")
    else:
        failures.append(oracle.theta_mismatch(prof.theta, [q.label() for q in prof.ratio_quadrant], a, b, 1.0))
    cc = results["crossing"]
    if isinstance(cc, Exception):
        failures.append(f"crossing_check: {_reason(cc)}")
    elif not (abs(cc.dsigma_dlambda - 1.0) < 1e-6 and abs(cc.drho_dlambda) < 1e-6
              and abs(cc.sigma[1]) < 1e-8 and abs(cc.rho[1] - 1.0) < 1e-8):
        # J + lambda I moves every eigenvalue by exactly lambda
        failures.append(f"crossing_check: d sigma/d lambda {cc.dsigma_dlambda}, d rho/d lambda {cc.drho_dlambda}")
    else:
        failures.append(None)
    for name, lam, _ in CYCLE_HUNTS:
        got = results[name]
        if isinstance(got, Exception):
            failures.append(f"find_limit_cycle({name}, lambda={lam}): {_reason(got)}")
            continue
        m, cmp = got
        tol = F2_CYCLE_TOL if name == "default" else CYCLE_TOL
        bad = cycle_mismatch(m.period, m.phase_diffs, refs[name], tol)
        if not bad and cmp is not None:
            bad = comparison_mismatch(cmp, m.phase_diffs, prof.theta)
        if not bad and name == "near":
            bad = near_mismatch(results, cmp)
        failures.append(f"find_limit_cycle({name}, lambda={lam}): {bad}" if bad else None)
    return failures


def cycle_mismatch(period, diffs, ref, tol) -> str | None:
    if ref is None:
        return "the reference holds too few cycles"
    if not abs(period - ref["period"]) <= tol * ref["period"]:
        return f"period {period!r} vs DOP853 {ref['period']!r}"
    worst = max(oracle.circular_distance(x, y) for x, y in zip(diffs, ref["phase_diffs"]))
    if not worst <= tol * TWO_PI:
        return f"phase differences off DOP853 by {worst:.2e}"
    return None


def comparison_mismatch(cmp, diffs, theta) -> str | None:
    want = [oracle.circular_distance(x, y) for x, y in zip(diffs, theta)]
    if max(abs(x - y) for x, y in zip(cmp.distances, want)) > 1e-12:
        return f"compare_predicted distances {cmp.distances} != {want}"
    return None


def near_mismatch(results, cmp) -> str | None:
    """At lambda = 0.01 the phases lie within 5% of 2 pi and closer than at 0.1."""
    if not cmp.max_distance < 0.05 * TWO_PI:
        return f"max phase distance {cmp.max_distance:.4f} >= 5% of 2 pi"
    far = results["far"]
    if not isinstance(far, Exception) and not cmp.max_distance < far[1].max_distance:
        return "phase error did not shrink from lambda 0.1 to 0.01"
    return None


# --------------------------------------------------------------------- cli


def _cli_commands(files) -> list:
    return [
        ("analyze", ["analyze", files["ring3"]]),
        ("tables", ["tables", "--format", "csv", "--discrepancies"]),
        ("phases", ["phases", files["ring3"]]),
        ("perturb", ["perturb", files["double4"], "--epsilon", str(EPSILON)]),
        ("spectrum", ["spectrum", files["ring6"]]),
        ("spectrum", ["spectrum", files["adjacency"], "--adjacency", "--kmax", "5"]),
        ("simulate", ["simulate", files["family"], "--lambda", str(CLI_LAMBDA),
                      "--settle", str(CLI_SETTLE), "--step", str(CLI_STEP)]),
    ]


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _write_cli_inputs(job, ctx) -> dict:
    docs = {
        "ring3": model.RingParams(3, job["ring3"]["a"], job["ring3"]["b"]),
        "double4": model.RingParams(4, job["double4"]["a"], job["double4"]["b"]),
        "ring6": model.RingParams(6, job["ring6"]["a"], job["ring6"]["b"]),
        "adjacency": model.AdjacencyMatrix(6, job["adjacency"]),
        "family": _reference_family()[1],
    }
    files = {}
    for name, doc in docs.items():
        files[name] = str(ctx.workdir / f"{name}.json")
        model.save(doc, files[name])
    return files


def cli_round(job, ctx: Context) -> Round:
    """Each child once; the round is scaled by the bare starts before and after it."""
    files = _write_cli_inputs(job, ctx)
    env = cli_env(ctx.root)
    if ctx.bare is None:
        ctx.bare = bare_start(ctx.root, env)
    out = Round()
    for sub, argv in _cli_commands(files):
        ctx.next_op()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ringhopf.cli", *argv],
            cwd=ctx.root, env=env, capture_output=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        # bytes, decoded without newline translation: the CSV writer ends rows in \r\n
        proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
        out.timed(t0, wall)
        failure = None
        if ctx.tracer is not None:
            buf = io.StringIO()
            t1 = time.perf_counter()
            with ctx.tracer.span(f"cli.{sub}"), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            ctx.startup.append(wall - (time.perf_counter() - t1))
            if (code, buf.getvalue()) != (proc.returncode, proc.stdout):
                failure = f"in-process {sub} differs from the child's output"
        try:
            failure = failure or check_cli(sub, argv, proc, job)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failure = f"unparsable output: {_reason(exc)}"
        out.failures.append(f"cli {sub}: {failure}" if failure else None)
    after = bare_start(ctx.root, env)
    out.scale = BARE_START_S / (0.5 * (ctx.bare + after))
    ctx.bare = after
    return out


def check_cli(sub, argv, proc, job) -> str | None:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-160:]}"
    if sub == "tables":
        return tables_mismatch(list(csv.reader(io.StringIO(proc.stdout))))
    if sub == "simulate":
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        if len(rows) != 1 or rows[0]["diagnostic"]:
            return f"expected one measured row, got {rows}"
        diffs = [float(rows[0][f"phase_diff{j}"]) for j in (1, 2, 3)]
        return cycle_mismatch(float(rows[0]["period"]), diffs, job["reference"], CLI_CYCLE_TOL)
    doc = json.loads(proc.stdout)
    if sub == "perturb":
        r, p = job["double4"], doc["perturbed"]
        return repair_mismatch(r["a"], r["b"], p["a"], p["b"], doc["delta"])
    if sub == "spectrum" and "--adjacency" in argv:
        dense = np.linalg.eigvals(np.array(job["adjacency"], dtype=float))
        got = [complex(re, im) for re, im in doc["eigenvalues"]]
        bad = oracle.spectrum_mismatch(got, dense)
        want = resonances(dense, 5)
        flags = sorted((f["k"], round(f["omega"], 6)) for f in doc["resonances"])
        if not bad and flags != want:
            bad = f"resonances {flags}, expected {want}"
        return bad
    r = job["ring6"] if sub == "spectrum" else job["ring3"]
    dense = oracle.dense_eigvals(r["a"], r["b"])
    if sub == "spectrum":
        return oracle.spectrum_mismatch([complex(re, im) for re, im in doc["eigenvalues"]], dense)
    omega = math.sqrt(r["a"][0] * r["a"][1] + r["a"][0] * r["a"][2] + r["a"][1] * r["a"][2])
    if sub == "analyze":
        bad = oracle.spectrum_mismatch([complex(re, im) for re, im in doc["spectrum"]["eigenvalues"]], dense)
        if bad:
            return bad
        scale = 1.0 + float(np.max(np.abs(dense)))
        if not doc["hopf"]["is_hopf_point"]:
            return "closed form misses the Hopf point"
        got = doc["imaginary_pair"]["omega"]
        if got is None or not abs(got - omega) <= oracle.SIMPLE_TOL * scale:
            return f"imaginary pair {got}, constructed {omega}"
        doc = doc["phases"]
    return oracle.theta_mismatch(doc["theta"], doc["ratio_quadrant"], r["a"], r["b"], omega)


def resonances(dense, k_max) -> list:
    """(k, omega) for k:1 ratios among axis pairs, and (0, omega) beside a zero."""
    freqs = []
    for w in sorted(m.imag for m in dense if abs(m.real) < oracle.AXIS_TOL and m.imag > oracle.AXIS_TOL):
        if not freqs or w - freqs[-1] > oracle.AXIS_TOL:
            freqs.append(w)
    flags = []
    if freqs and any(abs(m) < oracle.AXIS_TOL for m in dense):
        flags.append((0, round(freqs[0], 6)))
    for w in freqs:
        for k in range(2, k_max + 1):
            if any(abs(w2 - k * w) < oracle.AXIS_TOL * (1 + k) for w2 in freqs):
                flags.append((k, round(w, 6)))
    return sorted(flags)


def tables_mismatch(rows) -> str | None:
    """24 rows, each label the atan2 sector of (i w - a_j)/b_j at unit magnitudes."""
    header, body = rows[0], rows[1:]
    if len(body) != 24:
        return f"{len(body)} table rows, expected 24"
    a_signs = {"A": (-1, -1, -1), "B": (1, -1, -1), "C": (0, -1, -1)}
    for row in body:
        rec = dict(zip(header, row))
        w = float(rec["omega_sign"])
        want = [oracle.sector(complex(-sa, w) / float(rec[f"b{j + 1}"]))
                for j, sa in enumerate(a_signs[rec["case"]])]
        got = [rec[f"theta{j}"] for j in (1, 2, 3)]
        if got != want:
            return f"row {row}: labels {got}, atan2 gives {want}"
    return None


# ---------------------------------------------------------------- warm-up


def warm_up(workload: str, ctx: Context) -> None:
    """One untimed call of the workload, on a fixed input, in a fresh process."""
    ring, fam = _reference_family()
    if workload == "hopf3":
        hopf.hopf_conditions_3(ring)
        spectra.eigenvalues(ring)
        phases.phase_shifts(ring, 1.0)
        phases.classify_case(ring)
        hopf.sign_constraints(ring)
    elif workload == "ringscan":
        r4 = model.RingParams(4, (-1.0, -2.0, -3.0, 0.5), (1.0, -1.0, 2.0, 1.5))
        hopf.detect_imaginary_pair(spectra.eigenvalues(r4))
        genericity.remove_resonances(genericity.remove_multiple(r4, EPSILON).perturbed, K_MAX, EPSILON)
    elif workload == "cycle":
        phases.phase_shifts(ring, 1.0)
        hopf.crossing_check(fam, 0.0, 1e-3)
        simulate.integrate(fam, (0.01, 0.0, 0.0), 1.0, 0.01, lam=0.1)
    elif workload == "cli":
        subprocess.run(
            [sys.executable, "-m", "ringhopf.cli", "tables"],
            cwd=ctx.root, env=cli_env(ctx.root), capture_output=True, timeout=120, check=True,
        )


def ops_per_round(workload: str, job) -> int:
    """The operations one round checks."""
    if workload in ("hopf3", "ringscan"):
        return len(job["rings"])
    if workload == "cycle":
        return 2 + len(CYCLE_HUNTS)
    return len(_cli_commands(defaultdict(str)))


ROUNDS = {"cli": cli_round, "cycle": cycle_round, "hopf3": hopf3_round, "ringscan": ringscan_round}
