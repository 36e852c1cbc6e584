"""Seeded inputs and independent reference computations for the benchmark.

Nothing here calls into ringhopf. Rings are built from the product form
p(z) = A(z) + c, A(z) = prod(a_j - z), c = (-1)^(n+1) b_1 ... b_n, by the
benchmark's own numpy code; spectra come from the dense QR solver
(np.linalg.eigvals) of the Jacobian; limit cycles come from scipy's DOP853
on the same ODE. scipy is imported only inside `reference_cycle`, which
runs in the parent process before anything is timed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

TWO_PI = 2 * math.pi

# Simple eigenvalues must match the dense QR spectrum to this share of the
# spectrum's scale 1 + max|mu|. An m-fold cluster is only determined to
# the m-th root of that share, so its members get SIMPLE_TOL ** (1/m).
SIMPLE_TOL = 1e-8
# Dense eigenvalues closer than this share of the scale form one cluster.
CLUSTER_TOL = 1e-4
# The program's default gap tolerance, GAP_TOL_FACTOR * (1 + spectral radius).
GAP_TOL_FACTOR = 1e-7
AXIS_TOL = 1e-8

REFERENCE_A = (1.0, -2.0, -3.0)
REFERENCE_B = (1.0, 1.0, -10.0)
REFERENCE_CUBIC = (-1.0, -1.0, -1.0)
STEPS_PER_PERIOD = 4000
MEASURE_CYCLES = 10


# ---------------------------------------------------------------- rings


def jacobian(a, b) -> np.ndarray:
    """Ring Jacobian: a on the diagonal, b_j at (j, j+1 mod n)."""
    n = len(a)
    J = np.diag(np.asarray(a, dtype=float))
    J[np.arange(n), (np.arange(n) + 1) % n] = b
    return J


def dense_eigvals(a, b) -> np.ndarray:
    return np.linalg.eigvals(jacobian(a, b))


def eval_A(a, z: complex) -> complex:
    acc = 1.0 + 0.0j
    for v in a:
        acc *= v - z
    return acc


def ring_with_product(a, c: float, rng) -> tuple[tuple, tuple]:
    """Couplings with signed product c: b_2..b_n = +-U(0.5, 2), b_1 solves."""
    n = len(a)
    rest = rng.uniform(0.5, 2.0, size=n - 1) * rng.choice((-1.0, 1.0), size=n - 1)
    b1 = (-1.0) ** (n + 1) * c / math.prod(rest)
    return tuple(float(v) for v in a), (float(b1), *(float(v) for v in rest))


def axis_frequencies(a) -> list[float]:
    """omega > 0 with Im A(i omega) = 0, Newton-polished in product form."""
    alpha = np.poly(a)[::-1] * (-1.0) ** len(a)  # A(z) = sum alpha_m z^m
    im = np.zeros(len(alpha))
    for m in range(1, len(alpha), 2):
        im[m] = alpha[m] * (-1.0) ** ((m - 1) // 2)
    coeffs = np.trim_zeros(im[::-1], "f")[:-1]  # drop the omega = 0 root
    out = []
    for r in np.roots(coeffs) if len(coeffs) > 1 else []:
        if abs(r.imag) > 1e-6 * (1.0 + abs(r)) or r.real <= 1e-6:
            continue
        w = float(r.real)
        for _ in range(5):
            # d/dw Im A(iw) = Im(i A'(iw)) with A'/A = -sum 1/(a_j - z)
            val = eval_A(a, 1j * w)
            deriv = (1j * val * -sum(1.0 / (v - 1j * w) for v in a)).imag
            if deriv == 0:
                break
            w -= val.imag / deriv
        out.append(w)
    return sorted(out)


def axis_ring(n: int, rng):
    """A ring with the pair +-i omega on the axis: c = -A(i omega)."""
    for _ in range(1000):
        a = rng.uniform(-3.0, 3.0, size=n)
        omegas = axis_frequencies(a)
        if not omegas:
            continue
        omega = omegas[int(rng.integers(len(omegas)))]
        c = -eval_A(a, 1j * omega).real
        if abs(c) < 1e-6:
            continue
        a, b = ring_with_product(a, c, rng)
        if np.min(np.abs(dense_eigvals(a, b) - 1j * omega)) < 1e-9 * (1.0 + omega):
            return a, b, omega
    raise RuntimeError(f"no axis-pair ring of size {n} found")


def double_ring(n: int, rng):
    """A ring with a double real root lambda: c = -A(lambda) where A'(lambda) = 0.

    The diagonal is a jittered grid, so neighbours are at least 0.2 * 6/n
    apart. A'/A = sum 1/(z - a_j) falls from +inf to -inf between
    neighbours, so each root of A' is found by bisection.
    """
    while True:
        a = -3.0 + (6.0 / n) * (np.arange(n) + 0.1 + 0.8 * rng.random(n))
        k = int(rng.integers(n - 1))
        lo, hi = a[k], a[k + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if np.sum(1.0 / (mid - a)) > 0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        c = -eval_A(a, lam).real
        if abs(c) >= 1e-6:
            a, b = ring_with_product(a, c, rng)
            return a, b, float(lam)


def plain_ring(n: int, rng):
    a = rng.uniform(-3.0, 3.0, size=n)
    b = rng.uniform(-3.0, 3.0, size=n)
    return tuple(float(v) for v in a), tuple(float(v) for v in b)


def hopf3_inputs(rng, count: int) -> list[dict]:
    """3-node rings with a, b ~ U(-3, 3); every even one gets the Hopf b_3."""
    out = []
    for i in range(count):
        a = tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=3))
        b = tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=3))
        hopf = i % 2 == 0
        if hopf:
            a1, a2, a3 = a
            b = (b[0], b[1], (a1 + a2) * (a1 + a3) * (a2 + a3) / (b[0] * b[1]))
        out.append({"a": a, "b": b, "hopf": hopf})
    return out


def adjacency_matrix(n: int, rng) -> list[list[int]]:
    return rng.integers(0, 3, size=(n, n)).tolist()


# ------------------------------------------------------------- spectra


def cluster_sizes(mus: np.ndarray, scale: float) -> np.ndarray:
    """For each value, the size of its cluster (chains closer than CLUSTER_TOL)."""
    n = len(mus)
    label = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(mus[i] - mus[j]) < CLUSTER_TOL * scale:
                old, new = label[j], label[i]
                label = [new if v == old else v for v in label]
    return np.array([label.count(v) for v in label])


def spectrum_mismatch(got, dense) -> str | None:
    """None if `got` matches the dense spectrum as a multiset, else why not."""
    got = [complex(v) for v in got]
    dense = np.asarray(dense, dtype=complex)
    if len(got) != len(dense):
        return f"{len(got)} eigenvalues, expected {len(dense)}"
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in got):
        return "non-finite eigenvalue"
    scale = 1.0 + float(np.max(np.abs(dense)))
    sizes = cluster_sizes(dense, scale)
    remaining = list(got)
    for mu, m in sorted(zip(dense, sizes), key=lambda p: p[1]):
        tol = SIMPLE_TOL ** (1.0 / m) * scale
        k = min(range(len(remaining)), key=lambda i: abs(remaining[i] - mu))
        if abs(remaining[k] - mu) > tol:
            return (
                f"dense eigenvalue {mu:.6g} (cluster {m}) unmatched: nearest "
                f"{remaining[k]:.6g} is {abs(remaining[k] - mu):.2e} away, tol {tol:.1e}"
            )
        remaining.pop(k)
    return None


def axis_omega(dense) -> float | None:
    """Smallest omega > 0 with an eigenvalue within AXIS_TOL of i omega."""
    on_axis = [m.imag for m in dense if abs(m.real) < AXIS_TOL and m.imag > AXIS_TOL]
    return min(on_axis) if on_axis else None


def min_gap(mus) -> float:
    mus = np.asarray(mus)
    diff = np.abs(mus[:, None] - mus[None, :])
    return float(np.min(diff[np.triu_indices(len(mus), 1)]))


def gap_tol(dense) -> float:
    return GAP_TOL_FACTOR * (1.0 + float(np.max(np.abs(dense))))


# -------------------------------------------------------------- phases


def sector(z: complex) -> str:
    """Quadrant 1-4 of z by atan2, or the axis angle label on the axis."""
    if z.real == 0.0:
        return "pi/2" if z.imag > 0 else "3pi/2"
    angle = math.atan2(z.imag, z.real) % TWO_PI
    return str(int(angle // (math.pi / 2)) + 1)


def expected_theta(a, b, omega) -> list[float]:
    return [(TWO_PI - cmath.phase((1j * omega - aj) / bj) % TWO_PI) % TWO_PI for aj, bj in zip(a, b)]


def circular_distance(x: float, y: float) -> float:
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


def theta_mismatch(theta, quadrants, a, b, omega) -> str | None:
    """theta_j against 2*pi - arg((i w - a_j)/b_j), the sum mod 2*pi, and labels."""
    want = expected_theta(a, b, omega)
    worst = max(circular_distance(t, w) for t, w in zip(theta, want))
    if not worst < 1e-9:
        return f"theta off by {worst:.2e}"
    total = sum(theta) % TWO_PI
    if not min(total, TWO_PI - total) < 1e-8 * len(theta):
        return f"theta sums to {total:.3e} mod 2pi"
    labels = [sector((1j * omega - aj) / bj) for aj, bj in zip(a, b)]
    if list(quadrants) != labels:
        return f"quadrants {list(quadrants)} != atan2 labels {labels}"
    return None


def case_label(a) -> str | None:
    """Case A (all a_j < 0) or B (one a_j > 0); None where n_pos >= 2."""
    positives = sum(1 for v in a if v > 0)
    return {0: "A", 1: "B"}.get(positives)


# --------------------------------------------------------------- cycles


def critical_vector(a, b, omega) -> np.ndarray:
    u = [1.0 + 0.0j]
    for j in range(len(a) - 1):
        u.append(u[-1] * (1j * omega - a[j]) / b[j])
    return np.array(u)


def measure(times, states, min_cycles=MEASURE_CYCLES) -> dict | None:
    """Period from node 1's upward mean crossings, phases from Fourier coefficients.

    The same definition the program documents, written apart from it:
    the period is the mean of the last `min_cycles` crossing intervals,
    the window the last whole number of those periods on the grid.
    """
    dev = states[:, 0] - states[:, 0].mean()
    s0, s1 = dev[:-1], dev[1:]
    idx = np.nonzero((s0 < 0) & (s1 >= 0))[0]
    crossings = times[idx] + (-s0[idx] / (s1[idx] - s0[idx])) * (times[idx + 1] - times[idx])
    if len(crossings) < min_cycles + 1:
        return None
    period = float(np.mean(np.diff(crossings[-(min_cycles + 1):])))
    h = times[1] - times[0]
    cycles = min(min_cycles, int((times[-1] - times[0]) / period))
    steps = min(int(round(cycles * period / h)), len(times) - 1)
    t, x = times[-(steps + 1):], states[-(steps + 1):]
    weight = np.exp(-1j * (TWO_PI / period) * t)
    coeffs = [2.0 / (t[-1] - t[0]) * np.trapezoid(x[:, j] * weight, t) for j in range(x.shape[1])]
    n = len(coeffs)
    diffs = [cmath.phase(coeffs[j] / coeffs[(j + 1) % n]) % TWO_PI for j in range(n)]
    return {"period": period, "phase_diffs": diffs}


def reference_cycle(lam: float, settle: float, h: float | None = None, extra_cycles: int = 0) -> dict | None:
    """DOP853 (rtol 1e-10) from the program's initial state, sampled on its grid.

    The program starts from 0.1 sqrt(|lam|) Re u, u the critical
    eigenvector with u_1 = 1, steps h (default (2 pi / omega) / 4000) to
    settle + (measure_cycles + 2) * 2 pi / omega and measures the tail.
    `extra_cycles` lengthens the tail, for hunts whose tail is too short
    to hold the cycles the measurement needs.
    """
    from scipy.integrate import solve_ivp

    a, b, g = REFERENCE_A, REFERENCE_B, np.array(REFERENCE_CUBIC)
    omega = axis_omega(dense_eigvals(a, b))
    if h is None:
        h = (TWO_PI / omega) / STEPS_PER_PERIOD
    measure_time = (MEASURE_CYCLES + 2 + extra_cycles) * TWO_PI / omega
    n_steps = int(round((settle + measure_time) / h))
    keep = int(round(measure_time / h)) + 1
    times = h * np.arange(n_steps + 1)
    x0 = 0.1 * math.sqrt(abs(lam)) * critical_vector(a, b, omega).real
    shifted = np.array(a) + lam
    coupling = np.array(b)

    def rhs(_t, x):
        return shifted * x + coupling * np.roll(x, -1) + g * x**3

    sol = solve_ivp(
        rhs, (0.0, times[-1]), x0, method="DOP853", rtol=1e-10, atol=1e-12,
        t_eval=times[-keep:],
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 failed at lambda={lam}: {sol.message}")
    return measure(sol.t, sol.y.T)
