"""ODE integration near a Hopf point and limit-cycle phase measurement.

The integrator is classical fixed-step RK4: trajectories here are smooth,
low-dimensional and short, and a fixed grid makes the Fourier windows an
exact number of steps. Each step runs on Python floats, not numpy arrays:
at the ring sizes simulated here a numpy call costs more than the
arithmetic it does. One step of a 3-node ring takes about 9 us on floats
against 33-36 us on arrays of length 3; the float step grows by about
1.4 us per node and costs as much as the array step near n = 30 (between
25 and 40 over repeated runs on a shared 2-core x86-64 machine, numpy 2.4,
CPython 3.11). Phase differences are measured from the fundamental
Fourier coefficients c_j over a window of whole periods; the reported
Delta_j = arg(c_j / c_{j+1}) uses the same orientation as the predicted
phase shifts (node j relative to node j+1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import AdmissibleOdeFamily
from .phases import PhaseProfile
from .spectra import eigenvalues, eigenvector_for

TWO_PI = 2 * math.pi
DIVERGENCE_NORM = 1e6
DEFAULT_STEPS_PER_PERIOD = 4000
# find_limit_cycle lengthens a tail that holds too few cycles by at most
# this many predicted periods: enough, at the default measure_cycles, for
# a true period about twice the linear one
MAX_EXTRA_PERIODS = 12


class DivergenceError(RuntimeError):
    """The trajectory left the integration domain or became non-finite."""


class NoCycleError(RuntimeError):
    """No limit cycle was found; the message carries the diagnostic."""


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    lam: float
    step: float

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def integrate(
    family: AdmissibleOdeFamily,
    x0,
    t_end: float,
    h: float,
    lam: float | None = None,
) -> Trajectory:
    """Classical RK4 with fixed step h from t=0 to (approximately) t_end."""
    if h <= 0 or t_end <= 0:
        raise ValueError("h and t_end must be positive")
    if lam is None:
        lam = family.lam
    n = family.base.n
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite state of length {n}")
    n_steps = int(round(t_end / h))
    coef = list(zip((np.asarray(family.base.a) + lam).tolist(), family.base.b, family.cubic))

    def rhs(y):
        return [
            (aj * yj + bj * yk) + gj * yj**3
            for (aj, bj, gj), yj, yk in zip(coef, y, y[1:] + y[:1])
        ]

    half, sixth = 0.5 * h, h / 6.0
    states = np.empty((n_steps + 1, n))
    states[0] = x
    out = memoryview(states.reshape(-1))
    k = n
    x = x.tolist()
    try:
        for i in range(n_steps):
            k1 = rhs(x)
            k2 = rhs([xj + half * kj for xj, kj in zip(x, k1)])
            k3 = rhs([xj + half * kj for xj, kj in zip(x, k2)])
            k4 = rhs([xj + h * kj for xj, kj in zip(x, k3)])
            x = [
                xj + sixth * (((q1 + 2 * q2) + 2 * q3) + q4)
                for xj, q1, q2, q3, q4 in zip(x, k1, k2, k3, k4)
            ]
            for v in x:
                if not abs(v) <= DIVERGENCE_NORM:  # NaN fails too
                    raise OverflowError
                out[k] = v
                k += 1
    except OverflowError:
        # also raised by float ** when the cube of a stage value overflows
        raise DivergenceError(f"trajectory diverged at t={(i + 1) * h:.6g}") from None
    times = h * np.arange(n_steps + 1)
    return Trajectory(times=times, states=states, lam=lam, step=h)


@dataclass(frozen=True)
class CycleMeasurement:
    period: float
    fundamental_coeffs: tuple[complex, ...]
    amplitudes: tuple[float, ...]
    phase_diffs: tuple[float, ...]  # Delta_j = arg(c_j / c_{j+1}) in [0, 2*pi)
    lam: float

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "fundamental_coeffs": [[c.real, c.imag] for c in self.fundamental_coeffs],
            "amplitudes": list(self.amplitudes),
            "phase_diffs": list(self.phase_diffs),
            "lambda": self.lam,
        }


def _upward_crossings(times: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Linear-interpolated times where the signal crosses zero upward."""
    s0, s1 = signal[:-1], signal[1:]
    mask = (s0 < 0) & (s1 >= 0)
    i = np.nonzero(mask)[0]
    frac = -s0[i] / (s1[i] - s0[i])
    return times[i] + frac * (times[i + 1] - times[i])


def _node1_crossings(times: np.ndarray, states: np.ndarray):
    """Node 1's deviation from its time mean and that signal's upward crossings."""
    x1 = states[:, 0]
    dev = x1 - x1.mean()
    return dev, _upward_crossings(times, dev)


def measure_cycle(traj: Trajectory, min_cycles: int = 10, period_tol: float = 0.01) -> CycleMeasurement:
    """Extract period, fundamental Fourier coefficients and phase differences.

    The period comes from successive upward zero crossings of node 1's
    deviation from its time mean, averaged over the trailing cycles; the
    Fourier window is the largest whole number of measured periods that
    fits on the grid.
    """
    dev, crossings = _node1_crossings(traj.times, traj.states)
    amplitude = np.abs(dev).max()
    if amplitude < 1e-6:
        raise NoCycleError(
            f"no cycle: node-1 oscillation amplitude {amplitude:.3e} at "
            f"lambda={traj.lam}"
        )
    if len(crossings) < min_cycles + 1:
        raise NoCycleError(
            f"no cycle: only {max(len(crossings) - 1, 0)} full cycles observed "
            f"at lambda={traj.lam}"
        )
    periods = np.diff(crossings[-(min_cycles + 1):])
    period = float(periods.mean())
    spread = float(periods.max() - periods.min())
    if spread > period_tol * period:
        raise NoCycleError(
            f"no cycle: period spread {spread:.3e} exceeds {period_tol} of "
            f"mean period {period:.6g} at lambda={traj.lam}"
        )
    cycles = min(min_cycles, int((traj.times[-1] - traj.times[0]) / period))
    window_steps = int(round(cycles * period / traj.step))
    window_steps = min(window_steps, len(traj.times) - 1)
    t = traj.times[-(window_steps + 1):]
    x = traj.states[-(window_steps + 1):]
    weight = np.exp(-1j * (TWO_PI / period) * t)
    span = t[-1] - t[0]
    coeffs = [
        complex(2.0 / span * np.trapezoid(x[:, j] * weight, t))
        for j in range(x.shape[1])
    ]
    diffs = [
        cmath.phase(coeffs[j] / coeffs[(j + 1) % len(coeffs)]) % TWO_PI
        for j in range(len(coeffs))
    ]
    return CycleMeasurement(
        period=period,
        fundamental_coeffs=tuple(coeffs),
        amplitudes=tuple(abs(c) for c in coeffs),
        phase_diffs=tuple(diffs),
        lam=traj.lam,
    )


def _critical_eigenvector(family: AdmissibleOdeFamily) -> tuple[np.ndarray, float]:
    spectrum = eigenvalues(family.base)
    if spectrum.omega is None:
        raise NoCycleError(
            "the base ring has no imaginary eigenvalue pair; cannot seed a cycle hunt"
        )
    u = eigenvector_for(family.base, 1j * spectrum.omega)
    return np.array(u.entries), spectrum.omega


def find_limit_cycle(
    family: AdmissibleOdeFamily,
    lam: float,
    settle_time: float | None = None,
    tol: float = 0.01,
    h: float | None = None,
    x0=None,
    measure_cycles: int = 10,
) -> CycleMeasurement:
    """Integrate past the transient and measure the limit cycle at `lam`.

    The initial condition defaults to 0.1*sqrt(|lam|) times the real part
    of the critical eigenvector, which starts close to the expected orbit.
    The measured tail spans measure_cycles + 2 linear periods 2*pi/omega.
    The cubic lengthens the true period (by 12.7% on the reference ring at
    lam = 0.1), so when the tail holds fewer than measure_cycles + 1 upward
    crossings of node 1 the integration goes on in whole linear periods,
    at most MAX_EXTRA_PERIODS of them, and the longer tail is measured.
    """
    u, omega = _critical_eigenvector(family)
    period_pred = TWO_PI / omega
    if h is None:
        h = period_pred / DEFAULT_STEPS_PER_PERIOD
    if settle_time is None:
        settle_time = max(40 * period_pred, 4.0 / max(abs(lam), 1e-6))
    if x0 is None:
        x0 = 0.1 * math.sqrt(abs(lam)) * u.real
    measure_time = (measure_cycles + 2) * period_pred
    traj = integrate(family, x0, settle_time + measure_time, h, lam=lam)
    keep = int(round(measure_time / h)) + 1
    times, states = traj.times[-keep:], traj.states[-keep:]
    extra = 0
    while extra < MAX_EXTRA_PERIODS:
        missing = measure_cycles + 1 - len(_node1_crossings(times, states)[1])
        if missing <= 0:
            break
        periods = min(missing + 1, MAX_EXTRA_PERIODS - extra)
        more = integrate(family, states[-1], periods * period_pred, h, lam=lam)
        times = np.concatenate((times, times[-1] + more.times[1:]))
        states = np.concatenate((states, more.states[1:]))
        extra += periods
    tail = Trajectory(times=times, states=states, lam=lam, step=h)
    return measure_cycle(tail, min_cycles=measure_cycles, period_tol=tol)


@dataclass(frozen=True)
class SweepRow:
    lam: float
    measurement: CycleMeasurement | None
    diagnostic: str | None


def branch_sweep(family: AdmissibleOdeFamily, lambdas, **kwargs) -> list[SweepRow]:
    """find_limit_cycle at each lambda; per-lambda failures become diagnostics."""
    rows = []
    for lam in sorted(lambdas):
        try:
            m = find_limit_cycle(family, lam, **kwargs)
            rows.append(SweepRow(lam=lam, measurement=m, diagnostic=None))
        except (NoCycleError, DivergenceError) as exc:
            rows.append(SweepRow(lam=lam, measurement=None, diagnostic=str(exc)))
    return rows


@dataclass(frozen=True)
class PhaseComparison:
    distances: tuple[float, ...]
    max_distance: float
    mean_distance: float

    def to_dict(self) -> dict:
        return {
            "distances": list(self.distances),
            "max_distance": self.max_distance,
            "mean_distance": self.mean_distance,
        }


def circular_distance(x: float, y: float) -> float:
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


def compare_predicted(measurement: CycleMeasurement, profile: PhaseProfile) -> PhaseComparison:
    """Per-edge circular distance between measured and predicted phase shifts."""
    if len(measurement.phase_diffs) != len(profile.theta):
        raise ValueError("measurement and profile have different ring sizes")
    d = tuple(
        circular_distance(m, p)
        for m, p in zip(measurement.phase_diffs, profile.theta)
    )
    return PhaseComparison(
        distances=d,
        max_distance=max(d),
        mean_distance=sum(d) / len(d),
    )
