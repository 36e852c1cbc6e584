"""ODE integration near a Hopf point and limit-cycle phase measurement.

The integrator is classical fixed-step RK4: trajectories here are smooth,
low-dimensional and long (the cycle attracts only at rate 2|lambda| near
the Hopf point), and a fixed grid makes the Fourier windows an exact number
of steps. Node j reads only x_j and x_{j+1}, so the whole step loop for a
ring of n nodes is generated as straight-line Python source over local
floats, compiled, and cached by n and by which couplings b_j and cubic
coefficients g_j are exactly 1.0 or -1.0. Those are folded in as signs,
which changes no bit; the other coefficients are arguments, so one kernel
serves every lam. A step makes no function call and builds no list; one
run takes a hunt through its unstored settle and its tail, and one more
each continuation. README gives the measured cost of a step.
Phase differences are measured from the fundamental Fourier coefficients
c_j over a window of whole periods; the reported Delta_j = arg(c_j / c_{j+1})
uses the same orientation as the predicted phase shifts (node j relative
to node j+1).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .model import AdmissibleOdeFamily, Record
from .phases import PhaseProfile
from .spectra import eigenvalues, eigenvector_for

TWO_PI = 2 * math.pi
DIVERGENCE_NORM = 1e6
DEFAULT_STEPS_PER_PERIOD = 4000
MEASURE_CYCLES = 10  # periods averaged, and the Fourier window, of a measurement
AMPLITUDE_FLOOR = 1e-6  # node 1 must swing more than this to count as a cycle
# find_limit_cycle lengthens a tail that holds too few cycles by at most
# this many predicted periods: enough, at MEASURE_CYCLES, for a true period
# about twice the linear one
MAX_EXTRA_PERIODS = 12
PERIOD_TOL = 0.01  # largest spread of the measured periods, relative to their mean


class DivergenceError(RuntimeError):
    """The trajectory left the integration domain or became non-finite (at RK4 step `step`)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


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


@functools.cache
def _compiled_kernel(n: int, units: tuple[str | None, ...]):
    """The RK4 step loop for rings of n nodes, compiled from generated source, with
    `units` ("+" for 1.0, "-" for -1.0, else None, over b_0.., g_0..) folded in.

    rk4(out, skip, stop, h, limit, x_0..x_{n-1}, a_0.., b_0.., g_0..) takes
    `skip` steps from x that store nothing, writes the state reached to
    out[0:n], steps on up to flat offset `stop` writing each state after it
    passes the divergence check, and returns 0, or the number (from x) of
    the step whose state left -limit <= x_j <= limit (NaN included). Each stage
    is `AdmissibleOdeFamily.vector_field` value for value, with +-1 coefficients
    folded in (its a_j + lam is the a_j passed in), and the update is
    x + (h/6)(((k1 + 2 k2) + 2 k3) + k4). The kernel is compiled once per n and
    per set of b_j and g_j that are exactly 1.0 or -1.0: b_j * y_{j+1} becomes
    +-y_{j+1} and + g_j * cube becomes +- cube, equal in IEEE arithmetic. a_j + lam
    is never folded, so one kernel serves every lam, nor is a zero, as 0 * v
    keeps the sign of v and 0 * inf is NaN.
    """
    namespace = {}
    exec(compile(_kernel_source(n, units), f"<rk4 kernel, n={n}>", "exec"), namespace)
    return namespace["rk4"]


def _kernel_source(n: int, units: tuple[str | None, ...]) -> str:
    """The text of `_compiled_kernel`'s rk4 with the signs in `units` (b_0.., g_0..) folded in."""
    nodes = range(n)

    def times(sign, c, v):
        return f"+ {c} * {v}" if sign is None else f"{sign} {v}"

    def stage(k, y):
        return [
            f"{k}_{j} = (a_{j} * {y}_{j} {times(units[j], f'b_{j}', f'{y}_{(j + 1) % n}')}) "
            f"{times(units[n + j], f'g_{j}', f'(({y}_{j} * {y}_{j}) * {y}_{j})')}"
            for j in nodes
        ]

    def move(step, k):
        return [f"y_{j} = x_{j} + {step} * {k}_{j}" for j in nodes]

    body = (
        stage("k1", "x") + move("half", "k1")
        + stage("k2", "y") + move("half", "k2")
        + stage("k3", "y") + move("h", "k3")
        + stage("k4", "y")
        + [f"x_{j} = x_{j} + sixth * (((k1_{j} + 2.0 * k2_{j}) + 2.0 * k3_{j}) + k4_{j})" for j in nodes]
        + ["if not (" + " and ".join(f"low <= x_{j} <= limit" for j in nodes) + "):"]
        + [f"    return skip + i // {n}"]
    )
    params = ", ".join(f"{v}_{j}" for v in "xabg" for j in nodes)
    return "\n".join(
        [
            f"def rk4(out, skip, stop, h, limit, {params}):",
            "    half = 0.5 * h",
            "    sixth = h / 6.0",
            "    low = -limit",
            f"    for i in range({n} - skip * {n}, {n}, {n}):",  # i // n + skip is the step
            *("        " + line for line in body),
            *(f"    out[{j}] = x_{j}" for j in nodes),
            f"    for i in range({n}, stop, {n}):",
            *("        " + line for line in body),
            *(f"        out[i + {j}] = x_{j}" for j in nodes),
            "    return 0",
        ]
    )


def _step_count(t_end: float, h: float, lam: float) -> int:
    for name, value in (("t_end", t_end), ("h", h), ("lam", lam)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if h <= 0 or t_end <= 0:
        raise ValueError(f"h and t_end must be positive, got h={h}, t_end={t_end}")
    if not t_end / h < 2**53:  # from there on, h*k no longer gives each step its own time
        raise ValueError(f"t_end={t_end} and h={h} give {t_end / h} steps")
    return int(round(t_end / h))


def _rk4(family: AdmissibleOdeFamily, x: np.ndarray, lam: float, h: float, skip: int, rows: int, first: int):
    """`rows` states one RK4 step apart, the first after `skip` unstored steps from x, step `first` of its run."""
    import numpy as np
    out = np.empty((rows, len(x)))
    units = tuple("+" if c == 1.0 else "-" if c == -1.0 else None for c in family.base.b + family.cubic)
    failed = _compiled_kernel(len(x), units)(
        memoryview(out.reshape(-1)), skip, out.size, float(h), DIVERGENCE_NORM,
        *x.tolist(), *(np.asarray(family.base.a) + lam).tolist(), *family.base.b, *family.cubic,
    )
    if failed:
        raise DivergenceError(f"trajectory diverged at t={(first + failed) * h:.6g}", first + failed)
    return out


def integrate(
    family: AdmissibleOdeFamily,
    x0,
    t_end: float,
    h: float,
    lam: float | None = None,
) -> Trajectory:
    """Classical RK4 with fixed step h from t=0 to (approximately) t_end."""
    import numpy as np
    if lam is None:
        lam = family.lam
    n_steps = _step_count(t_end, h, lam)
    n = family.base.n
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be a finite state of length {n}")
    states = _rk4(family, x, lam, h, 0, n_steps + 1, 0)
    return Trajectory(times=h * np.arange(n_steps + 1), states=states, lam=lam, step=h)


@dataclass(frozen=True)
class CycleMeasurement(Record):
    period: float
    fundamental_coeffs: tuple[complex, ...]
    amplitudes: tuple[float, ...]
    phase_diffs: tuple[float, ...]  # Delta_j = arg(c_j / c_{j+1}) in [0, 2*pi)
    lam: float
    step: float  # the RK4 step h of the measured trajectory


def _upward_crossings(times: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Linear-interpolated times where the signal crosses zero upward."""
    import numpy as np
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


def measure_cycle(traj: Trajectory, period_tol: float = PERIOD_TOL) -> CycleMeasurement:
    """Extract period, fundamental Fourier coefficients and phase differences.

    The period comes from successive upward zero crossings of node 1's
    deviation from its time mean, averaged over the trailing cycles; the
    Fourier window is the largest whole number of measured periods that
    fits on the grid.
    """
    import numpy as np
    dev, crossings = _node1_crossings(traj.times, traj.states)
    amplitude = np.abs(dev).max()
    if amplitude < AMPLITUDE_FLOOR:
        raise NoCycleError(
            f"no cycle: node-1 oscillation amplitude {amplitude:.3e} is below the floor "
            f"{AMPLITUDE_FLOOR:.0e} at lambda={traj.lam}"
        )
    if len(crossings) < MEASURE_CYCLES + 1:
        raise NoCycleError(
            f"no cycle: only {max(len(crossings) - 1, 0)} full cycles observed "
            f"({len(crossings)} upward crossings of node 1, {MEASURE_CYCLES + 1} needed) "
            f"at lambda={traj.lam}"
        )
    periods = np.diff(crossings[-(MEASURE_CYCLES + 1):])
    period = float(periods.mean())
    spread = float(periods.max() - periods.min())
    if not spread <= period_tol * period:
        raise NoCycleError(
            f"no cycle: period spread {spread:.3e} exceeds {period_tol} of "
            f"mean period {period:.6g} at lambda={traj.lam}"
        )
    cycles = min(MEASURE_CYCLES, int((traj.times[-1] - traj.times[0]) / period))
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
        step=traj.step,
    )


def _critical_eigenvector(family: AdmissibleOdeFamily) -> tuple[tuple[complex, ...], float]:
    spectrum = eigenvalues(family.base)
    if spectrum.omega is None:
        raise NoCycleError(
            "the base ring has no imaginary eigenvalue pair; cannot seed a cycle hunt"
        )
    u = eigenvector_for(family.base, 1j * spectrum.omega)
    return u.entries, spectrum.omega


def find_limit_cycle(
    family: AdmissibleOdeFamily,
    lam: float,
    settle_time: float | None = None,
    tol: float = PERIOD_TOL,
    h: float | None = None,
) -> CycleMeasurement:
    """Integrate past the transient and measure the limit cycle at `lam`.

    The hunt starts from 0.1*sqrt(|lam|) times the real part of the
    critical eigenvector, close to the expected orbit. At lam = 0, the Hopf
    point, that seed is the equilibrium, so NoCycleError comes at once.
    One kernel run steps through the settle without storing it and stores
    the tail, MEASURE_CYCLES + 2 linear periods 2*pi/omega. The cubic
    lengthens the true period (12.7% on the reference ring at lam = 0.1), so
    a tail with fewer than MEASURE_CYCLES + 1 upward crossings of node 1 goes
    on one run at a time, in at most MAX_EXTRA_PERIODS whole linear periods.
    """
    import numpy as np
    if lam == 0:
        raise NoCycleError(
            f"no cycle: lambda={lam} is the Hopf point, where no cycle branches off "
            "and the seed 0.1*sqrt(|lambda|)*Re u is the equilibrium"
        )
    u, omega = _critical_eigenvector(family)
    period_pred = TWO_PI / omega
    if h is None:
        h = period_pred / DEFAULT_STEPS_PER_PERIOD
    if settle_time is None:
        settle_time = max(40 * period_pred, 4.0 / max(abs(lam), 1e-6))
    x0 = 0.1 * math.sqrt(abs(lam)) * np.array(u).real
    measure_time = (MEASURE_CYCLES + 2) * period_pred
    total = _step_count(settle_time + measure_time, h, lam)
    tail = _step_count(measure_time, h, lam)
    skip = max(total - tail, 0)  # a settle_time below 0 settles for none
    states = _rk4(family, x0, lam, h, skip, tail + 1, 0)
    times = h * np.arange(skip, skip + len(states))
    extra = 0
    while extra < MAX_EXTRA_PERIODS:
        missing = MEASURE_CYCLES + 1 - len(_node1_crossings(times, states)[1])
        if missing <= 0:
            break
        periods = min(missing + 1, MAX_EXTRA_PERIODS - extra)
        steps = _step_count(periods * period_pred, h, lam)
        more = _rk4(family, states[-1], lam, h, 0, steps + 1, skip + len(states) - 1)
        times = np.concatenate((times, times[-1] + h * np.arange(1, steps + 1)))
        states = np.concatenate((states, more[1:]))
        extra += periods
    return measure_cycle(Trajectory(times=times, states=states, lam=lam, step=h), period_tol=tol)


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
class PhaseComparison(Record):
    distances: tuple[float, ...]
    max_distance: float
    mean_distance: float


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
