"""Tests for RK4 integration, cycle measurement and phase comparison."""

import math
import re

import numpy as np
import pytest

import oracles
from ringhopf import simulate
from ringhopf.model import AdmissibleOdeFamily, RingParams
from ringhopf.phases import phase_shifts
from ringhopf.simulate import (
    DEFAULT_STEPS_PER_PERIOD,
    DIVERGENCE_NORM,
    MAX_EXTRA_PERIODS,
    MEASURE_CYCLES,
    DivergenceError,
    NoCycleError,
    Trajectory,
    branch_sweep,
    circular_distance,
    compare_predicted,
    find_limit_cycle,
    integrate,
    measure_cycle,
)
from ringhopf.spectra import eigenvalues, eigenvector_for

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def reference_cycle():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    return find_limit_cycle(fam, 0.1, settle_time=150.0)


def test_integrate_validates_arguments():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    with pytest.raises(ValueError):
        integrate(fam, np.zeros(3), t_end=1.0, h=0.0)
    with pytest.raises(ValueError):
        integrate(fam, np.zeros(3), t_end=-1.0, h=0.01)
    with pytest.raises(ValueError):
        integrate(fam, np.zeros(2), t_end=1.0, h=0.01)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("t_end", {"t_end": math.inf}),
        ("t_end", {"t_end": math.nan}),
        ("h", {"h": math.inf}),
        ("h", {"h": math.nan}),
        ("lam", {"lam": math.nan}),
        ("lam", {"lam": -math.inf}),
    ],
)
def test_integrate_rejects_non_finite_arguments(name, kwargs):
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    args = {"t_end": 1.0, "h": 0.01, **kwargs}
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {kwargs[name]}$"):
        integrate(fam, np.zeros(3), **args)


def test_integrate_rejects_overflowing_step_count():
    # both arguments are finite, but t_end / h is not
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    with pytest.raises(ValueError, match=r"^t_end=1e\+308 and h=1e-10 give inf steps$"):
        integrate(fam, np.zeros(3), t_end=1e308, h=1e-10)


def test_integrate_preserves_origin():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, lam=0.05)
    traj = integrate(fam, np.zeros(3), t_end=1.0, h=0.01)
    assert np.all(traj.states == 0.0)


@pytest.mark.parametrize("n", [3, 7])
def test_integrate_matches_numpy_rk4_bitwise(n):
    rng = np.random.default_rng(n)
    ring = RingParams(n, tuple(rng.uniform(-1.0, 0.5, n)), tuple(rng.uniform(-1.0, 1.0, n)))
    fam = AdmissibleOdeFamily(ring, cubic=tuple(rng.uniform(-1.5, -0.5, n)))
    x0 = rng.uniform(-0.8, 0.8, n)
    traj = integrate(fam, x0, t_end=5.0, h=0.01, lam=0.07)
    ref = oracles.rk4_states(ring.a, ring.b, fam.cubic, 0.07, x0, 0.01, 500)
    assert traj.states.shape == ref.shape
    assert np.array_equal(traj.states, ref)


@pytest.mark.parametrize("n", [4, 40])
def test_integrate_matches_numpy_rk4_bitwise_per_family(n):
    # two families of one size in a row: the kernel compiled for that size
    # must take each family's coefficients, not keep the first one's
    rng = np.random.default_rng(100 + n)
    for lam in (0.07, -0.3):
        ring = RingParams(n, tuple(rng.uniform(-1.0, 0.5, n)), tuple(rng.uniform(-1.0, 1.0, n)))
        fam = AdmissibleOdeFamily(ring, cubic=tuple(rng.uniform(-1.5, -0.5, n)))
        x0 = rng.uniform(-0.8, 0.8, n)
        traj = integrate(fam, x0, t_end=2.0, h=0.01, lam=lam)
        ref = oracles.rk4_states(ring.a, ring.b, fam.cubic, lam, x0, 0.01, 200)
        assert np.array_equal(traj.states, ref)


def test_late_divergence_names_first_flagged_step():
    # linear growth at rates 0.1-0.6 until the weak cubics saturate the
    # nodes near 4e6: the state first leaves DIVERGENCE_NORM hundreds of
    # steps in, and every cube stays finite
    ring = RingParams(4, (0.3, -0.2, 0.4, 0.1), (0.5, -0.4, 0.6, 0.3))
    fam = AdmissibleOdeFamily(ring, cubic=(-1e-13, -2e-13, -5e-14, -1e-13))
    x0, h, n_steps = np.array([0.1, -0.2, 0.3, 0.05]), 0.05, 1200
    ref = oracles.rk4_states(ring.a, ring.b, fam.cubic, 0.2, x0, h, n_steps)
    flagged = np.nonzero(~(np.abs(ref) <= DIVERGENCE_NORM).all(axis=1))[0]
    i = flagged[0] - 1  # row i + 1 holds the state after step i
    assert i >= 100
    t = re.escape(f"{(i + 1) * h:.6g}")
    with pytest.raises(DivergenceError, match=rf"diverged at t={t}$"):
        integrate(fam, x0, t_end=n_steps * h, h=h, lam=0.2)


@pytest.mark.parametrize(
    "ring, cubic, x0",
    [
        # the cube of a stage value overflows
        (oracles.REFERENCE_RING, (-1.0, -1.0, -1.0), (1e100, -1e100, 1e100)),
        # a coupling term overflows to inf, and 0 * inf gives NaN
        (RingParams(3, (0.0, 0.0, 0.0), (1e300, 1e300, 1e300)), (0.0, 0.0, 0.0), (1e10, 1e10, 1e10)),
    ],
)
def test_overflowing_step_diverges_at_first_step(ring, cubic, x0):
    fam = AdmissibleOdeFamily(ring, cubic=cubic)
    with pytest.raises(DivergenceError, match=r"diverged at t=0\.5$"):
        integrate(fam, np.array(x0), t_end=5.0, h=0.5)


def test_rk4_is_fourth_order():
    # halving h cuts the endpoint error against the exact linear flow ~16x
    from scipy.linalg import expm

    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, cubic=(0.0, 0.0, 0.0))
    x0 = np.array([0.3, -0.2, 0.5])
    t_end = 1.0
    exact = expm(fam.jacobian(0.0) * t_end) @ x0
    errors = []
    for h in (0.02, 0.01):
        traj = integrate(fam, x0, t_end=t_end, h=h, lam=0.0)
        errors.append(np.abs(traj.states[-1] - exact).max())
    ratio = errors[0] / errors[1]
    assert 11.0 < ratio < 22.0


def test_linear_center_rotation_period_and_phases():
    # on the center eigenspace of the linear family the orbit is exactly
    # periodic with period 2*pi and the measured phase differences match
    # the predicted shifts
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, cubic=(0.0, 0.0, 0.0))
    u = np.array(eigenvector_for(oracles.REFERENCE_RING, 1j).entries)
    h = TWO_PI / 4000
    traj = integrate(fam, 0.2 * u.real, t_end=12.5 * TWO_PI, h=h, lam=0.0)
    m = measure_cycle(traj)
    assert m.period == pytest.approx(TWO_PI, abs=1e-6)
    profile = phase_shifts(oracles.REFERENCE_RING, 1.0)
    for got, want in zip(m.phase_diffs, profile.theta):
        assert circular_distance(got, want) < 1e-4
    # amplitude stays constant: no drift between early and late cycles
    steps_per_period = int(round(TWO_PI / h))
    early = np.abs(traj.states[:steps_per_period, 0]).max()
    late = np.abs(traj.states[-steps_per_period:, 0]).max()
    assert abs(early - late) < 1e-6


def test_measure_cycle_rejects_flat_signal():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    traj = integrate(fam, np.zeros(3), t_end=10.0, h=0.01)
    with pytest.raises(NoCycleError, match="amplitude"):
        measure_cycle(traj)


def test_decaying_side_has_no_cycle():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    with pytest.raises(NoCycleError):
        find_limit_cycle(fam, -0.1, settle_time=80.0)


def _refuse_integration(*args, **kwargs):
    raise AssertionError("integrate was called")


def test_hunt_at_the_hopf_point_raises_before_integrating(monkeypatch):
    # the default settle time at lambda = 0 is 4e6, about 2.5e9 RK4 steps,
    # and the default seed is the equilibrium: the hunt must not start
    monkeypatch.setattr(simulate, "integrate", _refuse_integration)
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    with pytest.raises(NoCycleError, match=r"lambda=0\.0 is the Hopf point"):
        find_limit_cycle(fam, 0.0)
    rows = branch_sweep(fam, [0.0])
    assert rows[0].measurement is None
    assert "lambda=0.0 is the Hopf point" in rows[0].diagnostic


def test_positive_cubic_diverges():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, cubic=(1.0, 1.0, 1.0))
    u = np.array(eigenvector_for(oracles.REFERENCE_RING, 1j).entries)
    with pytest.raises(DivergenceError):
        integrate(fam, 2.0 * u.real, t_end=200.0, h=0.01, lam=0.5)


def _hunt_start(family, lam):
    """The step, the seed and the tail length of a default-step hunt at lam."""
    omega = eigenvalues(family.base).omega
    u = np.array(eigenvector_for(family.base, 1j * omega).entries)
    period = TWO_PI / omega
    seed = 0.1 * math.sqrt(abs(lam)) * u.real
    return period / DEFAULT_STEPS_PER_PERIOD, seed, (MEASURE_CYCLES + 2) * period


@pytest.mark.parametrize("lam, settle_time", [(0.1, 30.0), (0.01, 40.0)])
def test_hunt_equals_the_tail_of_one_integration(monkeypatch, lam, settle_time):
    # the settle is stepped without storing and the tail integrated on from
    # the state it reached: the measurement must be the one taken on the last
    # rows of a single run from the seed, bit for bit
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    h, x0, measure_time = _hunt_start(fam, lam)
    full = integrate(fam, x0, settle_time + measure_time, h, lam=lam)
    keep = int(round(measure_time / h)) + 1
    want = measure_cycle(Trajectory(full.times[-keep:], full.states[-keep:], lam, h))
    asked = []

    def spy(family, x, t_end, step, lam=None):
        asked.append(t_end)
        return integrate(family, x, t_end, step, lam=lam)

    monkeypatch.setattr(simulate, "integrate", spy)
    got = find_limit_cycle(fam, lam, settle_time=settle_time)
    assert repr(got) == repr(want)
    # only the tail and its continuations go through integrate, never the settle
    period = TWO_PI / eigenvalues(fam.base).omega
    assert asked and max(asked) <= (MEASURE_CYCLES + 2 + MAX_EXTRA_PERIODS) * period


@pytest.mark.parametrize("settle_time", [30.0, 10.0])
def test_hunt_divergence_is_timed_from_the_seed(settle_time):
    # the growing family leaves DIVERGENCE_NORM at t = 18.36 from the seed:
    # in the settle for settle_time 30, in the tail for settle_time 10
    lam = 0.1
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, cubic=(1.0, 1.0, 1.0))
    h, x0, measure_time = _hunt_start(fam, lam)
    with pytest.raises(DivergenceError) as whole:
        integrate(fam, x0, settle_time + measure_time, h, lam=lam)
    with pytest.raises(DivergenceError) as hunt:
        find_limit_cycle(fam, lam, settle_time=settle_time)
    assert str(hunt.value) == str(whole.value) == "trajectory diverged at t=18.3563"
    assert hunt.value.step == whole.value.step


def test_hunt_divergence_by_an_overflowing_cube_in_the_settle():
    # a cube of a stage value overflows in step 261 of the settle before
    # any state has left DIVERGENCE_NORM
    lam = 1.0
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, cubic=(10.0, 10.0, 10.0))
    h, x0, measure_time = _hunt_start(fam, lam)
    ring = fam.base
    states = oracles.rk4_states(ring.a, ring.b, fam.cubic, lam, x0, h, 260)
    assert np.all(np.abs(states) <= DIVERGENCE_NORM)
    with pytest.raises(OverflowError):
        oracles.rk4_states(ring.a, ring.b, fam.cubic, lam, x0, h, 261)
    with pytest.raises(DivergenceError) as whole:
        integrate(fam, x0, 30.0 + measure_time, h, lam=lam)
    with pytest.raises(DivergenceError) as hunt:
        find_limit_cycle(fam, lam, settle_time=30.0)
    assert hunt.value.step == whole.value.step == 261
    assert str(hunt.value) == str(whole.value) == f"trajectory diverged at t={261 * h:.6g}"


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except (NoCycleError, DivergenceError) as exc:
        return repr(exc)


def test_negative_settle_time_settles_for_none():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    none = _outcome(find_limit_cycle, fam, 0.1, settle_time=0.0)
    assert _outcome(find_limit_cycle, fam, 0.1, settle_time=-5.0) == none


def _refuse_kernel(n):
    raise AssertionError("an RK4 kernel was asked for")


def test_hunt_at_the_hopf_point_takes_no_step(monkeypatch):
    # the settle goes straight to the kernel, past integrate
    monkeypatch.setattr(simulate, "_rk4_kernel", _refuse_kernel)
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    with pytest.raises(NoCycleError, match=r"lambda=0\.0 is the Hopf point"):
        find_limit_cycle(fam, 0.0)
    rows = branch_sweep(fam, [0.0])
    assert "lambda=0.0 is the Hopf point" in rows[0].diagnostic


def test_limit_cycle_period_near_hopf(reference_cycle):
    # the cubic shifts the frequency noticeably at lam = 0.1; the period
    # approaches 2*pi as lam decreases toward the Hopf point
    assert reference_cycle.period == pytest.approx(TWO_PI, rel=0.2)
    assert reference_cycle.lam == 0.1
    assert all(a > 0 for a in reference_cycle.amplitudes)


def test_cycle_measurement_records_step(reference_cycle):
    h = TWO_PI / DEFAULT_STEPS_PER_PERIOD  # omega = 1 on the reference ring
    assert reference_cycle.step == pytest.approx(h, rel=1e-12)
    assert reference_cycle.to_dict()["step"] == reference_cycle.step


def test_default_settle_hunt_finds_cycle(reference_cycle):
    # the cubic lengthens the period to 7.08 against the linear 2 pi, so
    # the tail sized from 2 pi holds 9 cycles until it is continued
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    m = find_limit_cycle(fam, 0.1)
    assert m.period == pytest.approx(reference_cycle.period, rel=1e-8)
    for got, want in zip(m.phase_diffs, reference_cycle.phase_diffs):
        assert circular_distance(got, want) < 1e-5


def test_limit_cycle_phases_match_prediction(reference_cycle):
    profile = phase_shifts(oracles.REFERENCE_RING, 1.0)
    comparison = compare_predicted(reference_cycle, profile)
    assert comparison.max_distance < 0.05 * TWO_PI


def test_phase_diffs_sum_to_zero(reference_cycle):
    total = sum(reference_cycle.phase_diffs) % TWO_PI
    assert min(total, TWO_PI - total) < 1e-9


def test_branch_sweep_collects_diagnostics():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    rows = branch_sweep(fam, [-0.05, 0.1], settle_time=120.0)
    assert rows[0].lam == -0.05
    assert rows[0].measurement is None
    assert "no cycle" in rows[0].diagnostic
    assert rows[1].measurement is not None
    assert rows[1].diagnostic is None


def test_compare_predicted_rejects_size_mismatch(reference_cycle):
    rng = np.random.default_rng(0)
    r, omega = oracles.construct_hopf_ring(4, rng)
    profile = phase_shifts(r, omega)
    with pytest.raises(ValueError):
        compare_predicted(reference_cycle, profile)


def test_circular_distance():
    assert circular_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert circular_distance(1.0, 1.0) == 0.0
    assert circular_distance(0.0, math.pi) == pytest.approx(math.pi)


def test_trajectory_steps():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    traj = integrate(fam, np.zeros(3), t_end=1.0, h=0.1)
    assert traj.steps == 10
    assert isinstance(traj, Trajectory)


def _chirp(rate: float) -> Trajectory:
    """Three nodes on sin(2 pi (0.15 t + rate t^2 / 2) - j): the period shrinks along the run."""
    t = np.linspace(0.0, 60.0, 60001)
    phase = TWO_PI * (0.15 * t + 0.5 * rate * t * t)
    states = np.stack([np.sin(phase - j) for j in range(3)], axis=1)
    return Trajectory(times=t, states=states, lam=0.1, step=float(t[1] - t[0]))


@pytest.mark.parametrize("period_tol", [0.01, math.nan])
def test_measure_cycle_rejects_a_chirp_whatever_the_tolerance(period_tol):
    # the spread is a third of the mean period; a NaN tolerance once let it through
    with pytest.raises(NoCycleError, match=r"^no cycle: period spread 1\.571e\+00 exceeds"):
        measure_cycle(_chirp(0.0025), period_tol=period_tol)


def test_no_cycle_messages_name_value_and_threshold():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    flat = integrate(fam, np.zeros(3), t_end=10.0, h=0.01)
    with pytest.raises(
        NoCycleError,
        match=r"^no cycle: node-1 oscillation amplitude 0\.000e\+00 is below the floor 1e-06 "
        r"at lambda=0\.0$",
    ):
        measure_cycle(flat)
    short = integrate(fam, [0.1, 0.0, 0.0], t_end=20.0, h=0.01, lam=0.1)
    with pytest.raises(
        NoCycleError,
        match=r"^no cycle: only 1 full cycles observed \(2 upward crossings of node 1, "
        r"11 needed\) at lambda=0\.1$",
    ):
        measure_cycle(short)


def test_find_limit_cycle_without_an_axis_pair_cannot_seed():
    family = AdmissibleOdeFamily(RingParams(3, (-1.0, -2.0, -3.0), (0.5, 0.5, 0.5)))
    with pytest.raises(NoCycleError, match=r"^the base ring has no imaginary eigenvalue pair; cannot seed"):
        find_limit_cycle(family, lam=0.1)
