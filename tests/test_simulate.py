"""Tests for RK4 integration, cycle measurement and phase comparison."""

import hashlib
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


def test_step_count_stops_below_2_to_the_53():
    # from 2**53 steps on, h*k no longer gives each step its own time
    assert simulate._step_count(2.0**53 - 1, 1.0, 0.0) == 2**53 - 1
    with pytest.raises(ValueError, match=r"^t_end=9007199254740992\.0 and h=1\.0 give 9007199254740992\.0 steps$"):
        simulate._step_count(2.0**53, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"^t_end=326\.7 and h=1e-300 give 3\.26\d*e\+302 steps$"):
        simulate._step_count(326.7, 1e-300, 0.1)


def test_find_limit_cycle_rejects_a_step_too_small_for_its_settle():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    with pytest.raises(ValueError, match=r"^t_end=326\.7\d* and h=1e-300 give 3\.26\d*e\+302 steps$"):
        find_limit_cycle(fam, 0.1, h=1e-300)


def test_integrate_preserves_origin():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, lam=0.05)
    traj = integrate(fam, np.zeros(3), t_end=1.0, h=0.01)
    assert np.all(traj.states == 0.0)


def _unit_families(n, rng):
    """Families whose b_j and cubic_j run through 1.0, -1.0, 0.0, -0.0 and a generic value from
    two starts, and one with the default cubic: the kernel folds the +-1.0 and must not fold the
    zeros. Each has a zero coupling and every a_j <= -0.5, so a cubic of +1.0 stays in range."""

    def coefficients(start, low, high):
        return tuple((1.0, -1.0, 0.0, -0.0, rng.uniform(low, high))[(start + j) % 5] for j in range(n))

    families = [
        AdmissibleOdeFamily(
            RingParams(n, tuple(rng.uniform(-1.5, -0.5, n)), coefficients(start, -1.0, 1.0)),
            cubic=coefficients(start + 1, -1.5, -0.5),
        )
        for start in (0, 3)
    ]
    ring = RingParams(n, tuple(rng.uniform(-1.5, -0.5, n)), coefficients(2, -1.0, 1.0))
    return families + [AdmissibleOdeFamily(ring)]


@pytest.mark.parametrize("n", [3, 7, 40])
def test_integrate_matches_numpy_rk4_bitwise(n):
    rng = np.random.default_rng(n)
    ring = RingParams(n, tuple(rng.uniform(-1.0, 0.5, n)), tuple(rng.uniform(-1.0, 1.0, n)))
    fam = AdmissibleOdeFamily(ring, cubic=tuple(rng.uniform(-1.5, -0.5, n)))
    units = np.random.default_rng(300 + n)
    for fam, x0 in [(fam, rng.uniform(-0.8, 0.8, n))] + [
        (unit, units.uniform(-0.3, 0.3, n)) for unit in _unit_families(n, units)
    ]:
        traj = integrate(fam, x0, t_end=5.0, h=0.01, lam=0.07)
        ref = oracles.rk4_states(fam.base.a, fam.base.b, fam.cubic, 0.07, x0, 0.01, 500)
        assert traj.states.shape == ref.shape
        assert np.array_equal(traj.states, ref)


@pytest.mark.parametrize("n", [3, 4, 7, 40])
def test_integrate_matches_numpy_rk4_bitwise_per_family(n):
    # families of one size in a row: the kernel run for that size must take each
    # family's coefficients and its own pattern of +-1.0, not keep the first one's
    rng, units = np.random.default_rng(100 + n), np.random.default_rng(400 + n)
    for lam in (0.07, -0.3):
        ring = RingParams(n, tuple(rng.uniform(-1.0, 0.5, n)), tuple(rng.uniform(-1.0, 1.0, n)))
        fam = AdmissibleOdeFamily(ring, cubic=tuple(rng.uniform(-1.5, -0.5, n)))
        for fam, x0 in [(fam, rng.uniform(-0.8, 0.8, n))] + [
            (unit, units.uniform(-0.3, 0.3, n)) for unit in _unit_families(n, units)
        ]:
            traj = integrate(fam, x0, t_end=2.0, h=0.01, lam=lam)
            ref = oracles.rk4_states(fam.base.a, fam.base.b, fam.cubic, lam, x0, 0.01, 200)
            assert np.array_equal(traj.states, ref)


@pytest.mark.parametrize("n", [3, 7, 40])
def test_one_rk4_step_of_the_vector_field_is_the_kernel_step(n):
    # the kernel's stages are vector_field value for value, with +-1 coefficients
    # folded in, so one step assembled from it in numpy is the kernel's step bit
    # for bit; a step this long carries a last-bit difference in a stage into the
    # state, as when a cube came from numpy's `**` here and from C's pow there
    rng = np.random.default_rng(200 + n)
    ring = RingParams(n, tuple(rng.uniform(-1.0, 0.5, n)), tuple(rng.uniform(-1.0, 1.0, n)))
    fam = AdmissibleOdeFamily(ring, cubic=tuple(rng.uniform(-1.5, -0.5, n)))
    h, lam = 0.5, -0.3
    units = np.random.default_rng(500 + n)
    # states within 0.5: a cubic of +1.0 takes a state of 2 past DIVERGENCE_NORM in one such step
    for fam, xs in [(fam, rng.uniform(-2.0, 2.0, (50, n)))] + [
        (unit, units.uniform(-0.5, 0.5, (20, n))) for unit in _unit_families(n, units)
    ]:
        for x in xs:
            k1 = fam.vector_field(x, lam)
            k2 = fam.vector_field(x + 0.5 * h * k1, lam)
            k3 = fam.vector_field(x + 0.5 * h * k2, lam)
            k4 = fam.vector_field(x + h * k3, lam)
            step = x + (h / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
            assert np.array_equal(integrate(fam, x, h, h, lam).states[1], step)


def test_one_kernel_per_unit_pattern_and_the_unfolded_text_without_units(monkeypatch):
    # a_j + lam is an argument, never folded, so a sweep over lambda compiles one kernel;
    # a family with no coefficient of +-1.0 gets the kernel text from before folding
    sources, source = [], simulate._kernel_source
    monkeypatch.setattr(simulate, "_kernel_source", lambda n, units: sources.append(source(n, units)) or sources[-1])
    simulate._compiled_kernel.cache_clear()
    rows = branch_sweep(AdmissibleOdeFamily(oracles.REFERENCE_RING), [-0.1, 0.05, 0.1, 0.2], settle_time=10.0, h=0.05)
    assert len(rows) == 4 and len(sources) == 1
    assert "k1_0 = (a_0 * x_0 + x_1) - ((x_0 * x_0) * x_0)" in sources[0]
    assert "k1_2 = (a_2 * x_2 + b_2 * x_0) - ((x_2 * x_2) * x_2)" in sources[0]
    ring = RingParams(3, (1.0, -2.0, -3.0), (1.5, -0.0, -10.0))
    integrate(AdmissibleOdeFamily(ring, cubic=(0.0, -1.5, -0.5)), np.ones(3), 1.0, 0.01, lam=0.1)
    assert len(sources) == 2
    assert "k1_1 = (a_1 * x_1 + b_1 * x_2) + g_1 * ((x_1 * x_1) * x_1)" in sources[1]
    # sha256 of the n = 3 kernel text before +-1 coefficients were folded in
    digest = "5eb3086b6f1204853a0e33b273f10ffe1e2164e4ea8ca8f18a216d16be02835b"
    assert hashlib.sha256(sources[1].encode()).hexdigest() == digest


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
    monkeypatch.setattr(simulate, "_rk4", _refuse_integration)
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
    stored, rk4 = [], simulate._rk4

    def spy(family, x, lam, h, skip, rows, first):
        stored.append(rows)
        return rk4(family, x, lam, h, skip, rows, first)

    monkeypatch.setattr(simulate, "_rk4", spy)
    got = find_limit_cycle(fam, lam, settle_time=settle_time)
    assert repr(got) == repr(want)
    # the kernel stores the tail and its continuations, never the settle
    period = TWO_PI / eigenvalues(fam.base).omega
    assert stored and max(stored) - 1 <= (MEASURE_CYCLES + 2 + MAX_EXTRA_PERIODS) * period / h
    assert stored[0] == keep


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
    # any state has left DIVERGENCE_NORM; the product is inf, not an error,
    # and the state after that step is not finite
    lam = 1.0
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, cubic=(10.0, 10.0, 10.0))
    h, x0, measure_time = _hunt_start(fam, lam)
    ring = fam.base
    with np.errstate(over="ignore", invalid="ignore"):
        states = oracles.rk4_states(ring.a, ring.b, fam.cubic, lam, x0, h, 261)
    assert np.all(np.abs(states[:261]) <= DIVERGENCE_NORM)
    assert not np.all(np.isfinite(states[261]))
    with pytest.raises(DivergenceError) as whole:
        integrate(fam, x0, 30.0 + measure_time, h, lam=lam)
    with pytest.raises(DivergenceError) as hunt:
        find_limit_cycle(fam, lam, settle_time=30.0)
    assert hunt.value.step == whole.value.step == 261
    assert str(hunt.value) == str(whole.value) == f"trajectory diverged at t={261 * h:.6g}"


def test_hunt_divergence_in_a_continuation_is_timed_from_the_seed(monkeypatch):
    # the default hunt at lambda = 0.1 stores its 48,000-step tail after 160,000 settle steps,
    # then goes on for 8,000 steps: a failure at step 5 of those is step 208,005 of the hunt
    kernel = simulate._compiled_kernel

    def fail_the_continuation(n, units):
        def rk4(out, skip, stop, *args):
            return 5 if (skip, stop) == (0, n * 8001) else kernel(n, units)(out, skip, stop, *args)
        return rk4

    monkeypatch.setattr(simulate, "_compiled_kernel", fail_the_continuation)
    with pytest.raises(DivergenceError) as hunt:
        find_limit_cycle(AdmissibleOdeFamily(oracles.REFERENCE_RING), 0.1)
    assert (hunt.value.step, str(hunt.value)) == (208_005, "trajectory diverged at t=326.733")


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except (NoCycleError, DivergenceError) as exc:
        return repr(exc)


def test_negative_settle_time_settles_for_none():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    none = _outcome(find_limit_cycle, fam, 0.1, settle_time=0.0)
    assert _outcome(find_limit_cycle, fam, 0.1, settle_time=-5.0) == none


def _refuse_kernel(n, units):
    raise AssertionError("an RK4 kernel was asked for")


def test_hunt_at_the_hopf_point_takes_no_step(monkeypatch):
    # the settle goes straight to the kernel, past integrate
    monkeypatch.setattr(simulate, "_compiled_kernel", _refuse_kernel)
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    with pytest.raises(NoCycleError, match=r"lambda=0\.0 is the Hopf point"):
        find_limit_cycle(fam, 0.0)
    rows = branch_sweep(fam, [0.0])
    assert "lambda=0.0 is the Hopf point" in rows[0].diagnostic
    # and the fake stands where a step would ask for its kernel
    with pytest.raises(AssertionError, match="an RK4 kernel was asked for"):
        find_limit_cycle(fam, 0.1)


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
