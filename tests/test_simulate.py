"""Tests for RK4 integration, cycle measurement and phase comparison."""

import math

import numpy as np
import pytest

import oracles
from ringhopf.model import AdmissibleOdeFamily, RingParams
from ringhopf.phases import phase_shifts
from ringhopf.simulate import (
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
from ringhopf.spectra import eigenvector_for

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


def test_positive_cubic_diverges():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING, cubic=(1.0, 1.0, 1.0))
    u = np.array(eigenvector_for(oracles.REFERENCE_RING, 1j).entries)
    with pytest.raises(DivergenceError):
        integrate(fam, 2.0 * u.real, t_end=200.0, h=0.01, lam=0.5)


def test_limit_cycle_period_near_hopf(reference_cycle):
    # the cubic shifts the frequency noticeably at lam = 0.1; the period
    # approaches 2*pi as lam decreases toward the Hopf point
    assert reference_cycle.period == pytest.approx(TWO_PI, rel=0.2)
    assert reference_cycle.lam == 0.1
    assert all(a > 0 for a in reference_cycle.amplitudes)


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
