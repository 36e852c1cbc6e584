"""Tests for the closed-form n=3 Hopf conditions and crossing checks."""

import math

import numpy as np
import pytest

import oracles
from ringhopf.genericity import detect_resonance
from ringhopf.hopf import (
    NotAHopfPointError,
    crossing_check,
    detect_imaginary_pair,
    hopf_conditions_3,
    sign_constraints,
    solve_coupling_for_hopf,
    spectral_hopf_check,
)
from ringhopf.model import AdmissibleOdeFamily, RingParams
from ringhopf.spectra import Spectrum, _axis_omega, axis_pairs, eigenvalues


def test_reference_ring_is_hopf_point():
    report = hopf_conditions_3(oracles.REFERENCE_RING)
    assert report.is_hopf_point
    assert report.omega_sq == pytest.approx(1.0)
    assert report.omega == pytest.approx(1.0)
    assert report.product_lhs == pytest.approx(-10.0)
    assert report.product_rhs == pytest.approx(-10.0)
    assert report.trace == -4.0
    assert report.first_bifurcation
    assert report.marginal_excluded
    assert report.pairwise_sums_negative
    assert report.coupling_product_negative


def test_second_ring_is_hopf_point():
    report = hopf_conditions_3(oracles.SECOND_RING)
    assert report.is_hopf_point
    assert report.omega_sq == pytest.approx(6.0)


def test_circulant_inhibition_not_hopf():
    # a = (-1,-1,-1), b = (1,1,1): omega_sq = 3 but product identity fails
    r = RingParams(3, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    report = hopf_conditions_3(r)
    assert report.positivity
    assert not report.product_identity
    assert not report.is_hopf_point


def test_negative_omega_sq_not_hopf():
    r = RingParams(3, (1.0, 1.0, -1.0), (1.0, 1.0, 1.0))
    report = hopf_conditions_3(r)
    assert report.omega_sq < 0
    assert not report.positivity
    assert report.omega is None


def test_requires_n3():
    r = RingParams(4, (0.0,) * 4, (1.0,) * 4)
    with pytest.raises(ValueError, match="n=3"):
        hopf_conditions_3(r)


def test_solve_coupling_makes_identity_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = tuple(rng.uniform(-3, 3, size=3))
        b1, b2 = rng.uniform(0.5, 2.0, size=2)
        b3 = solve_coupling_for_hopf(a, b1, b2)
        r = RingParams(3, a, (b1, b2, b3))
        assert hopf_conditions_3(r).product_identity


def test_solve_coupling_rejects_zero():
    with pytest.raises(ValueError):
        solve_coupling_for_hopf((1.0, 2.0, 3.0), 0.0, 1.0)


@pytest.mark.parametrize(
    "b1, b2, message",
    [
        (1e-200, 1e-200, r"b1\*b2 = 1e-200 \* 1e-200 = 0.0 underflows to zero"),
        (1e200, 1e200, r"b1\*b2 = 1e\+200 \* 1e\+200 = inf is not finite"),
        (1e-160, 1e-160, r"= -10.0 / 1e-320 = -inf is not finite"),
    ],
)
def test_solve_coupling_names_an_unusable_product(b1, b2, message):
    # b1 and b2 are nonzero, but their product underflows, overflows or makes b3 overflow
    with pytest.raises(ValueError, match=message):
        solve_coupling_for_hopf((1.0, -2.0, -3.0), b1, b2)


def test_closed_form_agrees_with_spectral_route():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = tuple(rng.uniform(-3, 3, size=3))
        b = tuple(rng.uniform(-3, 3, size=3))
        if any(v == 0 for v in b):
            continue
        r = RingParams(3, a, b)
        algebraic = hopf_conditions_3(r).is_hopf_point
        spectral = spectral_hopf_check(r).omega is not None
        assert algebraic == spectral


def test_sign_constraints_reference_ring():
    report = sign_constraints(oracles.REFERENCE_RING)
    assert report.all_sums_negative
    assert report.coupling_product_negative
    assert report.b_sign_class == "one_negative"


def test_sign_constraints_three_negative_class():
    r = RingParams(3, (1.0, -2.0, -3.0), (-1.0, -1.0, -10.0))
    report = sign_constraints(r)
    assert report.coupling_product_negative
    assert report.b_sign_class == "three_negative"


def test_sign_constraints_requires_hopf_point():
    r = RingParams(3, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    with pytest.raises(NotAHopfPointError):
        sign_constraints(r)


def test_sign_constraints_property_random():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 200:
        r, _ = oracles.construct_hopf_ring(3, rng, require_negative_trace=True)
        report = sign_constraints(r)
        assert report.all_sums_negative
        assert report.coupling_product_negative
        checked += 1


def test_detect_imaginary_pair_simple():
    s = eigenvalues(oracles.REFERENCE_RING)
    det = detect_imaginary_pair(s)
    assert det.omega == pytest.approx(1.0, abs=1e-9)
    assert det.warnings == ()


def test_detect_imaginary_pair_none():
    r = RingParams(3, (-1.0, -2.0, -3.0), (0.5, 0.5, 0.5))
    det = detect_imaginary_pair(eigenvalues(r))
    assert det.omega is None


def test_detect_imaginary_pair_zero_warning():
    s = Spectrum(
        eigenvalues=(3.0 + 0.0j, -1.0j, 1.0j, 0.0j, 0.0j),
        residuals=(0.0,) * 5,
        pair_tolerance=1e-8,
        tau=3.0,
        omega=1.0,
    )
    det = detect_imaginary_pair(s)
    assert det.omega == pytest.approx(1.0)
    assert any("0:1" in w for w in det.warnings)


def test_axis_scans_agree_on_a_chain():
    # a chain of three roots 0.6e-8 apart near 1j: each is within AXIS_TOL of
    # the last, though the third is 1.2e-8 from the first; plus a pair at 2j
    chain = (1.0j, 1.0j + 0.6e-8j, 1.0j + 1.2e-8j)
    roots = (-1.0,) + chain + tuple(m.conjugate() for m in chain) + (2.0j, -2.0j)
    s = Spectrum(
        eigenvalues=roots,
        residuals=(0.0,) * len(roots),
        pair_tolerance=1e-8,
        tau=-1.0,
        omega=None,
    )
    assert [len(g) for g in axis_pairs(s.eigenvalues)] == [3, 1]
    det = detect_imaginary_pair(s)
    assert det.omega is None
    assert det.warnings == ("multiple imaginary pairs on the axis: 1, 2",)
    assert [(f.k, f.omega) for f in detect_resonance(s, k_max=3)] == [(2, 1.0)]
    assert _axis_omega(s.eigenvalues) == 1.0


def test_detect_imaginary_pair_two_pairs_blocked():
    s = Spectrum(
        eigenvalues=(-1.0j, 1.0j, -2.0j, 2.0j),
        residuals=(0.0,) * 4,
        pair_tolerance=1e-8,
        tau=0.0,
        omega=1.0,
    )
    det = detect_imaginary_pair(s)
    assert det.omega is None
    assert any("multiple" in w for w in det.warnings)


def test_crossing_derivative_identity_action():
    # J + lam*I shifts every eigenvalue by lam: dsigma/dlam = 1, drho/dlam = 0
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    check = crossing_check(fam, 0.0, 1e-4)
    assert check.dsigma_dlambda == pytest.approx(1.0, abs=1e-6)
    assert check.drho_dlambda == pytest.approx(0.0, abs=1e-6)


def test_crossing_step_size_controls_error():
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    coarse = crossing_check(fam, 0.0, 1e-2)
    assert coarse.dsigma_dlambda == pytest.approx(1.0, abs=1e-4)


def test_crossing_custom_action():
    # action lam -> b_1 scaling: compare against a finite-difference oracle
    base = oracles.REFERENCE_RING

    def jac(lam):
        r = RingParams(3, base.a, (base.b[0] * (1 + lam), base.b[1], base.b[2]))
        return r.jacobian()

    check = crossing_check(jac, 0.0, 1e-5)
    h = 1e-5
    mus = {}
    for lam in (-h, h):
        vals = np.linalg.eigvals(jac(lam))
        mus[lam] = vals[np.argmin(np.abs(vals - 1j))]
    expected = (mus[h].real - mus[-h].real) / (2 * h)
    assert check.dsigma_dlambda == pytest.approx(expected, rel=1e-6, abs=1e-8)
    assert check.dsigma_dlambda != pytest.approx(0.0, abs=1e-3)


def test_crossing_requires_axis_pair():
    r = RingParams(3, (-1.0, -2.0, -3.0), (0.5, 0.5, 0.5))
    fam = AdmissibleOdeFamily(r)
    with pytest.raises(NotAHopfPointError):
        crossing_check(fam, 0.0, 1e-4)


def test_omega_product_identity():
    # at a Hopf point, omega^2 * tau relates to the coefficient structure:
    # expanding p(i*omega) = 0 for n=3 gives both closed-form conditions
    rng = np.random.default_rng(3)
    for _ in range(100):
        r, omega = oracles.construct_hopf_ring(3, rng)
        a1, a2, a3 = r.a
        lhs = (a1 + a2) * (a1 + a3) * (a2 + a3)
        rhs = r.b[0] * r.b[1] * r.b[2]
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


STABLE_RING = RingParams(3, (-1.0, -2.0, -3.0), (0.5, 0.5, 0.5))


def test_not_a_hopf_point_names_omega_sq_identity_and_trace():
    with pytest.raises(
        NotAHopfPointError,
        match=r"^sign constraints require an n=3 Hopf point with negative trace: "
        r"omega\^2 = 11 \(needs > 0\), \|lhs - rhs\| = 6\.012e\+01 "
        r"\(tolerance 6\.000e-08\), trace -6$",
    ):
        sign_constraints(STABLE_RING)


def test_crossing_check_names_the_eigenvalue_nearest_the_axis():
    with pytest.raises(
        NotAHopfPointError,
        match=r"^no imaginary pair detected at lambda0=0\.0: the eigenvalue nearest the axis "
        r"is -0\.942546\+0j, \|Re\| 9\.425e-01 against AXIS_TOL \|mu\| 9\.425e-09$",
    ):
        crossing_check(AdmissibleOdeFamily(STABLE_RING), 0.0, 1e-4)


@pytest.mark.parametrize(
    "lambda0, h", [(0.0, math.nan), (0.0, math.inf), (0.0, 0.0), (math.nan, 1e-4), (math.inf, 1e-4)]
)
def test_crossing_check_rejects_bad_lambda0_and_h(lambda0, h):
    # these surfaced as numpy's LinAlgError about infs or NaNs
    fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    message = rf"^lambda0 and h must be finite and h positive, got lambda0={lambda0}, h={h}$"
    with pytest.raises(ValueError, match=message):
        crossing_check(fam, lambda0, h)


def test_crossing_check_refuses_an_ambiguous_match():
    # a second pair 1.4e-6 from the tracked one, well inside 10 h, makes the match ambiguous
    def jacobian(lam):
        eps = 1e-6
        J = np.zeros((4, 4))
        J[:2, :2] = [[lam, -1.0], [1.0, lam]]
        J[2:, 2:] = [[lam + eps, -(1.0 + eps)], [1.0 + eps, lam + eps]]
        return J

    with pytest.raises(RuntimeError, match=r"^eigenvalue matching ambiguous at lambda=-0\.001: "):
        crossing_check(jacobian, 0.0, 1e-3)


def test_two_axis_pairs_within_the_tolerance_are_not_simple():
    s = Spectrum(
        eigenvalues=(-2.0 + 0j, -1j, -1j * (1 + 1e-9), 1j, 1j * (1 + 1e-9)),
        residuals=(0.0,) * 5, pair_tolerance=1e-8, tau=-2.0, omega=None,
    )
    detection = detect_imaginary_pair(s)
    assert (detection.omega, detection.warnings) == (None, ("imaginary pair at 1 is not simple",))
