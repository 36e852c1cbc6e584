"""Tests for phase shifts, quadrant classification and the reference tables."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringhopf.hopf import NotAHopfPointError
from ringhopf.hopf import solve_coupling_for_hopf
from ringhopf.model import RingParams, time_rescale
from ringhopf.phases import (
    PRINTED_TABLES,
    SIGN_PATTERNS,
    classify_case,
    generate_tables,
    phase_shifts,
    quadrant_of_ratio,
    table_lookup,
)
from ringhopf.spectra import AXIS_TOL, ZeroCouplingError, eigenvalues

TWO_PI = 2 * math.pi

CASE_A_RING = RingParams(3, (-1.0, -2.0, -3.0), (1.0, 1.0, -60.0))


def test_reference_ring_phase_shifts():
    profile = phase_shifts(oracles.REFERENCE_RING, 1.0)
    for got, want in zip(profile.theta, oracles.REFERENCE_THETA):
        assert got == pytest.approx(want, abs=1e-12)
    assert profile.case_label == "B"
    assert profile.wave_class == "standing"


def test_reference_ring_quadrants():
    profile = phase_shifts(oracles.REFERENCE_RING, 1.0)
    assert [s.label() for s in profile.ratio_quadrant] == ["2", "1", "3"]


def test_case_c_axis_angle():
    # a_1 = 0 puts the first ratio exactly on the positive imaginary axis
    omega = math.sqrt(6)
    profile = phase_shifts(oracles.SECOND_RING, omega)
    assert profile.theta[0] == pytest.approx(3 * math.pi / 2, abs=1e-12)
    assert profile.ratio_quadrant[0].label() == "pi/2"
    assert profile.case_label == "C"


def test_phase_shifts_sum_to_zero_mod_2pi():
    rng = np.random.default_rng(0)
    for _ in range(100):
        r, omega = oracles.construct_hopf_ring(int(rng.integers(3, 9)), rng)
        profile = phase_shifts(r, omega)
        total = sum(profile.theta) % TWO_PI
        assert min(total, TWO_PI - total) < 1e-8


def test_conjugation_rule():
    rng = np.random.default_rng(1)
    for _ in range(50):
        r, omega = oracles.construct_hopf_ring(3, rng)
        plus = phase_shifts(r, omega)
        minus = phase_shifts(r, -omega)
        for tp, tm in zip(plus.theta, minus.theta):
            diff = (tp + tm) % TWO_PI
            assert min(diff, TWO_PI - diff) < 1e-9


def test_phase_shifts_reject_non_eigenvalue():
    with pytest.raises(ValueError, match="not an eigenvalue"):
        phase_shifts(oracles.REFERENCE_RING, 2.0)


def test_phase_shifts_reject_detuned_frequency_at_large_n():
    # a residual gate scaled by the largest dense coefficient (about 1e9 at
    # n = 40) accepted 1.01 omega on one of these size-40 rings
    rng = np.random.default_rng(1)
    for n in (10, 20, 40):
        for _ in range(5):
            r, omega = oracles.construct_hopf_ring(n, rng)
            phase_shifts(r, omega)
            with pytest.raises(ValueError, match="not an eigenvalue"):
                phase_shifts(r, 1.01 * omega)


@settings(max_examples=40)
@given(
    n=st.integers(3, 10),
    s=st.floats(0.0, 0.9),
    log2_delta=st.integers(-40, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_shifts_accept_every_pair_the_axis_band_admits(n, s, log2_delta, seed):
    # lowering each a_j by s AXIS_TOL omega moves the pair that far off the axis, inside the
    # band |Re mu| < AXIS_TOL |mu|; since the backward error's scale is at least |z| |p'(z)|,
    # i omega then has backward error about s AXIS_TOL, within the gate
    ring, omega = oracles.construct_hopf_ring(n, np.random.default_rng(seed))
    ring, omega = time_rescale(ring, 2.0**log2_delta), omega * 2.0**log2_delta
    ring = RingParams(n, tuple(v - s * AXIS_TOL * omega for v in ring.a), ring.b)
    found = eigenvalues(ring).omega
    assert found is not None
    phase_shifts(ring, found)


def test_phase_shifts_reject_exactly_the_rings_without_an_axis_pair():
    # lowering each a_j by s AXIS_TOL omega moves the pair that far off the axis, past the band
    # |Re mu| < AXIS_TOL |mu| once s is about 1; on about one ring in eight the backward error of
    # i omega stays within AXIS_TOL beyond that, so it cannot stand in for the band
    rng = np.random.default_rng(11)
    rejected = 0
    for _ in range(500):
        n = int(rng.integers(3, 13))
        ring, omega = oracles.construct_hopf_ring(n, rng)
        s = rng.uniform(0, 20)
        ring = RingParams(n, tuple(v - s * AXIS_TOL * omega for v in ring.a), ring.b)
        try:
            phase_shifts(ring, omega)
            raised = False
        except ValueError as exc:
            assert "not an eigenvalue" in str(exc)
            raised = True
        assert raised == (eigenvalues(ring).omega is None)
        rejected += raised
    assert 0 < rejected < 500


def test_phase_shifts_name_the_root_nearest_i_omega_when_there_is_no_axis_pair():
    ring = RingParams(3, tuple(v - 5e-8 for v in oracles.REFERENCE_RING.a), oracles.REFERENCE_RING.b)
    assert eigenvalues(ring).omega is None
    with pytest.raises(
        ValueError,
        match=r"^i\*-1\.0 is not an eigenvalue to within AXIS_TOL = 1e-08, relative \(there is no axis pair: "
        r"the root nearest i\*omega is -5e-08-1j, \|Re\| 5\.000e-08 against AXIS_TOL \|mu\| 1\.000e-08\); "
        r"pass force=True for exploratory use$",
    ):
        phase_shifts(ring, -1.0)
    with pytest.raises(ValueError, match=r"^i\*2\.0 is not an eigenvalue .*\(the axis pair is at omega = 0\.99"):
        phase_shifts(oracles.REFERENCE_RING, 2.0)


def test_phase_shifts_force_overrides_check():
    profile = phase_shifts(oracles.REFERENCE_RING, 2.0, force=True)
    assert len(profile.theta) == 3


def test_phase_shifts_take_an_angle_that_underflows_to_zero():
    # the ratio for a_2 = -2 is 2 + 5e-324i, whose angle rounds to 0
    profile = phase_shifts(oracles.REFERENCE_RING, 5e-324, force=True)
    assert profile.theta == (math.pi, 0.0, math.pi)
    assert [s.quadrant for s in profile.ratio_quadrant] == [2, 1, 3]
    assert profile.case_label == "B"


def test_phase_shifts_reject_zero_coupling():
    r = RingParams(3, (1.0, -2.0, -3.0), (0.0, 1.0, -10.0))
    with pytest.raises(ZeroCouplingError):
        phase_shifts(r, 1.0, force=True)


def test_quadrant_rule_exhaustive():
    # positive omega: quadrant from the signs of a and b
    assert quadrant_of_ratio(-1.0, 1.0).quadrant == 1
    assert quadrant_of_ratio(1.0, 1.0).quadrant == 2
    assert quadrant_of_ratio(-1.0, -1.0).quadrant == 3
    assert quadrant_of_ratio(1.0, -1.0).quadrant == 4
    assert quadrant_of_ratio(0.0, 1.0).axis_angle == pytest.approx(math.pi / 2)
    assert quadrant_of_ratio(0.0, -1.0).axis_angle == pytest.approx(3 * math.pi / 2)
    # negative omega conjugates: 1<->4, 2<->3, axis flips
    assert quadrant_of_ratio(-1.0, 1.0, -1).quadrant == 4
    assert quadrant_of_ratio(1.0, 1.0, -1).quadrant == 3
    assert quadrant_of_ratio(-1.0, -1.0, -1).quadrant == 2
    assert quadrant_of_ratio(1.0, -1.0, -1).quadrant == 1
    assert quadrant_of_ratio(0.0, 1.0, -1).axis_angle == pytest.approx(3 * math.pi / 2)
    assert quadrant_of_ratio(0.0, -1.0, -1).axis_angle == pytest.approx(math.pi / 2)


def test_quadrant_matches_numeric_ratio():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        omega = rng.uniform(0.1, 3)
        if abs(a) < 1e-6 or abs(b) < 1e-6:
            continue
        sector = quadrant_of_ratio(a, b)
        ratio = (1j * omega - a) / b
        angle = cmath.phase(ratio) % TWO_PI
        numeric = int(angle // (math.pi / 2)) + 1
        assert sector.quadrant == numeric


def test_quadrant_invariant_under_positive_scaling():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.uniform(-3, 3)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10)
        scale = rng.uniform(0.1, 10)
        assert quadrant_of_ratio(a, b) == quadrant_of_ratio(a, b * scale)


def test_quadrant_rejects_zero_coupling():
    with pytest.raises(ZeroCouplingError):
        quadrant_of_ratio(1.0, 0.0)


def test_classify_case_a():
    result = classify_case(CASE_A_RING)
    assert result.label == "A"
    assert result.shift == 0


def test_classify_case_b_rotates_positive_entry_first():
    rotated_input = RingParams(3, (-2.0, -3.0, 1.0), (1.0, -10.0, 1.0))
    result = classify_case(rotated_input)
    assert result.label == "B"
    assert result.shift == 2
    assert result.relabeled.a[0] > 0
    assert result.relabeled.a[1] < 0 and result.relabeled.a[2] < 0


def test_classify_case_c():
    result = classify_case(oracles.SECOND_RING)
    assert result.label == "C"
    assert result.shift == 0


def test_classify_requires_hopf_point():
    r = RingParams(3, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    with pytest.raises(NotAHopfPointError):
        classify_case(r)


def test_table_case_a_matches_printed_everywhere():
    for sign in (1, -1):
        for pattern in SIGN_PATTERNS:
            row = table_lookup("A", pattern, sign)
            assert not row.discrepancy
            assert row.labels() == PRINTED_TABLES[("A", sign)][pattern]


def test_table_discrepancy_rows_fire():
    # the printed (+,+,-) rows of Cases B and C repeat the (+,-,+) row
    for case in ("B", "C"):
        for sign in (1, -1):
            row = table_lookup(case, (1, 1, -1), sign)
            assert row.discrepancy
            assert row.annotation is not None
            assert row.labels() != row.printed


def test_table_discrepancy_values_case_b():
    row = table_lookup("B", (1, 1, -1), 1)
    assert row.labels() == ("2", "1", "3")
    assert row.printed == ("2", "3", "1")


def test_table_discrepancy_values_case_c():
    row = table_lookup("C", (1, 1, -1), 1)
    assert row.labels() == ("pi/2", "1", "3")
    assert row.printed == ("pi/2", "3", "1")


def test_table_other_rows_match_printed():
    for case in ("B", "C"):
        for sign in (1, -1):
            for pattern in ((-1, -1, -1), (-1, 1, 1), (1, -1, 1)):
                row = table_lookup(case, pattern, sign)
                assert not row.discrepancy


def test_table_warning_for_even_negative_pattern():
    row = table_lookup("A", (1, 1, 1))
    assert row.warning is not None
    row = table_lookup("A", (-1, -1, 1))
    assert row.warning is not None
    row = table_lookup("A", (-1, -1, -1))
    assert row.warning is None


def test_generate_tables_shape():
    rows = generate_tables()
    assert len(rows) == 24
    assert sum(1 for r in rows if r.discrepancy) == 4


def test_table_cells_match_randomized_magnitudes():
    # each cell of the sign-rule table agrees with the numeric ratio
    # quadrant for random magnitudes carrying those signs
    rng = np.random.default_rng(4)
    case_signs = {"A": (-1, -1, -1), "B": (1, -1, -1), "C": (0, -1, -1)}
    for case, a_signs in case_signs.items():
        for pattern in SIGN_PATTERNS:
            row = table_lookup(case, pattern, 1)
            for _ in range(20):
                omega = rng.uniform(0.1, 5)
                for j in range(3):
                    a = a_signs[j] * rng.uniform(0.1, 5)
                    b = pattern[j] * rng.uniform(0.1, 5)
                    angle = cmath.phase((1j * omega - a) / b) % TWO_PI
                    label = row.labels()[j]
                    if label in ("pi/2", "3pi/2"):
                        want = math.pi / 2 if label == "pi/2" else 3 * math.pi / 2
                        assert angle == pytest.approx(want, abs=1e-12)
                    else:
                        assert int(angle // (math.pi / 2)) + 1 == int(label)


def test_rotating_wave_iff_all_negative():
    # all a_j and b_j negative puts every ratio in quadrant 3 (omega > 0):
    # the profile is a rotating wave; flipping any b sign breaks it
    r = RingParams(3, (-1.0, -2.0, -3.0), (-2.0, -5.0, -6.0))
    # make it a Hopf point exactly: solve b_3 from the product identity
    b3 = (-3.0) * (-4.0) * (-5.0) / ((-2.0) * (-5.0))
    r = RingParams(3, (-1.0, -2.0, -3.0), (-2.0, -5.0, b3))
    omega = math.sqrt(2 + 3 + 6)
    profile = phase_shifts(r, omega)
    assert profile.wave_class == "rotating"
    assert all(s.quadrant == 3 for s in profile.ratio_quadrant)
    mixed = phase_shifts(oracles.REFERENCE_RING, 1.0)
    assert mixed.wave_class == "standing"


def test_theta_invariant_under_time_rescale():
    # rescaling time scales omega and all entries together; the ratio and
    # hence the phase shifts are unchanged
    r, omega = oracles.construct_hopf_ring(3, np.random.default_rng(5))
    base = phase_shifts(r, omega)
    scaled = phase_shifts(time_rescale(r, 2.0), 2.0 * omega)
    for x, y in zip(base.theta, scaled.theta):
        assert x == pytest.approx(y, abs=1e-10)


def test_case_classification_names_why_it_is_no_hopf_point():
    r = RingParams(3, (-1.0, -2.0, -3.0), (0.5, 0.5, 0.5))
    with pytest.raises(
        NotAHopfPointError,
        match=r"^case classification requires a Hopf point: omega\^2 = 11 \(needs > 0\), "
        r"\|lhs - rhs\| = 6\.012e\+01 \(tolerance 6\.000e-08\), trace -6$",
    ):
        classify_case(r)


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 0.0])
def test_phase_shifts_reject_omega_that_is_not_finite_and_nonzero(omega, force):
    # force skips the eigenvalue check, which was the only one to reject NaN
    with pytest.raises(ValueError, match=rf"^omega must be finite and nonzero, got {omega}$"):
        phase_shifts(oracles.REFERENCE_RING, omega, force=force)


def test_quadrant_of_ratio_rejects_a_zero_omega_sign():
    with pytest.raises(ValueError, match=r"^omega_sign must be \+1 or -1$"):
        quadrant_of_ratio(1.0, 1.0, omega_sign=0)


def test_classify_case_rejects_a_four_node_ring():
    with pytest.raises(ValueError, match=r"^case classification applies to n=3 rings only$"):
        classify_case(RingParams(4, (1.0, -2.0, -3.0, -1.0), (1.0, 1.0, 1.0, 1.0)))


def test_classify_case_rejects_two_zero_diagonal_entries_at_a_hopf_point():
    # |a_1|, |a_2| <= ZERO_TOL_FACTOR max |a_j|, yet omega^2 = a1 a2 + (a1 + a2) a3 > 0
    a = (-1e-11, -1e-11, -1.0)
    ring = RingParams(3, a, (1.0, 1.0, solve_coupling_for_hopf(a, 1.0, 1.0)))
    with pytest.raises(ValueError, match=r"^two zero diagonal entries force omega = 0$"):
        classify_case(ring)


def test_table_lookup_rejects_an_unknown_case():
    with pytest.raises(ValueError, match=r"^case must be A, B or C, got 'D'$"):
        table_lookup("D", (1, 1, 1))
