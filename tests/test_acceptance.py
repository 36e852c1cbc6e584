"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 8's period bound is known to be unattainable as stated: at
lambda = 0.01 with the cubic -x^3 the converged limit-cycle period differs
from 2*pi by about 1.05%, just over the required 1%. The measurement is
integrator-converged and confirmed by an independent adaptive solver, so
the corresponding assertion is expected to fail; every other clause of
criterion 8 holds. Criterion 7's resonant-ring construction is likewise
impossible: |A(i*k*w)| strictly exceeds |A(i*w)| for k >= 2, so no real
diagonal admits two imaginary pairs in k:1 ratio, and the documented
Newton search cannot succeed.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from ringhopf.genericity import (
    detect_resonance,
    remove_multiple,
    remove_resonances,
    resonance_poly,
)
from ringhopf.hopf import hopf_conditions_3, sign_constraints, solve_coupling_for_hopf
from ringhopf.model import AdjacencyMatrix, AdmissibleOdeFamily, RingParams
from ringhopf.phases import SIGN_PATTERNS, phase_shifts, table_lookup
from ringhopf.simulate import compare_predicted, find_limit_cycle
from ringhopf.spectra import adjacency_spectrum, eigenvalues
from test_spectra import _match_multiset

TWO_PI = 2 * math.pi


@pytest.fixture
def criterion(capsys):
    """Context manager printing one PASS/FAIL line per criterion."""

    @contextmanager
    def _criterion(num: int, desc: str):
        try:
            yield
        except BaseException as exc:
            with capsys.disabled():
                print(f"CRITERION {num}: FAIL - {desc} ({exc})")
            raise
        with capsys.disabled():
            print(f"CRITERION {num}: PASS - {desc}")

    return _criterion


def test_criterion_1_reference_eigenvalue_regression(criterion, solves):
    with criterion(1, "reference eigenvalue regression within 1e-9, < 1 ms each"):
        # warm-up outside the timed calls, on an equal copy: the spectrum memo
        # answers a repeat call on the same object, and both timed calls must solve
        ring = oracles.REFERENCE_RING
        eigenvalues(RingParams(3, ring.a, ring.b))
        warm = solves()
        t0 = time.perf_counter()
        s1 = eigenvalues(oracles.REFERENCE_RING)
        t1 = time.perf_counter()
        s2 = eigenvalues(oracles.SECOND_RING)
        t2 = time.perf_counter()
        _match_multiset(s1.eigenvalues, oracles.REFERENCE_EIGENVALUES, 1e-9)
        _match_multiset(s2.eigenvalues, oracles.SECOND_EIGENVALUES, 1e-9)
        assert t1 - t0 < 1e-3, f"first solve took {t1 - t0:.4f} s"
        assert t2 - t1 < 1e-3, f"second solve took {t2 - t1:.4f} s"
        assert solves() - warm == 2, "a timed call was answered without solving"


def test_criterion_2_adjacency_regression(criterion):
    with criterion(2, "adjacency spectra within 1e-9 with 0:1 and 2:1 flags"):
        s5 = adjacency_spectrum(AdjacencyMatrix(5, oracles.ADJ_5))
        _match_multiset(s5.eigenvalues, oracles.ADJ_5_SPECTRUM, 1e-9)
        assert any(f.k == 0 for f in detect_resonance(s5, k_max=5))
        s6 = adjacency_spectrum(AdjacencyMatrix(6, oracles.ADJ_6))
        _match_multiset(s6.eigenvalues, oracles.ADJ_6_SPECTRUM, 1e-9)
        flags = detect_resonance(s6, k_max=5)
        assert any(
            f.k == 2 and abs(f.omega - math.sqrt(3)) < 1e-8 for f in flags
        )


def test_criterion_3_hopf_condition_equivalence(criterion):
    with criterion(3, "closed-form vs spectral Hopf detection on 1e4 rings, < 10 s"):
        rng = np.random.default_rng(12345)
        t0 = time.perf_counter()
        agree = 0
        total = 10_000
        for i in range(total):
            a = tuple(rng.uniform(-3, 3, size=3))
            b = list(rng.uniform(-3, 3, size=3))
            if i % 2 == 0 and b[0] != 0 and b[1] != 0:
                b[2] = solve_coupling_for_hopf(a, b[0], b[1])
            r = RingParams(3, a, tuple(b))
            algebraic = hopf_conditions_3(r, rel_tol=1e-8).is_hopf_point
            s = eigenvalues(r, axis_tol=1e-8)
            spectral = s.omega is not None
            agree += algebraic == spectral
        elapsed = time.perf_counter() - t0
        assert agree == total, f"{total - agree} disagreements out of {total}"
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_4_table_reproduction(criterion):
    with criterion(4, "tables regenerated from the sign rule, discrepancies flagged"):
        rng = np.random.default_rng(99)
        case_signs = {"A": (-1, -1, -1), "B": (1, -1, -1), "C": (0, -1, -1)}
        for case, a_signs in case_signs.items():
            for omega_sign in (1, -1):
                for pattern in SIGN_PATTERNS:
                    row = table_lookup(case, pattern, omega_sign)
                    labels = row.labels()
                    # >= 100 randomized magnitude samples per cell
                    for _ in range(100):
                        omega = omega_sign * rng.uniform(0.1, 5)
                        for j in range(3):
                            a = a_signs[j] * rng.uniform(0.1, 5)
                            b = pattern[j] * rng.uniform(0.1, 5)
                            ratio = (1j * omega - a) / b
                            angle = math.atan2(ratio.imag, ratio.real) % TWO_PI
                            label = labels[j]
                            if label in ("pi/2", "3pi/2"):
                                want = (
                                    math.pi / 2 if label == "pi/2" else 3 * math.pi / 2
                                )
                                assert abs(angle - want) < 1e-12
                            else:
                                assert int(angle // (math.pi / 2)) + 1 == int(label)
                    if case in ("B", "C") and pattern == (1, 1, -1):
                        assert row.discrepancy, f"{case} (+,+,-) must be flagged"
                    else:
                        assert not row.discrepancy
                        assert labels == row.printed


def test_criterion_5_sign_constraint_lemma(criterion):
    with criterion(5, "pairwise sums and coupling product signs on 1e4 Hopf rings"):
        rng = np.random.default_rng(777)
        checked = 0
        while checked < 10_000:
            a = tuple(rng.uniform(-3, 3, size=3))
            if sum(a) >= 0:
                continue
            omega_sq = a[0] * a[1] + a[0] * a[2] + a[1] * a[2]
            if omega_sq <= 0:
                continue
            b1, b2 = rng.uniform(-3, 3, size=2)
            if b1 == 0 or b2 == 0:
                continue
            b3 = solve_coupling_for_hopf(a, b1, b2)
            r = RingParams(3, a, (b1, b2, b3))
            report = sign_constraints(r)
            assert report.all_sums_negative, f"positive pairwise sum for {r}"
            assert report.coupling_product_negative, f"b product >= 0 for {r}"
            checked += 1


def test_criterion_6_multiplicity_removal(criterion):
    with criterion(6, "1e3 constructed double rings repaired with eps 1e-3, < 30 s"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            r, _ = oracles.construct_double_ring(n, rng)
            result = remove_multiple(r, epsilon=1e-3)
            assert result.achieved_gap > 1e-6
            assert result.delta <= 1e-3
            assert result.perturbed.a == r.a  # bitwise: tuples of floats
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_7_resonance_removal(criterion):
    with criterion(
        7,
        "Q_k leading coefficients and constructed 2:1 resonant ring repair",
    ):
        rng = np.random.default_rng(55)
        for n in range(3, 9):
            for k in range(2, 6):
                a = tuple(rng.uniform(-2, 2, size=n))
                Q = resonance_poly(RingParams(n, a, (1.0,) * n), k)
                expected = n * (1 - float(k) ** (n - 1))
                assert abs(Q[0] - expected) <= 1e-9 * abs(expected)
        # documented Newton construction of a 5-node 2:1 resonant ring;
        # this cannot succeed (see module docstring), and fails here
        ring, omega = oracles.construct_resonant_ring_5(rng)
        s = eigenvalues(ring)
        flags = detect_resonance(s, k_max=5)
        assert any(f.k == 2 for f in flags)
        result = remove_resonances(ring, k_max=5, epsilon=1e-3)
        assert result.delta <= 1e-3
        assert detect_resonance(eigenvalues(result.perturbed), k_max=5) == []


def test_criterion_8_end_to_end_phase_prediction(criterion):
    with criterion(
        8,
        "simulated phases within 5% of predictions, errors shrinking, "
        "period within 1% of 2*pi at lambda 0.01, < 60 s",
    ):
        t0 = time.perf_counter()
        fam = AdmissibleOdeFamily(oracles.REFERENCE_RING)
        profile = phase_shifts(oracles.REFERENCE_RING, 1.0)
        for got, want in zip(profile.theta, oracles.REFERENCE_THETA):
            assert abs(got - want) < 1e-9
        m_far = find_limit_cycle(fam, 0.1, settle_time=150.0)
        m_near = find_limit_cycle(fam, 0.01)
        cmp_far = compare_predicted(m_far, profile)
        cmp_near = compare_predicted(m_near, profile)
        assert cmp_near.max_distance < 0.05 * TWO_PI
        assert cmp_near.max_distance < cmp_far.max_distance, "error did not shrink"
        period_err_far = abs(m_far.period - TWO_PI) / TWO_PI
        period_err_near = abs(m_near.period - TWO_PI) / TWO_PI
        assert period_err_near < period_err_far, "period error did not shrink"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f} s"
        # known-unattainable bound: converged value is ~1.05%
        assert period_err_near < 0.01, (
            f"period error {period_err_near:.4%} exceeds 1%"
        )


def test_criterion_9_closure_properties(criterion):
    with criterion(9, "eigenvector closure and phase-shift sum on 1e4 Hopf rings"):
        rng = np.random.default_rng(31337)
        checked = 0
        while checked < 10_000:
            n = int(rng.integers(3, 11))
            r, omega = oracles.construct_hopf_ring(n, rng)
            closure = 1.0 + 0.0j
            for a_j, b_j in zip(r.a, r.b):
                closure *= (1j * omega - a_j) / b_j
            assert abs(closure - 1.0) < 1e-8, f"closure {closure} for {r}"
            theta = phase_shifts(r, omega).theta
            total = sum(theta) % TWO_PI
            assert min(total, TWO_PI - total) < 1e-8
            checked += 1
