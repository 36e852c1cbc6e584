"""Tests for forbidden sets, resonance polynomials and coupling perturbations."""

import math

import mpmath
import numpy as np
import pytest

import oracles
from ringhopf import genericity
from ringhopf.genericity import (
    PerturbationBudgetError,
    ResonanceFlag,
    detect_multiple,
    detect_resonance,
    multiplicity_forbidden_set,
    remove_multiple,
    remove_resonances,
    resonance_forbidden_set,
    resonance_poly,
)
from ringhopf.model import AdjacencyMatrix, RingParams
from ringhopf.spectra import adjacency_spectrum, eigenvalues


def test_detect_double_eigenvalue():
    r = RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0))
    clusters = detect_multiple(eigenvalues(r))
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 2
    assert clusters[0].value == pytest.approx(2.0, abs=1e-9)


def test_detect_triple_eigenvalue():
    r = RingParams(3, (0.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    clusters = detect_multiple(eigenvalues(r))
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 3
    assert clusters[0].value == 0.0


def test_detect_simple_spectrum_no_clusters():
    assert detect_multiple(eigenvalues(oracles.REFERENCE_RING)) == []


def test_multiplicity_forbidden_set_hand_checked():
    # a = (0,0,3): A = l^2(3-l), p' roots {0, 2}, forbidden {-A(0), -A(2)} = {0, -4}
    r = RingParams(3, (0.0, 0.0, 3.0), (1.0, 1.0, 1.0))
    fs = multiplicity_forbidden_set(r)
    assert sorted(fs.values) == pytest.approx([-4.0, 0.0], abs=1e-9)


def test_multiplicity_forbidden_set_triple():
    r = RingParams(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    fs = multiplicity_forbidden_set(r)
    assert all(abs(v) < 1e-9 for v in fs.values)


def test_forbidden_values_really_produce_double_roots():
    # sweep cross-check: at each forbidden c the polynomial A + c has a
    # double root; slightly off it does not
    r = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, 1.0))
    fs = multiplicity_forbidden_set(r)
    assert len(fs.values) == 2
    A = oracles.a_poly(r.a)
    for v in fs.values:
        p = A.copy()
        p[-1] += v
        roots = np.roots(p)
        gaps = [
            abs(roots[i] - roots[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(gaps) < 1e-6
        p_off = A.copy()
        p_off[-1] += v + 0.05
        roots_off = np.roots(p_off)
        gaps_off = [
            abs(roots_off[i] - roots_off[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(gaps_off) > 1e-3


def test_resonance_poly_hand_example():
    # n=3, a=(0,0,0), k=2: A = -l^3, p' = -3l^2, leading 3(1-4) = -9 on l^5
    r = RingParams(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    Q = resonance_poly(r, 2)
    assert len(Q) == 6
    assert np.allclose(Q, [-9.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_resonance_poly_matches_symbolic_oracle():
    rng = np.random.default_rng(0)
    for n in (3, 4, 5, 6):
        for k in (2, 3, 5):
            a = tuple(rng.uniform(-2, 2, size=n))
            r = RingParams(n, a, (1.0,) * n)
            ours = np.array(resonance_poly(r, k))
            ref = np.array(oracles.sympy_resonance_poly(a, k))
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(ours - ref).max() < 1e-9 * scale


def test_resonance_poly_leading_coefficient():
    rng = np.random.default_rng(1)
    for n in range(3, 9):
        for k in range(2, 6):
            a = tuple(rng.uniform(-2, 2, size=n))
            r = RingParams(n, a, (1.0,) * n)
            Q = resonance_poly(r, k)
            expected = n * (1 - float(k) ** (n - 1))
            assert len(Q) == 2 * n
            assert Q[0] == pytest.approx(expected, rel=1e-9)


def test_resonance_poly_independent_of_couplings():
    rng = np.random.default_rng(2)
    a = tuple(rng.uniform(-2, 2, size=5))
    b1 = tuple(rng.uniform(-2, 2, size=5))
    b2 = tuple(rng.uniform(-2, 2, size=5))
    Q1 = resonance_poly(RingParams(5, a, b1), 3)
    Q2 = resonance_poly(RingParams(5, a, b2), 3)
    assert np.array_equal(Q1, Q2)


def test_resonance_poly_rejects_k_below_2():
    r = RingParams(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        resonance_poly(r, 1)
    with pytest.raises(ValueError):
        resonance_poly(r, 0)


def test_resonance_poly_pointwise_identity():
    # Q agrees pointwise with its defining combination of A, A' and their
    # k-dilations; this checks the coefficient assembly end to end
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, 5))
        a = tuple(rng.uniform(-2, 2, size=n))
        r = RingParams(n, a, (1.0,) * n)
        Q = resonance_poly(r, k)
        A = oracles.a_poly(a)
        dA = np.polyder(A)
        for z in rng.uniform(-2, 2, size=5):
            direct = np.polyval(dA, k * z) * (k - 1) * np.polyval(A, z) - (
                np.polyval(dA, z)
                * (np.polyval(A, k * z) - np.polyval(A, z))
            )
            assert np.polyval(Q, z) == pytest.approx(
                direct, rel=1e-9, abs=1e-9
            )


def uniform_ring(n, rng):
    return RingParams(n, tuple(rng.uniform(-3, 3, size=n)), tuple(rng.uniform(0.5, 2, size=n)))


def test_resonance_poly_equals_the_polymul_construction():
    rng = np.random.default_rng(11)
    for n in range(3, 41):
        r = uniform_ring(n, rng)
        for k in (2, 3, 4):
            ours = resonance_poly(r, k)
            assert ours.tobytes() == oracles.polymul_resonance_poly(r.a, k).tobytes()


def test_forbidden_values_equal_minus_A_in_mpmath():
    rng = np.random.default_rng(12)
    for n in range(3, 41):
        r = uniform_ring(n, rng)
        fs = resonance_forbidden_set(r, k_max=3) | multiplicity_forbidden_set(r)
        assert len(fs.values) == len(fs.sources) >= n - 1
        with mpmath.workdps(40):
            for value, source in zip(fs.values, fs.sources):
                lam = mpmath.mpc(source[-1])
                exact = -mpmath.fprod(mpmath.mpf(v) - lam for v in r.a)
                assert abs(value - exact.real) <= 1e-12 * abs(exact), (n, source)


def test_kept_sources_equal_the_polyval_filter():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        r = uniform_ring(int(rng.integers(3, 41)), rng)
        fs = resonance_forbidden_set(r, k_max=3) | multiplicity_forbidden_set(r)
        assert list(fs.sources) == oracles.polyval_forbidden_sources(r.a, k_max=3), r


def test_detect_resonance_adjacency_examples():
    s6 = adjacency_spectrum(AdjacencyMatrix(6, oracles.ADJ_6))
    flags = detect_resonance(s6, k_max=5)
    assert any(
        f.k == 2 and f.omega == pytest.approx(math.sqrt(3), abs=1e-8) for f in flags
    )
    s5 = adjacency_spectrum(AdjacencyMatrix(5, oracles.ADJ_5))
    flags5 = detect_resonance(s5, k_max=5)
    assert any(f.k == 0 for f in flags5)


def test_detect_resonance_none_for_reference_ring():
    s = eigenvalues(oracles.REFERENCE_RING)
    assert detect_resonance(s, k_max=10) == []


def test_remove_multiple_spec_double():
    r = RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0))
    result = remove_multiple(r, epsilon=1e-3)
    assert result.delta <= 1e-3
    assert result.achieved_gap > 1e-5
    assert result.perturbed.a == r.a
    assert detect_multiple(eigenvalues(result.perturbed)) == []


def test_remove_multiple_dezeroes_couplings():
    r = RingParams(3, (0.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    result = remove_multiple(r, epsilon=0.1)
    assert result.perturbed.b[0] == pytest.approx(0.05, abs=0.05)
    assert result.perturbed.b[0] != 0.0
    assert result.achieved_gap > 0.01


def test_remove_multiple_identity_on_simple_spectrum():
    result = remove_multiple(oracles.REFERENCE_RING, epsilon=1e-3)
    assert result.delta == 0.0
    assert result.perturbed == oracles.REFERENCE_RING


def test_remove_multiple_idempotent():
    r = RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0))
    once = remove_multiple(r, epsilon=1e-3)
    twice = remove_multiple(once.perturbed, epsilon=1e-3)
    assert twice.delta == 0.0


def test_remove_multiple_never_touches_diagonal():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r, _ = oracles.construct_double_ring(int(rng.integers(3, 7)), rng)
        result = remove_multiple(r, epsilon=1e-3)
        assert result.perturbed.a == r.a  # tuple equality is bitwise for floats
        assert result.delta <= 1e-3


def test_remove_multiple_on_constructed_doubles():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r, lam = oracles.construct_double_ring(int(rng.integers(3, 6)), rng)
        before = detect_multiple(eigenvalues(r))
        assert before, f"construction failed to produce a double root at {lam}"
        result = remove_multiple(r, epsilon=1e-3)
        assert result.achieved_gap > 1e-6
        assert detect_multiple(eigenvalues(result.perturbed)) == []


@pytest.mark.parametrize("n, count, seed", [(10, 200, 10), (20, 40, 20)])
def test_remove_multiple_repairs_grid_double_rings(n, count, seed):
    # a root gate scaled by the largest dense coefficient left the double
    # root split by about 1e-6, above the gap tolerance: 1 and 6 of these
    # rings came back unrepaired with delta 0
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r, lam = oracles.construct_grid_double_ring(n, rng)
        result = remove_multiple(r, epsilon=1e-3)
        assert 0.0 < result.delta <= 1e-3, f"double root at {lam} left in place"
        assert result.perturbed.a == r.a
        dense = np.linalg.eigvals(result.perturbed.jacobian())
        gap = min(abs(x - y) for i, x in enumerate(dense) for y in dense[i + 1 :])
        assert gap > 1e-7 * (1.0 + np.abs(dense).max())


def test_remove_multiple_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        remove_multiple(oracles.REFERENCE_RING, epsilon=0.0)


def test_remove_resonances_identity_on_reference_ring():
    result = remove_resonances(oracles.REFERENCE_RING, k_max=5, epsilon=1e-3)
    assert result.delta == 0.0
    assert result.perturbed == oracles.REFERENCE_RING


def test_remove_resonances_dezeroes_and_clears():
    r = RingParams(3, (0.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    result = remove_resonances(r, k_max=3, epsilon=0.1)
    assert all(v != 0.0 for v in result.perturbed.b)
    assert detect_resonance(eigenvalues(result.perturbed), k_max=3) == []


def test_remove_resonances_moves_c_off_forbidden_values():
    # place c exactly on a forbidden resonance value and check it moves away
    rng = np.random.default_rng(6)
    r = None
    for _ in range(100):
        a = tuple(rng.uniform(-3, 3, size=4))
        probe = RingParams(4, a, (1.0,) * 4)
        fs = resonance_forbidden_set(probe, k_max=3)
        candidates = [v for v in fs.values if abs(v) > 1e-3]
        if not candidates:
            continue
        c = candidates[0]
        r = oracles.ring_with_product(4, a, c, rng)
        break
    assert r is not None
    fs = resonance_forbidden_set(r, k_max=3)
    # c sits on a forbidden value now; the zero-coupling-free ring with no
    # axis flags returns identity, so drive the shift through a zero coupling
    seeded = RingParams(4, r.a, (0.0,) + r.b[1:])
    result = remove_resonances(seeded, k_max=3, epsilon=1e-3)
    c_new = result.perturbed.coupling_product()
    assert min(abs(c_new - v) for v in fs.values) > 0.0
    assert detect_resonance(eigenvalues(result.perturbed), k_max=3) == []


def test_remove_resonances_validates_arguments():
    with pytest.raises(ValueError):
        remove_resonances(oracles.REFERENCE_RING, k_max=1, epsilon=1e-3)
    with pytest.raises(ValueError):
        remove_resonances(oracles.REFERENCE_RING, k_max=3, epsilon=-1.0)


def test_imaginary_resonance_impossible_for_rings():
    # |A(i*k*w)| = prod sqrt(a_j^2 + k^2 w^2) grows strictly with k, but a
    # k:1 axis resonance would need |A(i*w)| = |A(i*k*w)| = |c|; so ring
    # spectra never carry one, and detection only fires on general spectra
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        r = RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        s = eigenvalues(r)
        flags = [f for f in detect_resonance(s, k_max=10) if f.k >= 2]
        assert flags == []


# a double root at 0 with a zero coupling: both repairs take the full path
ZERO_COUPLED_DOUBLE = RingParams(3, (0.0, 0.0, 3.0), (0.0, 2.0, -2.0))


def margin_of(result):
    c = result.perturbed.coupling_product()
    return min(abs(c - v) for v in (*result.forbidden.values, 0.0))


def test_remove_multiple_pins_notes_and_budget_message():
    result = remove_multiple(ZERO_COUPLED_DOUBLE, epsilon=1e-3)
    assert result.removed == (
        "zero coupling b[0] replaced by 0.0005",
        "multiple eigenvalue near 0+0j (multiplicity 2)",
    )
    assert 0.0 < result.delta <= 1e-3
    assert [s[0] for s in result.forbidden.sources] == ["p_prime_root"] * 2
    with pytest.raises(PerturbationBudgetError) as info:
        remove_multiple(ZERO_COUPLED_DOUBLE, epsilon=1e-3, gap_tol=1.0)
    assert str(info.value) == (
        "achieved gap 5.164e-02 <= gap_tol 1.000e+00; nearest forbidden value -0.0"
    )


def test_shift_budget_message_names_c_reach_and_nearest_value():
    # epsilon/2 times |b_2 b_3| = 2e-300 cannot move c = -4 in floating point
    with pytest.raises(PerturbationBudgetError) as info:
        remove_multiple(RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0)), epsilon=1e-300)
    assert str(info.value) == (
        "epsilon=1e-300 cannot clear the forbidden set: c=-4.0 moves by at most "
        "2.000e-300, and the nearest value to avoid (forbidden, or 0) is "
        "-4.0, 0.000e+00 from c"
    )


def test_remove_multiple_keeps_close_simple_roots_apart():
    # the repaired ring has simple roots 2.6e-6 apart, inside the polish
    # radius; their means fail the backward-error gate
    r = RingParams(6, (-2, 3, 3, 0, -2, 1), (1, 0, 1, 0, 2, 0))
    result = remove_multiple(r, 1e-3)
    assert result.delta == 5e-4
    assert result.achieved_gap == pytest.approx(2.58e-6, rel=1e-2)


def test_remove_resonances_pins_notes_sources_and_budget_message(monkeypatch):
    result = remove_resonances(ZERO_COUPLED_DOUBLE, k_max=3, epsilon=1e-3)
    assert result.removed == ("zero coupling b[0] replaced by 0.0005",)
    assert 0.0 < result.delta <= 1e-3
    # resonance entries for k = 2, 3 first, then the multiplicity entries
    kinds = [s[:-1] for s in result.forbidden.sources]
    assert kinds == [("resonance_root", 2)] * 3 + [("resonance_root", 3)] * 3 + [
        ("p_prime_root",)
    ] * 2
    # ring spectra carry no k:1 axis resonance, so a stand-in detector flags
    # the unrepaired spectrum (double root at 0) and then every spectrum
    monkeypatch.setattr(
        genericity,
        "detect_resonance",
        lambda s, k_max, tol: [ResonanceFlag(2, 1.0)] if 0j in s.eigenvalues else [],
    )
    result = remove_resonances(ZERO_COUPLED_DOUBLE, k_max=3, epsilon=1e-3)
    assert result.removed == (
        "zero coupling b[0] replaced by 0.0005",
        "2:1 resonance at omega=1",
    )
    monkeypatch.setattr(
        genericity, "detect_resonance", lambda s, k_max, tol: [ResonanceFlag(2, 1.0)]
    )
    with pytest.raises(PerturbationBudgetError) as info:
        remove_resonances(ZERO_COUPLED_DOUBLE, k_max=3, epsilon=1e-3)
    assert str(info.value) == "resonances remain after perturbation: [(2, 1.0)]"


def test_repairs_record_the_margin_of_c():
    for result in (
        remove_multiple(ZERO_COUPLED_DOUBLE, epsilon=1e-3),
        remove_resonances(ZERO_COUPLED_DOUBLE, k_max=3, epsilon=1e-3),
        remove_multiple(RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0)), epsilon=1e-3),
    ):
        assert result.delta > 0.0
        assert result.margin > 0.0
        assert result.margin == margin_of(result)
        assert result.to_dict()["margin"] == result.margin
    identity = remove_multiple(oracles.REFERENCE_RING, epsilon=1e-3)
    assert identity.delta == 0.0
    assert identity.margin == margin_of(identity) > 0.0


DOUBLE_AT_TWO = RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0))  # p = -(z - 2)^2 (z + 1)


@pytest.mark.parametrize("gap_tol", [math.nan, math.inf, 0.0, -1.0])
def test_gap_tol_must_be_positive_and_finite(gap_tol):
    # a NaN gap found no cluster, and the double root at 2 came back unrepaired
    with pytest.raises(ValueError, match=rf"^gap_tol must be positive and finite, got {gap_tol}$"):
        detect_multiple(eigenvalues(DOUBLE_AT_TWO), gap_tol)
    with pytest.raises(ValueError, match="gap_tol"):
        remove_multiple(DOUBLE_AT_TWO, 1e-3, gap_tol=gap_tol)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_repair_epsilon_must_be_finite(epsilon):
    message = rf"^epsilon must be positive and finite, got {epsilon}$"
    with pytest.raises(ValueError, match=message):
        remove_multiple(oracles.REFERENCE_RING, epsilon)
    with pytest.raises(ValueError, match=message):
        remove_resonances(oracles.REFERENCE_RING, 2, epsilon)
