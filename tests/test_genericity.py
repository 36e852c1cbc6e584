"""Tests for forbidden sets, resonance polynomials and coupling perturbations."""

import math
import warnings

import mpmath
import numpy as np
import pytest

import oracles
from ringhopf import genericity
from ringhopf.genericity import (
    ForbiddenSet,
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
from ringhopf.spectra import RootFindingError, a_poly_coeffs, adjacency_spectrum, eigenvalues
from ringhopf.spectra import Spectrum


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
    # the Q_k sources bit for bit; the roots of A' against mpmath on every 25th ring
    rng = np.random.default_rng(13)
    for i in range(1000):
        r = uniform_ring(int(rng.integers(3, 41)), rng)
        fs = resonance_forbidden_set(r, k_max=3)
        assert list(fs.sources) == oracles.polyval_forbidden_sources(r.a, k_max=3), r
        if i % 25 == 0:
            roots = [lam for _, lam in multiplicity_forbidden_set(r).sources]
            exact = oracles.mp_critical_points(r.a)
            assert max(abs(x - complex(xi)) for x, xi in zip(roots, exact)) <= 3e-14, r


def test_multiplicity_values_are_minus_A_at_the_exact_critical_points():
    # n - 1 values in increasing order of the root; a repeated a_j, signed zeros
    # included, is itself the root, m - 1 times, where -A is exactly zero
    rng = np.random.default_rng(23)
    diagonals = []
    for n in range(3, 41):
        diagonals.append(tuple(rng.uniform(-3, 3, n)))
        diagonals.append(tuple(rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -3.0], n)))
    diagonals += [(0.0, -0.0, 1.0), (-0.0, 0.0, -0.0, 2.0), (1.5,) * 17 + (-1.0, 0.0, 4.0)]
    for a in diagonals:
        fs = multiplicity_forbidden_set(RingParams(len(a), a, (1.0,) * len(a)))
        exact = oracles.mp_critical_points(a)
        assert [source for source, _ in fs.sources] == ["p_prime_root"] * (len(a) - 1)
        with mpmath.workdps(40):
            for value, (_, lam), xi in zip(fs.values, fs.sources, exact):
                if xi in a:
                    assert (lam, value) == (complex(xi), 0.0), a
                want = -mpmath.fprod(mpmath.mpf(v) - xi for v in a)
                assert abs(value - want) <= 1e-12 * abs(want), (a, lam)


def test_grid_double_rings_at_n_40_lie_on_a_forbidden_value():
    # np.roots of the dense A' placed these up to 3e-3 away from the constructed c
    rng = np.random.default_rng(24)
    for _ in range(30):
        r, lam = oracles.construct_grid_double_ring(40, rng)
        c = r.coupling_product()
        nearest = min(multiplicity_forbidden_set(r).values, key=lambda v: abs(v - c))
        assert abs(nearest - c) <= 1e-12 * abs(c), lam


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
        lambda s, k_max: [ResonanceFlag(2, 1.0)] if 0j in s.eigenvalues else [],
    )
    result = remove_resonances(ZERO_COUPLED_DOUBLE, k_max=3, epsilon=1e-3)
    assert result.removed == (
        "zero coupling b[0] replaced by 0.0005",
        "2:1 resonance at omega=1",
    )
    monkeypatch.setattr(
        genericity, "detect_resonance", lambda s, k_max: [ResonanceFlag(2, 1.0)]
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


def diagonals(n, rng):
    """A random diagonal, an integer one with a zero entry and one with repeated entries."""
    integer = rng.integers(-3, 4, n).astype(float)
    integer[rng.integers(n)] = 0.0
    repeated = np.repeat(rng.uniform(-3, 3, (n + 1) // 2), 2)[:n]
    return [rng.uniform(-3, 3, n), integer, repeated]


def test_stacked_roots_equal_np_roots_bitwise():
    # a zero a_j makes the constant terms of A and Q_k 0, which np.roots strips into
    # zero roots, so the companions of one call differ in size
    rng = np.random.default_rng(17)
    stacks = []
    for n in range(3, 41):
        for a in diagonals(n, rng):
            A = np.array(a_poly_coeffs(a))
            stacks.append([genericity._resonance_coeffs(A, k) for k in range(2, 6)] + [np.polyder(A)])
    # size-3 companions with roots +-i and with two real roots, then all zeros, a
    # constant, and leading and trailing zeros around a linear factor
    stacks.append(
        [
            np.array([1.0, 0.0, 1.0]),
            np.array([1.0, -3.0, 2.0]),
            np.zeros(3),
            np.array([0.0, 5.0]),
            np.array([0.0, 0.0, 2.0, -1.0, 0.0, 0.0]),
        ]
    )
    for polys in stacks:
        for got, p in zip(genericity._roots(polys), polys):
            want = np.roots(p)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), p


def per_k_forbidden_set(a, k_max):
    """The resonance forbidden set from one np.roots call and one -A product per k."""
    A = np.array(a_poly_coeffs(a))
    values, sources = [], []
    for k in range(2, k_max + 1):
        lam = np.roots(genericity._resonance_coeffs(A, k))
        v = -np.prod(np.asarray(a) - lam[:, None], axis=1)
        keep = np.abs(v.imag) < genericity.REAL_VALUE_TOL * (1.0 + np.abs(v))
        values += v.real[keep].tolist()
        sources += [("resonance_root", k, complex(x)) for x in lam[keep]]
    return ForbiddenSet(tuple(values), tuple(sources))


def test_one_product_pass_equals_one_pass_per_k():
    # small integer diagonals with signed zeros give Q_k whose roots np.roots returns
    # real for some k and complex for others, and products that are exactly +-0
    rng = np.random.default_rng(19)
    kinds = set()
    for _ in range(300):
        n = int(rng.integers(3, 8))
        a = tuple(rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -3.0], n))
        ring = RingParams(n, a, (1.0,) * n)
        kinds.add(tuple(np.roots(resonance_poly(ring, k)).dtype.kind for k in range(2, 6)))
        assert repr(resonance_forbidden_set(ring, 5)) == repr(per_k_forbidden_set(a, 5)), a
    assert any(len(set(k)) == 2 for k in kinds)


@pytest.mark.parametrize("kind", ["plain", "axis", "double"])
def test_the_repair_pipeline_finds_each_diagonals_roots_once(kind, eigensolves, critical_points):
    # the rings of test_the_repair_pipeline_solves_each_ring_once; a repair keeps a
    n, rng = 10, np.random.default_rng(7)
    if kind == "plain":
        ring = RingParams(n, tuple(rng.uniform(-3, 3, n)), tuple(rng.uniform(-3, 3, n)))
    elif kind == "axis":
        ring = oracles.construct_hopf_ring(n, rng)[0]
    else:
        ring = oracles.construct_grid_double_ring(n, rng)[0]
    eigenvalues(ring)
    multiple = remove_multiple(ring, epsilon=1e-3)
    remove_resonances(multiple.perturbed, k_max=3, epsilon=1e-3)
    assert (multiple.perturbed is ring) == (kind != "double")
    # the n - 1 gaps of A' once, and the gap of the double root as eigenvalues snaps
    # it; Q_2 and Q_3 in one call (companions 2n - 1)
    assert critical_points() == n - 1 + (kind == "double")
    assert eigensolves == [(2, 2 * n - 1, 2 * n - 1)]


def test_diagonals_differing_in_the_sign_of_a_zero_are_computed_apart(eigensolves, critical_points):
    plus = RingParams(3, (0.0, 1.0, 2.0), (1.0, 1.0, 1.0))
    minus = RingParams(3, (-0.0, 1.0, 2.0), (1.0, 1.0, 1.0))
    assert plus == minus
    first = resonance_forbidden_set(plus, 2)
    # -A at the zero root of Q_2 is -0.0 for one diagonal and 0.0 for the other
    assert repr(resonance_forbidden_set(minus, 2)) != repr(first)
    assert repr(resonance_forbidden_set(RingParams(3, plus.a, minus.b), 2)) == repr(first)
    assert len(eigensolves) == 3
    multiplicity_forbidden_set(plus)
    multiplicity_forbidden_set(minus)
    assert multiplicity_forbidden_set(RingParams(3, minus.a, plus.b)) is multiplicity_forbidden_set(minus)
    assert (len(eigensolves), critical_points()) == (3, 2 * 2)  # both gaps of each diagonal


def test_a_gap_of_one_ulp_has_its_critical_point_inside():
    # the gap is within 4 ulps, so the search takes its midpoint without a step
    fs = multiplicity_forbidden_set(RingParams(3, (1.0, 1.0 + 2**-52, 3.0), (1.0,) * 3))
    tag, xi = fs.sources[0]
    assert tag == "p_prime_root" and 1.0 <= xi.real <= 1.0 + 2**-52 and xi.imag == 0.0


def test_resonance_set_that_overflows_is_a_named_error():
    # A's dense coefficients reach 3e195, so Q_2 has 35 coefficients that are not finite; the
    # product-form paths solve the same ring
    ring = RingParams(64, tuple(float(v) for v in np.linspace(-3000.0, 3000.0, 64)), (1.0,) * 64)
    message = r"^Q_2 of a ring with n = 64 has 35 of 128 dense coefficients that are not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: resonance_forbidden_set(ring, 2),
            lambda: resonance_forbidden_set(ring, 3),
            lambda: resonance_poly(ring, 2),
            lambda: remove_resonances(ring, 2, 1e-3),
        ):
            with pytest.raises(RootFindingError, match=message):
                call()
        assert eigenvalues(ring).n == 64
        assert remove_multiple(ring, 1e-3).perturbed == ring


def test_resonance_forbidden_set_rejects_k_max_below_2():
    with pytest.raises(ValueError, match=r"^k_max must be >= 2, got 1$"):
        resonance_forbidden_set(oracles.REFERENCE_RING, 1)


@pytest.mark.parametrize("k", [2.5, 3.0, True])
def test_resonance_orders_must_be_integers(k):
    # a float or a bool is named, where range() used to raise a bare TypeError
    ring, spectrum = oracles.REFERENCE_RING, eigenvalues(oracles.REFERENCE_RING)
    for name, call in [
        ("k", lambda: resonance_poly(ring, k)),
        ("k_max", lambda: resonance_forbidden_set(ring, k)),
        ("k_max", lambda: detect_resonance(spectrum, k)),
        ("k_max", lambda: remove_resonances(ring, k, 1e-3)),
    ]:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 2, got {k!r}$"):
            call()


def test_resonance_orders_take_numpy_integers():
    ring = oracles.REFERENCE_RING
    assert resonance_poly(ring, np.int64(3)).tolist() == resonance_poly(ring, 3).tolist()
    assert resonance_forbidden_set(ring, np.int64(3)) == resonance_forbidden_set(ring, 3)
    s6 = adjacency_spectrum(AdjacencyMatrix(6, oracles.ADJ_6))
    assert detect_resonance(s6, np.int64(5)) == detect_resonance(s6, 5) != []
    assert remove_resonances(ring, np.int64(3), 1e-3) == remove_resonances(ring, 3, 1e-3)
    with pytest.raises(ValueError, match=r"^k must be >= 2, got 1$"):
        resonance_poly(ring, np.int64(1))


def test_remove_multiple_measures_the_repaired_gap_once(monkeypatch, solves):
    ring, _ = oracles.construct_grid_double_ring(8, np.random.default_rng(8))
    gaps = []
    min_gap = Spectrum.min_gap
    monkeypatch.setattr(Spectrum, "min_gap", lambda s: gaps.append(s) or min_gap(s))
    result = remove_multiple(ring, 1e-3)
    assert (len(gaps), solves()) == (1, 2)
    assert result.perturbed is not ring and gaps[0] is eigenvalues(result.perturbed)
    assert result.achieved_gap == gaps[0].min_gap() > 0


def test_all_zero_spectra_cluster_at_a_positive_default_gap_tol():
    ring = RingParams(3, (0.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    spectrum = eigenvalues(ring)
    assert set(spectrum.eigenvalues) == {0j} and 0 < genericity.default_gap_tol(spectrum)
    assert [c.multiplicity for c in detect_multiple(spectrum)] == [3]
    nilpotent = adjacency_spectrum(AdjacencyMatrix(3, ((0, 1, 1), (0, 0, 1), (0, 0, 0))))
    assert [c.multiplicity for c in detect_multiple(nilpotent)] == [3]
    result = remove_multiple(ring, 1e-3)
    assert result.removed[0] == "zero coupling b[0] replaced by 0.0005"
    assert result.achieved_gap > 0
