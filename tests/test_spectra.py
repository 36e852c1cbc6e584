"""Tests for the characteristic polynomial, root finding and eigenvectors."""

import math

import numpy as np
import pytest

import oracles
from ringhopf.model import AdjacencyMatrix, RingParams
from ringhopf.spectra import (
    RootFindingError,
    ZeroCouplingError,
    adjacency_spectrum,
    char_poly,
    eigenvalues,
    eigenvector_for,
)


def test_char_poly_reference_ring():
    cp = char_poly(oracles.REFERENCE_RING)
    # -(1-l)(-2-l)(-3-l) has leading -1; constant picks up c = -10
    assert cp.c == -10.0
    assert cp.coefficients == (-1.0, -4.0, -1.0, -4.0)
    assert abs(cp.evaluate(1j)) < 1e-12
    assert abs(cp.evaluate(-4.0)) < 1e-12


def test_char_poly_matches_cofactor_oracle():
    rng = np.random.default_rng(0)
    for n in (3, 4, 5, 7):
        r = RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        ours = np.array(char_poly(r).coefficients)
        ref = np.array(oracles.cofactor_char_poly(r))
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(ours - ref).max() < 1e-12 * scale


def test_reference_ring_eigenvalues():
    s = eigenvalues(oracles.REFERENCE_RING)
    assert max(
        abs(x - y) for x, y in zip(s.eigenvalues, oracles.REFERENCE_EIGENVALUES)
    ) < 1e-9
    assert s.omega == pytest.approx(1.0, abs=1e-9)
    assert s.tau == -4.0


def test_second_ring_eigenvalues():
    s = eigenvalues(oracles.SECOND_RING)
    assert max(
        abs(x - y) for x, y in zip(s.eigenvalues, oracles.SECOND_EIGENVALUES)
    ) < 1e-9
    assert s.omega == pytest.approx(math.sqrt(6), abs=1e-9)


def test_circulant_cube_roots():
    # a = 0, b = 1: eigenvalues are the cube roots of unity
    r = RingParams(3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    s = eigenvalues(r)
    expected = sorted(
        (np.exp(2j * math.pi * k / 3) for k in range(3)),
        key=lambda m: (m.real, m.imag),
    )
    assert max(abs(x - y) for x, y in zip(s.eigenvalues, expected)) < 1e-12


def test_zero_coupling_shortcut_exact():
    r = RingParams(3, (2.0, -1.0, 0.5), (0.0, 3.0, 4.0))
    s = eigenvalues(r)
    assert s.eigenvalues == (-1.0 + 0.0j, 0.5 + 0.0j, 2.0 + 0.0j)


def test_random_rings_match_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        r = RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        ours = eigenvalues(r).eigenvalues
        ref = oracles.dense_eigvals(r)
        assert max(abs(x - y) for x, y in zip(ours, ref)) < 1e-8


def test_overflowing_start_raises_or_matches_dense_oracle():
    # at n = 40 the start circle of radius 1 + max|dense coefficient| makes
    # prod(a_j - z) overflow, and every residual comes back NaN
    rng = np.random.default_rng(0)
    r = RingParams(40, tuple(rng.uniform(-3, 3, 40)), tuple(rng.uniform(-3, 3, 40)))
    try:
        ours = eigenvalues(r).eigenvalues
    except RootFindingError:
        return
    ref = oracles.dense_eigvals(r)
    assert max(min(abs(x - y) for y in ours) for x in ref) < 1e-6


def test_spectrum_invariants_trace_and_det():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        r = RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        s = eigenvalues(r)
        assert abs(sum(s.eigenvalues) - r.trace()) < 1e-9 * (1 + abs(r.trace()))
        det = np.linalg.det(r.jacobian())
        prod = np.prod(np.array(s.eigenvalues))
        assert abs(prod - det) < 1e-8 * (1.0 + abs(det))


def test_conjugate_symmetry_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        r = RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        mus = eigenvalues(r).eigenvalues
        conj = sorted((m.conjugate() for m in mus), key=lambda m: (m.real, m.imag))
        assert list(mus) == conj


def test_double_eigenvalue_resolved_exactly():
    # p(l) = l^2(3-l) - 4 = -(l+1)(l-2)^2
    r = RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0))
    s = eigenvalues(r)
    assert s.eigenvalues == (-1.0 + 0.0j, 2.0 + 0.0j, 2.0 + 0.0j)


def test_triple_zero_eigenvalue():
    r = RingParams(3, (0.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    s = eigenvalues(r)
    assert s.eigenvalues == (0.0j, 0.0j, 0.0j)


def test_residuals_are_small():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        r = RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        s = eigenvalues(r)
        cp = char_poly(r)
        assert max(s.residuals) <= 1e-9 * max(1.0, cp.max_coefficient())


def test_eigenvector_reference_ring():
    u = eigenvector_for(oracles.REFERENCE_RING, 1j)
    assert u.entries[0] == 1.0
    # u_2 = (i - 1)/1, u_3 = (i - 1)(i + 2)/1
    assert abs(u.entries[1] - (1j - 1.0)) < 1e-12
    assert abs(u.entries[2] - (1j - 1.0) * (1j + 2.0)) < 1e-12


def test_eigenvector_closure_and_residual():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        r = RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        for mu in eigenvalues(r).eigenvalues:
            u = eigenvector_for(r, mu)
            J = r.jacobian()
            vec = np.array(u.entries)
            res = np.abs(J @ vec - mu * vec).max()
            assert res < 1e-9 * np.abs(vec).max()


def test_eigenvector_rejects_non_eigenvalue():
    with pytest.raises(ValueError, match="closure"):
        eigenvector_for(oracles.REFERENCE_RING, 0.7 + 0.2j)


def test_eigenvector_rejects_zero_coupling():
    r = RingParams(3, (1.0, 2.0, 3.0), (0.0, 1.0, 1.0))
    with pytest.raises(ZeroCouplingError):
        eigenvector_for(r, 1.0)


def _match_multiset(got, expected, tol):
    remaining = list(got)
    for want in expected:
        best = min(remaining, key=lambda m: abs(m - want))
        assert abs(best - want) < tol, f"{want} not matched within {tol}"
        remaining.remove(best)


def test_adjacency_spectrum_five_node():
    adj = AdjacencyMatrix(5, oracles.ADJ_5)
    s = adjacency_spectrum(adj)
    _match_multiset(s.eigenvalues, oracles.ADJ_5_SPECTRUM, 1e-9)


def test_adjacency_spectrum_six_node():
    adj = AdjacencyMatrix(6, oracles.ADJ_6)
    s = adjacency_spectrum(adj)
    _match_multiset(s.eigenvalues, oracles.ADJ_6_SPECTRUM, 1e-9)


def test_adjacency_defective_zeros_exact():
    s = adjacency_spectrum(AdjacencyMatrix(5, oracles.ADJ_5))
    zeros = [m for m in s.eigenvalues if m == 0.0]
    assert len(zeros) == 2


def test_omega_squared_identity_n3():
    # for an n=3 axis pair, omega^2 equals the second symmetric function of a
    rng = np.random.default_rng(6)
    for _ in range(50):
        r, omega = oracles.construct_hopf_ring(3, rng)
        a1, a2, a3 = r.a
        assert omega**2 == pytest.approx(
            a1 * a2 + a1 * a3 + a2 * a3, rel=1e-8, abs=1e-8
        )
        s = eigenvalues(r)
        assert s.omega is not None
        assert s.omega == pytest.approx(omega, rel=1e-8, abs=1e-8)


def test_at_most_one_imaginary_pair():
    # |prod(a_j - i*w)| is strictly increasing in w, so a ring polynomial
    # can place at most one conjugate pair on the axis
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        r = RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        s = eigenvalues(r)
        axis = [m for m in s.eigenvalues if abs(m.real) < 1e-8 and m.imag > 1e-8]
        assert len(axis) <= 1
