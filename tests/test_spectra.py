"""Tests for the characteristic polynomial, root finding and eigenvectors."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringhopf import simulate, spectra
from ringhopf.genericity import detect_multiple, remove_multiple, remove_resonances
from ringhopf.model import AdjacencyMatrix, AdmissibleOdeFamily, RingParams, time_rescale
from ringhopf.spectra import (
    RootFindingError,
    Spectrum,
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


def test_eigenvector_accepted_at_eigenpair_backward_error():
    # mu = 2.8700000549... is an eigenvalue to rounding whose closure product
    # misses 1 by 1.5e-8; its residual, 7.7e-10 max|u|, is within the bound
    r = RingParams(4, (2.87, 0.88, -1.14, -0.78), (0.01, -0.16, 0.02, -0.05))
    norm = max(abs(x) + abs(y) for x, y in zip(r.a, r.b))
    for mu in eigenvalues(r).eigenvalues:
        u = np.array(eigenvector_for(r, mu).entries)
        residual = np.abs(r.jacobian() @ u - mu * u).max()
        assert residual <= 1e-9 * (norm + abs(mu)) * np.abs(u).max()
    with pytest.raises(
        ValueError,
        match=r"^closure product \S+ differs from 1 by \S+: the eigenvector residual \S+ exceeds "
        r"\S+ at mu=\(0\.7\+0\.2j\), whose backward error as a root of p is \d\.\d{3}e-01$",
    ):
        eigenvector_for(r, 0.7 + 0.2j)


def test_eigenvectors_at_any_scale_of_the_ring():
    # an absolute closure or residual test rejected 3 of these 242
    # eigenvalues at s = 1e4 and 234 at s = 1e8
    rng = np.random.default_rng(3)
    rings = []
    for _ in range(40):
        n = int(rng.integers(3, 10))
        rings.append(RingParams(n, tuple(rng.normal(size=n)), tuple(rng.normal(size=n))))
    for s in (1e-6, 1e4, 1e8):
        for r in rings:
            scaled = time_rescale(r, s)
            for mu in eigenvalues(scaled).eigenvalues:
                assert eigenvector_for(scaled, mu).eigenvalue == mu


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


def test_adjacency_roots_equal_the_strip_and_concatenate_construction():
    rng = np.random.default_rng(8)
    mats = [oracles.ADJ_5, oracles.ADJ_6, ((0, 0), (0, 0)), ((0, 1, 0), (0, 0, 1), (0, 0, 0))]
    for i in range(300):
        n = int(rng.integers(2, 8))
        m = rng.integers(0, 4, (n, n))
        if i % 3 == 1:  # nilpotent: strictly upper triangular, relabelled
            perm = rng.permutation(n)
            m = np.triu(m, 1)[perm][:, perm]
        elif i % 3 == 2:
            m[:, int(rng.integers(n))] = 0
        mats.append(tuple(tuple(int(v) for v in row) for row in m))
    for rows in mats:
        adj = AdjacencyMatrix(len(rows), rows)
        roots = oracles.stripped_adjacency_roots(spectra._faddeev_leverrier(adj.matrix()))
        want = spectra._symmetrise_conjugates(roots)
        assert repr(adjacency_spectrum(adj).eigenvalues) == repr(tuple(want))


def test_adjacency_defective_zeros_exact():
    s = adjacency_spectrum(AdjacencyMatrix(5, oracles.ADJ_5))
    zeros = [m for m in s.eigenvalues if m == 0.0]
    assert len(zeros) == 2


def test_adjacency_residuals_equal_the_per_root_loop():
    rng = np.random.default_rng(21)
    mats = [(5, oracles.ADJ_5), (6, oracles.ADJ_6)]
    for _ in range(100):
        n = int(rng.integers(2, 9))
        mats.append((n, tuple(tuple(int(v) for v in row) for row in rng.integers(0, 4, (n, n)))))
    for n, rows in mats:
        adj = AdjacencyMatrix(n, rows)
        s = adjacency_spectrum(adj)
        coeffs = spectra._faddeev_leverrier(adj.matrix())
        values = [abs(np.polyval(coeffs, m)) for m in s.eigenvalues]
        etas = [
            spectra._backward_error(v, np.polyval(abs(coeffs), abs(m)))
            for v, m in zip(values, s.eigenvalues)
        ]
        assert s.residuals == tuple(float(v) / np.abs(coeffs).max() for v in values)
        assert s.backward_error == float(max(etas))


def test_close_simple_roots_keep_their_aberth_values():
    # b = (1, 5e-4, 1, 5e-4, 2, 5e-4): simple roots -2 +- 1.29e-6 and
    # 3 +- 1.29e-6, closer than the polish radius; their means fail the gate
    r = RingParams(6, (-2.0, 3.0, 3.0, 0.0, -2.0, 1.0), (1.0, 5e-4, 1.0, 5e-4, 2.0, 5e-4))
    s = eigenvalues(r)
    assert s.backward_error < 1e-12
    assert s.min_gap() == pytest.approx(2.58e-6, rel=1e-2)
    _match_multiset(s.eigenvalues, oracles.dense_eigvals(r), 1e-9)


def test_zero_coupling_ring_returns_its_diagonal_exactly():
    # with c = 0 the Aberth roots start and stay on the a_j; a block of 17 equal a_j,
    # and the vector sweep it brings, leaves them as they are
    a = (0.1,) * 17 + (-1.0, 2.0, 4.5)
    s = eigenvalues(RingParams(20, a, (1.0,) * 19 + (0.0,)))
    assert s.eigenvalues == tuple(complex(v) for v in sorted(a))


def test_near_triple_cluster_keeps_its_own_roots():
    # c = 1e-25 splits the triple a_j = 1 by about 2.6e-9: three roots closer than the
    # polish radius, which no single root of A' joins, so none is snapped
    r = RingParams(5, (1.0, 1.0, 1.0, -2.0, 3.0), (1e-5,) * 5)
    near = [m for m in eigenvalues(r).eigenvalues if abs(m - 1.0) < 1e-6]
    assert len(set(near)) == 3
    assert all(spectra.backward_error(r, m) <= spectra.RESIDUAL_TOL for m in near)
    _assert_matches_mpmath(r)


@pytest.mark.parametrize("n", [4, 10, 20, 40])
def test_a_snapped_pair_is_the_critical_point_of_its_gap(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        r, lam = oracles.construct_grid_double_ring(n, rng)
        s = sorted(r.a)
        k = max(i for i in range(n - 1) if s[i] < lam)
        xi = spectra._critical_point(s, k)
        assert eigenvalues(r).eigenvalues.count(complex(xi)) == 2, lam
        assert abs(xi - lam) <= 3e-14


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


def _assert_matches_mpmath(r: RingParams):
    """The spectrum against the 50-digit roots, as a multiset.

    A root whose nearest neighbour lies within 1e-4 of the inclusion scale
    R = max|a_j| + |c|^(1/n) belongs to a cluster of m such roots, and only
    (1e-12)^(1/m) R of it is asked; a simple root is asked 1e-12 R.
    """
    s = eigenvalues(r)
    scale = _assert_roots_match_mpmath(r, s.eigenvalues)
    assert s.backward_error <= 1e-10
    return s, scale


def _assert_roots_match_mpmath(r: RingParams, *root_sets) -> float:
    """The multiset check of _assert_matches_mpmath on each root set; returns R."""
    c = r.coupling_product()
    true = oracles.mp_ring_roots(r.a, c, root_sets[0])
    scale = max(abs(v) for v in r.a) + abs(c) ** (1.0 / r.n)
    sizes = [sum(abs(w - v) < 1e-4 * scale for v in true) for w in true]
    for roots in root_sets:
        remaining = list(roots)
        for w, m in sorted(zip(true, sizes), key=lambda p: p[1]):
            k = min(range(len(remaining)), key=lambda i: abs(remaining[i] - w))
            assert abs(remaining.pop(k) - w) <= 1e-12 ** (1.0 / m) * scale, f"root {w} unmatched"
    return scale


@settings(max_examples=30)
@given(
    n=st.integers(3, 64),
    log_scale=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_rings_match_mpmath(n, log_scale, seed):
    # dense QR is no oracle here: at n = 40 it loses about 1e-8
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    r = RingParams(n, tuple(scale * rng.uniform(-3, 3, n)), tuple(scale * rng.uniform(-3, 3, n)))
    _assert_matches_mpmath(r)


@settings(max_examples=30)
@given(
    n=st.integers(4, 20),
    log_scale=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_double_root_rings_match_mpmath(n, log_scale, seed):
    # both halves of the double root come back, and no simple root is
    # traded for a third copy of it
    rng = np.random.default_rng(seed)
    r, lam = oracles.construct_grid_double_ring(n, rng, 10.0**log_scale)
    s, scale = _assert_matches_mpmath(r)
    assert sum(abs(m - lam) < 1e-6 * scale for m in s.eigenvalues) == 2


def test_double_root_ring_near_the_top_of_the_float_range():
    # |c| is about 1e269 here: an Aberth step that overshoots overflows
    # prod(a_j - z), and a NaN iterate made every root NaN through the
    # Aberth sums
    r, _ = oracles.construct_grid_double_ring(64, np.random.default_rng(0), 1e4)
    _assert_matches_mpmath(r)


def test_vector_sweep_near_the_top_of_the_float_range(monkeypatch):
    # |c| = max/(n + 1/2): about the roots the scale sum stays finite but
    # adding |c| to it overflows, which must read as an infinite backward
    # error on both sweeps, not as an exact root
    n = 20
    a = tuple(float(v) for v in np.random.default_rng(3).uniform(-3, 3, n))
    c = -1.7976931348623157e308 / (n + 0.5)
    z = [a[k] + abs(c) ** (1 / n) * np.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    assert n >= spectra.VECTOR_SWEEP_MIN_N
    assert spectra._eval_points(a, c, z)[2].tolist() == [math.inf] * n
    for crossover in (n, n + 1):  # the vector sweep, then the scalar one
        monkeypatch.setattr(spectra, "VECTOR_SWEEP_MIN_N", crossover)
        with pytest.raises(RootFindingError, match="backward error inf"):
            spectra._aberth_roots(a, c)


def test_vector_sweep_on_a_ring_whose_factors_overflow_warns_of_nothing():
    # a_j - z passes the float range in numpy's first product, which must read as an
    # infinite backward error and fail the gate, not escape as a RuntimeWarning
    n = spectra.VECTOR_SWEEP_MIN_N
    ring = RingParams(n, (-1.7e308,) * (n // 2) + (1.7e308,) * (n - n // 2), (1e25,) * n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootFindingError, match=rf"backward error inf .* \({n} of {n} roots\)"):
            eigenvalues(ring)


def test_start_points_past_the_float_range_fail_both_sweeps_by_overflow():
    # abs() of a factor a_j - z raises OverflowError in the first sweep of each; its catch
    # makes every eta inf and keeps the starts, one sweep counted. The vector sweep evaluates
    # in numpy below VECTOR_SWEEP_MIN_N too, where _eval_points' scalar branch made it raise
    # TypeError (and RuntimeWarning under -W error)
    for n in (spectra.VECTOR_SWEEP_MIN_N - 1, spectra.VECTOR_SWEEP_MIN_N):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectra._vector_roots((-1.5e308,) * n, 1.0, [1.5e308j] * n)
        assert got == (1, [1.5e308j] * n, [math.inf] * n)
    got = spectra._sweep_kernel(3)((-1.5e308,) * 3, 1.0, spectra.FREEZE_TOL, [1.5e308j] * 3)
    assert got == (1, [1.5e308j] * 3, [math.inf] * 3)


def test_spectrum_records_iterations_and_backward_error():
    s = eigenvalues(oracles.REFERENCE_RING)
    assert s.iterations > 0
    assert 0.0 <= s.backward_error <= 1e-10
    doc = s.to_dict()
    assert doc["iterations"] == s.iterations
    assert doc["backward_error"] == s.backward_error


def test_size_40_ring_gets_a_spectrum():
    # the start circle of radius 1 + max|dense coefficient| made every
    # residual NaN at this size
    rng = np.random.default_rng(0)
    r = RingParams(40, tuple(rng.uniform(-3, 3, 40)), tuple(rng.uniform(-3, 3, 40)))
    s = eigenvalues(r)
    true = oracles.mp_ring_roots(r.a, r.coupling_product(), s.eigenvalues)
    assert max(min(abs(x - y) for y in s.eigenvalues) for x in true) < 1e-13


def test_gate_names_worst_backward_error_and_threshold(monkeypatch):
    rng = np.random.default_rng(0)
    r = RingParams(40, tuple(rng.uniform(-3, 3, 40)), tuple(rng.uniform(-3, 3, 40)))
    monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
    with pytest.raises(
        RootFindingError,
        match=r"worst backward error \S+ exceeds the threshold 0\.000e\+00 \(\d+ of 40 roots\)",
    ):
        eigenvalues(r)


def test_power_sums_reject_roots_that_are_not_the_root_set(monkeypatch):
    # roots frozen at a backward error of 1e-3 pass a gate of 1e-2, but
    # their power sums are off by far more than rounding
    monkeypatch.setattr(spectra, "FREEZE_TOL", 1e-3)
    monkeypatch.setattr(spectra, "RESIDUAL_TOL", 1e-2)
    with pytest.raises(RootFindingError, match="power sum"):
        eigenvalues(oracles.REFERENCE_RING)


def test_spectrum_scales_with_the_ring():
    # a double root split by 1e-9 of c: one sign of the split puts a pair
    # about 1e-5 of the radius off the axis, which at 1e-4 of the scale is
    # inside an absolute pair tolerance of 1e-8
    rng = np.random.default_rng(3)
    r, lam = oracles.construct_grid_double_ring(5, rng)
    off_axis = 0
    for split in (1.0 + 1e-9, 1.0 - 1e-9):
        ring = RingParams(5, r.a, (r.b[0] * split, *r.b[1:]))
        big = eigenvalues(ring).eigenvalues
        small = eigenvalues(time_rescale(ring, 1e-4)).eigenvalues
        _match_multiset(small, [1e-4 * m for m in big], 1e-14)
        off_axis += sum(1e-6 < abs(m.imag) < 1e-4 for m in big)
    assert off_axis == 2


def test_gate_checks_the_returned_roots(monkeypatch):
    # whatever the clean-up after the iteration does, a root it spoils is
    # not returned
    def spoil(roots, a, c):
        return [roots[0] + 1e-3, *roots[1:]]

    monkeypatch.setattr(spectra, "_polish_clusters", spoil)
    with pytest.raises(RootFindingError, match="symmetrised roots"):
        eigenvalues(oracles.REFERENCE_RING)


def test_eigenvector_rejects_nan_eigenvalue():
    # NaN compares False both ways, so the closure gate is written to reject it
    with pytest.raises(ValueError, match=r"^closure product \(nan\+nanj\) differs from 1 by nan"):
        eigenvector_for(oracles.REFERENCE_RING, float("nan"))


@pytest.mark.parametrize(
    "ring, mu",
    [
        # u_3 = 1.44e308 - 1.56e308i has a modulus past the float range
        (RingParams(5, (1, -1e300, 0, 5e-324, 0), (-2.25, 1e-8, 2, -1e-300, 1e150)), -2.25 + 3.5j),
        # so does u_1 of the run from after the nearest a_j, 5.8e307 (1 + 3i)
        (RingParams(3, (5.0, 0.0, -1.0), (1.0, 1.72e-154, 1e-154)), 1 + 1j),
        # u_3 is inf: the residual inf was within the bound inf, so u was returned
        (RingParams(3, (-1.0, 1.0, 0.0), (1.0, -1e-100, -2.0)), -2.25 + 1e150j),
        # p(mu) has a modulus past the float range, so the message's backward error too
        (RingParams(4, (1e-300, 1e-300, -1.0, 1.5e308), (-1e-100, 1e-200, 1.5e308, 1.0)), -1j),
        # |mu| itself, read by the pick of the least accurate factor and by the backward error
        (oracles.REFERENCE_RING, 1.5e308 + 1.5e308j),
    ],
)
def test_eigenvector_gate_fails_a_modulus_past_the_float_range(ring, mu):
    with pytest.raises(ValueError, match=r"^closure product .* whose backward error as a root of p is "):
        eigenvector_for(ring, mu)


UNDERFLOWING_C_RING = RingParams(3, (-1.0, 2.0, 3.5), (1e-200,) * 3)  # c underflows: the spectrum is a


def test_eigenvector_takes_the_run_whose_every_entry_is_finite():
    # the run from after a_2 reaches u_1 = -1.5e200 but u_2 = -inf on the way; the run from
    # u_1 = 1 is (1, 3e200, 0), whose u_3 = -1e-400 / 4.5 underflows, and every row is within
    # rounding: the third row leaves b_3 u_1 = 1e-200
    v = eigenvector_for(UNDERFLOWING_C_RING, 2.0)
    assert v.entries == (1.0, 3e200, 0.0)
    residual, bound = oracles.dense_eigenvector_residual(UNDERFLOWING_C_RING, 2.0, v.entries)
    assert residual == pytest.approx(1e-200) and residual <= bound


def test_eigenvector_past_the_float_range_names_its_overflowing_entry():
    # mu = 3.5 is an exact root, but u = (1, 4.5e200, 6.75e400) from u_1 = 1 overflows
    with pytest.raises(ValueError, match=r"^closure product not formed: u_3 = \(inf\+0j\) overflows when "
                       r"u_1 = 1 at mu=\(3\.5\+0j\), whose backward error as a root of p is 0\.000e\+00$"):
        eigenvector_for(UNDERFLOWING_C_RING, 3.5)


def test_backward_error_past_the_float_range_is_inf():
    ring = RingParams(4, (1e-300, 1e-300, -1.0, 1.5e308), (-1e-100, 1e-200, 1.5e308, 1.0))
    assert spectra.backward_error(ring, -1j) == math.inf
    assert spectra.backward_error(oracles.REFERENCE_RING, 1.5e308 + 1.5e308j) == math.inf


def test_a_sweep_that_divides_by_zero_fails_its_start():
    # c = 0 starts each root on its a_j; at the double root 1e308 p = p' = 0, and the
    # backward error's scale is NaN from (|a_j| + |z|) = inf times a zero factor, so the root
    # moves and its Aberth step divides by zero; both starts fail the gate that way
    ring = RingParams(3, (1e308, 1e308, 0.0), (0.0, 1.0, 1.0))
    with pytest.raises(
        RootFindingError,
        match=r"^worst backward error inf exceeds the threshold 1\.000e-10 \(3 of 3 roots\) after 2 sweeps$",
    ):
        eigenvalues(ring)


def test_power_sums_past_the_float_range_fail_the_check():
    # the roots 1e154 + 1.7e-108 e^(i theta) pass the gate, but the sum of the squares of the
    # a_j is 3e308, which fsum cannot hold
    with pytest.raises(RootFindingError, match=r"^power sum 2 of the roots is inf, of the a_j inf after 2 sweeps$"):
        eigenvalues(RingParams(3, (1e154,) * 3, (-5e-324, 1.0, 1.0)))


def test_close_pair_inside_the_pair_band_stays_a_pair():
    # -3 +- 6.38e-9i lie within PAIR_TOL times the radius of the real axis,
    # but -3 fails the backward-error gate, so they are not made real
    r = RingParams(
        10, (-1, -2, -3, 1, 3, -1, -1, 1, 1, -3), (-1, -2, 1, -1, 1, 1, 5e-4, 5e-4, 5e-4, 5e-4)
    )
    s = eigenvalues(r)
    true = oracles.mp_ring_roots(r.a, r.coupling_product(), s.eigenvalues)
    assert max(min(abs(x - y) for y in s.eigenvalues) for x in true) < 1e-12
    low, high = sorted((m for m in s.eigenvalues if abs(m + 3) < 1e-6), key=lambda m: m.imag)
    assert low == high.conjugate()
    assert high.imag == pytest.approx(6.3788795e-9, rel=1e-7)
    # with the four small couplings zeroed, the repair puts them back at 5e-4
    zeroed = RingParams(10, r.a, (*r.b[:6], 0.0, 0.0, 0.0, 0.0))
    assert remove_resonances(zeroed, 3, 1e-3).perturbed == r


def test_symmetrise_never_leaves_a_root_unpaired():
    with pytest.raises(RootFindingError, match="^2 roots above the real axis but 1 below it$"):
        spectra._symmetrise_conjugates([1 + 1j, 1 + 2j, 1 - 1j])


def _corpus_rings(count):
    # n 3-40, a ~ N(0,1), b ~ s N(0,1) with s = 10^U(-3,3), drawn in this order
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(3, 41))
        s = 10.0 ** rng.uniform(-3, 3)
        a, b = rng.normal(size=n), s * rng.normal(size=n)
        yield RingParams(n, tuple(float(v) for v in a), tuple(float(v) for v in b))


def test_eigenvector_for_an_eigenvalue_within_rounding_of_a_diagonal_entry():
    # mu lies within rounding of a_3, so (mu - a_3)/b_3 is off by O(1); the
    # recurrence from u_1 = 1 carried that into u_4.. and left a residual of
    # 4.3e8 against a bound of 0.48
    (r,) = _corpus_rings(1)
    assert (r.n, r.a[2]) == (12, -1.3928000963768683)
    mu = -1.392800096376866
    assert spectra.backward_error(r, mu) < 1e-15
    u = eigenvector_for(r, mu)
    assert u.entries[0] == 1.0
    # against the recurrence at the exact root nearest mu, in 50 digits
    with mpmath.workdps(50):
        a, c, z = [mpmath.mpf(v) for v in r.a], mpmath.mpf(r.coupling_product()), mpmath.mpc(mu)
        for _ in range(20):
            prod, dp = mpmath.mpc(1), mpmath.mpc(0)
            for v in a:
                dp, prod = dp * (v - z) - prod, prod * (v - z)
            z -= (prod + c) / dp
        exact = [mpmath.mpc(1)]
        for v, w in zip(a, r.b[:-1]):
            exact.append(exact[-1] * (z - v) / w)
        exact = np.array([complex(e) for e in exact])
    assert np.abs(np.array(u.entries) - exact).max() <= 1e-12 * np.abs(exact).max()


def test_every_eigenvalue_of_random_rings_gets_an_eigenvector():
    # the recurrence from u_1 = 1 rejected about 13% of these eigenvalues
    for r in _corpus_rings(200):
        for mu in eigenvalues(r).eigenvalues:
            assert eigenvector_for(r, mu).entries[0] == 1.0


def test_eigenvector_for_mu_equal_to_two_diagonal_entries():
    # the run from after the zero factor meets the second one and zeroes u_1;
    # the run from u_1 = 1 is exact here, as at the parent
    r = RingParams(3, (1.0, 1.0, 2.0), (1e-12, 1e-12, 1e-12))
    assert eigenvector_for(r, 1.0).entries == (1.0, 0.0, 0.0)


def test_eigenvector_for_a_rotated_run_that_overflows():
    # from after a_1 = mu the run grows by 1e200 a step and u_1 overflows;
    # the run from u_1 = 1 is finite and exact
    r = RingParams(4, (0.0, 1.0, 1.0, 1.0), (1.0, 1e-200, 1e-200, 1e-200))
    assert eigenvector_for(r, 0.0).entries == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "n", sorted({11, spectra.VECTOR_SWEEP_MIN_N - 1, spectra.VECTOR_SWEEP_MIN_N, 40, 64})
)
def test_both_sweeps_match_mpmath(n, monkeypatch):
    rng = np.random.default_rng(n)
    rings = [
        RingParams(n, tuple(s * rng.uniform(-3, 3, n)), tuple(s * rng.uniform(-3, 3, n)))
        for s in (1e-4, 1.0, 1e4)
    ]
    rings.append(oracles.construct_grid_double_ring(n, rng)[0])
    for r in rings:
        a, c = r.a, r.coupling_product()
        root_sets = []
        for crossover in (0, n + 1):  # the vector sweep at every size, then the scalar one
            monkeypatch.setattr(spectra, "VECTOR_SWEEP_MIN_N", crossover)
            roots, _ = spectra._aberth_roots(a, c)
            assert max(spectra._eval_at(a, c, m)[2] for m in roots) <= spectra.RESIDUAL_TOL
            root_sets.append(roots)
        _assert_roots_match_mpmath(r, *root_sets)


def test_conjugate_roots_get_equal_backward_errors_on_the_vector_path():
    # a BLAS product for sum_j |a_j| / |d_j| rounded differently by column, so two of
    # these rings got different backward errors for a root and its conjugate
    rng = np.random.default_rng(5)
    rings = []
    for _ in range(131):
        n = int(rng.integers(12, 41))
        rings.append(RingParams(n, tuple(rng.uniform(-3, 3, n)), tuple(rng.uniform(-3, 3, n))))
    for r in (rings[97], rings[130]):
        roots = eigenvalues(r).eigenvalues
        assert r.n >= spectra.VECTOR_SWEEP_MIN_N
        eta = dict(zip(roots, spectra._eval_points(r.a, r.coupling_product(), np.array(roots))[2].tolist()))
        assert all(eta[m] == eta[m.conjugate()] for m in roots)


def test_zero_coupling_product_on_the_vector_sweep():
    # c = 0 starts every root exactly on its a_j, where a factor a_j - z is 0
    a = (1.0, 1.0, -2.0, 0.5, 0.5, 0.5, *(float(v) for v in range(14)))
    assert len(a) >= spectra.VECTOR_SWEEP_MIN_N
    roots, _ = spectra._aberth_roots(a, 0.0)
    assert roots == list(a)
    s = eigenvalues(RingParams(20, a, (0.0, *[1.0] * 19)))
    assert s.eigenvalues == tuple(complex(v) for v in sorted(a))
    assert s.backward_error == 0.0


def test_power_sums_reject_a_frozen_root_set_on_the_vector_sweep(monkeypatch):
    monkeypatch.setattr(spectra, "FREEZE_TOL", 1e-3)
    rng = np.random.default_rng(1)
    r = RingParams(20, tuple(rng.uniform(-3, 3, 20)), tuple(rng.uniform(-3, 3, 20)))
    monkeypatch.setattr(spectra, "RESIDUAL_TOL", 1e-2)
    with pytest.raises(RootFindingError, match="power sum"):
        eigenvalues(r)


def _aberth_outcome(monkeypatch, sweeps, a, c) -> tuple[list[str], str]:
    """The repr of each run of `sweeps(n)` that `_aberth_roots` makes in place of the kernel, as
    (sweeps, roots, etas), and the repr of its roots and sweeps or the text of its error."""
    runs = []

    def recorded(n):
        def run(*args):
            out = sweeps(n)(*args)
            runs.append(repr(out))
            return out
        return run

    with monkeypatch.context() as m:
        m.setattr(spectra, "_sweep_kernel", recorded)
        try:
            outcome = repr(spectra._aberth_roots(a, c))
        except RootFindingError as exc:
            outcome = str(exc)
    return runs, outcome


@pytest.mark.parametrize("n", range(3, spectra.VECTOR_SWEEP_MIN_N))
def test_sweep_kernel_equals_the_list_sweep_bit_for_bit(n, monkeypatch):
    # repr keeps every bit of a float but a NaN's payload, so equal reprs are equal roots,
    # signs of zero included; the overflowing and dividing rings fail both starts, after
    # 1000 and 2 sweeps at n = 3
    rng = np.random.default_rng(n)
    rest = tuple(float(v) for v in range(n - 3))
    cases = [(tuple(float(s * v) for v in rng.uniform(-3, 3, n)), float(s**n * math.prod(rng.uniform(-3, 3, n))))
             for _ in range(8) for s in (1e-4, 1.0, 1e4)]
    cases += [
        (r.a, r.coupling_product()) for r in
        (oracles.construct_grid_double_ring(n, rng)[0], oracles.construct_hopf_ring(n, rng)[0])
    ]
    cases += [
        (tuple(float(v) for v in rng.integers(-2, 3, n)), 0.0),  # the roots are the a_j
        ((1e155, 2e155, -3e155) + rest, (-1.0) ** (n + 1)),  # the product overflows
        ((1e308, 1e308, 0.0) + rest, 0.0),  # an Aberth step divides by zero
        ((1.0,) * n, 1e-20**n),  # a repeated a_j with couplings of 1e-20
        ((1.0, -2.0, -3.0) + rest, math.inf),
        ((1.0, -2.0, -3.0) + rest, math.nan),
        (cases[0][0], -1.7976931348623157e308 / (n + 0.5)),  # p is finite, its scale is not
    ]
    kernel, oracle = spectra._sweep_kernel, lambda n: oracles.list_aberth_sweeps
    outcomes = []
    for a, c in cases:
        outcomes.append(_aberth_outcome(monkeypatch, kernel, a, c))
        assert outcomes[-1] == _aberth_outcome(monkeypatch, oracle, a, c), (a, c)
    if n == 3:
        assert [text for _, text in outcomes[-6:-4]] == [
            "worst backward error inf exceeds the threshold 1.000e-10 (3 of 3 roots) after 1000 sweeps",
            "worst backward error inf exceeds the threshold 1.000e-10 (3 of 3 roots) after 2 sweeps",
        ]
    # the kernel for n is cached now, and reads FREEZE_TOL at each call: at 1e-3 the roots stop
    # early, and below 0 none stops, so each is evaluated again after 500 sweeps
    a, c = cases[1]
    for freeze in (1e-3, -1.0):
        monkeypatch.setattr(spectra, "FREEZE_TOL", freeze)
        after = _aberth_outcome(monkeypatch, kernel, a, c)
        assert after != outcomes[1]
        assert after == _aberth_outcome(monkeypatch, oracle, a, c)


def _clean_up_outcomes(r) -> tuple[str, str]:
    """The repr of eigenvalues(r), or its error's text, and the same from the sweep's roots through
    `oracles.untrimmed_clean_up`."""
    try:
        got = repr(eigenvalues(r))
    except RootFindingError as exc:
        got = str(exc)
    try:
        roots, sweeps = spectra._aberth_roots(r.a, r.coupling_product())
    except RootFindingError as exc:
        return got, str(exc)
    want = oracles.untrimmed_clean_up(r, roots, sweeps, spectra._critical_point)
    return got, want if isinstance(want, str) else repr(Spectrum(**want))


# a triple a_j and couplings near 1e-12: the three roots by it stop about 1e-14 off the axis and
# apart, and each has the conjugate of another nearer than its own, at a real part 0.58-0.89 w away
# (w twice its distance from the axis); the two found among 20,000 random rings with such couplings
NEARER_CONJUGATE_RINGS = (
    RingParams(6, (-1.0, 2.0, -2.0, 0.0, 2.0, 2.0), (2.997878539929866e-12, 2.0568684087607456e-12,
               -2.0063773084946116e-12, 2.8330567574987636e-12, -8.327802036506065e-13, -2.653708377807393e-12)),
    RingParams(7, (2.0, -2.0, 1.0, 2.0, 1.0, 0.0, 1.0), (5.194774801222941e-12, -3.2977182214567864e-12,
               -2.579167851806613e-13, -4.788942176762182e-12, -2.3026343108602723e-12, 5.83099898836352e-12,
               -4.0389015662806574e-12)),
)


@pytest.mark.parametrize("n", range(3, spectra.VECTOR_SWEEP_MIN_N))
def test_the_clean_up_after_the_sweep_equals_the_untrimmed_one(n):
    # repr keeps every bit, so the polish, the symmetrisation and the final evaluation give what
    # they gave before they were trimmed, error texts included: random rings at three scales, rings
    # with a double root and a Hopf pair, and the edge rings of the kernel's bit-for-bit test
    rng = np.random.default_rng([n, 32])
    rest = tuple(float(v) for v in range(4, n + 1))
    rings = [RingParams(n, tuple(s * rng.uniform(-3, 3, n)), tuple(s * rng.uniform(-3, 3, n)))
             for _ in range(8) for s in (1e-4, 1.0, 1e4)]
    rings += [oracles.construct_grid_double_ring(n, rng)[0] for _ in range(3)]
    rings += [oracles.construct_hopf_ring(n, rng)[0] for _ in range(3)]
    rings += [
        RingParams(n, (1e155, 2e155, -3e155) + rest, (1.0,) * n),  # the product overflows
        RingParams(n, (1e308, 1e308, 0.0) + rest, (0.0,) + (1.0,) * (n - 1)),  # c = 0, a step divides by 0
        RingParams(n, (1.0,) * n, (1e-20,) * n),  # the roots stay off the axis by 1e-20
        RingParams(n, (0.0, 0.0, 3.0) + rest, (1.0,) * n),
        RingParams(n, (0.0,) * n, (0.0,) + (1.0,) * (n - 1)),  # a zero of multiplicity n
        RingParams(n, (1.0, -2.0, -3.0) + rest, (1e200, 1e200, 0.0) + (1.0,) * (n - 3)),  # c = NaN
    ]
    rings += [r for r in NEARER_CONJUGATE_RINGS if r.n == n]
    for r in rings:
        got, want = _clean_up_outcomes(r)
        assert got == want, r
    if n == 3:
        assert [_clean_up_outcomes(r)[0] for r in rings[-6:-4]] == [
            "worst backward error inf exceeds the threshold 1.000e-10 (3 of 3 roots) after 1000 sweeps",
            "worst backward error inf exceeds the threshold 1.000e-10 (3 of 3 roots) after 2 sweeps",
        ]
        assert _clean_up_outcomes(rings[-4])[0] == "2 roots above the real axis but 1 below it"


def test_the_near_real_scan_equals_the_scan_of_every_root():
    # roots near the axis in clusters whose spread is of the order of their distance from it, so a
    # conjugate other than a root's own often lies nearer, at a real part up to 2 |Im| away
    rng = np.random.default_rng(33)
    for _ in range(2000):
        centres = rng.uniform(-1, 1, int(rng.integers(1, 4)))
        y = 10.0 ** rng.uniform(-12, -9)
        roots = [x + y * complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for x in centres for _ in range(3)]
        real_ok = bool(rng.integers(2))
        try:
            want = oracles.symmetrise_conjugates(roots, lambda x: real_ok)
        except ValueError as exc:
            with pytest.raises(RootFindingError, match=f"^{exc}$"):
                spectra._symmetrise_conjugates(roots, lambda x: real_ok)
        else:
            assert repr(spectra._symmetrise_conjugates(roots, lambda x: real_ok)) == repr(want)


def test_small_rings_stay_on_the_scalar_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("vector sweep entered")

    monkeypatch.setattr(spectra, "_vector_sweep", refuse)
    assert eigenvalues(oracles.REFERENCE_RING).n == 3


@pytest.mark.parametrize("kind", ["plain", "axis", "double"])
def test_the_repair_pipeline_solves_each_ring_once(kind, solves):
    # the calls a ring scan makes: a repair that changes nothing returns its
    # input ring, and a repair that changes it has solved the ring it returns
    n, rng = 10, np.random.default_rng(7)
    if kind == "plain":
        ring = RingParams(n, tuple(rng.uniform(-3, 3, n)), tuple(rng.uniform(-3, 3, n)))
    elif kind == "axis":
        ring = oracles.construct_hopf_ring(n, rng)[0]
    else:
        ring = oracles.construct_grid_double_ring(n, rng)[0]
    eigenvalues(ring)
    multiple = remove_multiple(ring, epsilon=1e-3)
    resonances = remove_resonances(multiple.perturbed, k_max=3, epsilon=1e-3)
    assert (multiple.perturbed is ring) == (kind != "double")
    assert resonances.perturbed is multiple.perturbed
    assert solves() == (2 if kind == "double" else 1)


def test_branch_sweep_solves_the_base_ring_once(solves, monkeypatch):
    def diverge(*args, **kwargs):
        raise simulate.DivergenceError("not integrated")

    monkeypatch.setattr(simulate, "_rk4", diverge)
    rows = simulate.branch_sweep(AdmissibleOdeFamily(oracles.REFERENCE_RING), [-0.1, 0.05, 0.1])
    assert [row.diagnostic for row in rows] == ["not integrated"] * 3
    assert solves() == 1


def test_equal_rings_are_solved_apart(solves):
    # equal in value, but the signs of the zeros give the two different spectra
    minus = RingParams(3, (-0.0,) * 3, (-0.0, 1.0, 1.0))
    plus = RingParams(3, (0.0,) * 3, (0.0, 1.0, 1.0))
    assert minus == plus
    first = eigenvalues(plus)
    assert repr(eigenvalues(minus)) != repr(first)
    copy = RingParams(3, plus.a, plus.b)
    assert repr(eigenvalues(copy)) == repr(first)
    assert solves() == 3
    assert eigenvalues(copy) is eigenvalues(copy)
    assert solves() == 3


def test_a_call_that_raised_is_not_recorded(solves, monkeypatch):
    rng = np.random.default_rng(0)
    r = RingParams(40, tuple(rng.uniform(-3, 3, 40)), tuple(rng.uniform(-3, 3, 40)))
    kept = eigenvalues(oracles.REFERENCE_RING)
    monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
    for _ in range(2):
        with pytest.raises(RootFindingError, match="exceeds the threshold"):
            eigenvalues(r)
    assert eigenvalues(oracles.REFERENCE_RING) is kept
    assert solves() == 3


@st.composite
def close_root_sets(draw):
    """Roots and a tolerance, down to below rounding: points of the unit square at a scale from
    1e-150 to 1e150, made conjugate-closed or given exact repeats, chains a-b-c with
    |a - c| >= tol, conjugate pairs closer than tol to the real axis and values 1e-12 apart
    relative, in any order."""
    scale = draw(st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]))
    unit = st.floats(-1.0, 1.0)
    roots = [scale * complex(x, y) for x, y in draw(st.lists(st.tuples(unit, unit), min_size=2, max_size=12))]
    tol = scale * draw(st.sampled_from([1e-18, 1e-12, 1e-6, 0.05, 0.5]))
    kinds = st.sampled_from(["conjugates", "repeat", "chain", "axis", "relative"])
    for kind in draw(st.lists(kinds, max_size=4)):
        z = draw(st.sampled_from(roots))
        if kind == "conjugates":
            roots += [m.conjugate() for m in roots]
        elif kind == "repeat":
            roots.append(z)
        elif kind == "chain":
            t = draw(st.floats(0.0, 2 * math.pi))
            step = draw(st.floats(0.5, 0.99)) * tol * complex(math.cos(t), math.sin(t))
            roots += [z + step, z + 2 * step]
        elif kind == "axis":
            roots += [complex(z.real, 0.3 * tol), complex(z.real, -0.3 * tol)]
        else:
            roots.append(z * (1 + 1e-12))
    return draw(st.permutations(roots)), tol


@given(close_root_sets())
def test_the_close_root_search_matches_every_pair(case):
    # _clusters, detect_multiple and min_gap against union-find and the minimum over all pairs
    roots, tol = case
    groups = oracles.union_find_clusters(roots, tol)
    assert spectra._clusters(roots, tol) == groups
    spectrum = spectra.Spectrum(
        eigenvalues=tuple(roots), residuals=(0.0,) * len(roots), pair_tolerance=spectra.PAIR_TOL,
        tau=0.0, omega=None,
    )
    expected = []
    for g in groups:
        members = [roots[i] for i in g]
        expected.append((sum(members) / len(members), len(members), tuple(members)))
    expected.sort(key=lambda c: (c[0].real, c[0].imag))
    got = [(c.value, c.multiplicity, c.members) for c in detect_multiple(spectrum, tol)]
    assert got == expected
    assert spectrum.min_gap() == oracles.all_pairs_min_gap(roots)


def test_the_close_root_search_at_every_pair_distance():
    # random spectra with tol set to each of their ten least pair distances, which the strict
    # comparison leaves unlinked, and to the next float above it, which links them
    rng = np.random.default_rng(18)
    for n in (2, 3, 5, 12, 40):
        for _ in range(20):
            roots = [complex(x, y) for x, y in rng.normal(size=(n, 2))]
            spectrum = spectra.Spectrum(
                eigenvalues=tuple(roots), residuals=(0.0,) * n, pair_tolerance=spectra.PAIR_TOL,
                tau=0.0, omega=None,
            )
            assert spectrum.min_gap() == oracles.all_pairs_min_gap(roots)
            distances = sorted(abs(x - y) for i, x in enumerate(roots) for y in roots[i + 1 :])
            for d in distances[:10]:
                for tol in (d, math.nextafter(d, math.inf)):
                    assert spectra._clusters(roots, tol) == oracles.union_find_clusters(roots, tol)


def test_a_chain_is_one_cluster_and_a_far_pair_none():
    # a, b, c with |a - b|, |b - c| < tol <= |a - c|: one group of three
    roots = [1.0 + 0j, 1.0 + 0.6e-6j, 1.0 + 1.2e-6j, 5.0 + 0j, 5.0 + 2e-6j]
    assert spectra._clusters(roots, 1e-6) == [[0, 1, 2]]
    assert spectra._clusters(roots[3:], 1e-6) == []


@settings(max_examples=30)
@given(n=st.integers(3, 64), log_scale=st.floats(-4.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_row_residual_gates_as_the_dense_residual(n, log_scale, seed):
    # at each eigenvalue, and moved off it far enough to fail, eigenvector_for accepts exactly
    # when ||J u - mu u||_inf of its u by the dense Jacobian is within the bound; an infinite
    # tolerance returns the u that the gate judged
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    r = RingParams(n, tuple(scale * rng.uniform(-3, 3, n)), tuple(scale * rng.uniform(-3, 3, n)))
    norm = max(abs(x) + abs(y) for x, y in zip(r.a, r.b))
    decisions = set()
    for mu in eigenvalues(r).eigenvalues:
        for nudge in (0.0, 1e-11, 1e-9, 1e-7):
            z = mu + nudge * norm
            try:
                accepted = bool(eigenvector_for(r, z))
            except ValueError:
                accepted = False
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectra, "EIGENVECTOR_RESIDUAL_TOL", math.inf)
                u = eigenvector_for(r, z).entries
            residual, bound = oracles.dense_eigenvector_residual(r, z, u)
            assert accepted == (residual <= bound), (mu, nudge)
            decisions.add((nudge, accepted))
    assert {(0.0, True), (1e-7, False)} <= decisions


def test_eigenvector_for_runs_without_numpy():
    # the eigenpair check is product-form arithmetic, so it needs no numpy
    code = (
        "import sys\n"
        "from ringhopf.model import RingParams\n"
        "from ringhopf.spectra import eigenvalues, eigenvector_for\n"
        "r = RingParams(4, (-1.0, -2.0, -3.0, 0.5), (1.0, 1.0, -10.0, 2.0))\n"
        "print([eigenvector_for(r, mu).entries[0] for mu in eigenvalues(r).eigenvalues])\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spectra.__file__))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[(1+0j), (1+0j), (1+0j), (1+0j)]", "False"]


def test_min_gap_of_fewer_than_two_eigenvalues_names_the_count():
    s = adjacency_spectrum(AdjacencyMatrix(1, ((2,),)))
    assert s.eigenvalues == (2.0 + 0.0j,)
    with pytest.raises(ValueError, match=r"^min_gap needs at least two eigenvalues, got 1$"):
        s.min_gap()


def test_adjacency_residuals_are_floats():
    s = adjacency_spectrum(AdjacencyMatrix(6, oracles.ADJ_6))
    assert all(type(r) is float for r in s.residuals)
    assert "np.float64" not in repr(s)


def test_faddeev_leverrier_equals_the_sympy_characteristic_polynomial():
    # from n = 20 on the coefficients pass 2**53: the float of the exact integer is wanted
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4, 5, 8, 12, 16, 20):
        for _ in range(6):
            rows = rng.integers(0, 10, (n, n))
            if n > 2:
                rows[:, int(rng.integers(n))] = 0  # a zero eigenvalue
            exact = sympy.Matrix(rows.tolist()).charpoly().all_coeffs()
            got = spectra._faddeev_leverrier(AdjacencyMatrix(n, rows.tolist()).matrix())
            assert got.dtype == np.float64
            assert got.tolist() == [float(int(c)) for c in exact]


def test_faddeev_leverrier_names_a_coefficient_beyond_the_float_range():
    big = 10**120
    adj = AdjacencyMatrix(3, ((big, 0, 0), (0, big, 0), (0, 0, big)))
    with pytest.raises(RootFindingError, match=r"^det\(lambda\*I - A\) of the 3 x 3 adjacency matrix "
                       r"has a coefficient of 1196 bits, beyond the float range$"):
        adjacency_spectrum(adj)


def test_clusters_of_one_root_are_none():
    assert spectra._clusters([1.0 + 0.0j], 0.5) == []


@pytest.mark.parametrize("vector", [False, True])
def test_the_gate_reports_the_evaluation_of_every_returned_root(monkeypatch, vector):
    # residuals and backward_error are the gate's own evaluation of the returned roots, bit for
    # bit: _eval_at's on the scalar sweep, numpy's on the vector sweep. The pairs are exact
    # conjugates and p(conj z) = conj p(z) in product form, so the two members of a pair get
    # equal residuals on both sweeps, and equal backward errors from _eval_at
    monkeypatch.setattr(spectra, "VECTOR_SWEEP_MIN_N", 0 if vector else math.inf)
    rng = np.random.default_rng(24)
    for n in (3, 4, 5, 7, 10, 12, 13, 20, 33, 40):
        rings = [
            RingParams(n, tuple(rng.uniform(-3, 3, n)), tuple(rng.uniform(-3, 3, n))),
            oracles.construct_hopf_ring(n, rng)[0],
            oracles.construct_grid_double_ring(n, rng)[0],
        ]
        for r in rings:
            s, a, c = eigenvalues(r), r.a, r.coupling_product()
            p, _, etas = spectra._eval_points(a, c, s.eigenvalues)
            assert s.residuals == tuple(abs(complex(v)) for v in p)
            assert s.backward_error == max(etas)
            scalar = [spectra._eval_at(a, c, m) for m in s.eigenvalues]
            for mu, residual, (_, _, eta) in zip(s.eigenvalues, s.residuals, scalar):
                partner = s.eigenvalues.index(mu.conjugate())
                assert residual == s.residuals[partner]
                assert eta == scalar[partner][2]
            if not vector:
                assert s.residuals == tuple(abs(v) for v, _, _ in scalar)
