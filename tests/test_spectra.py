"""Tests for the characteristic polynomial, root finding and eigenvectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringhopf import spectra
from ringhopf.genericity import detect_resonance, remove_resonances
from ringhopf.model import AdjacencyMatrix, RingParams, time_rescale
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
    c = r.coupling_product()
    true = oracles.mp_ring_roots(r.a, c, s.eigenvalues)
    scale = max(abs(v) for v in r.a) + abs(c) ** (1.0 / r.n)
    sizes = [sum(abs(w - v) < 1e-4 * scale for v in true) for w in true]
    remaining = list(s.eigenvalues)
    for w, m in sorted(zip(true, sizes), key=lambda p: p[1]):
        k = min(range(len(remaining)), key=lambda i: abs(remaining[i] - w))
        assert abs(remaining.pop(k) - w) <= 1e-12 ** (1.0 / m) * scale, f"root {w} unmatched"
    assert s.backward_error <= 1e-10
    return s, scale


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


def test_gate_names_worst_backward_error_and_threshold():
    rng = np.random.default_rng(0)
    r = RingParams(40, tuple(rng.uniform(-3, 3, 40)), tuple(rng.uniform(-3, 3, 40)))
    with pytest.raises(
        RootFindingError,
        match=r"worst backward error \S+ exceeds the threshold 0\.000e\+00 \(\d+ of 40 roots\)",
    ):
        eigenvalues(r, residual_tol=0.0)


def test_power_sums_reject_roots_that_are_not_the_root_set(monkeypatch):
    # roots frozen at a backward error of 1e-3 pass a gate of 1e-2, but
    # their power sums are off by far more than rounding
    monkeypatch.setattr(spectra, "FREEZE_TOL", 1e-3)
    with pytest.raises(RootFindingError, match="power sum"):
        eigenvalues(oracles.REFERENCE_RING, residual_tol=1e-2)


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
    def spoil(roots, a, c, threshold):
        return [roots[0] + 1e-3, *roots[1:]]

    monkeypatch.setattr(spectra, "_polish_clusters", spoil)
    with pytest.raises(RootFindingError, match="symmetrised roots"):
        eigenvalues(oracles.REFERENCE_RING)


def test_eigenvector_rejects_nan_eigenvalue():
    # NaN compares False both ways, so the closure gate is written to reject it
    with pytest.raises(ValueError, match=r"^closure product \(nan\+nanj\) differs from 1 by nan"):
        eigenvector_for(oracles.REFERENCE_RING, float("nan"))


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_axis_tolerance_must_be_positive_and_finite(tol):
    # NaN compared False both ways, so no root was ever on the axis
    message = rf"^tol must be positive and finite, got {tol}$"
    with pytest.raises(ValueError, match=message):
        eigenvalues(oracles.REFERENCE_RING, axis_tol=tol)
    with pytest.raises(ValueError, match=message):
        detect_resonance(adjacency_spectrum(AdjacencyMatrix(6, oracles.ADJ_6)), 5, tol=tol)
