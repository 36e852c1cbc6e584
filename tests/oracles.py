"""Independent reference computations used by the test suite.

Everything here is implemented from first principles, without calling into
the package under test, so disagreements point at the implementation:

  * characteristic polynomial by symbolic cofactor expansion,
  * eigenvalues by the dense QR solver, and certified to 50 digits in
    mpmath (dense QR loses about 1e-8 at n = 40),
  * the auxiliary resonance polynomial built symbolically, and with
    np.polymul and np.polysub on the dense coefficients,
  * the forbidden-set sources kept when A is evaluated by np.polyval of its
    dense coefficients, and the roots of A' certified to 40 digits,
  * the least distance between values and their close clusters by comparing
    every pair, the clusters by union-find,
  * constructions of rings with prescribed spectral features (an imaginary
    pair, a double eigenvalue, a 5-node 2:1 resonance).

The constructions exploit that p(lambda) = A(lambda) + c with
A(lambda) = prod(a_j - lambda) and c the signed coupling product: fixing a
and steering c places roots wherever A permits.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import sympy

from ringhopf.model import RingParams

# Frozen reference values, computed once by hand from the closed forms.
REFERENCE_RING = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
REFERENCE_EIGENVALUES = (-4.0 + 0.0j, -1.0j, 1.0j)
REFERENCE_THETA = (
    5 * math.pi / 4,
    2 * math.pi - math.atan(1 / 2),
    math.pi - math.atan(1 / 3),
)
SECOND_RING = RingParams(3, (0.0, -2.0, -3.0), (1.0, 1.0, -30.0))
SECOND_EIGENVALUES = (-5.0 + 0.0j, -1j * math.sqrt(6), 1j * math.sqrt(6))

# Transitive 5-node and 6-node example networks; entry [i][j] counts the
# arrows from node j+1 to node i+1.
ADJ_5 = (
    (1, 1, 0, 1, 0),
    (1, 1, 0, 0, 1),
    (0, 2, 0, 0, 1),
    (0, 1, 1, 0, 1),
    (1, 0, 1, 0, 1),
)
ADJ_5_SPECTRUM = (3.0 + 0.0j, -1.0j, 1.0j, 0.0j, 0.0j)
ADJ_6 = (
    (1, 0, 2, 0, 0, 3),
    (2, 1, 0, 0, 3, 0),
    (0, 2, 1, 3, 0, 0),
    (0, 0, 0, 2, 0, 4),
    (0, 0, 0, 4, 2, 0),
    (0, 0, 0, 0, 4, 2),
)
ADJ_6_SPECTRUM = (
    3.0 + 0.0j,
    6.0 + 0.0j,
    -2j * math.sqrt(3),
    2j * math.sqrt(3),
    -1j * math.sqrt(3),
    1j * math.sqrt(3),
)


def dense_eigvals(params: RingParams) -> list[complex]:
    """Eigenvalues via the dense QR solver, sorted lexicographically."""
    vals = np.linalg.eigvals(params.jacobian())
    return sorted((complex(v) for v in vals), key=lambda m: (m.real, m.imag))


def cofactor_char_poly(params: RingParams) -> list[float]:
    """det(J - lambda*I) by symbolic cofactor expansion, highest degree first.

    The ring determinant expands to exactly prod(a_j - lambda) + c with
    c = (-1)^(n+1) b_1 ... b_n, matching the product-form convention.
    """
    lam = sympy.symbols("lam")
    J = sympy.Matrix(params.jacobian())
    M = J - lam * sympy.eye(params.n)
    det = M.det(method="berkowitz")
    poly = sympy.Poly(sympy.expand(det), lam)
    return [float(v) for v in poly.all_coeffs()]


def a_poly(a) -> np.ndarray:
    """Coefficients (highest first) of A(lambda) = prod(a_j - lambda)."""
    coeffs = np.array([1.0])
    for v in a:
        coeffs = np.convolve(coeffs, np.array([-1.0, v]))
    return coeffs


def eval_A(a, z: complex) -> complex:
    acc = 1.0 + 0.0j
    for v in a:
        acc *= v - z
    return acc


def imag_axis_omegas(a) -> list[float]:
    """Positive omega with Im A(i*omega) = 0, i.e. candidate pair frequencies.

    Writing A(lambda) = sum alpha_m lambda^m, the imaginary part of
    A(i*omega) is the odd-power series sum alpha_m (-1)^((m-1)/2) omega^m.
    """
    alpha = a_poly(a)[::-1]  # lowest degree first
    deg = len(alpha) - 1
    im = np.zeros(deg + 1)
    for m in range(1, deg + 1, 2):
        im[m] = alpha[m] * (-1.0) ** ((m - 1) // 2)
    # polynomial in omega, highest first, with the trivial omega=0 factor out
    coeffs = im[::-1]
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 0:
        return []
    coeffs = coeffs[nz[0]:]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return []
    roots = np.roots(coeffs)
    out = []
    for r in roots:
        if abs(r.imag) < 1e-10 * (1.0 + abs(r)) and r.real > 1e-8:
            out.append(float(r.real))
    return sorted(out)


def rk4_states(a, b, g, lam: float, x0, h: float, n_steps: int) -> np.ndarray:
    """Every state of fixed-step classical RK4 on numpy arrays for
    dx_j/dt = ((a_j + lam) x_j + b_j x_{j+1}) + g_j x_j^3.

    Cubes come from the C library's pow, one element at a time: numpy's
    own `**` may run a SIMD pow that rounds about 3% of cubes differently
    in the last bit (numpy 2.4 on AVX-512), and a bitwise comparison
    would then test numpy's pow instead of the stepper.
    """
    shifted = np.asarray(a, dtype=float) + lam
    b = np.asarray(b, dtype=float)
    g = np.asarray(g, dtype=float)

    def rhs(y):
        cube = np.array([v**3 for v in y.tolist()])
        return shifted * y + b * np.roll(y, -1) + g * cube

    x = np.asarray(x0, dtype=float)
    states = [x]
    for _ in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
    return np.array(states)


def ring_with_product(n: int, a, c: float, rng) -> RingParams:
    """A ring with the given diagonal and signed coupling product c."""
    sign = (-1.0) ** (n + 1)
    b_rest = []
    for _ in range(n - 1):
        v = rng.uniform(0.5, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        b_rest.append(v)
    b1 = sign * c / math.prod(b_rest)
    return RingParams(n, tuple(a), (b1, *b_rest))


def construct_hopf_ring(n: int, rng, require_negative_trace: bool = False):
    """A random n-node ring with an eigenvalue pair exactly on the axis.

    Returns (params, omega). The diagonal is sampled until A has an axis
    frequency, then the coupling product is set to c = -A(i*omega), which
    is real there.
    """
    for _ in range(1000):
        a = tuple(rng.uniform(-3.0, 3.0, size=n))
        if require_negative_trace and sum(a) >= 0:
            continue
        omegas = imag_axis_omegas(a)
        if not omegas:
            continue
        omega = omegas[int(rng.integers(len(omegas)))]
        c = -eval_A(a, 1j * omega).real
        if abs(c) < 1e-6:
            continue
        return ring_with_product(n, a, c, rng), omega
    raise RuntimeError("failed to construct a Hopf ring")


def construct_double_ring(n: int, rng):
    """A random ring whose polynomial has an exact double root.

    p' = A' does not involve the couplings and, by Rolle's theorem, all its
    roots are real; setting c = -A(lambda_i) at such a root lambda_i makes
    lambda_i a double root of p = A + c. Returns (params, lambda_i).
    """
    for _ in range(1000):
        a = sorted(rng.uniform(-3.0, 3.0, size=n))
        if min(np.diff(a)) < 0.05:
            continue  # well-separated diagonal keeps A' roots simple
        dp = np.polyder(a_poly(a))
        roots = sorted(float(r.real) for r in np.roots(dp))
        lam = roots[int(rng.integers(len(roots)))]
        c = -eval_A(a, lam).real
        if abs(c) < 1e-6:
            continue
        return ring_with_product(n, tuple(a), c, rng), lam
    raise RuntimeError("failed to construct a double-eigenvalue ring")


def construct_grid_double_ring(n: int, rng, scale: float = 1.0):
    """A ring whose polynomial has a double real root, at any n.

    The diagonal is a jittered grid on [-3, 3] times `scale`, so
    neighbours are at least 0.2 * 6/n apart. A'/A = sum 1/(z - a_j) falls
    from +inf to -inf between neighbours, so a root of A' between two of
    them is found by bisection, and c = -A there makes it a double root of
    p. Returns (params, lambda).
    """
    while True:
        a = scale * (-3.0 + (6.0 / n) * (np.arange(n) + 0.1 + 0.8 * rng.random(n)))
        k = int(rng.integers(n - 1))
        lo, hi = a[k], a[k + 1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if np.sum(1.0 / (mid - a)) > 0:
                lo = mid
            else:
                hi = mid
        c = -eval_A(a, mid).real
        if abs(c) >= 1e-6 * scale**n:
            return ring_with_product(n, tuple(float(v) for v in a), c, rng), float(mid)


def mp_ring_roots(a, c: float, start, dps: int = 50, max_iter: int = 200) -> list:
    """All roots of prod(a_j - z) + c at `dps` digits, certified.

    Aberth-Ehrlich iteration in mpmath, started from `start`, with each
    repeated point moved by about 1e-9 of the scale so that it can separate.
    The disk about w_k of radius n |p(w_k) / p'(w_k)| holds a root of p; the
    result is returned only when these n disks are pairwise disjoint, so
    that they hold one root each and the w_k are all the roots. Raises
    AssertionError otherwise.
    """
    with mpmath.workdps(dps):
        n = len(a)
        a = [mpmath.mpf(v) for v in a]
        c = mpmath.mpf(c)
        spread = 1e-9 * (1.0 + max(abs(complex(z)) for z in start))
        w = [
            mpmath.mpc(z) + (spread * mpmath.expjpi(2 * (k + 0.25) / n) if z in start[:k] else 0)
            for k, z in enumerate(start)
        ]

        def p_dp(z):
            prod, dp = mpmath.mpc(1), mpmath.mpc(0)
            for v in a:
                dp = dp * (v - z) - prod
                prod *= v - z
            return prod + c, dp

        for _ in range(max_iter):
            pv = [p_dp(z) for z in w]
            radii = [n * abs(p / dp) if p else mpmath.mpf(0) for p, dp in pv]
            scale = 1 + max(abs(v) for v in w)
            if max(radii) < mpmath.mpf(10) ** (12 - dps) * scale and all(
                abs(w[k] - w[j]) > radii[k] + radii[j]
                for k in range(n)
                for j in range(k + 1, n)
            ):
                return [complex(v) for v in w]
            for k, (p, dp) in enumerate(pv):
                s = mpmath.fsum(1 / (w[k] - w[j]) for j in range(n) if j != k)
                w[k] -= p / (dp - p * s)
    raise AssertionError(f"mpmath iteration not certified after {max_iter} sweeps")


def mp_critical_points(a, dps: int = 40, max_iter: int = 400) -> list:
    """The n - 1 roots of A' for A = prod(a_j - z), increasing, at `dps` digits, certified.

    Each a_j repeated m times is a root m - 1 times, returned as that float.
    Between neighbouring distinct a_j, g = A'/A = sum 1/(z - a_j) falls from
    +inf to -inf; its root there is found by Newton on g with bisection of
    the bracket as the fallback, and returned only when g changes sign
    across 1e-(dps - 10) of the scale about it. Raises AssertionError otherwise.
    """
    with mpmath.workdps(dps):
        s = sorted(a)
        terms = [mpmath.mpf(v) for v in s]
        tiny = mpmath.mpf(10) ** (10 - dps) * (1 + max(abs(v) for v in terms))

        def g_dg(z):
            return mpmath.fsum(1 / (z - v) for v in terms), -mpmath.fsum(1 / (z - v) ** 2 for v in terms)

        out = []
        for lo, hi in zip(terms, terms[1:]):
            if lo == hi:
                out.append(lo)
                continue
            z = (lo + hi) / 2
            for _ in range(max_iter):
                g, dg = g_dg(z)
                if abs(g / dg) < tiny / 2**20 or hi - lo < tiny:
                    break
                lo, hi = (z, hi) if g > 0 else (lo, z)
                new = z - g / dg
                z = new if lo < new < hi else (lo + hi) / 2
            assert g_dg(z - tiny)[0] > 0 > g_dg(z + tiny)[0], f"root of A' near {z} not certified"
            out.append(z)
        return out


def construct_resonant_ring_5(rng, attempts: int = 200):
    """A 5-node ring with eigenvalues i*omega and 2i*omega (a 2:1 resonance).

    Fixes a_3, a_4, a_5 and solves the three real conditions

        Im A(i*omega) = 0,  Im A(2i*omega) = 0,  Re A(i*omega) = Re A(2i*omega)

    for (a_1, a_2, omega) by Newton iteration with random restarts; the
    shared real part then determines c = -Re A(i*omega).
    Returns (params, omega).
    """
    from scipy.optimize import fsolve

    for _ in range(attempts):
        tail = tuple(rng.uniform(-2.0, -0.2, size=3))

        def equations(x):
            a = (x[0], x[1], *tail)
            w = x[2]
            v1 = eval_A(a, 1j * w)
            v2 = eval_A(a, 2j * w)
            return [v1.imag, v2.imag, v1.real - v2.real]

        guess = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)]
        sol, info, ier, _ = fsolve(equations, guess, full_output=True)
        if ier != 1:
            continue
        residual = max(abs(v) for v in equations(sol))
        a = (float(sol[0]), float(sol[1]), *tail)
        omega = float(sol[2])
        if residual > 1e-10 or omega < 0.1 or omega > 10.0:
            continue
        c = -eval_A(a, 1j * omega).real
        if abs(c) < 1e-6:
            continue
        return ring_with_product(5, a, c, rng), omega
    raise RuntimeError("failed to construct a 2:1 resonant ring")


def sympy_resonance_poly(a, k: int) -> list[float]:
    """The auxiliary polynomial Q_k built symbolically, highest degree first.

    Q_k(lambda) = p'(k lambda)(k-1)A(lambda) - p'(lambda)(A(k lambda) - A(lambda))
    with p' = A'.
    """
    lam = sympy.symbols("lam")
    A = sympy.prod([sympy.Rational(0) + v - lam for v in a])
    dp = sympy.diff(A, lam)
    Q = dp.subs(lam, k * lam) * (k - 1) * A - dp * (A.subs(lam, k * lam) - A)
    poly = sympy.Poly(sympy.expand(Q), lam)
    coeffs = [float(v) for v in poly.all_coeffs()]
    n = len(a)
    deg = 2 * n - 1
    if len(coeffs) - 1 < deg:
        coeffs = [0.0] * (deg + 1 - len(coeffs)) + coeffs
    return coeffs


def polymul_resonance_poly(a, k: int) -> np.ndarray:
    """Q_k by np.polymul and np.polysub on the dense coefficients, highest degree first."""
    A = a_poly(a)
    dp = np.polyder(A)

    def substitute_k(coeffs: np.ndarray) -> np.ndarray:
        deg = len(coeffs) - 1
        return coeffs * np.array([float(k) ** (deg - i) for i in range(len(coeffs))])

    first = np.polymul(substitute_k(dp) * (k - 1), A)
    second = np.polymul(dp, np.polysub(substitute_k(A), A))
    return np.polysub(first, second)


def stripped_adjacency_roots(coeffs) -> np.ndarray:
    """Roots of a monic polynomial: np.roots of it without its trailing zero
    coefficients, then one exact zero root for each of them."""
    zeros = 0
    while zeros < len(coeffs) - 1 and coeffs[-1 - zeros] == 0.0:
        zeros += 1
    core = coeffs[: len(coeffs) - zeros]
    return np.concatenate([np.roots(core), np.zeros(zeros, dtype=complex)])


def polyval_forbidden_sources(a, k_max: int) -> list[tuple]:
    """Sources of the resonance forbidden values, as np.polyval of the dense A keeps them.

    The Q_k roots for 2 <= k <= k_max, in order of k; a root is kept where
    -A(lambda) is real to 1e-9 (1 + |A(lambda)|). One np.polyval call takes
    all roots: it is elementwise Horner, so each value is bitwise the one a
    call per root gives.
    """
    A = a_poly(a)
    kept = []
    for k in range(2, k_max + 1):
        roots = np.roots(polymul_resonance_poly(a, k))
        for lam, v in zip(roots, -np.polyval(A, roots)):
            if abs(v.imag) < 1e-9 * (1.0 + abs(v)):
                kept.append(("resonance_root", k, complex(lam)))
    return kept


def all_pairs_min_gap(mus) -> float:
    """The least |mu_i - mu_j| over every pair i < j."""
    return min(abs(mus[i] - mus[j]) for i in range(len(mus)) for j in range(i + 1, len(mus)))


def union_find_clusters(mus, tol: float) -> list[list[int]]:
    """Indices of each group of two or more values linked by |mu_i - mu_j| < tol, found by
    union-find over every pair; each group in increasing order, the groups by first index."""
    parent = list(range(len(mus)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            if abs(mus[i] - mus[j]) < tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(mus)):
        groups.setdefault(find(i), []).append(i)
    return sorted(g for g in groups.values() if len(g) > 1)


def dense_eigenvector_residual(params: RingParams, mu: complex, u) -> tuple[float, float]:
    """||J u - mu u||_inf by the dense Jacobian, and the eigenvector gate's bound
    1e-9 (max_j |a_j| + |b_j| + |mu|) ||u||_inf."""
    J = np.diag(np.asarray(params.a, dtype=float))
    for j in range(params.n):
        J[j, (j + 1) % params.n] = params.b[j]
    u = np.asarray(u, dtype=complex)
    norm = max(abs(x) + abs(y) for x, y in zip(params.a, params.b)) + abs(mu)
    return float(np.abs(J @ u - mu * u).max()), 1e-9 * norm * float(np.abs(u).max())
