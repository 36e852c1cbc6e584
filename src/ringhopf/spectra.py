"""Characteristic polynomial, eigenvalues and eigenvectors of ring Jacobians.

The ring structure collapses the characteristic polynomial to

    p(lambda) = prod_j (a_j - lambda) + c,   c = (-1)^(n+1) b_1 ... b_n

so p, p' and the componentwise backward error |p(z)| / (|c| +
sum_j (|a_j| + |z|) prod_{i != j} |a_i - z|) come out of one product-form
loop (Bini & Fiorentino, Numer. Algorithms 23, 2000), scale-free and with
no dense coefficient. Aberth-Ehrlich iteration starts root k at
a_k + |c|^(1/n) e^(2 pi i (k + 1/4)/n), inside the disks about the a_j
that hold every root, and stops each root at the rounding floor of its
backward error. Clusters are snapped onto the derivative root, conjugate
pairs symmetrised, and the power sums sum z = sum a_j, sum z^2 = sum a_j^2
checked. A root is accepted at componentwise backward error <= 1e-10, and
it is real only when its real part also passes that gate. An eigenvector
is accepted at eigenpair backward error <= 1e-9, so `eigenvector_for`
works at any scale of the ring. From VECTOR_SWEEP_MIN_N roots on, a sweep
moves all roots at once in numpy; both sweeps pass one backward-error gate.
numpy is imported only where an array is built, so a smaller ring is solved
without loading it. A repeat `eigenvalues` call on the same ring object
returns the same Spectrum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .model import AdjacencyMatrix, Record, RingParams, require_valid

RESIDUAL_TOL = 1e-10  # backward-error threshold of the gate
FREEZE_TOL = 16 * 2.0**-52  # the rounding floor of the backward error
POWER_SUM_TOL = 1e-6  # rounding moves the sums by about 1e-8, a lost root by a gap
PAIR_TOL = 1e-8
AXIS_TOL = 1e-8
EIGENVECTOR_RESIDUAL_TOL = 1e-9
VECTOR_SWEEP_MIN_N = 12  # measured crossover of the two Aberth sweeps
_memo = None  # (params, residual_tol, axis_tol, Spectrum) of the last solve, swapped whole


class RootFindingError(RuntimeError):
    """The roots failed the backward-error gate or the power-sum check."""


class ZeroCouplingError(ValueError):
    """An operation that divides by b_j met a zero coupling."""


@dataclass(frozen=True)
class CharPoly:
    """p(lambda) = prod(a_j - lambda) + c in both product and dense form."""

    n: int
    a_factors: tuple[float, ...]
    c: float
    coefficients: tuple[float, ...]  # dense, highest degree first

    def evaluate(self, z: complex) -> complex:
        return _eval_at(self.a_factors, self.c, z)[0]

    def max_coefficient(self) -> float:
        return max(abs(v) for v in self.coefficients)


@dataclass(frozen=True)
class Spectrum(Record):
    eigenvalues: tuple[complex, ...]
    residuals: tuple[float, ...]
    pair_tolerance: float
    tau: float
    omega: float | None
    iterations: int = 0  # Aberth sweeps
    backward_error: float = math.nan  # the worst root's

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def spectral_radius(self) -> float:
        return max(abs(m) for m in self.eigenvalues)

    def min_gap(self) -> float:
        mus = self.eigenvalues
        return min(
            abs(mus[i] - mus[j])
            for i in range(len(mus))
            for j in range(i + 1, len(mus))
        )


@dataclass(frozen=True)
class Eigenvector:
    entries: tuple[complex, ...]
    eigenvalue: complex
    moduli: tuple[float, ...]
    arguments: tuple[float, ...]  # in [0, 2*pi)


def a_poly_coeffs(a) -> list[float]:
    """Dense coefficients, highest degree first, of A(lambda) = prod(a_j - lambda)."""
    coeffs = [1.0]
    for aj in a:
        # factor (aj - lambda): coefficient of lambda is -1, constant is aj
        nxt = [0.0] * (len(coeffs) + 1)
        for i, v in enumerate(coeffs):
            nxt[i] += -v
            nxt[i + 1] += aj * v
        coeffs = nxt
    return coeffs


def char_poly(params: RingParams) -> CharPoly:
    """Expand p(lambda) = prod(a_j - lambda) + (-1)^(n+1) prod(b_j)."""
    require_valid(params)
    coeffs = a_poly_coeffs(params.a)
    c = params.coupling_product()
    coeffs[-1] += c
    return CharPoly(
        n=params.n,
        a_factors=params.a,
        c=c,
        coefficients=tuple(coeffs),
    )


def _eval_at(a, c, z):
    """p(z), p'(z) and the backward error of z, product form, pure Python."""
    prod = 1.0 + 0.0j
    dp = 0.0j
    mod = 1.0
    scale = 0.0
    az = abs(z)
    for v in a:
        d = v - z
        dp = dp * d - prod
        prod *= d
        ad = abs(d)
        scale = scale * ad + (abs(v) + az) * mod
        mod *= ad
    return prod + c, dp, _backward_error(prod + c, scale + abs(c))


def _backward_error(p: complex, scale: float) -> float:
    # a zero scale needs c = 0 and two vanishing factors, so p = 0 there;
    # an overflow to inf or NaN reads as infinitely bad
    eta = abs(p) / scale if scale else 0.0
    return eta if eta == eta and scale < math.inf else math.inf


def _gate(etas, threshold: float) -> str | None:
    """Why the backward errors fail the gate, or None."""
    failed = [e for e in etas if not e <= threshold]
    if failed:
        return (
            f"worst backward error {max(failed):.3e} exceeds the threshold "
            f"{threshold:.3e} ({len(failed)} of {len(etas)} roots)"
        )
    return None


def backward_error(params: RingParams, z: complex) -> float:
    """Componentwise backward error of z as a root of p, in the ring's a and c."""
    return _eval_at(params.a, params.coupling_product(), complex(z))[2]


def _eval_points(a, c: float, z):
    """p, p' and eta at each point of z: by _eval_at below VECTOR_SWEEP_MIN_N roots, else from
    one (n x len(z)) product, and by _eval_at where a factor a_j - z is 0 or a value overflows."""
    if len(a) < VECTOR_SWEEP_MIN_N:
        return zip(*[_eval_at(a, c, m) for m in z])
    import numpy as np
    av = np.array(a)
    d = av[:, None] - z
    with np.errstate(all="ignore"):
        prod = d.prod(axis=0)
        inv = 1.0 / d
        # p' = -prod sum_j 1/d_j; scale = sum_j (|a_j| + |z|) prod_{i != j} |d_i|
        dp = -prod * inv.sum(axis=0)
        inv = np.abs(inv)
        scale = np.abs(prod) * (np.abs(av) @ inv + np.abs(z) * inv.sum(axis=0))
        p, den = prod + c, scale + abs(c)
        eta = np.abs(p) / den
    for k in np.flatnonzero(~(np.isfinite(dp) & (0 < scale) & (den < math.inf))):
        p[k], dp[k], eta[k] = _eval_at(a, c, complex(z[k]))
    return p, dp, eta


def _vector_sweep(a, c: float, z, eta, active, start):
    """One Jacobi sweep: every moving root steps at once, over (n x moving) arrays."""
    import numpy as np
    p, dp, eta[active] = _eval_points(a, c, z[active])
    keep = ~(eta[active] <= FREEZE_TOL)
    moving, p, dp, zk = active[keep], p[keep], dp[keep], z[active[keep]]
    with np.errstate(all="ignore"):
        inv = 1.0 / (zk - z[:, None])
        inv[~np.isfinite(inv)] = 0.0  # the root itself, and any equal to it
        new = zk - p / (dp - p * inv.sum(axis=0))
    z[moving] = np.where(np.isfinite(eta[moving]) & np.isfinite(new), new, start[moving])
    return moving


def _aberth_roots(a, c: float, threshold: float, max_iter: int = 500):
    """All roots of prod(a_j - z) + c by Aberth-Ehrlich iteration, and the sweeps taken.

    A root stops once its backward error is down to FREEZE_TOL. The power
    sums catch a double root that took two approximations and left a
    simple root out; a second start, turned by half a step, gets one try.
    """
    n = len(a)
    radius = abs(c) ** (1.0 / n)
    vector = n >= VECTOR_SWEEP_MIN_N
    if vector:
        import numpy as np
    wrap = np.array if vector else list
    sweeps = 0
    for turn in (0.25, 0.75):
        start = wrap([a[k] + radius * cmath.exp(2j * math.pi * (k + turn) / n) for k in range(n)])
        z, eta, active = wrap(start), wrap([math.inf] * n), wrap(range(n))
        try:
            for _ in range(max_iter):
                sweeps += 1
                if vector:
                    active = _vector_sweep(a, c, z, eta, active, start)
                else:  # Gauss-Seidel: each root steps in turn
                    moving = []
                    for k in active:
                        zk = z[k]
                        p, dp, eta[k] = _eval_at(a, c, zk)
                        if eta[k] <= FREEZE_TOL:
                            continue
                        s = 0.0j
                        for zj in z:
                            if zj != zk:
                                s += 1.0 / (zk - zj)
                        new = zk - p / (dp - p * s)
                        # an iterate thrown out of the float range starts again
                        z[k] = new if eta[k] < math.inf and cmath.isfinite(new) else start[k]
                        moving.append(k)
                    active = moving
                if not len(active):
                    break
            for k in active:  # still moving after max_iter sweeps
                eta[k] = _eval_at(a, c, complex(z[k]))[2]
        except (OverflowError, ZeroDivisionError):
            eta = [math.inf] * n
        reason = _gate(eta, threshold)
        if reason:
            continue
        z = z.tolist() if vector else z
        # c is the constant term only, so it leaves the first two power sums alone
        for k in (1, 2):
            want, got = math.fsum(v**k for v in a), sum(m**k for m in z)
            scale = math.fsum(abs(v) ** k for v in a) + sum(abs(m) ** k for m in z)
            if not abs(got - want) <= POWER_SUM_TOL * scale:
                reason = f"power sum {k} of the roots is {got:.6g}, of the a_j {want:.6g}"
                break
        else:
            return z, sweeps
    raise RootFindingError(f"{reason} after {sweeps} sweeps")


def _symmetrise_conjugates(roots, real_ok=lambda x: True) -> list[complex]:
    """Force the root multiset to be exactly self-conjugate.

    A root within PAIR_TOL times the spectral radius of the real axis is
    real, unless another root's conjugate lies nearer to it than its own
    and real_ok rejects its real part. Each other root above the axis is
    paired with the nearest conjugate of a root below it.
    """
    out, above, below = [], [], []
    roots = sorted(map(complex, roots), key=lambda m: (m.real, abs(m.imag), m.imag))
    pair_tol = PAIR_TOL * max(map(abs, roots))
    for i, mu in enumerate(roots):
        if abs(mu.imag) <= pair_tol:
            # mu's own conjugate lies exactly w away, so only a root whose real part is within
            # w of mu's can be nearer; the window reaches 2w, so rounding at its ends loses none
            w = 2 * abs(mu.imag)
            lo, hi = i, i + 1
            while lo and roots[lo - 1].real >= mu.real - 2 * w:
                lo -= 1
            while hi < len(roots) and roots[hi].real <= mu.real + 2 * w:
                hi += 1
            if not any(abs(mu - r.conjugate()) < w for r in roots[lo:hi]) or real_ok(mu.real):
                out.append(complex(mu.real, 0.0))
                continue
        (above if mu.imag > 0 else below).append(mu)
    if len(above) != len(below):
        raise RootFindingError(f"{len(above)} roots above the real axis but {len(below)} below it")
    for mu in above:  # both imaginary parts add with one sign, so half lies above the axis
        partner = min(below, key=lambda m: abs(mu - m.conjugate()))
        below.remove(partner)
        half = (mu + partner.conjugate()) / 2.0
        out += [half, half.conjugate()]
    out.sort(key=lambda m: (m.real, m.imag))
    return out


def _taylor(a, z: complex, m: int) -> list[complex]:
    """Taylor coefficients t_0..t_m of prod(a_j - z - t) in t: p^(k)(z) = k! t_k, k >= 1."""
    t = [1.0 + 0.0j] + [0.0j] * m
    for v in a:
        d = v - z
        for i in range(m, 0, -1):
            t[i] = t[i] * d - t[i - 1]
        t[0] *= d
    return t


def _polish_clusters(roots, a, c: float, threshold: float) -> list[complex]:
    """Snap near-coincident roots onto the nearby root of p^(m-1).

    Simultaneous iteration resolves an m-fold root only to O(eps^(1/m));
    groups closer than 1e-6 of the spectral radius are replaced by the
    Newton-refined root of p^(m-1) when its backward error confirms it, and
    otherwise keep their own roots.
    """
    roots = list(roots)
    tol = 1e-6 * max(abs(m) for m in roots)
    out = []
    used = [False] * len(roots)
    for i, mu in enumerate(roots):
        if used[i]:
            continue
        group = [i]
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - mu) < tol:
                group.append(j)
        if len(group) == 1:
            out.append(mu)
            used[i] = True
            continue
        m = len(group)
        center = sum(roots[j] for j in group) / m
        z = center
        for _ in range(50):
            t = _taylor(a, z, m)
            if t[m] == 0:
                break
            step = t[m - 1] / (m * t[m])  # p^(m-1) / p^(m)
            z = z - step
            if abs(step) < 1e-15 * (1.0 + abs(z)):
                break
        for j in group:
            used[j] = True
        if abs(z - center) < tol and _eval_at(a, c, z)[2] <= threshold:
            out.extend([z] * m)
        else:  # near simple roots pass the gate where their mean may not
            out.extend(roots[j] for j in group)
    return out


def axis_pairs(roots, tol: float = AXIS_TOL) -> list[list[complex]]:
    """Roots on the imaginary axis (|Re| < tol, Im > tol), grouped by frequency.

    Sorted by Im; a root joins the last group when its Im is within tol of
    that group's last member, so each group is one pair frequency.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    on_axis = [m for m in roots if abs(m.real) < tol and m.imag > tol]
    groups = []
    for m in sorted(on_axis, key=lambda m: m.imag):
        if groups and m.imag - groups[-1][-1].imag <= tol:
            groups[-1].append(m)
        else:
            groups.append([m])
    return groups


def _axis_omega(roots, axis_tol: float) -> float | None:
    pairs = axis_pairs(roots, axis_tol)
    return float(pairs[0][0].imag) if pairs else None


def eigenvalues(
    params: RingParams,
    residual_tol: float = RESIDUAL_TOL,
    axis_tol: float = AXIS_TOL,
) -> Spectrum:
    """All n eigenvalues of the ring Jacobian, each with backward error <= residual_tol;
    a repeat call on the same params object and tolerances returns the same Spectrum."""
    global _memo
    memo = _memo  # keyed on identity: equal rings may differ in the sign of a zero
    if memo and memo[0] is params and memo[1:3] == (residual_tol, axis_tol):
        return memo[3]
    spectrum = _solve(params, residual_tol, axis_tol)
    _memo = (params, residual_tol, axis_tol, spectrum)
    return spectrum


def _solve(params: RingParams, residual_tol: float, axis_tol: float) -> Spectrum:
    require_valid(params)
    a, c = params.a, params.coupling_product()
    roots, sweeps = _aberth_roots(a, c, residual_tol)
    # polish first: the two halves of a double root may both stop off the axis
    roots = _polish_clusters(roots, a, c, residual_tol)
    roots = _symmetrise_conjugates(roots, lambda x: _eval_at(a, c, x)[2] <= residual_tol)
    p, _, etas = _eval_points(a, c, roots)
    reason = _gate(etas, residual_tol)
    if reason:
        raise RootFindingError(f"symmetrised roots: {reason}")
    return Spectrum(
        eigenvalues=tuple(complex(m) for m in roots),
        residuals=tuple(abs(complex(v)) for v in p),
        pair_tolerance=PAIR_TOL,
        tau=params.trace(),
        omega=_axis_omega(roots, axis_tol),
        iterations=sweeps,
        backward_error=float(max(etas)),
    )


def eigenvector_for(params: RingParams, mu: complex) -> Eigenvector:
    """Eigenvector from u_{j+1} = (mu - a_j)/b_j * u_j, scaled to u_1 = 1, run once round
    from after the least accurate factor, so its error enters only the gated closure row."""
    import numpy as np
    require_valid(params)
    n, a, b = params.n, params.a, params.b
    zero = [j for j, v in enumerate(b) if v == 0.0]
    if zero:
        raise ZeroCouplingError(
            f"b[{zero[0]}] = 0: the eigenvector recurrence divides by b_j"
        )
    mu = complex(mu)
    k = min(range(n), key=lambda j: abs(mu - a[j]) / (abs(mu) + abs(a[j]) or 1.0))
    for s in ((k + 1) % n, 0):  # mu equal to two a_j can zero u_1 on the rotated run
        entries = [1.0 + 0.0j]
        for j in range(s, s + n - 1):
            entries.append(entries[-1] * (mu - a[j % n]) / b[j % n])
        entries = entries[n - s :] + entries[: n - s]
        if 0 < abs(entries[0]) < math.inf:
            break
    closure = entries[s - 1] * (mu - a[s - 1]) / b[s - 1]
    if s:
        entries = [1.0 + 0.0j] + [v / entries[0] for v in entries[1:]]
    u = np.array(entries)
    residual = np.abs(params.jacobian() @ u - mu * u).max()
    norm = max(abs(x) + abs(y) for x, y in zip(a, b)) + abs(mu)
    bound = EIGENVECTOR_RESIDUAL_TOL * norm * np.abs(u).max()
    # b_{s-1} (1 - closure) u_s is the residual's row s-1: the closure needs no gate
    if not residual <= bound:
        raise ValueError(
            f"closure product {closure} differs from 1 by {abs(closure - 1.0):.3e}: the "
            f"eigenvector residual {residual:.3e} exceeds {bound:.3e} at mu={mu}, whose "
            f"backward error as a root of p is {backward_error(params, mu):.3e}"
        )
    args = tuple(float(cmath.phase(v)) % (2 * math.pi) for v in entries)
    return Eigenvector(
        entries=tuple(complex(v) for v in entries),
        eigenvalue=mu,
        moduli=tuple(float(abs(v)) for v in entries),
        arguments=args,
    )


def _faddeev_leverrier(A: np.ndarray) -> np.ndarray:
    """Characteristic polynomial det(lambda*I - A), highest degree first.

    For integer matrices the coefficients are integers; they are snapped
    back to the nearest integer to cancel float round-off, which keeps
    multiple zero eigenvalues exact even when the matrix is defective.
    """
    import numpy as np
    n = A.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    snapped = np.round(coeffs)
    close = np.abs(coeffs - snapped) < 1e-6 * (1.0 + np.abs(snapped))
    return np.where(close, snapped, coeffs)


def adjacency_spectrum(adj: AdjacencyMatrix) -> Spectrum:
    """Eigenvalues of a raw adjacency matrix.

    Works through the exact integer characteristic polynomial rather than
    the dense QR eigensolver: defective multiple zeros (as in transitive
    networks with nilpotent blocks) come out exact instead of O(sqrt(eps)).
    """
    import numpy as np
    A = adj.matrix()
    coeffs = _faddeev_leverrier(A)
    # np.roots strips the trailing zero coefficients and returns exact zero roots for them
    roots = _symmetrise_conjugates(np.roots(coeffs))
    # backward error in the dense coefficients: |q(z)| / sum |q_i| |z|^i;
    # moduli by the scalar abs, which np.abs may round differently
    values = [abs(v) for v in np.polyval(coeffs, np.array(roots))]
    scales = np.polyval(abs(coeffs), np.array([abs(m) for m in roots]))
    etas = [_backward_error(v, s) for v, s in zip(values, scales)]
    return Spectrum(
        eigenvalues=tuple(complex(m) for m in roots),
        residuals=tuple(float(v) / np.abs(coeffs).max() for v in values),
        pair_tolerance=PAIR_TOL,
        tau=float(np.trace(A)),
        omega=_axis_omega(roots, AXIS_TOL),
        backward_error=float(max(etas)),
    )
