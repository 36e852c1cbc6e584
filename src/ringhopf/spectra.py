"""Characteristic polynomial, eigenvalues and eigenvectors of ring Jacobians.

The ring structure collapses the characteristic polynomial to

    p(lambda) = prod_j (a_j - lambda) + c,   c = (-1)^(n+1) b_1 ... b_n

so p, p' and the componentwise backward error |p(z)| / (|c| +
sum_j (|a_j| + |z|) prod_{i != j} |a_i - z|) come out of one product-form
loop (Bini & Fiorentino, Numer. Algorithms 23, 2000), scale-free and with
no dense coefficient. Aberth-Ehrlich iteration starts root k at
a_k + |c|^(1/n) e^(2 pi i (k + 1/4)/n), inside the disks about the a_j
that hold every root, and stops each root at the rounding floor of its
backward error. The power sums sum z = sum a_j, sum z^2 = sum a_j^2 are
checked in one pass, close roots polished, conjugates symmetrised. A multiple
root needs p' = A' = 0: at a repeated a_j, where p = c, or at the one
simple root xi of A' in a gap between neighbouring distinct a_j, where
A'' != 0. So with c = 0 the roots are the a_j, on which the iteration
starts and stays, and nothing is snapped; with c != 0 every multiple root
is a real double root at some xi, and a pair of roots within 1e-6 of the
spectral radius is snapped onto the xi of its gap when xi lies that near
and passes the gate. Any other group keeps its own roots, each gated.
One scan sorted by Re + Im finds the close roots (linked by distances below
tol) for the polish and detect_multiple; min_gap compares every pair, and
the conjugate pairing a near-real root with the conjugate of every root.
A root is accepted at componentwise backward error <= 1e-10, and
it is real only when its real part also passes that gate. An eigenvector
is accepted at eigenpair backward error <= 1e-9, taken row by row in
product form, so `eigenvector_for` works at any scale of the ring. From
VECTOR_SWEEP_MIN_N roots on, a sweep moves all roots at once in numpy; both
sweeps pass one backward-error gate. numpy is imported only where an array
is built, so a smaller ring is solved without loading it. A repeat
`eigenvalues` call on the same ring object returns the same Spectrum.

Every tolerance is a dimensionless factor times the size of what it compares
(a backward error; PAIR_TOL and the polish radius the largest |mu|; AXIS_TOL
each root's own |mu|, and in the 0:1 and k:1 tests the pair frequency;
GAP_TOL_FACTOR the spectral radius, or the least positive float when that
is 0; PRODUCT_REL_TOL the componentwise size of the n = 3 identity;
ZERO_TOL_FACTOR max |a_j|), so `time_rescale` changes no answer. No function,
public or private, takes RESIDUAL_TOL or AXIS_TOL as an argument. Two keep
another form: REAL_VALUE_TOL's 1 + |v|, bit for bit while the dense Q_k route
stays, and simulate's AMPLITUDE_FLOOR and DIVERGENCE_NORM, which bound the state.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass
from operator import sub

from .model import AdjacencyMatrix, Record, RingParams, require_valid

RESIDUAL_TOL = 1e-10  # backward-error threshold of the gate
FREEZE_TOL = 16 * 2.0**-52  # the rounding floor of the backward error
POWER_SUM_TOL = 1e-6  # rounding moves the sums by about 1e-8, a lost root by a gap
PAIR_TOL = 1e-8
AXIS_TOL = 1e-8
EIGENVECTOR_RESIDUAL_TOL = 1e-9
VECTOR_SWEEP_MIN_N = 12  # measured crossover of the two Aberth sweeps
_memo = None  # (params, Spectrum) of the last solve, swapped whole
_rotations = functools.cache(lambda n, turn: tuple(cmath.exp(2j * math.pi * (k + turn) / n) for k in range(n)))


class RootFindingError(RuntimeError):
    """The roots failed the backward-error gate or the power-sum check, or a polynomial is not finite."""


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
        """The least |mu - nu| over every pair of eigenvalues."""
        if self.n < 2:
            raise ValueError(f"min_gap needs at least two eigenvalues, got {self.n}")
        mus = self.eigenvalues
        return min(abs(nu - mu) for i, mu in enumerate(mus) for nu in mus[i + 1 :])


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
    # an overflow to inf or NaN, or of abs(p) itself, reads as infinitely bad
    try:
        eta = abs(p) / scale if scale else 0.0
    except OverflowError:
        return math.inf
    return eta if eta == eta and scale < math.inf else math.inf


def _gate(etas) -> str | None:
    """Why the backward errors fail the gate at RESIDUAL_TOL, or None."""
    failed = [e for e in etas if not e <= RESIDUAL_TOL]
    if failed:
        return (
            f"worst backward error {max(failed):.3e} exceeds the threshold "
            f"{RESIDUAL_TOL:.3e} ({len(failed)} of {len(etas)} roots)"
        )
    return None


def backward_error(params: RingParams, z: complex) -> float:
    """Componentwise backward error of z as a root of p, in the ring's a and c."""
    try:
        return _eval_at(params.a, params.coupling_product(), complex(z))[2]
    except OverflowError:  # abs() of z or of a factor a_j - z past the float range
        return math.inf


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
        scale = np.abs(prod) * ((np.abs(av)[:, None] + np.abs(z)) * np.abs(inv)).sum(axis=0)
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


def _aberth_roots(a, c: float):
    """All roots of prod(a_j - z) + c by Aberth-Ehrlich iteration, and the sweeps taken.

    A root stops once its backward error is down to FREEZE_TOL. The power
    sums, taken in one pass, catch a double root that took two approximations
    and left a simple root out; a second start, turned by half a step, gets one try.
    """
    n = len(a)
    radius = abs(c) ** (1.0 / n)
    vector = n >= VECTOR_SWEEP_MIN_N
    if vector:
        import numpy as np
    wrap = np.array if vector else list
    sweeps = 0
    for turn in (0.25, 0.75):
        start = wrap([v + radius * w for v, w in zip(a, _rotations(n, turn))])
        z, eta, active = wrap(start), wrap([math.inf] * n), wrap(range(n))
        try:
            for _ in range(500):
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
            for k in active:  # still moving after 500 sweeps
                eta[k] = _eval_at(a, c, complex(z[k]))[2]
        except (OverflowError, ZeroDivisionError):
            eta = [math.inf] * n
        reason = _gate(eta)
        if reason:
            continue
        z = z.tolist() if vector else z
        # c is the constant term only, so it leaves the first two power sums alone
        s1 = s2 = r1 = r2 = 0.0
        for m in z:  # one pass; the gate's evaluation took each abs(m) already, so none overflows
            s1, s2, r1, r2 = s1 + m, s2 + m * m, r1 + abs(m), r2 + abs(m) * abs(m)
        for k, got, mods, terms in ((1, s1, r1, a), (2, s2, r2, [v * v for v in a])):
            try:
                want, scale = math.fsum(terms), math.fsum(map(abs, terms)) + mods
            except OverflowError:
                want = mods = math.inf
            if math.inf in (want, mods):  # a sum or a term past the float range cannot be checked
                want = got = scale = math.inf
            if not abs(got - want) <= POWER_SUM_TOL * scale:
                reason = f"power sum {k} of the roots is {got:.6g}, of the a_j {want:.6g}"
                break
        else:
            return z, sweeps
    raise RootFindingError(f"{reason} after {sweeps} sweeps")


def _symmetrise_conjugates(roots, real_ok=lambda x: True) -> list[complex]:
    """Force the root multiset to be exactly self-conjugate.

    A root within PAIR_TOL times the spectral radius of the real axis is
    real, unless the conjugate of some root lies nearer to it than its own
    and real_ok rejects its real part. Each other root above the axis is
    paired with the nearest conjugate of a root below it.
    """
    out, above, below = [], [], []  # below holds the conjugates of the roots below the axis
    roots = sorted(map(complex, roots), key=lambda m: (m.real, abs(m.imag), m.imag))
    pair_tol = PAIR_TOL * max(map(abs, roots))
    for mu in roots:
        if abs(mu.imag) <= pair_tol:
            w = 2 * abs(mu.imag)  # mu's own conjugate lies exactly w away
            if not any(abs(mu - r.conjugate()) < w for r in roots) or real_ok(mu.real):
                out.append(complex(mu.real, 0.0))
                continue
        above.append(mu) if mu.imag > 0 else below.append(mu.conjugate())
    if len(above) != len(below):
        raise RootFindingError(f"{len(above)} roots above the real axis but {len(below)} below it")
    for mu in above:  # both imaginary parts add with one sign, so half lies above the axis
        partner = min(below, key=lambda m: abs(mu - m))
        below.remove(partner)
        half = (mu + partner) / 2.0
        out += [half, half.conjugate()]
    out.sort(key=lambda m: (m.real, m.imag))
    return out


def _critical_point(s, k: int) -> float:
    """The root xi of A' in the gap s[k] < s[k + 1] of the sorted a_j, exact to rounding.

    Newton on A' in product form: g = A'/A = sum 1/(z - a_j) falls from +inf to -inf across the
    gap, and the step is g/(g^2 + g'). A step out of the bracket, narrowed by the sign of g,
    bisects it. The last step is one taken where g is within rounding of 0, or of at most 4 ulps."""
    lo, hi = s[k], s[k + 1]
    tol = 4 * math.ulp(max(abs(lo), abs(hi)))
    rounding = len(s) ** 3 * 2.0**-104  # g errs by about n eps sum |t| <= n eps (n h)^(1/2)
    z = 0.5 * (lo + hi)
    while hi - lo > tol:
        g = h = 0.0  # h = -g'
        for v in s:
            t = 1.0 / (z - v)
            g += t
            h += t * t
        den = g * g - h
        step = g / den if den else math.inf
        if abs(step) <= tol or g * g <= rounding * h:
            return z - step
        lo, hi = (z, hi) if g > 0 else (lo, z)
        z = z - step if lo < z - step < hi else 0.5 * (lo + hi)
    return z


def _clusters(roots, tol: float) -> list[list[int]]:
    """Indices of each group of two or more roots linked by distances below tol, in increasing
    order, the groups by their first index; see the module docstring."""
    if len(roots) < 2:
        return []
    ws = [m.real + m.imag for m in roots]
    ws.sort()
    # a pair within tol is within sqrt(2) tol in w = Re + Im, which sets conjugates 2 |Im| apart;
    # 2 tol, and 16 eps of the largest |w| for the rounding of w, bound that
    reach = 2 * tol + 2.0**-49 * max(ws[-1], -ws[0])
    if min(map(sub, ws[1:], ws)) >= reach:  # the usual case: no pair
        return []
    order = sorted(range(len(roots)), key=lambda k: roots[k].real + roots[k].imag)
    group = {}  # index -> the list of its group, shared by every member
    for p, i in enumerate(order):
        for j in order[p + 1 : bisect.bisect_left(ws, ws[p] + reach)]:
            if abs(roots[j] - roots[i]) < tol:
                gi, gj = group.setdefault(i, [i]), group.setdefault(j, [j])
                if gi is not gj:
                    gi += gj
                    group.update(dict.fromkeys(gj, gi))
    return sorted(sorted(g) for g in {id(g): g for g in group.values()}.values())


def _polish_clusters(roots, a, c: float) -> list[complex]:
    """The roots, each close pair apart from every other root snapped onto the xi of its gap
    when xi lies as close to its centre and passes the gate; see the module docstring."""
    if c == 0:
        return roots
    tol, out = 1e-6 * max(map(abs, roots)), list(roots)
    for i, j in (g for g in _clusters(roots, tol) if len(g) == 2):
        s, centre = sorted(a), (roots[i] + roots[j]) / 2
        k = bisect.bisect_right(s, centre.real) - 1
        if 0 <= k < len(s) - 1 and s[k] < centre.real:
            xi = _critical_point(s, k)
            if abs(xi - centre) < tol and _eval_at(a, c, xi)[2] <= RESIDUAL_TOL:
                out[i] = out[j] = complex(xi)
    return out


def axis_pairs(roots) -> list[list[complex]]:
    """Roots on the imaginary axis (|Re mu| < AXIS_TOL |mu| < Im mu), grouped by frequency.

    Each root is judged at its own size. Sorted by Im; a root joins the last group when its Im
    is within AXIS_TOL |mu| of that group's last member, so each group is one pair frequency.
    A ring has at most one, and it is simple: |A(i w)|^2 = prod(a_j^2 + w^2) rises strictly in w, so
    one w at most has A(i w) = -c, and A' = p' has only real roots; Spectrum.omega is that frequency.
    """
    on_axis = [m for m in roots if abs(m.real) < AXIS_TOL * abs(m) < m.imag]
    groups = []
    for m in sorted(on_axis, key=lambda m: m.imag):
        if groups and m.imag - groups[-1][-1].imag <= AXIS_TOL * abs(m):
            groups[-1].append(m)
        else:
            groups.append([m])
    return groups


def _axis_omega(roots) -> float | None:
    pairs = axis_pairs(roots)
    return float(pairs[0][0].imag) if pairs else None


def eigenvalues(params: RingParams) -> Spectrum:
    """All n eigenvalues of the ring Jacobian, each with backward error <= RESIDUAL_TOL;
    a repeat call on the same params object returns the same Spectrum."""
    global _memo
    memo = _memo  # keyed on identity: equal rings may differ in the sign of a zero
    if not (memo and memo[0] is params):
        memo = _memo = (params, _solve(params))
    return memo[1]


def _solve(params: RingParams) -> Spectrum:
    require_valid(params)
    a, c = params.a, params.coupling_product()
    roots, sweeps = _aberth_roots(a, c)
    # polish first: the two halves of a double root may both stop off the axis
    roots = _polish_clusters(roots, a, c)
    roots = _symmetrise_conjugates(roots, lambda x: _eval_at(a, c, x)[2] <= RESIDUAL_TOL)
    p, _, etas = _eval_points(a, c, roots)
    reason = _gate(etas)
    if reason:
        raise RootFindingError(f"symmetrised roots: {reason}")
    return Spectrum(
        eigenvalues=tuple(roots),
        residuals=tuple(map(abs, map(complex, p))),
        pair_tolerance=PAIR_TOL,
        tau=params.trace(),
        omega=_axis_omega(roots),
        iterations=sweeps,
        backward_error=float(max(etas)),
    )


def eigenvector_for(params: RingParams, mu: complex) -> Eigenvector:
    """Eigenvector from u_{j+1} = (mu - a_j)/b_j * u_j, scaled to u_1 = 1, run once round
    from after the least accurate factor, so its error enters only the gated closure row."""
    require_valid(params)
    n, a, b = params.n, params.a, params.b
    zero = [j for j, v in enumerate(b) if v == 0.0]
    if zero:
        raise ZeroCouplingError(
            f"b[{zero[0]}] = 0: the eigenvector recurrence divides by b_j"
        )
    mu = complex(mu)
    try:
        k = min(range(n), key=lambda j: abs(mu - a[j]) / (abs(mu) + abs(a[j]) or 1.0))
    except OverflowError:  # a modulus past the float range: j = 0, where min lands when
        k = 0  # |mu| reads as inf and so every key as NaN or 0; the gate judges the run
    for s in ((k + 1) % n, 0):  # the rotated run may zero u_1 (mu equal to two a_j) or overflow
        entries = [1.0 + 0.0j]
        for j in range(s, s + n - 1):
            entries.append(entries[-1] * (mu - a[j % n]) / b[j % n])
        entries = entries[n - s :] + entries[: n - s]
        if entries[0] and not any(map(cmath.isinf, entries)):  # a NaN mu is left to the gate
            break
    else:  # the run from u_1 = 1 overflows too, so no closure product is formed
        j = next(j for j, v in enumerate(entries) if cmath.isinf(v))
        raise ValueError(f"closure product not formed: u_{j + 1} = {entries[j]} overflows when u_1 = 1 at "
                         f"mu={mu}, whose backward error as a root of p is {backward_error(params, mu):.3e}")
    closure = entries[s - 1] * (mu - a[s - 1]) / b[s - 1]
    if s:
        entries = [1.0 + 0.0j] + [v / entries[0] for v in entries[1:]]
    # row j of Ju - mu u is (a_j - mu) u_j + b_j u_{j+1}; row s-1's is b_{s-1} (1 - closure) u_s
    try:
        rows = [abs((a[j] - mu) * entries[j] + b[j] * entries[(j + 1) % n]) for j in range(n)]
        residual = max(rows, key=lambda r: (r != r, r))  # a NaN row is the largest: gate fails
        norm, top = max(abs(x) + abs(y) for x, y in zip(a, b)) + abs(mu), max(map(abs, entries))
        bound = EIGENVECTOR_RESIDUAL_TOL * norm * top
    except OverflowError:  # a modulus past the float range
        residual = bound = norm = top = math.inf
    # an inf u_j makes its row inf or NaN, and a scale ||J|| ||u|| past the float range certifies nothing
    if not (residual <= bound and norm * top < math.inf):
        raise ValueError(  # hypot, unlike abs(), returns inf past the float range
            f"closure product {closure} differs from 1 by {math.hypot(closure.real - 1.0, closure.imag):.3e}: "
            f"the eigenvector residual {residual:.3e} exceeds {bound:.3e} at mu={mu}, whose "
            f"backward error as a root of p is {backward_error(params, mu):.3e}"
        )
    args = tuple(float(cmath.phase(v)) % (2 * math.pi) for v in entries)
    return Eigenvector(
        entries=tuple(complex(v) for v in entries),
        eigenvalue=mu,
        moduli=tuple(float(abs(v)) for v in entries),
        arguments=args,
    )


def _faddeev_leverrier(A) -> np.ndarray:
    """Characteristic polynomial det(lambda*I - A) of an integer matrix, highest degree first.

    The recurrence runs in Python integers, where each division by k is exact, so defective
    multiple zero eigenvalues come out exact; each coefficient is rounded once to a float.
    """
    import numpy as np
    A = np.array([[int(v) for v in row] for row in A], dtype=object)
    n = len(A)
    coeffs, M = [1], np.zeros((n, n), dtype=object)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n, dtype=object)
        coeffs.append(-int((A * M.T).sum()) // k)  # c_k = -tr(A M_k)/k
    try:
        return np.array(coeffs, dtype=float)
    except OverflowError:
        bits = max(abs(c) for c in coeffs).bit_length()
        raise RootFindingError(f"det(lambda*I - A) of the {n} x {n} adjacency matrix has a "
                               f"coefficient of {bits} bits, beyond the float range") from None


def adjacency_spectrum(adj: AdjacencyMatrix) -> Spectrum:
    """Eigenvalues of a raw adjacency matrix.

    Works through the exact integer characteristic polynomial rather than
    the dense QR eigensolver: defective multiple zeros (as in transitive
    networks with nilpotent blocks) come out exact instead of O(sqrt(eps)).
    """
    import numpy as np
    coeffs = _faddeev_leverrier(adj.rows)
    # np.roots strips the trailing zero coefficients and returns exact zero roots for them
    roots = _symmetrise_conjugates(np.roots(coeffs))
    # backward error in the dense coefficients: |q(z)| / sum |q_i| |z|^i;
    # moduli by the scalar abs, which np.abs may round differently
    values = [abs(v) for v in np.polyval(coeffs, np.array(roots))]
    scales = np.polyval(abs(coeffs), np.array([abs(m) for m in roots]))
    etas = [_backward_error(v, s) for v, s in zip(values, scales)]
    return Spectrum(
        eigenvalues=tuple(complex(m) for m in roots),
        residuals=tuple(float(v / np.abs(coeffs).max()) for v in values),
        pair_tolerance=PAIR_TOL,
        tau=float(sum(row[i] for i, row in enumerate(adj.rows))),
        omega=_axis_omega(roots),
        backward_error=float(max(etas)),
    )
