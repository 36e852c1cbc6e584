"""Characteristic polynomial, eigenvalues and eigenvectors of ring Jacobians.

The ring structure collapses the characteristic polynomial to

    p(lambda) = prod_j (a_j - lambda) + c,   c = (-1)^(n+1) b_1 ... b_n

so p and p' are evaluated exactly in product form without expanding
coefficients. Roots are found by Aberth-Ehrlich simultaneous iteration
with Newton polishing; conjugate pairs are symmetrised so the spectrum of
the real polynomial is exactly self-conjugate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import AdjacencyMatrix, RingParams, require_valid

RESIDUAL_TOL = 1e-10
PAIR_TOL = 1e-8
AXIS_TOL = 1e-8
CLOSURE_TOL = 1e-8
EIGENVECTOR_RESIDUAL_TOL = 1e-9


class RootFindingError(RuntimeError):
    """The simultaneous root iteration failed to meet the residual tolerance."""


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
        acc = 1.0 + 0.0j
        for a in self.a_factors:
            acc *= a - z
        return acc + self.c

    def max_coefficient(self) -> float:
        return max(abs(v) for v in self.coefficients)


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple[complex, ...]
    residuals: tuple[float, ...]
    pair_tolerance: float
    tau: float
    omega: float | None

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

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[m.real, m.imag] for m in self.eigenvalues],
            "residuals": list(self.residuals),
            "pair_tolerance": self.pair_tolerance,
            "tau": self.tau,
            "omega": self.omega,
        }


@dataclass(frozen=True)
class Eigenvector:
    entries: tuple[complex, ...]
    eigenvalue: complex
    moduli: tuple[float, ...]
    arguments: tuple[float, ...]  # in [0, 2*pi)


def char_poly(params: RingParams) -> CharPoly:
    """Expand p(lambda) = prod(a_j - lambda) + (-1)^(n+1) prod(b_j)."""
    require_valid(params)
    coeffs = [1.0]
    for a in params.a:
        # factor (a - lambda): coefficient of lambda is -1, constant is a
        nxt = [0.0] * (len(coeffs) + 1)
        for i, v in enumerate(coeffs):
            nxt[i] += -v
            nxt[i + 1] += a * v
        coeffs = nxt
    c = params.coupling_product()
    coeffs[-1] += c
    return CharPoly(
        n=params.n,
        a_factors=params.a,
        c=c,
        coefficients=tuple(coeffs),
    )


def _eval_p_dp_at(a, c, z):
    """p(z) and p'(z) at a single point, product form, pure Python."""
    prod = 1.0 + 0.0j
    dp = 0.0j
    for v in a:
        d = v - z
        dp = dp * d - prod
        prod *= d
    return prod + c, dp


def _aberth_roots(
    a,
    c: float,
    coefficients,
    residual_target: float,
    max_iter: int = 500,
):
    """All roots of prod(a_j - z) + c by Aberth-Ehrlich simultaneous iteration.

    Pure Python complex arithmetic: the degrees here are small and tight
    loops over machine complexes beat vectorised array overhead.
    """
    n = len(a)
    if c == 0.0:
        return [complex(v) for v in sorted(a)]
    radius = 1.0 + max(abs(v) for v in coefficients)
    center = sum(a) / n
    z = [
        center + radius * cmath.exp(2j * math.pi * (k + 0.25) / n)
        for k in range(n)
    ]
    stop = 0.25 * residual_target
    for _ in range(max_iter):
        pv = []
        dpv = []
        worst = 0.0
        for zk in z:
            p, dp = _eval_p_dp_at(a, c, zk)
            pv.append(p)
            dpv.append(dp)
            if abs(p) > worst:
                worst = abs(p)
        if worst <= stop:
            break
        max_corr = 0.0
        new_z = list(z)
        for k in range(n):
            dp = dpv[k] if dpv[k] != 0 else 1e-300
            w = pv[k] / dp
            s = 0.0j
            zk = z[k]
            for j in range(n):
                if j != k:
                    s += 1.0 / (zk - z[j])
            denom = 1.0 - w * s
            corr = w / denom if denom != 0 else w
            new_z[k] = zk - corr
            if abs(corr) > max_corr:
                max_corr = abs(corr)
        z = new_z
        if max_corr < 1e-14 * (1.0 + max(abs(v) for v in z)):
            break
    # Newton polish (no-op at exact roots; limited effect at multiple roots)
    for _ in range(3):
        for k in range(n):
            p, dp = _eval_p_dp_at(a, c, z[k])
            if dp != 0:
                step = p / dp
                if abs(step) <= 1.0:
                    z[k] = z[k] - step
    residuals = [abs(_eval_p_dp_at(a, c, zk)[0]) for zk in z]
    # NaN compares false either way: `r > target` would let it through
    failed = [r for r in residuals if not r <= residual_target]
    if failed:
        worst = max(failed, key=lambda r: math.inf if math.isnan(r) else r)
        raise RootFindingError(
            f"worst root residual {worst:.3e} exceeds the target "
            f"{residual_target:.3e} ({len(failed)} of {n} roots)"
        )
    return z


def _symmetrise_conjugates(roots, pair_tol: float) -> list[complex]:
    """Force the root multiset to be exactly self-conjugate."""
    out = []
    roots = [complex(m) for m in roots]
    roots.sort(key=lambda m: (m.real, abs(m.imag), m.imag))
    used = [False] * len(roots)
    for i, mu in enumerate(roots):
        if used[i]:
            continue
        used[i] = True
        if abs(mu.imag) < pair_tol:
            out.append(complex(mu.real, 0.0))
            continue
        # find the closest unused root to the conjugate
        best, best_d = None, math.inf
        for j in range(len(roots)):
            if used[j]:
                continue
            d = abs(roots[j] - mu.conjugate())
            if d < best_d:
                best, best_d = j, d
        if best is None:
            out.append(mu)
            continue
        used[best] = True
        half = (mu + roots[best].conjugate()) / 2.0
        half = complex(half.real, abs(half.imag))
        out.append(half)
        out.append(half.conjugate())
    out.sort(key=lambda m: (m.real, m.imag))
    return out


def _polish_clusters(
    roots,
    coeffs,
    residual_target: float,
) -> list[complex]:
    """Snap near-coincident roots onto the nearby root of p^(m-1).

    Simultaneous iteration resolves an m-fold root only to O(residual^(1/m));
    a genuine multiple root also zeroes the derivatives, which converge
    quadratically. Groups of roots closer than the detection threshold are
    replaced by the Newton-refined derivative root when the polynomial
    residual confirms it.
    """
    roots = list(roots)
    k = len(roots)
    close = any(
        abs(roots[i] - roots[j]) < 1e-6 * (1.0 + abs(roots[i]))
        for i in range(k)
        for j in range(i + 1, k)
    )
    if not close:
        return roots
    out = []
    used = [False] * k
    derivs = [np.asarray(coeffs)]
    for _ in range(k):
        derivs.append(np.polyder(derivs[-1]))
    for i, mu in enumerate(roots):
        if used[i]:
            continue
        group = [i]
        tol = 1e-6 * (1.0 + abs(mu))
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
            d = np.polyval(derivs[m], z)
            if d == 0:
                break
            step = np.polyval(derivs[m - 1], z) / d
            z = z - step
            if abs(step) < 1e-15 * (1.0 + abs(z)):
                break
        ok = (
            abs(z - center) < tol
            and abs(np.polyval(derivs[0], z)) <= residual_target
        )
        target = z if ok else center
        if abs(target.imag) < 1e-12 * (1.0 + abs(target)):
            target = complex(target.real, 0.0)
        for j in group:
            used[j] = True
            out.append(complex(target))
    return out


def _axis_omega(roots: np.ndarray, axis_tol: float) -> float | None:
    on_axis = [m for m in roots if abs(m.real) < axis_tol and m.imag > axis_tol]
    if not on_axis:
        return None
    return float(min(on_axis, key=lambda m: m.imag).imag)


def eigenvalues(
    params: RingParams,
    residual_tol: float = RESIDUAL_TOL,
    pair_tol: float = PAIR_TOL,
    axis_tol: float = AXIS_TOL,
) -> Spectrum:
    """All n eigenvalues of the ring Jacobian, residual-checked."""
    require_valid(params)
    cp = char_poly(params)
    target = residual_tol * cp.max_coefficient()
    roots = _aberth_roots(params.a, cp.c, cp.coefficients, target)
    roots = _symmetrise_conjugates(roots, pair_tol)
    roots = _polish_clusters(roots, cp.coefficients, target)
    roots = sorted(roots, key=lambda m: (m.real, m.imag))
    residuals = tuple(abs(cp.evaluate(m)) for m in roots)
    return Spectrum(
        eigenvalues=tuple(complex(m) for m in roots),
        residuals=residuals,
        pair_tolerance=pair_tol,
        tau=params.trace(),
        omega=_axis_omega(roots, axis_tol),
    )


def eigenvector_for(
    params: RingParams,
    mu: complex,
    closure_tol: float = CLOSURE_TOL,
    residual_tol: float = EIGENVECTOR_RESIDUAL_TOL,
) -> Eigenvector:
    """Eigenvector from the recurrence u_{j+1} = (mu - a_j)/b_j * u_j, u_1 = 1."""
    require_valid(params)
    zero = [j for j, v in enumerate(params.b) if v == 0.0]
    if zero:
        raise ZeroCouplingError(
            f"b[{zero[0]}] = 0: the eigenvector recurrence divides by b_j"
        )
    mu = complex(mu)
    entries = [1.0 + 0.0j]
    for j in range(params.n - 1):
        entries.append(entries[-1] * (mu - params.a[j]) / params.b[j])
    closure = entries[-1] * (mu - params.a[-1]) / params.b[-1]
    if abs(closure - 1.0) > closure_tol:
        raise ValueError(
            f"closure product {closure} differs from 1 by more than {closure_tol}: "
            f"{mu} is not an eigenvalue"
        )
    u = np.array(entries)
    J = params.jacobian()
    residual = np.abs(J @ u - mu * u).max()
    if residual > residual_tol * np.abs(u).max():
        raise ValueError(
            f"eigenvector residual {residual:.3e} exceeds tolerance for mu={mu}"
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


def adjacency_spectrum(
    adj: AdjacencyMatrix,
    pair_tol: float = PAIR_TOL,
    axis_tol: float = AXIS_TOL,
) -> Spectrum:
    """Eigenvalues of a raw adjacency matrix.

    Works through the exact integer characteristic polynomial rather than
    the dense QR eigensolver: defective multiple zeros (as in transitive
    networks with nilpotent blocks) come out exact instead of O(sqrt(eps)).
    """
    A = adj.matrix()
    coeffs = _faddeev_leverrier(A)
    trailing_zeros = 0
    while trailing_zeros < len(coeffs) - 1 and coeffs[-1 - trailing_zeros] == 0.0:
        trailing_zeros += 1
    core = coeffs[: len(coeffs) - trailing_zeros] if trailing_zeros else coeffs
    roots = np.concatenate([np.roots(core), np.zeros(trailing_zeros, dtype=complex)])
    roots = _symmetrise_conjugates(roots, pair_tol)
    scale = np.abs(coeffs).max()
    residuals = tuple(float(abs(np.polyval(coeffs, m))) / scale for m in roots)
    return Spectrum(
        eigenvalues=tuple(complex(m) for m in roots),
        residuals=residuals,
        pair_tolerance=pair_tol,
        tau=float(np.trace(A)),
        omega=_axis_omega(roots, axis_tol),
    )
