"""Removal of multiple eigenvalues and k:1 resonances by coupling perturbations.

Both degeneracies pin the signed coupling product c = (-1)^(n+1) b_1...b_n
to one of finitely many values that depend only on the diagonal entries:

  * a multiple eigenvalue forces c = -A(lambda_i) at a root lambda_i of p',
  * a k:1 resonance forces c = -A(lambda_i) at a root of the auxiliary
    polynomial Q_k, which is likewise independent of the couplings.

c is real, so only real values of -A are kept. By Rolle every root of A'
is real, so for A' that filter only drops np.roots rounding noise. -A is
evaluated in product form at all roots of a polynomial at once.

So a single adjustment of b_1, after replacing any zero couplings, steers c
into the largest forbidden-value-free subinterval reachable within the
perturbation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import RingParams, require_valid
from .spectra import AXIS_TOL, Spectrum, a_poly_coeffs, axis_pairs, eigenvalues

GAP_TOL_FACTOR = 1e-7
REAL_VALUE_TOL = 1e-9


class PerturbationBudgetError(RuntimeError):
    """The requested epsilon cannot clear the forbidden set."""


@dataclass(frozen=True)
class EigenvalueCluster:
    value: complex
    multiplicity: int
    members: tuple[complex, ...]


def default_gap_tol(spectrum: Spectrum) -> float:
    return GAP_TOL_FACTOR * (1.0 + spectrum.spectral_radius())


def detect_multiple(spectrum: Spectrum, gap_tol: float | None = None) -> list[EigenvalueCluster]:
    """Clusters of eigenvalues closer than gap_tol (default scale-relative)."""
    if gap_tol is None:
        gap_tol = default_gap_tol(spectrum)
    mus = list(spectrum.eigenvalues)
    parent = list(range(len(mus)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            if abs(mus[i] - mus[j]) < gap_tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(len(mus)):
        groups.setdefault(find(i), []).append(mus[i])
    clusters = []
    for members in groups.values():
        if len(members) > 1:
            mean = sum(members) / len(members)
            clusters.append(
                EigenvalueCluster(
                    value=complex(mean),
                    multiplicity=len(members),
                    members=tuple(members),
                )
            )
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return clusters


@dataclass(frozen=True)
class ForbiddenSet:
    values: tuple[float, ...]
    sources: tuple[tuple, ...]  # ("p_prime_root", lam) or ("resonance_root", k, lam)

    def to_dict(self) -> dict:
        def jsonable(v):
            return [v.real, v.imag] if isinstance(v, complex) else v

        return {
            "values": list(self.values),
            "sources": [[jsonable(v) for v in s] for s in self.sources],
        }

    def __or__(self, other: ForbiddenSet) -> ForbiddenSet:
        return ForbiddenSet(self.values + other.values, self.sources + other.sources)


def _real_forbidden_values(lam_roots: np.ndarray, a, source: tuple) -> ForbiddenSet:
    """-A(lambda) at each root lambda where it is real, sourced (*source, lambda)."""
    values = -np.prod(np.asarray(a) - lam_roots[:, None], axis=1)
    keep = np.abs(values.imag) < REAL_VALUE_TOL * (1.0 + np.abs(values))
    return ForbiddenSet(
        values=tuple(values.real[keep].tolist()),
        sources=tuple((*source, complex(lam)) for lam in lam_roots[keep]),
    )


def multiplicity_forbidden_set(params: RingParams) -> ForbiddenSet:
    """Coupling products c at which p = A + c has a multiple root.

    p' = A' does not involve the couplings, so its roots are fixed by a;
    the forbidden values are -A(lambda_i) at those roots. By Rolle every
    root of A' is real; the real filter only drops np.roots rounding noise.
    """
    require_valid(params)
    A = np.array(a_poly_coeffs(params.a))
    return _real_forbidden_values(np.roots(np.polyder(A)), params.a, ("p_prime_root",))


def _resonance_coeffs(A: np.ndarray, k: int) -> np.ndarray:
    # lambda -> k lambda scales coefficient i by k^(degree - i); both
    # products have length 2n, so Q_k has degree 2n-1
    powers = np.array([float(k) ** e for e in range(len(A) - 1, -1, -1)])
    dA = A[:-1] * np.arange(len(A) - 1, 0, -1)
    return np.convolve(dA * powers[1:] * (k - 1), A) - np.convolve(dA, A * powers - A)


def resonance_poly(params: RingParams, k: int) -> np.ndarray:
    """Auxiliary polynomial Q_k whose roots locate possible k:1 resonances.

    Q_k(lambda) = p'(k*lambda)(k-1)A(lambda) - p'(lambda)(A(k*lambda) - A(lambda))

    Coefficients are returned highest degree first; the degree is 2n-1 and
    the leading coefficient is n(1 - k^(n-1)). Q_k does not depend on the
    couplings.
    """
    require_valid(params)
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    return _resonance_coeffs(np.array(a_poly_coeffs(params.a)), k)


def resonance_forbidden_set(params: RingParams, k_max: int) -> ForbiddenSet:
    """Union of forbidden coupling products over Q_k roots for 2 <= k <= k_max."""
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    require_valid(params)
    A = np.array(a_poly_coeffs(params.a))
    forbidden = ForbiddenSet(values=(), sources=())
    for k in range(2, k_max + 1):
        roots = np.roots(_resonance_coeffs(A, k))
        forbidden |= _real_forbidden_values(roots, params.a, ("resonance_root", k))
    return forbidden


@dataclass(frozen=True)
class ResonanceFlag:
    k: int  # 0 encodes the 0:1 flag (zero eigenvalue alongside a pair)
    omega: float

    def to_dict(self) -> dict:
        return {"k": self.k, "omega": self.omega}


def detect_resonance(spectrum: Spectrum, k_max: int, tol: float = AXIS_TOL) -> list[ResonanceFlag]:
    """k:1 resonances among axis pairs, plus the 0:1 flag for zero eigenvalues."""
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    freqs = [group[0].imag for group in axis_pairs(spectrum.eigenvalues, tol)]
    flags = []
    if freqs and any(abs(m) < tol for m in spectrum.eigenvalues):
        flags.append(ResonanceFlag(k=0, omega=float(freqs[0])))
    for w in freqs:
        for k in range(2, k_max + 1):
            if any(abs(w2 - k * w) < tol * (1.0 + k) for w2 in freqs):
                flags.append(ResonanceFlag(k=k, omega=float(w)))
    return flags


@dataclass(frozen=True)
class PerturbationResult:
    original: RingParams
    perturbed: RingParams
    delta: float
    achieved_gap: float
    removed: tuple[str, ...]
    forbidden: ForbiddenSet
    margin: float  # distance from the final c to the nearest forbidden value or 0

    def to_dict(self) -> dict:
        return {
            "original": self.original.to_dict(),
            "perturbed": self.perturbed.to_dict(),
            "delta": self.delta,
            "achieved_gap": self.achieved_gap,
            "removed": list(self.removed),
            "forbidden": self.forbidden.to_dict(),
            "margin": self.margin,
        }


def _dezero_couplings(b: tuple[float, ...], epsilon: float) -> tuple[list[float], list[str]]:
    out = list(b)
    notes = []
    for j, v in enumerate(out):
        if v == 0.0:
            out[j] = epsilon / 2.0
            notes.append(f"zero coupling b[{j}] replaced by {epsilon / 2.0}")
    return out, notes


def _shift_coupling_product(
    params: RingParams,
    b_work: list[float],
    forbidden_values,
    epsilon: float,
) -> list[float]:
    """Move c into the widest forbidden-free subinterval reachable via b_1.

    Returns the adjusted couplings. b_1 moves by at most epsilon/2. c = 0
    is avoided as well, since it would require b_1 = 0.
    """
    n = params.n
    sign = (-1) ** (n + 1)
    rest = math.prod(b_work[1:])
    c_now = sign * b_work[0] * rest
    half_width = (epsilon / 2.0) * abs(rest)
    lo, hi = c_now - half_width, c_now + half_width
    avoid = (*forbidden_values, 0.0)
    points = [lo] + sorted({v for v in avoid if lo < v < hi}) + [hi]
    best_mid, best_margin = c_now, -math.inf
    for left, right in zip(points[:-1], points[1:]):
        if right - left <= 0:
            continue
        mid = (left + right) / 2.0
        margin = min(abs(mid - v) for v in avoid)
        if margin > best_margin:
            best_mid, best_margin = mid, margin
    if not math.isfinite(best_margin) or best_margin <= 0:
        nearest = min(avoid, key=lambda v: abs(v - c_now))
        raise PerturbationBudgetError(
            f"epsilon={epsilon} cannot clear the forbidden set: c={c_now} moves by at most "
            f"{half_width:.3e}, and the nearest value to avoid (forbidden, or 0) is "
            f"{nearest}, {abs(nearest - c_now):.3e} from c"
        )
    b_new = list(b_work)
    b_new[0] = sign * best_mid / rest
    return b_new


def _repair(
    params: RingParams,
    epsilon: float,
    spectrum: Spectrum,
    found: list[str],
    forbidden: ForbiddenSet,
    failure: Callable[[Spectrum, RingParams], str | None],
) -> PerturbationResult:
    """The repair both removals share; `found` notes what params has to lose.

    With nothing found and no zero coupling, params comes back unchanged.
    `failure(new_spectrum, perturbed)` says why a repaired ring fails, or None.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not found and all(v != 0.0 for v in params.b):
        perturbed, new_spectrum, notes = params, spectrum, []
    else:
        b_work, notes = _dezero_couplings(params.b, epsilon)
        b_new = _shift_coupling_product(params, b_work, forbidden.values, epsilon)
        perturbed = RingParams(params.n, params.a, tuple(b_new))
        new_spectrum = eigenvalues(perturbed)
        reason = failure(new_spectrum, perturbed)
        if reason:
            raise PerturbationBudgetError(reason)
    c = perturbed.coupling_product()
    return PerturbationResult(
        original=params,
        perturbed=perturbed,
        delta=max(abs(x - y) for x, y in zip(params.b, perturbed.b)),
        achieved_gap=new_spectrum.min_gap(),
        removed=tuple(notes + found),
        forbidden=forbidden,
        margin=min(abs(c - v) for v in forbidden.values + (0.0,)),
    )


def remove_multiple(
    params: RingParams,
    epsilon: float,
    gap_tol: float | None = None,
) -> PerturbationResult:
    """Perturb couplings (only) so every eigenvalue is simple.

    Zero couplings are first replaced by epsilon/2, then b_1 moves by at
    most epsilon/2 to push the coupling product away from every forbidden
    value. The diagonal entries are never touched.
    """
    spectrum = eigenvalues(params)
    if gap_tol is None:
        gap_tol = default_gap_tol(spectrum)
    found = [
        f"multiple eigenvalue near {c.value:.6g} (multiplicity {c.multiplicity})"
        for c in detect_multiple(spectrum, gap_tol)
    ]
    forbidden = multiplicity_forbidden_set(params)

    def failure(new_spectrum: Spectrum, perturbed: RingParams) -> str | None:
        achieved = new_spectrum.min_gap()
        if achieved > gap_tol:
            return None
        c = perturbed.coupling_product()
        nearest = min(forbidden.values, key=lambda v: abs(v - c), default=None)
        return (
            f"achieved gap {achieved:.3e} <= gap_tol {gap_tol:.3e}; "
            f"nearest forbidden value {nearest}"
        )

    return _repair(params, epsilon, spectrum, found, forbidden, failure)


def remove_resonances(
    params: RingParams,
    k_max: int,
    epsilon: float,
    tol: float = AXIS_TOL,
) -> PerturbationResult:
    """Perturb couplings (only) so no k:1 resonance survives for k <= k_max.

    The forbidden coupling products come from the Q_k roots for every
    2 <= k <= k_max, together with the multiplicity values, and a single
    b_1 adjustment clears all of them simultaneously.
    """
    spectrum = eigenvalues(params)
    found = [
        f"{f.k}:1 resonance at omega={f.omega:.6g}"
        for f in detect_resonance(spectrum, k_max, tol)
    ]
    forbidden = resonance_forbidden_set(params, k_max) | multiplicity_forbidden_set(params)

    def failure(new_spectrum: Spectrum, perturbed: RingParams) -> str | None:
        left = [(f.k, f.omega) for f in detect_resonance(new_spectrum, k_max, tol)]
        return f"resonances remain after perturbation: {left}" if left else None

    return _repair(params, epsilon, spectrum, found, forbidden, failure)
