"""Removal of multiple eigenvalues and k:1 resonances by coupling perturbations.

Both degeneracies pin the signed coupling product c = (-1)^(n+1) b_1...b_n
to one of finitely many values that depend only on the diagonal entries:

  * a multiple eigenvalue forces c = -A(lambda_i) at a root lambda_i of p',
  * a k:1 resonance forces c = -A(lambda_i) at a root of the auxiliary
    polynomial Q_k, which is likewise independent of the couplings.

c is real, so only real values of -A are kept. By Rolle every root of A'
is real, so for A' that filter only drops rounding noise.

Since neither set involves the couplings, each is found once per diagonal:
the dense A and the multiplicity set of the last diagonal are kept, keyed on
the exact bits of a, and the roots of Q_2 ... Q_kmax come from one eigvals
call on their stacked companion matrices, equal bit for bit to np.roots of
each. -A is then evaluated in product form at all of them in one pass.

So a single adjustment of b_1, after replacing any zero couplings, steers c
into the largest forbidden-value-free subinterval reachable within the
perturbation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable

from .model import Record, RingParams, require_valid
from .spectra import AXIS_TOL, Spectrum, a_poly_coeffs, axis_pairs, eigenvalues

GAP_TOL_FACTOR = 1e-7
REAL_VALUE_TOL = 1e-9

_memo = None  # (a's bytes, A's dense coefficients, multiplicity ForbiddenSet or None), swapped whole


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
    if not 0 < gap_tol < math.inf:
        raise ValueError(f"gap_tol must be positive and finite, got {gap_tol}")
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
class ForbiddenSet(Record):
    values: tuple[float, ...]
    sources: tuple[tuple, ...]  # ("p_prime_root", lam) or ("resonance_root", k, lam)

    def __or__(self, other: ForbiddenSet) -> ForbiddenSet:
        return ForbiddenSet(self.values + other.values, self.sources + other.sources)


def _roots(polys) -> list[np.ndarray]:
    """np.roots of each coefficient array, bit for bit, with one eigvals call per companion size.

    As in np.roots, leading and trailing zero coefficients are stripped, each trailing
    zero adds a zero root, and roots whose imaginary parts are all 0 come back real.
    """
    import numpy as np
    out = [np.array([]) for _ in polys]
    by_size: dict[int, list[tuple[int, np.ndarray, int]]] = {}
    for i, p in enumerate(polys):
        nonzero = np.flatnonzero(p)
        if len(nonzero):
            lead, last = nonzero[0], nonzero[-1]
            by_size.setdefault(last + 1 - lead, []).append((i, p[lead : last + 1], len(p) - 1 - last))
    for size, group in by_size.items():
        if size > 1:
            P = np.array([p for _, p, _ in group])
            companion = np.zeros((len(group), size - 1, size - 1), P.dtype)
            companion[:, 1:, :-1] = np.eye(size - 2)
            companion[:, 0, :] = -P[:, 1:] / P[:, :1]
            stacked = np.linalg.eigvals(companion)
        for j, (i, _, trailing) in enumerate(group):
            w = stacked[j] if size > 1 else np.array([])
            if w.dtype.kind == "c" and not w.imag.any():
                w = w.real
            out[i] = np.concatenate((w, np.zeros(trailing, w.dtype)))
    return out


def _real_forbidden_values(root_sets, a, sources) -> ForbiddenSet:
    """-A(lambda) at each root where it is real; root_sets[i]'s are sourced (*sources[i], lambda).

    One product pass covers every set.
    """
    import numpy as np
    lam = np.concatenate(root_sets)
    values = -np.prod(np.asarray(a) - lam[:, None], axis=1)
    if lam.dtype.kind == "c":
        start = 0
        for roots in root_sets:
            if roots.dtype.kind != "c":
                # np.roots returned this set real: multiplied in real arithmetic, as
                # on its own, a zero factor keeps the sign of its product
                values[start : start + len(roots)] = -np.prod(np.asarray(a) - roots[:, None], axis=1)
            start += len(roots)
    keep = np.abs(values.imag) < REAL_VALUE_TOL * (1.0 + np.abs(values))
    labels = [source for source, roots in zip(sources, root_sets) for _ in range(len(roots))]
    return ForbiddenSet(
        values=tuple(values.real[keep].tolist()),
        sources=tuple(
            (*source, complex(x)) for source, x in zip(compress(labels, keep.tolist()), lam[keep])
        ),
    )


def _diagonal(a) -> tuple:
    """The memo entry of diagonal a, made afresh unless the last one is for a's exact bits.

    Not float equality: 0.0 == -0.0, but their forbidden values at a zero root differ in sign.
    """
    global _memo
    import numpy as np
    key = np.array(a).tobytes()
    if _memo is None or _memo[0] != key:
        _memo = (key, np.array(a_poly_coeffs(a)), None)
    return _memo


def multiplicity_forbidden_set(params: RingParams) -> ForbiddenSet:
    """Coupling products c at which p = A + c has a multiple root.

    p' = A' does not involve the couplings, so its roots are fixed by a;
    the forbidden values are -A(lambda_i) at those roots. By Rolle every
    root of A' is real; the real filter only drops rounding noise. The set
    is kept for the last diagonal and returned again for the same bits.
    """
    global _memo
    import numpy as np
    require_valid(params)
    key, A, forbidden = _diagonal(params.a)
    if forbidden is None:
        forbidden = _real_forbidden_values(_roots([np.polyder(A)]), params.a, [("p_prime_root",)])
        _memo = (key, A, forbidden)
    return forbidden


def _resonance_coeffs(A: np.ndarray, k: int) -> np.ndarray:
    import numpy as np
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
    return _resonance_coeffs(_diagonal(params.a)[1], k)


def resonance_forbidden_set(params: RingParams, k_max: int) -> ForbiddenSet:
    """Union of forbidden coupling products over Q_k roots for 2 <= k <= k_max.

    Every Q_k companion has size 2n - 1 unless a zero a_j strips a trailing
    coefficient, so one eigvals call usually solves them all.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    require_valid(params)
    A = _diagonal(params.a)[1]
    ks = range(2, k_max + 1)
    roots = _roots([_resonance_coeffs(A, k) for k in ks])
    return _real_forbidden_values(roots, params.a, [("resonance_root", k) for k in ks])


@dataclass(frozen=True)
class ResonanceFlag(Record):
    k: int  # 0 encodes the 0:1 flag (zero eigenvalue alongside a pair)
    omega: float


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
class PerturbationResult(Record):
    original: RingParams
    perturbed: RingParams
    delta: float
    achieved_gap: float
    removed: tuple[str, ...]
    forbidden: ForbiddenSet
    margin: float  # distance from the final c to the nearest forbidden value or 0


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
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
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


def remove_resonances(params: RingParams, k_max: int, epsilon: float) -> PerturbationResult:
    """Perturb couplings (only) so no k:1 resonance survives for k <= k_max.

    The forbidden coupling products come from the Q_k roots for every
    2 <= k <= k_max, together with the multiplicity values, and a single
    b_1 adjustment clears all of them simultaneously.
    """
    spectrum = eigenvalues(params)
    found = [
        f"{f.k}:1 resonance at omega={f.omega:.6g}"
        for f in detect_resonance(spectrum, k_max, AXIS_TOL)
    ]
    forbidden = resonance_forbidden_set(params, k_max) | multiplicity_forbidden_set(params)

    def failure(new_spectrum: Spectrum, perturbed: RingParams) -> str | None:
        left = [(f.k, f.omega) for f in detect_resonance(new_spectrum, k_max, AXIS_TOL)]
        return f"resonances remain after perturbation: {left}" if left else None

    return _repair(params, epsilon, spectrum, found, forbidden, failure)
