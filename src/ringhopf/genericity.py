"""Removal of multiple eigenvalues and k:1 resonances by coupling perturbations.

Both degeneracies pin the signed coupling product c = (-1)^(n+1) b_1...b_n
to one of finitely many values that depend only on the diagonal entries:

  * a multiple eigenvalue forces c = -A(lambda_i) at a root lambda_i of p',
  * a k:1 resonance forces c = -A(lambda_i) at a root of the auxiliary
    polynomial Q_k, which is likewise independent of the couplings.

The roots of p' = A' are exact: each repeated a_j, and the critical point
of A in each gap between neighbouring distinct a_j, found in product form
without dense coefficients. c is real, so of the Q_k roots only those where
-A is real are kept.

The multiplicity set of the last diagonal is kept, keyed on the exact bits
of a, since both removals ask for it. The roots of Q_2 ... Q_kmax come from
one eigvals call on their stacked companion matrices, equal bit for bit to
np.roots of each. For each k, -A is evaluated in product form at the roots
of Q_k in the dtype np.roots gives them, so a zero product keeps its sign.

No ring has a k:1 or 0:1 resonance exactly on the imaginary axis: every
eigenvalue mu has A(mu) = -c, and |A(iw)|^2 = prod(a_j^2 + w^2) strictly
increases in |w|, so |A(ikw)| > |A(iw)| > |A(0)| for w != 0. detect_resonance
serves adjacency spectra and pairs within the modelled axis tolerance.

So a single adjustment of b_1, after replacing any zero couplings, steers c
into the largest forbidden-value-free subinterval reachable within the
perturbation budget.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

from .model import Record, RingParams, require_valid
from .spectra import AXIS_TOL, RootFindingError, Spectrum, _clusters, _critical_point, a_poly_coeffs
from .spectra import axis_pairs, eigenvalues

GAP_TOL_FACTOR = 1e-7
REAL_VALUE_TOL = 1e-9

_memo = None  # (a's bytes, its multiplicity ForbiddenSet), swapped whole


class PerturbationBudgetError(RuntimeError):
    """The requested epsilon cannot clear the forbidden set."""


@dataclass(frozen=True)
class EigenvalueCluster:
    value: complex
    multiplicity: int
    members: tuple[complex, ...]


def default_gap_tol(spectrum: Spectrum) -> float:
    """GAP_TOL_FACTOR times the spectral radius; the least positive float for an all-zero one."""
    return GAP_TOL_FACTOR * spectrum.spectral_radius() or math.ulp(0.0)


def detect_multiple(spectrum: Spectrum, gap_tol: float | None = None) -> list[EigenvalueCluster]:
    """Clusters of eigenvalues closer than gap_tol (default scale-relative)."""
    if gap_tol is None:
        gap_tol = default_gap_tol(spectrum)
    if not 0 < gap_tol < math.inf:
        raise ValueError(f"gap_tol must be positive and finite, got {gap_tol}")
    mus = spectrum.eigenvalues
    groups = [[mus[i] for i in group] for group in _clusters(mus, gap_tol)]
    clusters = [EigenvalueCluster(complex(sum(m) / len(m)), len(m), tuple(m)) for m in groups]
    return sorted(clusters, key=lambda c: (c.value.real, c.value.imag))


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


def multiplicity_forbidden_set(params: RingParams) -> ForbiddenSet:
    """Coupling products c at which p = A + c has a multiple root: -A, in product form, at
    the n - 1 roots of p' = A' in increasing order, which are m - 1 copies of each a_j repeated
    m times and the critical point of A in each gap between neighbouring distinct a_j. The set is
    kept for the last diagonal and returned again for the same bits of a (0.0 == -0.0, but -A
    differs in sign there)."""
    global _memo
    require_valid(params)
    key = struct.pack(f"{params.n}d", *params.a)
    if _memo is None or _memo[0] != key:
        a, s = params.a, sorted(params.a)
        roots = [s[k] if s[k] == s[k + 1] else _critical_point(s, k) for k in range(len(s) - 1)]
        values = tuple(-math.prod([v - x for v in a]) for x in roots)
        _memo = (key, ForbiddenSet(values, tuple(("p_prime_root", complex(x)) for x in roots)))
    return _memo[1]


def _check_order(name: str, k) -> None:
    """ValueError naming k unless it is an integral number >= 2, numpy's included, not a bool."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"{name} must be an integer >= 2, got {k!r}")
    if k < 2:
        raise ValueError(f"{name} must be >= 2, got {k}")


def _resonance_coeffs(A, k: int) -> np.ndarray:
    import numpy as np
    A = np.asarray(A)
    # lambda -> k lambda scales coefficient i by k^(degree - i); both
    # products have length 2n, so Q_k has degree 2n-1
    powers = np.array([float(k) ** e for e in range(len(A) - 1, -1, -1)])
    dA = A[:-1] * np.arange(len(A) - 1, 0, -1)
    with np.errstate(all="ignore"):
        Q = np.convolve(dA * powers[1:] * (k - 1), A) - np.convolve(dA, A * powers - A)
    bad = len(Q) - np.isfinite(Q).sum()
    if bad:
        raise RootFindingError(f"Q_{k} of a ring with n = {len(A) - 1} has {bad} of {len(Q)} dense "
                               f"coefficients that are not finite (A's largest is {np.abs(A).max():.3e})")
    return Q


def resonance_poly(params: RingParams, k: int) -> np.ndarray:
    """Auxiliary polynomial Q_k whose roots locate possible k:1 resonances.

    Q_k(lambda) = p'(k*lambda)(k-1)A(lambda) - p'(lambda)(A(k*lambda) - A(lambda))

    Coefficients are returned highest degree first; the degree is 2n-1 and
    the leading coefficient is n(1 - k^(n-1)). Q_k does not depend on the
    couplings.
    """
    require_valid(params)
    _check_order("k", k)
    return _resonance_coeffs(a_poly_coeffs(params.a), k)


def resonance_forbidden_set(params: RingParams, k_max: int) -> ForbiddenSet:
    """Union of forbidden coupling products over Q_k roots for 2 <= k <= k_max.

    Every Q_k companion has size 2n - 1 unless a zero a_j strips a trailing
    coefficient, so one eigvals call usually solves them all.
    """
    _check_order("k_max", k_max)
    require_valid(params)
    import numpy as np
    A, a = a_poly_coeffs(params.a), np.asarray(params.a)
    values, sources = [], []
    for k, lam in enumerate(_roots([_resonance_coeffs(A, k) for k in range(2, k_max + 1)]), 2):
        v = -np.prod(a - lam[:, None], axis=1)
        keep = np.abs(v.imag) < REAL_VALUE_TOL * (1.0 + np.abs(v))
        values += v.real[keep].tolist()
        sources += [("resonance_root", k, complex(x)) for x in lam[keep]]
    return ForbiddenSet(tuple(values), tuple(sources))


@dataclass(frozen=True)
class ResonanceFlag(Record):
    k: int  # 0 encodes the 0:1 flag (zero eigenvalue alongside a pair)
    omega: float


def detect_resonance(spectrum: Spectrum, k_max: int) -> list[ResonanceFlag]:
    """k:1 resonances among axis pairs, plus the 0:1 flag for zero eigenvalues, at AXIS_TOL."""
    _check_order("k_max", k_max)
    freqs = [group[0].imag for group in axis_pairs(spectrum.eigenvalues)]
    flags = []
    if freqs and min(map(abs, spectrum.eigenvalues)) < AXIS_TOL * freqs[0]:
        flags.append(ResonanceFlag(k=0, omega=float(freqs[0])))
    for w in freqs:
        for k in range(2, k_max + 1):
            if any(abs(w2 - k * w) < AXIS_TOL * (k + 1) * w for w2 in freqs):
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
    found: list[str],
    forbidden: ForbiddenSet,
) -> PerturbationResult:
    """The repair both removals share; `found` notes what params has to lose.

    Zero couplings become epsilon/2, then b_1 moves. With nothing found and no zero coupling,
    params comes back unchanged, and its spectrum, which the caller has just solved, is the memo's.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    half = epsilon / 2.0
    notes = [f"zero coupling b[{j}] replaced by {half}" for j, v in enumerate(params.b) if v == 0.0]
    perturbed = params
    if found or notes:
        b_work = [v or half for v in params.b]
        b_new = _shift_coupling_product(params, b_work, forbidden.values, epsilon)
        perturbed = RingParams(params.n, params.a, tuple(b_new))
    c = perturbed.coupling_product()
    return PerturbationResult(
        original=params,
        perturbed=perturbed,
        delta=max(abs(x - y) for x, y in zip(params.b, perturbed.b)),
        achieved_gap=eigenvalues(perturbed).min_gap(),
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
    result = _repair(params, epsilon, found, forbidden)
    if result.perturbed is not params and not result.achieved_gap > gap_tol:
        c = result.perturbed.coupling_product()
        nearest = min(forbidden.values, key=lambda v: abs(v - c), default=None)
        raise PerturbationBudgetError(
            f"achieved gap {result.achieved_gap:.3e} <= gap_tol {gap_tol:.3e}; "
            f"nearest forbidden value {nearest}"
        )
    return result


def remove_resonances(params: RingParams, k_max: int, epsilon: float) -> PerturbationResult:
    """Perturb couplings (only) so no k:1 resonance survives for k <= k_max.

    The forbidden coupling products come from the Q_k roots for every
    2 <= k <= k_max, together with the multiplicity values, and a single
    b_1 adjustment clears all of them simultaneously.
    """
    spectrum = eigenvalues(params)
    found = [f"{f.k}:1 resonance at omega={f.omega:.6g}" for f in detect_resonance(spectrum, k_max)]
    forbidden = resonance_forbidden_set(params, k_max) | multiplicity_forbidden_set(params)
    result = _repair(params, epsilon, found, forbidden)
    if result.perturbed is not params:
        new_spectrum = eigenvalues(result.perturbed)  # the repair's own solve, from the memo
        left = [(f.k, f.omega) for f in detect_resonance(new_spectrum, k_max)]
        if left:
            raise PerturbationBudgetError(f"resonances remain after perturbation: {left}")
    return result
