"""Exact Hopf conditions for 3-node rings and eigenvalue-crossing checks.

For n = 3 the Hopf point is characterised algebraically:

    omega^2 = a1*a2 + a1*a3 + a2*a3 > 0
    (a1+a2)(a1+a3)(a2+a3) = b1*b2*b3

together with tau = a1+a2+a3 < 0 for the branch to be the first local
bifurcation. The product identity is exact mathematics; numerically it is
accepted within PRODUCT_REL_TOL times the componentwise size
(|a1|+|a2|)(|a1|+|a3|)(|a2|+|a3|) of its left side, which bounds the
rounding of a pairwise sum that cancels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .model import AdmissibleOdeFamily, Record, RingParams
from .spectra import AXIS_TOL, Spectrum, axis_pairs, eigenvalues

PRODUCT_REL_TOL = 1e-9


class NotAHopfPointError(ValueError):
    """A precondition required an n=3 Hopf point and the params are not one."""


@dataclass(frozen=True)
class HopfReport(Record):
    omega_sq: float
    product_lhs: float
    product_rhs: float
    product_size: float  # (|a1|+|a2|)(|a1|+|a3|)(|a2|+|a3|), the scale of the identity's tolerance
    trace: float
    omega: float | None
    positivity: bool
    product_identity: bool
    first_bifurcation: bool
    marginal_excluded: bool
    pairwise_sums_negative: bool
    coupling_product_negative: bool
    is_hopf_point: bool  # positivity and product_identity

    def not_a_hopf_point(self, need: str) -> NotAHopfPointError:
        """The error for `need`: omega^2, the identity gap at PRODUCT_REL_TOL, the trace."""
        tol = PRODUCT_REL_TOL * self.product_size
        return NotAHopfPointError(
            f"{need}: omega^2 = {self.omega_sq:.6g} (needs > 0), |lhs - rhs| = "
            f"{abs(self.product_lhs - self.product_rhs):.3e} (tolerance {tol:.3e}), "
            f"trace {self.trace:.6g}"
        )


def hopf_conditions_3(params: RingParams, rel_tol: float = PRODUCT_REL_TOL) -> HopfReport:
    """Evaluate the closed-form n=3 Hopf conditions."""
    if params.n != 3:
        raise ValueError(f"closed-form Hopf conditions require n=3, got n={params.n}")
    a1, a2, a3 = params.a
    b1, b2, b3 = params.b
    omega_sq = a1 * a2 + a1 * a3 + a2 * a3
    lhs = (a1 + a2) * (a1 + a3) * (a2 + a3)
    rhs = b1 * b2 * b3
    trace = a1 + a2 + a3
    size = (abs(a1) + abs(a2)) * (abs(a1) + abs(a3)) * (abs(a2) + abs(a3))
    identity = abs(lhs - rhs) <= rel_tol * size
    positivity, negative = omega_sq > 0, rhs < 0
    omega = math.sqrt(omega_sq) if positivity else None
    if not sys.float_info.min <= size < math.inf:
        # a size of 0, subnormal or past the float range: judge a and b scaled by the power of two that
        # takes max |a_j| into [1/2, 1), which is exact and, as each side has degree 3, keeps the identity
        e = math.frexp(max(map(abs, params.a)))[1]
        s1, s2, s3, t1, t2, t3 = (math.ldexp(v, -e) for v in params.a + params.b)
        w, t = s1 * s2 + s1 * s3 + s2 * s3, t1 * t2 * t3
        positivity, negative = w > 0, t < 0
        scaled = (abs(s1) + abs(s2)) * (abs(s1) + abs(s3)) * (abs(s2) + abs(s3))
        identity = abs((s1 + s2) * (s1 + s3) * (s2 + s3) - t) <= rel_tol * scaled
        omega = math.ldexp(math.sqrt(w), e) if positivity else None
    sums = (a1 + a2, a1 + a3, a2 + a3)
    return HopfReport(
        omega_sq=omega_sq,
        product_lhs=lhs,
        product_rhs=rhs,
        product_size=size,
        trace=trace,
        omega=omega,
        positivity=positivity,
        product_identity=identity,
        first_bifurcation=trace < 0,
        marginal_excluded=trace != 0,
        pairwise_sums_negative=all(s < 0 for s in sums),
        coupling_product_negative=negative,
        is_hopf_point=positivity and identity,
    )


def solve_coupling_for_hopf(a: tuple[float, float, float], b1: float, b2: float) -> float:
    """The b3 making the n=3 product identity exact, given a and b1, b2."""
    if b1 == 0 or b2 == 0:
        raise ValueError("b1 and b2 must be nonzero to solve for b3")
    a1, a2, a3 = a
    lhs, product = (a1 + a2) * (a1 + a3) * (a2 + a3), b1 * b2
    formula = "b3 = (a1+a2)(a1+a3)(a2+a3) / (b1*b2)"
    if not 0 < abs(product) < math.inf:
        reason = "underflows to zero" if product == 0 else "is not finite"
        raise ValueError(f"b1*b2 = {b1!r} * {b2!r} = {product!r} {reason}, and {formula} divides by it")
    b3 = lhs / product
    if not math.isfinite(b3):
        raise ValueError(f"{formula} = {lhs!r} / {product!r} = {b3!r} is not finite")
    return b3


@dataclass(frozen=True)
class SignConstraintReport(Record):
    pairwise_sums: tuple[float, float, float]
    all_sums_negative: bool
    coupling_product: float
    coupling_product_negative: bool
    b_sign_class: str  # "three_negative" or "one_negative"


def sign_constraints(params: RingParams) -> SignConstraintReport:
    """Sign consequences of Hopf bifurcation from a stable equilibrium (n=3)."""
    report = hopf_conditions_3(params)
    if not (report.is_hopf_point and report.trace < 0):
        raise report.not_a_hopf_point("sign constraints require an n=3 Hopf point with negative trace")
    a1, a2, a3 = params.a
    sums = (a1 + a2, a1 + a3, a2 + a3)
    negatives = sum(1 for v in params.b if v < 0)
    klass = "three_negative" if negatives == 3 else "one_negative"
    return SignConstraintReport(
        pairwise_sums=sums,
        all_sums_negative=all(s < 0 for s in sums),
        coupling_product=report.product_rhs,
        coupling_product_negative=report.coupling_product_negative,
        b_sign_class=klass,
    )


@dataclass(frozen=True)
class ImaginaryPairDetection(Record):
    omega: float | None
    warnings: tuple[str, ...]


def detect_imaginary_pair(spectrum: Spectrum) -> ImaginaryPairDetection:
    """Find a single simple conjugate pair on the imaginary axis, if any.

    A zero eigenvalue alongside a pair is reported as a 0:1 warning rather
    than blocking detection; two distinct pairs on the axis block it.
    """
    distinct = axis_pairs(spectrum.eigenvalues)
    if not distinct:
        return ImaginaryPairDetection(omega=None, warnings=())
    warnings = []
    if min(map(abs, spectrum.eigenvalues)) < AXIS_TOL * distinct[0][0].imag:
        warnings.append("0:1 resonance: zero eigenvalue on the axis alongside a pair")
    omega = None
    if len(distinct) > 1:
        warnings.append(
            "multiple imaginary pairs on the axis: "
            + ", ".join(f"{g[0].imag:.6g}" for g in distinct)
        )
    elif len(distinct[0]) > 1:
        warnings.append(f"imaginary pair at {distinct[0][0].imag:.6g} is not simple")
    else:
        omega = float(distinct[0][0].imag)
    return ImaginaryPairDetection(omega=omega, warnings=tuple(warnings))


@dataclass(frozen=True)
class CrossingCheck(Record):
    lambdas: tuple[float, float, float]
    sigma: tuple[float, float, float]
    rho: tuple[float, float, float]
    dsigma_dlambda: float
    drho_dlambda: float


def crossing_check(
    family: AdmissibleOdeFamily | Callable[[float], np.ndarray],
    lambda0: float,
    h: float,
) -> CrossingCheck:
    """Central-difference derivative of the tracked imaginary pair across lambda0.

    `family` may be an AdmissibleOdeFamily (J + lambda*I action) or any
    callable lambda -> Jacobian matrix for other parameter actions.
    """
    import numpy as np
    if not (math.isfinite(lambda0) and 0 < h < math.inf):
        raise ValueError(f"lambda0 and h must be finite and h positive, got lambda0={lambda0}, h={h}")
    jac = family.jacobian if isinstance(family, AdmissibleOdeFamily) else family
    eigs0 = np.linalg.eigvals(jac(lambda0))
    pairs = axis_pairs(eigs0)
    if not pairs:
        nearest = complex(min(eigs0, key=lambda m: abs(m.real)))
        raise NotAHopfPointError(
            f"no imaginary pair detected at lambda0={lambda0}: the eigenvalue nearest the axis "
            f"is {nearest:.6g}, |Re| {abs(nearest.real):.3e} against AXIS_TOL |mu| "
            f"{AXIS_TOL * abs(nearest):.3e}"
        )
    mu0 = min((m for group in pairs for m in group), key=lambda m: abs(m.real))

    def track(lam: float) -> complex:
        eigs = np.linalg.eigvals(jac(lam))
        order = np.argsort(np.abs(eigs - mu0))
        nearest = eigs[order[0]]
        if len(eigs) > 1:
            second = eigs[order[1]]
            if abs(second - nearest) <= 10 * h:
                raise RuntimeError(
                    f"eigenvalue matching ambiguous at lambda={lam}: "
                    f"{nearest} and {second} collide within 10*h"
                )
        return complex(nearest)

    mu_minus = track(lambda0 - h)
    mu_plus = track(lambda0 + h)
    return CrossingCheck(
        lambdas=(lambda0 - h, lambda0, lambda0 + h),
        sigma=(mu_minus.real, mu0.real, mu_plus.real),
        rho=(mu_minus.imag, mu0.imag, mu_plus.imag),
        dsigma_dlambda=(mu_plus.real - mu_minus.real) / (2 * h),
        drho_dlambda=(mu_plus.imag - mu_minus.imag) / (2 * h),
    )


def spectral_hopf_check(params: RingParams) -> ImaginaryPairDetection:
    """Direct spectral route: root-find, then look for an axis pair."""
    return detect_imaginary_pair(eigenvalues(params))
