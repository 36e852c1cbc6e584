"""Phase shifts between successive nodes and their quadrant classification.

At a Hopf point with eigenvalue i*omega, the linearised eigenfunction
component of node j leads node j+1 by

    theta_j = 2*pi - arg((i*omega - a_j) / b_j)   (arg taken in [0, 2*pi))

The quadrant of the ratio (i*omega - a_j)/b_j depends only on the signs of
a_j, b_j and omega, which is what the classification tables tabulate.
Ground truth for every table cell is the sign rule; the printed reference
tables contain a duplicated row (the +,+,- pattern in Cases B and C) that
disagrees with the rule, and lookups there carry a discrepancy annotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hopf import hopf_conditions_3
from .model import Record, RingParams, cyclic_relabel, require_valid
from .spectra import AXIS_TOL, ZeroCouplingError, eigenvalues

TWO_PI = 2 * math.pi
ZERO_TOL_FACTOR = 1e-10


@dataclass(frozen=True)
class RatioSector:
    """Open quadrant (1-4) of the coupling ratio, or an axis angle."""

    quadrant: int | None = None
    axis_angle: float | None = None  # pi/2 or 3*pi/2

    def label(self) -> str:
        if self.quadrant is not None:
            return str(self.quadrant)
        return "pi/2" if abs(self.axis_angle - math.pi / 2) < 1e-12 else "3pi/2"


def quadrant_of_ratio(a_j: float, b_j: float, omega_sign: int = 1, zero_tol: float = 0.0) -> RatioSector:
    """Sector of (i*omega - a_j)/b_j from the signs of a_j, b_j, omega.

    Re has the sign of -a_j*b_j and Im the sign of omega*b_j.
    """
    if b_j == 0:
        raise ZeroCouplingError("b_j = 0: the phase ratio divides by b_j")
    if omega_sign not in (1, -1):
        raise ValueError("omega_sign must be +1 or -1")
    upper = (omega_sign > 0) == (b_j > 0)
    if abs(a_j) <= zero_tol:
        return RatioSector(axis_angle=math.pi / 2 if upper else 3 * math.pi / 2)
    right = (a_j < 0) == (b_j > 0)
    return RatioSector(quadrant=(1 if right else 2) if upper else (4 if right else 3))


@dataclass(frozen=True)
class PhaseProfile(Record):
    omega_sign: int
    omega: float
    theta: tuple[float, ...]
    ratio_quadrant: tuple[RatioSector, ...]
    case_label: str | None
    wave_class: str

    def to_dict(self) -> dict:
        return {**super().to_dict(), "ratio_quadrant": [s.label() for s in self.ratio_quadrant]}


def _zero_tol(params: RingParams) -> float:
    """|a_j| at or below this counts as a_j = 0."""
    return ZERO_TOL_FACTOR * max(abs(v) for v in params.a)


def wave_class_of(sectors) -> str:
    quads = [s.quadrant for s in sectors]
    if all(q == 2 for q in quads) or all(q == 3 for q in quads):
        return "rotating"
    return "standing"


def phase_shifts(params: RingParams, omega: float, force: bool = False) -> PhaseProfile:
    """Per-edge phase shifts of the eigenfunction for eigenvalue i*omega.

    `omega` is signed: a negative value selects the conjugate eigenvalue,
    and the resulting shifts satisfy theta_j(-w) = 2*pi - theta_j(w) mod 2*pi.
    Unless `force` is given, |omega| must be within AXIS_TOL, relative, of the axis pair's frequency.
    """
    require_valid(params)
    if not 0 < abs(omega) < math.inf:
        raise ValueError(f"omega must be finite and nonzero, got {omega}")
    zero = [j for j, v in enumerate(params.b) if v == 0.0]
    if zero:
        raise ZeroCouplingError(f"b[{zero[0]}] = 0: phase shifts are undefined")
    found = None if force else eigenvalues(params).omega  # the ring's one axis frequency, if any
    if not force and not (found and abs(abs(omega) - found) <= AXIS_TOL * found):
        mu = min(eigenvalues(params).eigenvalues, key=lambda m: abs(m - 1j * omega))
        why = f"the axis pair is at omega = {found!r}" if found else (
            f"there is no axis pair: the root nearest i*omega is {mu:.6g}, |Re| {abs(mu.real):.3e} "
            f"against AXIS_TOL |mu| {AXIS_TOL * abs(mu):.3e}")
        raise ValueError(f"i*{omega} is not an eigenvalue to within AXIS_TOL = {AXIS_TOL:.0e}, relative "
                         f"({why}); pass force=True for exploratory use")
    omega_sign = 1 if omega > 0 else -1
    zero_tol = _zero_tol(params)
    theta = []
    sectors = []
    for a_j, b_j in zip(params.a, params.b):
        ratio = (1j * omega - a_j) / b_j
        arg = math.atan2(ratio.imag, ratio.real) % TWO_PI
        theta.append((TWO_PI - arg) % TWO_PI)
        sectors.append(quadrant_of_ratio(a_j, b_j, omega_sign, zero_tol=zero_tol))
    case = None
    if params.n == 3:
        try:
            case = classify_case(params).label
        except ValueError:
            case = None
    return PhaseProfile(
        omega_sign=omega_sign,
        omega=float(omega),
        theta=tuple(theta),
        ratio_quadrant=tuple(sectors),
        case_label=case,
        wave_class=wave_class_of(sectors),
    )


@dataclass(frozen=True)
class CaseClassification:
    label: str  # "A", "B" or "C"
    shift: int
    relabeled: RingParams


def classify_case(params: RingParams) -> CaseClassification:
    """Case A (all a_j < 0), B (one a_j > 0) or C (one a_j = 0), n=3 only.

    Cases B and C are rotated so the distinguished node sits at position 1;
    the rotated params then satisfy a_2, a_3 < 0.
    """
    if params.n != 3:
        raise ValueError("case classification applies to n=3 rings only")
    report = hopf_conditions_3(params)
    if not report.is_hopf_point:
        raise report.not_a_hopf_point("case classification requires a Hopf point")
    zero_tol = _zero_tol(params)
    kinds = []
    for v in params.a:
        if abs(v) <= zero_tol:
            kinds.append("zero")
        elif v > 0:
            kinds.append("pos")
        else:
            kinds.append("neg")
    n_zero = kinds.count("zero")
    n_pos = kinds.count("pos")
    if n_zero >= 2:
        raise ValueError("two zero diagonal entries force omega = 0")
    if n_pos == 0 and n_zero == 0:
        return CaseClassification(label="A", shift=0, relabeled=params)
    if n_pos == 1 and n_zero == 0:
        shift = kinds.index("pos")
        label = "B"
    elif n_zero == 1 and n_pos == 0:
        shift = kinds.index("zero")
        label = "C"
    else:
        raise ValueError(f"inconsistent sign configuration for a Hopf point: {kinds}")
    return CaseClassification(label=label, shift=shift, relabeled=cyclic_relabel(params, shift))


# Reference tables as printed (sector labels per row of b signs). The
# (+,+,-) rows of Cases B and C repeat the (+,-,+) row; the sign rule gives
# a different triple there, which table_lookup flags as a discrepancy.
SIGN_PATTERNS = ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))

PRINTED_TABLES = {
    ("A", 1): {
        (-1, -1, -1): ("3", "3", "3"),
        (-1, 1, 1): ("3", "1", "1"),
        (1, -1, 1): ("1", "3", "1"),
        (1, 1, -1): ("1", "1", "3"),
    },
    ("B", 1): {
        (-1, -1, -1): ("4", "3", "3"),
        (-1, 1, 1): ("4", "1", "1"),
        (1, -1, 1): ("2", "3", "1"),
        (1, 1, -1): ("2", "3", "1"),
    },
    ("C", 1): {
        (-1, -1, -1): ("3pi/2", "3", "3"),
        (-1, 1, 1): ("3pi/2", "1", "1"),
        (1, -1, 1): ("pi/2", "3", "1"),
        (1, 1, -1): ("pi/2", "3", "1"),
    },
    ("A", -1): {
        (-1, -1, -1): ("2", "2", "2"),
        (-1, 1, 1): ("2", "4", "4"),
        (1, -1, 1): ("4", "2", "4"),
        (1, 1, -1): ("4", "4", "2"),
    },
    ("B", -1): {
        (-1, -1, -1): ("1", "2", "2"),
        (-1, 1, 1): ("1", "4", "4"),
        (1, -1, 1): ("3", "2", "4"),
        (1, 1, -1): ("3", "2", "4"),
    },
    ("C", -1): {
        (-1, -1, -1): ("pi/2", "2", "2"),
        (-1, 1, 1): ("pi/2", "4", "4"),
        (1, -1, 1): ("3pi/2", "2", "4"),
        (1, 1, -1): ("3pi/2", "2", "4"),
    },
}

CASE_A_SIGNS = {"A": (-1, -1, -1), "B": (1, -1, -1), "C": (0, -1, -1)}


@dataclass(frozen=True)
class TableRow:
    case: str
    omega_sign: int
    b_signs: tuple[int, int, int]
    sectors: tuple[RatioSector, RatioSector, RatioSector]
    printed: tuple[str, str, str]
    discrepancy: bool
    annotation: str | None
    warning: str | None

    def labels(self) -> tuple[str, str, str]:
        return tuple(s.label() for s in self.sectors)


def table_lookup(case: str, b_signs: tuple[int, int, int], omega_sign: int = 1) -> TableRow:
    """Sector triple for a table row, computed from the sign rule.

    Rows whose computed triple differs from the printed table carry a
    discrepancy annotation. Patterns with an even number of negative
    couplings have positive product and cannot occur at a stable Hopf
    point; the lookup still answers, with a warning.
    """
    if case not in ("A", "B", "C"):
        raise ValueError(f"case must be A, B or C, got {case!r}")
    b_signs = tuple(1 if v > 0 else -1 for v in b_signs)
    a_signs = CASE_A_SIGNS[case]
    sectors = tuple(
        quadrant_of_ratio(float(sa), float(sb), omega_sign) for sa, sb in zip(a_signs, b_signs)
    )
    warning = None
    if b_signs.count(-1) % 2 == 0:
        warning = (
            "coupling product is positive for this sign pattern; "
            "it cannot occur at a stable Hopf point"
        )
    printed = PRINTED_TABLES[(case, omega_sign)].get(b_signs)
    labels = tuple(s.label() for s in sectors)
    discrepancy = printed is not None and labels != printed
    annotation = None
    if discrepancy:
        annotation = (
            f"case {case}, omega_sign {omega_sign:+d}, b signs {b_signs}: "
            f"sign rule gives {labels}, printed table shows {printed}"
        )
    return TableRow(
        case=case,
        omega_sign=omega_sign,
        b_signs=b_signs,
        sectors=sectors,
        printed=printed if printed is not None else labels,
        discrepancy=discrepancy,
        annotation=annotation,
        warning=warning,
    )


def generate_tables(omega_signs=(1, -1)) -> list[TableRow]:
    """All classification table rows for the requested omega signs."""
    rows = []
    for case in ("A", "B", "C"):
        for sign in omega_signs:
            for pattern in SIGN_PATTERNS:
                rows.append(table_lookup(case, pattern, sign))
    return rows
