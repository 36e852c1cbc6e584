"""Core data types for unidirectional ring networks.

A ring of n nodes (n >= 3) couples node j to node j+1 (indices mod n).
The linearisation at a point is determined by the diagonal entries a_j
(internal dynamics) and the coupling entries b_j, giving the Jacobian

    J = [[a_1, b_1, 0, ..., 0],
         [0,   a_2, b_2, ..., 0],
         ...
         [b_n, 0, ..., 0, a_n]]
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

MIN_NODES = 3

ADJACENCY_CONVENTION = "entry[i][j] counts arrows from node j+1 to node i+1"


class RingFormatError(ValueError):
    """A ring document could not be parsed or has inconsistent dimensions."""


class Record:
    """A result dataclass whose JSON is its fields, in declaration order."""

    def to_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


def _jsonable(value):
    """Tuples as lists, complex numbers as [re, im], records as objects."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _require_finite(**entries) -> None:
    """RingFormatError naming the first entry of any sequence that is not finite."""
    for name, values in entries.items():
        for j, v in enumerate(values):
            if not math.isfinite(v):
                raise RingFormatError(f"{name}[{j}] is not finite: {v}")


def _integer(name: str, v) -> int:
    """v as an int; RingFormatError naming it unless v is an integral number, not a bool."""
    if isinstance(v, bool) or not (
        # int first, which isinstance settles at once: the ABC check is slow, and every ring checks n
        isinstance(v, (int, numbers.Integral)) or isinstance(v, float) and v.is_integer()
    ):
        raise RingFormatError(f"{name} is not an integer: {v!r}")
    return int(v)


def _number(name: str, v) -> float:
    """v unchanged; RingFormatError naming it unless v is an int or a float, not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise RingFormatError(f"{name} is not a number: {v!r}")
    return v


@dataclass(frozen=True)
class RingParams(Record):
    """Linearisation data of an n-node unidirectional ring."""

    n: int
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "a", tuple(map(float, self.a)))
        object.__setattr__(self, "b", tuple(map(float, self.b)))
        if len(self.a) != self.n or len(self.b) != self.n:
            raise RingFormatError(
                f"expected {self.n} diagonal and coupling entries, "
                f"got len(a)={len(self.a)}, len(b)={len(self.b)}"
            )
        if not all(map(math.isfinite, self.a + self.b)):
            _require_finite(a=self.a, b=self.b)

    def jacobian(self) -> np.ndarray:
        import numpy as np
        J = np.diag(np.asarray(self.a, dtype=float))
        for j in range(self.n):
            J[j, (j + 1) % self.n] = self.b[j]
        return J

    def trace(self) -> float:
        return float(sum(self.a))

    def coupling_product(self) -> float:
        """Signed product c = (-1)^(n+1) b_1 ... b_n (the constant shift in p)."""
        return float((-1) ** (self.n + 1) * math.prod(self.b))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    n_ok: bool
    zero_couplings: tuple[int, ...]
    messages: tuple[str, ...]


def validate(params: RingParams) -> ValidationReport:
    """Report-only structural checks: minimum size and zero couplings.

    Finiteness and length consistency are enforced at construction.
    """
    messages = []
    n_ok = params.n >= MIN_NODES
    if not n_ok:
        messages.append(f"n={params.n} is below the minimum of {MIN_NODES}")
    zeros = tuple(j for j, v in enumerate(params.b) if v == 0.0)
    for j in zeros:
        messages.append(f"b[{j}] is zero: no imaginary eigenvalue is possible")
    return ValidationReport(
        ok=n_ok,
        n_ok=n_ok,
        zero_couplings=zeros,
        messages=tuple(messages),
    )


def require_valid(params: RingParams) -> None:
    """Raise if params fails the hard validity checks (n >= 3); the report only words the error."""
    if params.n < MIN_NODES:
        raise RingFormatError("; ".join(validate(params).messages))


def cyclic_relabel(params: RingParams, shift: int) -> RingParams:
    """Rotate node labels by `shift`, preserving cyclic order.

    This is the ring's graph automorphism; the eigenvalue multiset of J is
    unchanged (permutation similarity).
    """
    if not 0 <= shift < params.n:
        raise ValueError(f"shift must be in [0, {params.n}), got {shift}")
    a = params.a[shift:] + params.a[:shift]
    b = params.b[shift:] + params.b[:shift]
    return RingParams(params.n, a, b)


def time_rescale(params: RingParams, delta: float) -> RingParams:
    """Scale time by delta > 0; every entry (and eigenvalue) scales by delta."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    a = tuple(delta * v for v in params.a)
    b = tuple(delta * v for v in params.b)
    return RingParams(params.n, a, b)


@dataclass(frozen=True)
class AdmissibleOdeFamily:
    """One-parameter family of admissible ring ODEs.

    Node equations:  dx_j/dt = (a_j + lam) x_j + b_j x_{j+1} + cubic_j x_j^3.
    The origin is an equilibrium for every lam, and the Jacobian there is
    exactly J + lam*I.
    """

    base: RingParams
    cubic: tuple[float, ...] = None
    lam: float = 0.0

    def __post_init__(self):
        if self.cubic is None:
            object.__setattr__(self, "cubic", (-1.0,) * self.base.n)
        else:
            object.__setattr__(self, "cubic", tuple(float(v) for v in self.cubic))
        if len(self.cubic) != self.base.n:
            raise RingFormatError(
                f"cubic has {len(self.cubic)} entries, expected {self.base.n}"
            )
        _require_finite(cubic=self.cubic)
        if not math.isfinite(self.lam):
            raise RingFormatError(f"lam is not finite: {self.lam}")

    def jacobian(self, lam: float | None = None) -> np.ndarray:
        import numpy as np
        if lam is None:
            lam = self.lam
        return self.base.jacobian() + lam * np.eye(self.base.n)

    def vector_field(self, x: np.ndarray, lam: float | None = None) -> np.ndarray:
        """((a_j + lam) x_j + b_j x_{j+1}) + g_j ((x_j x_j) x_j): the RK4 kernel's stage value for value,
        with +-1 coefficients folded in there."""
        import numpy as np
        if lam is None:
            lam = self.lam
        x = np.asarray(x, dtype=float)
        a, b, g = np.add(self.base.a, lam), np.asarray(self.base.b), np.asarray(self.cubic)
        return (a * x + b * np.roll(x, -1)) + g * ((x * x) * x)

    def to_dict(self) -> dict:
        d = self.base.to_dict()
        d["cubic"] = list(self.cubic)
        d["lambda"] = self.lam
        return d


@dataclass(frozen=True)
class AdjacencyMatrix(Record):
    """Dense nonnegative-integer adjacency matrix.

    Convention: entries[i][j] is the number of arrows from node j to node i.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    convention: str = field(default=ADJACENCY_CONVENTION, init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        if self.n < 1:
            raise RingFormatError(f"adjacency matrix needs n >= 1, got n = {self.n}")
        rows = tuple(
            tuple(_integer(f"entry[{i}][{j}]", v) for j, v in enumerate(row))
            for i, row in enumerate(self.rows)
        )
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise RingFormatError(f"adjacency matrix is not {self.n}x{self.n}")
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v < 0:
                    raise RingFormatError(f"entry[{i}][{j}] is negative: {v}")

    def matrix(self) -> np.ndarray:
        import numpy as np
        return np.asarray(self.rows, dtype=float)


def _load_document(path, build):
    """build(doc) for the JSON object at path; a malformed field raises RingFormatError."""
    path = Path(path)
    text = path.read_text()
    if not text.strip():
        raise RingFormatError(f"{path}: empty document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RingFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise RingFormatError(f"{path}: top-level value must be an object")
    try:
        return build(doc)
    except (TypeError, ValueError) as exc:
        raise RingFormatError(f"{path}: {exc}") from exc


def _get(doc: dict, key: str) -> object:
    if key not in doc:
        raise RingFormatError(f"missing field '{key}'")
    return doc[key]


def _numbers(key: str, values) -> tuple:
    """The list `values` of field `key` as a tuple of numbers, each checked by `_number`."""
    if not isinstance(values, list):
        raise RingFormatError(f"{key} is not a list: {values!r}")
    return tuple(_number(f"{key}[{j}]", v) for j, v in enumerate(values))


def _ring_from(doc: dict) -> RingParams:
    return RingParams(
        n=_get(doc, "n"),
        a=_numbers("a", _get(doc, "a")),
        b=_numbers("b", _get(doc, "b")),
    )


def _family_from(doc: dict) -> AdmissibleOdeFamily:
    cubic = _numbers("cubic", doc["cubic"]) if "cubic" in doc else None
    lam = float(_number("lambda", doc.get("lambda", 0.0)))
    return AdmissibleOdeFamily(base=_ring_from(doc), cubic=cubic, lam=lam)


def _adjacency_from(doc: dict) -> AdjacencyMatrix:
    return AdjacencyMatrix(
        n=_get(doc, "n"),
        rows=tuple(tuple(r) for r in _get(doc, "rows")),
    )


def load_ring(path) -> RingParams:
    return _load_document(path, _ring_from)


def load_family(path) -> AdmissibleOdeFamily:
    return _load_document(path, _family_from)


def load_adjacency(path) -> AdjacencyMatrix:
    return _load_document(path, _adjacency_from)


def save(obj, path) -> None:
    """Write a RingParams, AdmissibleOdeFamily or AdjacencyMatrix as JSON.

    Floats are emitted with repr, so save/load round-trips are bit-exact.
    """
    Path(path).write_text(json.dumps(obj.to_dict(), indent=2) + "\n")
