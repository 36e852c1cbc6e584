"""Tests for ring parameter types, relabeling, rescaling and JSON I/O."""

import json
import math

import numpy as np
import pytest

from ringhopf.model import (
    AdjacencyMatrix,
    AdmissibleOdeFamily,
    RingFormatError,
    RingParams,
    cyclic_relabel,
    load_adjacency,
    load_family,
    load_ring,
    require_valid,
    save,
    time_rescale,
    validate,
)
from ringhopf.spectra import eigenvalues


def test_jacobian_layout():
    r = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    J = r.jacobian()
    expected = np.array(
        [
            [1.0, 1.0, 0.0],
            [0.0, -2.0, 1.0],
            [-10.0, 0.0, -3.0],
        ]
    )
    assert np.array_equal(J, expected)


def test_trace_and_coupling_product():
    r = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    assert r.trace() == -4.0
    # n=3: c = (+1) * b1*b2*b3
    assert r.coupling_product() == -10.0
    r4 = RingParams(4, (0.0,) * 4, (1.0, 2.0, 3.0, 4.0))
    assert r4.coupling_product() == -24.0


def test_length_mismatch_rejected():
    with pytest.raises(RingFormatError):
        RingParams(3, (1.0, 2.0), (1.0, 1.0, 1.0))
    with pytest.raises(RingFormatError):
        RingParams(3, (1.0, 2.0, 3.0), (1.0,))


def test_nonfinite_rejected():
    with pytest.raises(RingFormatError):
        RingParams(3, (1.0, math.nan, 3.0), (1.0, 1.0, 1.0))
    with pytest.raises(RingFormatError):
        RingParams(3, (1.0, 2.0, 3.0), (math.inf, 1.0, 1.0))
    ring = RingParams(3, (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
    with pytest.raises(RingFormatError, match=r"cubic\[1\] is not finite: nan"):
        AdmissibleOdeFamily(ring, cubic=(-1.0, math.nan, -1.0))
    with pytest.raises(RingFormatError, match="lam is not finite: -inf"):
        AdmissibleOdeFamily(ring, lam=-math.inf)


def test_validate_small_ring_reports_not_raises():
    r = RingParams(2, (1.0, 2.0), (1.0, 1.0))
    report = validate(r)
    assert not report.ok and not report.n_ok
    with pytest.raises(RingFormatError):
        require_valid(r)


def test_validate_flags_zero_couplings():
    r = RingParams(3, (1.0, 2.0, 3.0), (0.0, 1.0, 0.0))
    report = validate(r)
    assert report.ok
    assert report.zero_couplings == (0, 2)


def test_cyclic_relabel_identity_and_composition():
    rng = np.random.default_rng(0)
    r = RingParams(5, tuple(rng.normal(size=5)), tuple(rng.normal(size=5)))
    assert cyclic_relabel(r, 0) == r
    lhs = cyclic_relabel(cyclic_relabel(r, 2), 3 % r.n)
    assert lhs == cyclic_relabel(r, (2 + 3) % r.n)


def test_cyclic_relabel_preserves_spectrum():
    rng = np.random.default_rng(1)
    r = RingParams(4, tuple(rng.normal(size=4)), tuple(rng.normal(size=4)))
    base = eigenvalues(r).eigenvalues
    for shift in range(1, 4):
        rotated = eigenvalues(cyclic_relabel(r, shift)).eigenvalues
        assert max(abs(x - y) for x, y in zip(base, rotated)) < 1e-9


def test_cyclic_relabel_shift_bounds():
    r = RingParams(3, (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        cyclic_relabel(r, -1)
    with pytest.raises(ValueError):
        cyclic_relabel(r, 3)


def test_time_rescale_scales_eigenvalues():
    rng = np.random.default_rng(2)
    r = RingParams(3, tuple(rng.normal(size=3)), tuple(rng.normal(size=3)))
    delta = 2.5
    scaled = time_rescale(r, delta)
    base = eigenvalues(r).eigenvalues
    after = eigenvalues(scaled).eigenvalues
    assert max(abs(delta * x - y) for x, y in zip(base, after)) < 1e-10 * delta


def test_time_rescale_requires_positive_delta():
    r = RingParams(3, (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        time_rescale(r, 0.0)
    with pytest.raises(ValueError):
        time_rescale(r, -1.0)


def test_family_defaults_and_jacobian():
    base = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    fam = AdmissibleOdeFamily(base)
    assert fam.cubic == (-1.0, -1.0, -1.0)
    lam = 0.25
    assert np.allclose(fam.jacobian(lam), base.jacobian() + lam * np.eye(3))


def test_family_vector_field_origin_equilibrium():
    base = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    fam = AdmissibleOdeFamily(base, lam=0.1)
    assert np.array_equal(fam.vector_field(np.zeros(3)), np.zeros(3))


def test_family_vector_field_matches_jacobian_at_linear_order():
    base = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    fam = AdmissibleOdeFamily(base, lam=0.1)
    x = 1e-7 * np.array([1.0, -2.0, 0.5])
    linear = fam.jacobian(0.1) @ x
    assert np.abs(fam.vector_field(x) - linear).max() < 1e-18


def test_adjacency_validation():
    with pytest.raises(RingFormatError):
        AdjacencyMatrix(2, ((0, 1), (1,)))
    with pytest.raises(RingFormatError):
        AdjacencyMatrix(2, ((0, -1), (1, 0)))


def test_ring_json_round_trip(tmp_path):
    r = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    path = tmp_path / "ring.json"
    save(r, path)
    assert load_ring(path) == r


def test_family_json_round_trip(tmp_path):
    fam = AdmissibleOdeFamily(
        RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0)),
        cubic=(-1.0, -2.0, -0.5),
        lam=0.01,
    )
    path = tmp_path / "family.json"
    save(fam, path)
    loaded = load_family(path)
    assert loaded == fam


def test_adjacency_json_round_trip(tmp_path):
    adj = AdjacencyMatrix(2, ((0, 1), (1, 0)))
    path = tmp_path / "adj.json"
    save(adj, path)
    assert load_adjacency(path) == adj


def test_load_empty_file_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(RingFormatError, match="empty"):
        load_ring(path)


def test_load_malformed_json_carries_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3,\n "a": [1, 2 3]}')
    with pytest.raises(RingFormatError, match=r"bad\.json:2:"):
        load_ring(path)


def test_load_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"n": 3, "a": [1, 2, 3]}))
    with pytest.raises(RingFormatError, match="missing field 'b'"):
        load_ring(path)


@pytest.mark.parametrize(
    "doc",
    [
        {"n": None, "a": [1, 2, 3], "b": [1, 1, 1]},
        {"n": 3, "a": [1, 2, 3], "b": [1, 1, 1], "cubic": 5},
        {"n": 3, "a": [1, 2, 3], "b": [1, 1, 1], "lambda": None},
        {"n": 3, "a": [1, 2, 3], "b": [1, 1, 1], "cubic": [math.nan, -1, -1], "lambda": math.inf},
    ],
)
def test_load_family_malformed_fields(tmp_path, doc):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(RingFormatError, match=r"family\.json: "):
        load_family(path)


def test_load_mismatched_lengths(tmp_path):
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps({"n": 3, "a": [1, 2, 3], "b": [1, 2]}))
    with pytest.raises(RingFormatError):
        load_ring(path)


CYCLE_ROWS = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
RING_DOC = {"n": 3, "a": [1, -2, -3], "b": [1, 1, -10]}


@pytest.mark.parametrize(
    "load, doc, message",
    [
        (load_adjacency, {"n": 3, "rows": [[0, 1.7, 0], *CYCLE_ROWS[1:]]}, r"entry\[0\]\[1\] is not an integer: 1\.7"),
        (load_adjacency, {"n": 3, "rows": [[0, True, 0], *CYCLE_ROWS[1:]]}, r"entry\[0\]\[1\] is not an integer: True"),
        (load_adjacency, {"n": 3.9, "rows": CYCLE_ROWS}, r"n is not an integer: 3\.9"),
        (load_ring, {**RING_DOC, "n": 3.9}, r"n is not an integer: 3\.9"),
        (load_ring, {**RING_DOC, "n": True}, "n is not an integer: True"),
        (load_ring, {**RING_DOC, "a": [1, True, -3]}, r"a\[1\] is not a number: True"),
        (load_ring, {**RING_DOC, "b": [1, 1, "-10"]}, r"b\[2\] is not a number: '-10'"),
        (load_family, {**RING_DOC, "cubic": [-1, -1, True]}, r"cubic\[2\] is not a number: True"),
        (load_family, {**RING_DOC, "lambda": False}, "lambda is not a number: False"),
    ],
)
def test_loaders_reject_fractional_integers_and_booleans(tmp_path, load, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(RingFormatError, match=rf"doc\.json: {message}$"):
        load(path)


def test_integral_floats_load_as_integers(tmp_path):
    path = tmp_path / "adj.json"
    path.write_text(json.dumps({"n": 3.0, "rows": [[0, 2.0, 0], *CYCLE_ROWS[1:]]}))
    adj = load_adjacency(path)
    assert adj.n == 3 and adj.rows[0] == (0, 2, 0)
    assert all(type(v) is int for row in adj.rows for v in row)


def test_constructors_take_n_as_an_int(tmp_path):
    # numpy and integral float sizes are stored as int, so save and jacobian work
    ring = RingParams(np.int64(3), (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    adj = AdjacencyMatrix(np.int64(2), ((0, 1), (1, 0)))
    assert type(ring.n) is int and type(adj.n) is int
    save(ring, tmp_path / "ring.json")
    save(adj, tmp_path / "adj.json")
    assert load_ring(tmp_path / "ring.json") == ring
    assert load_adjacency(tmp_path / "adj.json") == adj
    assert RingParams(3.0, ring.a, ring.b).jacobian().tolist() == ring.jacobian().tolist()


@pytest.mark.parametrize("n, shown", [(True, "True"), (3.5, "3.5"), ("3", "'3'")])
def test_constructors_reject_an_n_that_is_not_an_integer(n, shown):
    with pytest.raises(RingFormatError, match=rf"^n is not an integer: {shown}$"):
        RingParams(n, (1.0,), (1.0,))
    with pytest.raises(RingFormatError, match=rf"^n is not an integer: {shown}$"):
        AdjacencyMatrix(n, ((0,),))


def test_adjacency_rejects_a_fractional_entry():
    with pytest.raises(RingFormatError, match=r"entry\[1\]\[0\] is not an integer: 0\.5"):
        AdjacencyMatrix(2, ((0, 1), (0.5, 0)))


@pytest.mark.parametrize("n", [0, -1])
def test_adjacency_rejects_fewer_than_one_node(n):
    with pytest.raises(RingFormatError, match=rf"^adjacency matrix needs n >= 1, got n = {n}$"):
        AdjacencyMatrix(n, ())


def test_family_rejects_a_cubic_of_the_wrong_length():
    ring = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    with pytest.raises(RingFormatError, match=r"^cubic has 2 entries, expected 3$"):
        AdmissibleOdeFamily(ring, cubic=(-1.0, -1.0))


def test_family_jacobian_defaults_to_its_own_lambda():
    ring = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -10.0))
    family = AdmissibleOdeFamily(ring, lam=0.25)
    assert np.array_equal(family.jacobian(), ring.jacobian() + 0.25 * np.eye(3))


def test_load_rejects_a_top_level_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(RingFormatError, match=r": top-level value must be an object$"):
        load_ring(path)
