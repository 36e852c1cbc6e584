"""The JSON layout of every result record, pinned.

A `Record` writes its fields in declaration order, tuples as lists, complex
numbers as [re, im] and nested records as objects. `model.Record` is the
only place that knows this rule: every record the CLI prints and every
document `save` writes goes through it, except the family file, whose
layout `load_family` reads. The one override, `PhaseProfile`, writes its
ratio sectors as labels in their field's place. A class that joins
`Record` gets its layout pinned here, and a new field shows up as an edit
of RECORD_KEYS.
"""

import json

import pytest

import oracles
from ringhopf.cli import main
from ringhopf.genericity import (
    ForbiddenSet,
    PerturbationResult,
    ResonanceFlag,
    multiplicity_forbidden_set,
    remove_multiple,
)
from ringhopf.hopf import (
    CrossingCheck,
    HopfReport,
    ImaginaryPairDetection,
    SignConstraintReport,
    crossing_check,
    detect_imaginary_pair,
    hopf_conditions_3,
    sign_constraints,
)
from ringhopf.model import (
    ADJACENCY_CONVENTION,
    AdjacencyMatrix,
    AdmissibleOdeFamily,
    Record,
    RingParams,
    load_adjacency,
    save,
)
from ringhopf.phases import PhaseProfile, phase_shifts
from ringhopf.simulate import CycleMeasurement, PhaseComparison, compare_predicted
from ringhopf.spectra import Spectrum, eigenvalues

DOUBLE_AT_TWO = RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0))  # p = -(z - 2)^2 (z + 1)

RECORD_KEYS = {
    RingParams: ("n", "a", "b"),
    Spectrum: (
        "eigenvalues", "residuals", "pair_tolerance", "tau", "omega", "iterations",
        "backward_error",
    ),
    SignConstraintReport: (
        "pairwise_sums", "all_sums_negative", "coupling_product", "coupling_product_negative",
        "b_sign_class",
    ),
    CrossingCheck: ("lambdas", "sigma", "rho", "dsigma_dlambda", "drho_dlambda"),
    ForbiddenSet: ("values", "sources"),
    ResonanceFlag: ("k", "omega"),
    PerturbationResult: (
        "original", "perturbed", "delta", "achieved_gap", "removed", "forbidden", "margin",
    ),
    PhaseComparison: ("distances", "max_distance", "mean_distance"),
    HopfReport: (
        "omega_sq", "product_lhs", "product_rhs", "trace", "omega", "positivity",
        "product_identity", "first_bifurcation", "marginal_excluded", "pairwise_sums_negative",
        "coupling_product_negative", "is_hopf_point",
    ),
    ImaginaryPairDetection: ("omega", "warnings"),
    PhaseProfile: ("omega_sign", "omega", "theta", "ratio_quadrant", "case_label", "wave_class"),
    CycleMeasurement: ("period", "fundamental_coeffs", "amplitudes", "phase_diffs", "lam", "step"),
    AdjacencyMatrix: ("n", "rows", "convention"),
}


def _measured(theta) -> CycleMeasurement:
    return CycleMeasurement(
        period=6.3,
        fundamental_coeffs=(1 + 1j, 1j, -1 + 0j),
        amplitudes=(2**0.5, 1.0, 1.0),
        phase_diffs=tuple(t + 0.01 for t in theta),
        lam=0.1,
        step=1e-3,
    )


def _comparison() -> PhaseComparison:
    profile = phase_shifts(oracles.REFERENCE_RING, 1.0)
    return compare_predicted(_measured(profile.theta), profile)


@pytest.fixture(scope="module")
def records() -> dict:
    ring = oracles.REFERENCE_RING
    return {
        RingParams: ring,
        Spectrum: eigenvalues(ring),
        SignConstraintReport: sign_constraints(ring),
        CrossingCheck: crossing_check(AdmissibleOdeFamily(ring), 0.0, 1e-4),
        ForbiddenSet: multiplicity_forbidden_set(DOUBLE_AT_TWO),
        ResonanceFlag: ResonanceFlag(k=2, omega=1.5),
        PerturbationResult: remove_multiple(DOUBLE_AT_TWO, 1e-3),
        PhaseComparison: _comparison(),
        HopfReport: hopf_conditions_3(ring),
        ImaginaryPairDetection: detect_imaginary_pair(eigenvalues(ring)),
        PhaseProfile: phase_shifts(ring, 1.0),
        CycleMeasurement: _measured(oracles.REFERENCE_THETA),
        AdjacencyMatrix: AdjacencyMatrix(5, oracles.ADJ_5),
    }


def test_every_record_class_is_pinned():
    assert set(Record.__subclasses__()) == set(RECORD_KEYS)


@pytest.mark.parametrize("cls", list(RECORD_KEYS), ids=lambda cls: cls.__name__)
def test_keys_in_declaration_order_and_plain_json(records, cls):
    doc = records[cls].to_dict()
    assert tuple(doc) == RECORD_KEYS[cls]
    # tuples came out as lists, so the document survives a JSON round trip unchanged
    assert json.loads(json.dumps(doc)) == doc


def test_complex_values_are_two_lists(records):
    spectrum = records[Spectrum]
    assert spectrum.to_dict()["eigenvalues"] == [[m.real, m.imag] for m in spectrum.eigenvalues]
    forbidden = records[ForbiddenSet]
    sources = forbidden.to_dict()["sources"]
    assert sources == [[name, [lam.real, lam.imag]] for name, lam in forbidden.sources]
    assert all(isinstance(lam, complex) for _, lam in forbidden.sources)


def test_nested_records_are_objects(records):
    doc = records[PerturbationResult].to_dict()
    assert doc["original"] == {"n": 3, "a": [0.0, 0.0, 3.0], "b": [1.0, 2.0, -2.0]}
    assert tuple(doc["perturbed"]) == RECORD_KEYS[RingParams]
    assert doc["forbidden"] == records[PerturbationResult].forbidden.to_dict()
    assert tuple(doc["forbidden"]) == RECORD_KEYS[ForbiddenSet]


def test_small_documents_byte_for_byte():
    assert json.dumps(ResonanceFlag(k=2, omega=1.5).to_dict(), indent=2) == (
        '{\n  "k": 2,\n  "omega": 1.5\n}'
    )
    assert json.dumps(RingParams(3, (1, -2, -3), (1, 1, -10)).to_dict()) == (
        '{"n": 3, "a": [1.0, -2.0, -3.0], "b": [1.0, 1.0, -10.0]}'
    )


def test_perturb_prints_the_record_layout(capsys, tmp_path):
    path = tmp_path / "double.json"
    save(DOUBLE_AT_TWO, path)
    assert main(["perturb", str(path)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert tuple(doc) == RECORD_KEYS[PerturbationResult]
    assert tuple(doc["original"]) == tuple(doc["perturbed"]) == RECORD_KEYS[RingParams]
    assert tuple(doc["forbidden"]) == RECORD_KEYS[ForbiddenSet]
    assert doc["original"] == {"n": 3, "a": [0.0, 0.0, 3.0], "b": [1.0, 2.0, -2.0]}
    for name, lam in doc["forbidden"]["sources"]:
        assert name == "p_prime_root"
        assert isinstance(lam, list) and len(lam) == 2
    assert out == json.dumps(remove_multiple(DOUBLE_AT_TWO, 1e-3).to_dict(), indent=2) + "\n"


def test_sector_labels_and_cycle_coefficients(records):
    assert records[PhaseProfile].to_dict()["ratio_quadrant"] == ["2", "1", "3"]
    coeffs = records[CycleMeasurement].to_dict()["fundamental_coeffs"]
    assert coeffs == [[1.0, 1.0], [0.0, 1.0], [-1.0, 0.0]]


@pytest.mark.parametrize("command", ["analyze", "phases"])
def test_analyze_and_phases_print_the_record_layout(capsys, tmp_path, command):
    ring = oracles.REFERENCE_RING
    path = tmp_path / "ring.json"
    save(ring, path)
    assert main([command, str(path)]) == 0
    out = capsys.readouterr().out
    spectrum = eigenvalues(ring)
    profile = phase_shifts(ring, spectrum.omega).to_dict()
    if command == "analyze":
        doc = {
            "ring": ring.to_dict(),
            "spectrum": spectrum.to_dict(),
            "hopf": hopf_conditions_3(ring).to_dict(),
            "imaginary_pair": detect_imaginary_pair(spectrum).to_dict(),
            "phases": profile,
        }
        assert tuple(json.loads(out)["hopf"]) == RECORD_KEYS[HopfReport]
    else:
        doc = profile
    assert out == json.dumps(doc, indent=2) + "\n"


def test_adjacency_save_load_round_trip(tmp_path):
    adj = AdjacencyMatrix(6, oracles.ADJ_6)
    path = tmp_path / "adjacency.json"
    save(adj, path)
    text = path.read_text()
    assert tuple(json.loads(text)) == RECORD_KEYS[AdjacencyMatrix]
    assert json.loads(text)["convention"] == ADJACENCY_CONVENTION
    loaded = load_adjacency(path)
    assert loaded == adj
    save(loaded, path)
    assert path.read_text() == text
