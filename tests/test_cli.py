"""Tests for the command-line interface: exit codes and output shapes."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
import ringhopf
from ringhopf import simulate, spectra
from ringhopf.cli import EXIT_ERROR, EXIT_FOUND, EXIT_NOT_FOUND, main
from ringhopf.model import AdjacencyMatrix, AdmissibleOdeFamily, RingParams, save


@pytest.fixture
def reference_ring_file(tmp_path):
    path = tmp_path / "reference.json"
    save(oracles.REFERENCE_RING, path)
    return str(path)


@pytest.fixture
def stable_ring_file(tmp_path):
    path = tmp_path / "stable.json"
    save(RingParams(3, (-1.0, -2.0, -3.0), (0.5, 0.5, 0.5)), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_hopf_ring_found(capsys, reference_ring_file):
    code, out, _ = run(capsys, ["analyze", reference_ring_file])
    assert code == EXIT_FOUND
    doc = json.loads(out)
    assert doc["hopf"]["is_hopf_point"]
    assert doc["imaginary_pair"]["omega"] == pytest.approx(1.0, abs=1e-9)
    assert doc["phases"]["case_label"] == "B"


def test_analyze_stable_ring_not_found(capsys, stable_ring_file):
    code, out, _ = run(capsys, ["analyze", stable_ring_file])
    assert code == EXIT_NOT_FOUND
    doc = json.loads(out)
    assert doc["imaginary_pair"]["omega"] is None
    assert "phases" not in doc


def test_analyze_exact_b3(capsys, tmp_path):
    path = tmp_path / "near.json"
    save(RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -9.7)), path)
    code, out, _ = run(capsys, ["analyze", str(path), "--exact-b3"])
    assert code == EXIT_FOUND
    doc = json.loads(out)
    assert doc["ring"]["b"][2] == pytest.approx(-10.0)


def test_analyze_missing_file_errors(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/ring.json"])
    assert code == EXIT_ERROR
    assert "error" in err


def test_analyze_malformed_json_errors(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == EXIT_ERROR
    assert "error" in err


@pytest.mark.parametrize("doc", [{"n": None}, {"cubic": 5}])
def test_simulate_malformed_family_errors(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "a": [1, -2, -3], "b": [1, 1, -10], **doc}))
    code, _, err = run(capsys, ["simulate", str(path), "--lambda", "0.1"])
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {path}: ")


def test_tables_text(capsys):
    code, out, _ = run(capsys, ["tables"])
    assert code == EXIT_FOUND
    assert "Case A, omega > 0" in out
    assert "Case C, omega < 0" in out


def test_tables_csv_shape(capsys):
    code, out, _ = run(capsys, ["tables", "--format", "csv"])
    assert code == EXIT_FOUND
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:5] == ["case", "omega_sign", "b1", "b2", "b3"]
    assert len(rows) == 25  # header + 3 cases * 2 signs * 4 patterns


def test_tables_discrepancy_column(capsys):
    code, out, _ = run(
        capsys, ["tables", "--format", "csv", "--discrepancies", "--omega", "pos"]
    )
    assert code == EXIT_FOUND
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "discrepancy"
    flagged = [r for r in rows[1:] if r[-1] == "yes"]
    assert len(flagged) == 2  # the (+,+,-) rows of Cases B and C


def test_phases_with_spectral_omega(capsys, reference_ring_file):
    code, out, _ = run(capsys, ["phases", reference_ring_file])
    assert code == EXIT_FOUND
    doc = json.loads(out)
    assert doc["theta"][0] == pytest.approx(5 * 3.141592653589793 / 4, abs=1e-9)


def test_phases_not_found_without_pair(capsys, stable_ring_file):
    code, _, _ = run(capsys, ["phases", stable_ring_file])
    assert code == EXIT_NOT_FOUND


def test_phases_force_override(capsys, reference_ring_file):
    code, _, err = run(capsys, ["phases", reference_ring_file, "--omega", "2.0"])
    assert code == EXIT_ERROR
    code, out, _ = run(
        capsys, ["phases", reference_ring_file, "--omega", "2.0", "--force"]
    )
    assert code == EXIT_FOUND
    assert len(json.loads(out)["theta"]) == 3


def test_phases_at_an_omega_off_the_axis_pair_is_one_error_line(capsys, tmp_path):
    # every a_j lowered by 5e-8 moves the reference pair out of the axis band: analyze finds no
    # pair, and phases at the old frequency agrees
    path = tmp_path / "lowered.json"
    save(RingParams(3, tuple(v - 5e-8 for v in oracles.REFERENCE_RING.a), oracles.REFERENCE_RING.b), path)
    assert run(capsys, ["analyze", str(path)])[0] == EXIT_NOT_FOUND
    code, out, err = run(capsys, ["phases", str(path), "--omega", "1"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: i*1.0 is not an eigenvalue") and err.count("\n") == 1


def test_phases_force_at_an_omega_whose_angle_underflows(capsys, reference_ring_file):
    code, out, _ = run(capsys, ["phases", reference_ring_file, "--omega", "5e-324", "--force"])
    assert code == EXIT_FOUND
    assert json.loads(out)["theta"] == [math.pi, 0.0, math.pi]


def test_perturb_double_ring(capsys, tmp_path):
    path = tmp_path / "double.json"
    save(RingParams(3, (0.0, 0.0, 3.0), (1.0, 2.0, -2.0)), path)
    code, out, _ = run(capsys, ["perturb", str(path), "--epsilon", "1e-3"])
    assert code == EXIT_FOUND
    doc = json.loads(out)
    assert 0.0 < doc["delta"] <= 1e-3
    assert doc["original"]["a"] == doc["perturbed"]["a"]
    assert doc["forbidden"]["values"]


def test_perturb_with_kmax(capsys, reference_ring_file):
    code, out, _ = run(capsys, ["perturb", reference_ring_file, "--kmax", "4"])
    assert code == EXIT_FOUND
    doc = json.loads(out)
    assert doc["delta"] == 0.0


def test_perturb_refuses_gap_tol_beside_kmax(capsys, tmp_path):
    # --gap-tol bounds the multiplicity repair only, which --kmax replaces: together one would be ignored
    path = tmp_path / "double4.json"
    save(RingParams(4, (0.0, 0.0, 1.0, 1.0), (0.5,) * 4), path)  # double root at 1/2
    code, _, err = run(capsys, ["perturb", str(path), "--gap-tol", "1e9"])
    assert code == EXIT_ERROR and "<= gap_tol 1.000e+09" in err
    code, out, err = run(capsys, ["perturb", str(path), "--kmax", "3", "--gap-tol", "1e9"])
    assert (code, out) == (EXIT_ERROR, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: --gap-tol") and "--kmax" in err


def test_spectrum_ring(capsys, reference_ring_file):
    code, out, _ = run(capsys, ["spectrum", reference_ring_file])
    assert code == EXIT_FOUND
    doc = json.loads(out)
    assert len(doc["eigenvalues"]) == 3
    assert doc["omega"] == pytest.approx(1.0, abs=1e-9)


def test_spectrum_adjacency_with_resonances(capsys, tmp_path):
    path = tmp_path / "adj6.json"
    save(AdjacencyMatrix(6, oracles.ADJ_6), path)
    code, out, _ = run(
        capsys, ["spectrum", str(path), "--adjacency", "--kmax", "5"]
    )
    assert code == EXIT_FOUND
    doc = json.loads(out)
    assert len(doc["eigenvalues"]) == 6
    assert any(f["k"] == 2 for f in doc["resonances"])


def test_spectrum_rejects_a_fractional_adjacency_entry(capsys, tmp_path):
    # truncated to 1, the entry 1.7 made this 3-cycle print the cube roots of 1
    path = tmp_path / "adj.json"
    path.write_text(json.dumps({"n": 3, "rows": [[0, 1.7, 0], [0, 0, 1], [1, 0, 0]]}))
    code, out, err = run(capsys, ["spectrum", str(path), "--adjacency"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {path}: entry[0][1] is not an integer: 1.7\n"


def test_simulate_no_cycle_not_found(capsys, tmp_path):
    path = tmp_path / "family.json"
    save(AdmissibleOdeFamily(oracles.REFERENCE_RING), path)
    code, out, _ = run(
        capsys,
        ["simulate", str(path), "--lambda", "-0.1", "--settle", "60"],
    )
    assert code == EXIT_NOT_FOUND
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][0] == "-0.1"
    assert rows[1][-1] != ""


def test_simulate_at_the_hopf_point_is_not_found(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(simulate, "integrate", refuse)
    monkeypatch.setattr(simulate, "_rk4", refuse)
    path = tmp_path / "family.json"
    save(AdmissibleOdeFamily(oracles.REFERENCE_RING), path)
    code, out, _ = run(capsys, ["simulate", str(path), "--lambda", "0"])
    assert code == EXIT_NOT_FOUND
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][0] == "0.0"
    assert rows[1][1] == ""
    assert rows[1][-1].startswith("no cycle: lambda=0.0 is the Hopf point")


def test_simulate_with_a_step_too_small_errors_at_once(tmp_path):
    # about 3.3e302 RK4 steps once ran until killed; a child keeps a hang from stalling the suite
    path = tmp_path / "family.json"
    save(AdmissibleOdeFamily(oracles.REFERENCE_RING), path)
    done = subprocess.run(
        [sys.executable, "-m", "ringhopf.cli", "simulate", str(path), "--lambda", "0.1", "--step", "1e-300"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (EXIT_ERROR, "")
    assert done.stderr.endswith(" and h=1e-300 give 3.267256359733385e+302 steps\n")
    assert done.stderr.splitlines()[-1].startswith("error: t_end=326.7")


def test_simulate_try_other_side(capsys, tmp_path):
    path = tmp_path / "family.json"
    save(AdmissibleOdeFamily(oracles.REFERENCE_RING), path)
    code, out, _ = run(
        capsys,
        [
            "simulate",
            str(path),
            "--lambda",
            "-0.1",
            "--settle",
            "120",
            "--try-other-side",
        ],
    )
    assert code == EXIT_FOUND
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][0] == "0.1"
    assert float(rows[1][1]) == pytest.approx(6.283, rel=0.2)


def test_output_file_option(capsys, reference_ring_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", reference_ring_file, "--out", str(out_path)])
    assert code == EXIT_FOUND
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["hopf"]["is_hopf_point"]
    # the file holds the bytes the same command prints, final newline included
    for argv in (["analyze", reference_ring_file], ["phases", reference_ring_file], ["tables"]):
        code, out, _ = run(capsys, argv + ["--out", str(out_path)])
        assert (code, out) == (EXIT_FOUND, "")
        assert out_path.read_bytes() == run(capsys, argv)[1].encode()


def test_log_env_variable(capsys, reference_ring_file, monkeypatch):
    monkeypatch.setenv("RINGHOPF_LOG", "DEBUG")
    code, _, _ = run(capsys, ["spectrum", reference_ring_file])
    assert code == EXIT_FOUND


def test_runtime_imports_no_test_only_package():
    # numpy is the only runtime dependency; these are oracles for the tests
    code = (
        "import sys, ringhopf, ringhopf.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'scipy', 'sympy', 'mpmath', 'hypothesis'}))"
    )
    src = os.path.dirname(os.path.dirname(ringhopf.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


# children import this checkout's ringhopf
CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ringhopf.__file__))}
# runs one subcommand in a fresh interpreter and reports, last on stderr, whether numpy loaded
NUMPY_PROBE = (
    "import sys\n"
    "from ringhopf.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_pure_python_paths_start_without_numpy(capsys, tmp_path, reference_ring_file):
    # below the vector-sweep crossover every spectrum, Hopf report, phase profile, table
    # and repair of a double root is scalar arithmetic, so these children must not pay
    # for numpy's import
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ringhopf, ringhopf.cli; print('numpy' in sys.modules)"],
        env=CHILD_ENV, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"
    ring, _ = oracles.construct_hopf_ring(spectra.VECTOR_SWEEP_MIN_N - 1, np.random.default_rng(5))
    below_crossover = str(tmp_path / "ring.json")
    save(ring, below_crossover)
    double = str(tmp_path / "double.json")
    save(oracles.construct_grid_double_ring(4, np.random.default_rng(5))[0], double)
    for argv in (
        ["analyze", reference_ring_file],
        ["analyze", below_crossover],
        ["phases", below_crossover],
        ["tables", "--format", "csv", "--discrepancies"],
        ["spectrum", below_crossover, "--kmax", "3"],
        ["perturb", double, "--epsilon", "1e-3"],
    ):
        # bytes, decoded without newline translation: the CSV writer ends rows in \r\n
        child = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv], env=CHILD_ENV, capture_output=True)
        assert (child.returncode, child.stderr.decode().splitlines()[-1]) == (EXIT_FOUND, "False"), argv
        assert child.stdout.decode() == run(capsys, argv)[1], argv


def test_analyze_exact_b3_underflow_is_one_error_line(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text('{"n": 3, "a": [1, -2, -3], "b": [1e-200, 1e-200, -10]}')
    done = subprocess.run(
        [sys.executable, "-m", "ringhopf.cli", "analyze", "--exact-b3", str(path)],
        env=CHILD_ENV, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (EXIT_ERROR, "")
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["error: b1*b2 = 1e-200 * 1e-200 = 0.0 underflows to zero, and "
                                        "b3 = (a1+a2)(a1+a3)(a2+a3) / (b1*b2) divides by it"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, option",
    [
        ("perturb", "--epsilon"),
        ("perturb", "--gap-tol"),
        ("simulate", "--settle"),
        ("simulate", "--step"),
        ("simulate", "--cycle-tol"),
    ],
)
def test_positive_options_reject_nan_and_inf(capsys, reference_ring_file, command, option, value):
    argv = [command, reference_ring_file]
    if command == "simulate":
        argv += ["--lambda", "0.1", "--settle", "60"]
    with pytest.raises(SystemExit) as info:
        main(argv + [option, value])
    assert info.value.code == 2
    assert f"argument {option}: must be positive and finite, got {value}" in capsys.readouterr().err


def test_perturb_kmax_on_a_ring_whose_Q_k_overflows_is_one_error_line(tmp_path):
    path = tmp_path / "wide.json"
    save(RingParams(64, tuple(float(v) for v in np.linspace(-3000.0, 3000.0, 64)), (1.0,) * 64), path)
    done = subprocess.run(
        [sys.executable, "-m", "ringhopf.cli", "perturb", str(path), "--kmax", "2"],
        env=CHILD_ENV, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (EXIT_ERROR, "")
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith("error: Q_2 of a ring with n = 64 has 35 of 128")


@pytest.mark.parametrize("argv", [["analyze", "{dir}"], ["tables", "--out", "{dir}"]])
def test_a_directory_path_is_one_error_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, [arg.format(dir=tmp_path) for arg in argv])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.splitlines() == [f"error: [Errno 21] Is a directory: '{tmp_path}'"]


def test_spectrum_of_an_empty_adjacency_matrix_names_n(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "rows": []}')
    code, out, err = run(capsys, ["spectrum", "--adjacency", str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.splitlines() == [f"error: {path}: adjacency matrix needs n >= 1, got n = 0"]


def test_analyze_exact_b3_on_a_four_node_ring_errors(capsys, tmp_path):
    path = tmp_path / "four.json"
    save(RingParams(4, (1.0, -2.0, -3.0, -1.0), (1.0, 1.0, 1.0, 1.0)), path)
    code, out, err = run(capsys, ["analyze", str(path), "--exact-b3"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.splitlines() == ["error: --exact-b3 applies to n=3 rings only"]


def test_tables_text_marks_the_discrepancies(capsys):
    code, out, _ = run(capsys, ["tables", "--discrepancies"])
    assert code == EXIT_FOUND
    marked = [line for line in out.splitlines() if "differs" in line]
    assert marked == [
        "   + + - |     2      1      3   [differs from printed 2/3/1]",
        "   + + - |     3      4      2   [differs from printed 3/2/4]",
        "   + + - |  pi/2      1      3   [differs from printed pi/2/3/1]",
        "   + + - | 3pi/2      4      2   [differs from printed 3pi/2/2/4]",
    ]
