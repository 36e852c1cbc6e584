"""tools/layers.py, the per-layer timing script, run once at its smallest size."""

import importlib.util
import json
import os
import sys
from pathlib import Path

from ringhopf import spectra

LAYERS = Path(__file__).resolve().parent.parent / "tools" / "layers.py"


def test_layer_timings_run_at_n_3(tmp_path):
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    cpus, crossover = os.sched_getaffinity(0), spectra.VECTOR_SWEEP_MIN_N
    path = tmp_path / "layers.json"
    rows = layers.main(["--sizes", "3", "--repeat", "1", "--json", str(path)])
    # the file holds every row main returns, with where and on what they were taken
    (run,) = json.loads(path.read_text())
    assert [(r["layer"], r["n"], r["us"], r["failed"]) for r in run["rows"]] == rows
    assert run["pinned_cpu"] == min(cpus) and run["repeat"] == 1
    assert run["revision"] and run["machine"]["cpus"] == os.cpu_count()
    # with one pass its median and its worst are its best
    assert all(r["median_us"] == r["worst_us"] == r["us"] for r in run["rows"])
    # a second run goes after the first, and its rows spread from the best through the median to the worst
    layers.main(["--sizes", "3", "--repeat", "3", "--json", str(path)])
    first, second = json.loads(path.read_text())
    assert first == run and second["repeat"] == 3
    assert all(0 < r["us"] <= r["median_us"] <= r["worst_us"] for r in second["rows"])
    assert (os.sched_getaffinity(0), spectra.VECTOR_SWEEP_MIN_N) == (cpus, crossover)
    assert [name for name, *_ in rows] == [
        "eigenvalues, scalar sweep",
        "eigenvalues, vector sweep",
        "char_poly",
        "phase_shifts",
        "multiplicity_forbidden_set",
        "resonance_forbidden_set, k <= 3",
        "remove_multiple",
        "remove_resonances, k <= 3",
        "RK4 step",
        "find_limit_cycle",
    ]
    assert all(n == 3 and 0 < us < 1e6 and failed == 0 for _, n, us, failed in rows)


def test_layer_timings_solve_on_every_call(solves):
    # each batch holds RINGS distinct rings, so eigenvalues' one-entry memo never
    # answers for them and every figure stays the cost of a solve
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    layers.main(["--sizes", "3", "--repeat", "2"])
    # per pass: both eigenvalues sweeps, phase_shifts' check of each axis ring, and the two
    # removals, none of whose rings is repaired; the cycle hunt solves its base ring once, and
    # its second pass finds it in the memo
    assert solves() == 2 * 5 * layers.RINGS + 1


def test_forbidden_set_rows_compute_on_every_call(eigensolves, critical_points):
    # consecutive calls never share a diagonal either, so the forbidden sets' memo of
    # the last one never answers for them
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    layers.main(["--sizes", "3", "--repeat", "2"])
    # each row runs both its passes: Q_2 and Q_3 in one call in the resonance row and in
    # remove_resonances, and the two gaps of A' in the multiplicity row and both removals
    calls = 2 * layers.RINGS
    assert eigensolves == [(2, 5, 5)] * calls * 2
    assert critical_points() == 2 * calls * 3


def test_cli_rows_time_every_subcommand_as_a_child():
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    cpus = os.sched_getaffinity(0)
    rows = layers.main(["--sizes", "3", "--repeat", "1", "--cli", "1"])
    assert os.sched_getaffinity(0) == cpus
    assert len(rows) == 10 + 9  # the default rows come first, unchanged
    cli_rows = rows[10:]
    assert [name for name, *_ in cli_rows] == [
        "python -c pass",
        "python -c 'import numpy'",
        "cli analyze",
        "cli tables",
        "cli phases",
        "cli perturb",
        "cli spectrum",
        "cli spectrum --adjacency",
        "cli simulate",
    ]
    # every child exits 0, so each row times a full run
    assert all(0 < us < 60e6 and failed == 0 for _, _, us, failed in cli_rows)


def test_tier1_row_times_one_run_of_the_suite_as_a_child(monkeypatch, tmp_path):
    # a stub child stands in for the suite, which would otherwise run itself
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    stub = (
        "print('1.25s call     tests/a.py::b'); print('0.50s setup    tests/a.py::c[x-1]'); "
        "print('2.00s call     tests/d.py::e'); "
        "print('FAILED tests/a.py::b'); print('2 failed, 470 passed, 1 error in 0.01s'); raise SystemExit(1)"
    )
    monkeypatch.setattr(layers, "TIER1", [sys.executable, "-c", stub])
    path = tmp_path / "layers.json"
    rows = layers.main(["--sizes", "3", "--repeat", "1", "--tier1", "--json", str(path)])
    assert len(rows) == 10 + 1  # the default rows come first, unchanged
    assert rows[-1][:2] == ("tier-1 suite", 0) and 0 < rows[-1][2] < 60e6 and rows[-1][3] == 3
    # the seconds of each test file, summed over its duration rows
    (run,) = json.loads(path.read_text())
    assert run["tier1_files"] == {"tests/a.py": 1.75, "tests/d.py": 2.0}
    # a child that exits nonzero with no summary line counts as one failure
    monkeypatch.setattr(layers, "TIER1", [sys.executable, "-c", "raise SystemExit(4)"])
    assert layers.measure_tier1()[3] == 1
    monkeypatch.setattr(layers, "TIER1", [sys.executable, "-c", "print('3 passed in 0.01s')"])
    assert layers.measure_tier1()[3] == 0
