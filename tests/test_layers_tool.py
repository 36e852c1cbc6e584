"""tools/layers.py, the per-layer timing script, run once at its smallest size."""

import importlib.util
import os
from pathlib import Path

from ringhopf import spectra

LAYERS = Path(__file__).resolve().parent.parent / "tools" / "layers.py"


def test_layer_timings_run_at_n_3():
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    cpus, crossover = os.sched_getaffinity(0), spectra.VECTOR_SWEEP_MIN_N
    rows = layers.main(["--sizes", "3", "--repeat", "1"])
    assert (os.sched_getaffinity(0), spectra.VECTOR_SWEEP_MIN_N) == (cpus, crossover)
    assert [name for name, *_ in rows] == [
        "eigenvalues, scalar sweep",
        "eigenvalues, vector sweep",
        "multiplicity_forbidden_set",
        "resonance_forbidden_set, k <= 3",
        "remove_multiple",
        "RK4 step",
    ]
    assert all(n == 3 and 0 < us < 1e6 and failed == 0 for _, n, us, failed in rows)


def test_layer_timings_solve_on_every_call(solves):
    # each batch holds RINGS distinct rings, so eigenvalues' one-entry memo never
    # answers for them and every figure stays the cost of a solve
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    layers.main(["--sizes", "3", "--repeat", "2"])
    # per pass: both eigenvalues sweeps and remove_multiple, none of whose rings is repaired
    assert solves() == 2 * 3 * layers.RINGS


def test_forbidden_set_rows_compute_on_every_call(eigensolves):
    # consecutive calls never share a diagonal either, so the forbidden sets' memo of
    # the last one never answers for them
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    layers.main(["--sizes", "3", "--repeat", "2"])
    # each row runs both its passes: A' in the multiplicity row, Q_2 and Q_3 in one call
    # in the resonance row, and A' again in remove_multiple
    calls = 2 * layers.RINGS
    assert eigensolves == [(1, 2, 2)] * calls + [(2, 5, 5)] * calls + [(1, 2, 2)] * calls


def test_cli_rows_time_every_subcommand_as_a_child():
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    cpus = os.sched_getaffinity(0)
    rows = layers.main(["--sizes", "3", "--repeat", "1", "--cli", "1"])
    assert os.sched_getaffinity(0) == cpus
    assert len(rows) == 6 + 9  # the default rows come first, unchanged
    cli_rows = rows[6:]
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
