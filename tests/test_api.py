"""The public surface, pinned: parameter names of the public functions and
the options of every CLI subcommand. A new tuning knob, or one removed,
shows up as an edit here."""

import argparse
import inspect

import ringhopf
from ringhopf import cli, genericity, hopf, phases, simulate, spectra

SIGNATURES = {
    "adjacency_spectrum": ("adj",),
    "branch_sweep": ("family", "lambdas", "kwargs"),
    "char_poly": ("params",),
    "classify_case": ("params",),
    "compare_predicted": ("measurement", "profile"),
    "crossing_check": ("family", "lambda0", "h"),
    "cyclic_relabel": ("params", "shift"),
    "detect_imaginary_pair": ("spectrum",),
    "detect_multiple": ("spectrum", "gap_tol"),
    "detect_resonance": ("spectrum", "k_max"),
    "eigenvalues": ("params",),
    "eigenvector_for": ("params", "mu"),
    "find_limit_cycle": ("family", "lam", "settle_time", "tol", "h"),
    "generate_tables": ("omega_signs",),
    "hopf_conditions_3": ("params", "rel_tol"),
    "integrate": ("family", "x0", "t_end", "h", "lam"),
    "load_adjacency": ("path",),
    "load_family": ("path",),
    "load_ring": ("path",),
    "multiplicity_forbidden_set": ("params",),
    "phase_shifts": ("params", "omega", "force"),
    "quadrant_of_ratio": ("a_j", "b_j", "omega_sign", "zero_tol"),
    "remove_multiple": ("params", "epsilon", "gap_tol"),
    "remove_resonances": ("params", "k_max", "epsilon"),
    "resonance_poly": ("params", "k"),
    "save": ("obj", "path"),
    "sign_constraints": ("params",),
    "solve_coupling_for_hopf": ("a", "b1", "b2"),
    "table_lookup": ("case", "b_signs", "omega_sign"),
    "time_rescale": ("params", "delta"),
    "validate": ("params",),
}

# every module-level tolerance, imported ones included, by module
TOLERANCES = {
    "spectra": {
        "RESIDUAL_TOL": 1e-10,
        "FREEZE_TOL": 16 * 2.0**-52,
        "POWER_SUM_TOL": 1e-6,
        "PAIR_TOL": 1e-8,
        "AXIS_TOL": 1e-8,
        "EIGENVECTOR_RESIDUAL_TOL": 1e-9,
    },
    "genericity": {"AXIS_TOL": 1e-8, "GAP_TOL_FACTOR": 1e-7, "REAL_VALUE_TOL": 1e-9},
    "hopf": {"AXIS_TOL": 1e-8, "PRODUCT_REL_TOL": 1e-9},
    "phases": {"ZERO_TOL_FACTOR": 1e-10, "EIGENVALUE_TOL": 1e-8},
    "simulate": {"PERIOD_TOL": 0.01},
}

# positional arguments by name, options by their strings
CLI_OPTIONS = {
    "analyze": ("-h", "--help", "ring", "--out", "--exact-b3"),
    "tables": ("-h", "--help", "--out", "--format", "--omega", "--discrepancies"),
    "phases": ("-h", "--help", "ring", "--out", "--omega", "--force"),
    "perturb": ("-h", "--help", "ring", "--out", "--epsilon", "--kmax", "--gap-tol"),
    "simulate": (
        "-h", "--help", "ring", "--out", "--lambda", "--settle", "--step", "--cycle-tol",
        "--try-other-side",
    ),
    "spectrum": ("-h", "--help", "ring", "--out", "--adjacency", "--kmax"),
}


def _parameters(fn) -> tuple[str, ...]:
    return tuple(inspect.signature(fn).parameters)


def test_public_function_signatures():
    public = {
        name: _parameters(obj)
        for name, obj in vars(ringhopf).items()
        if not name.startswith("_") and inspect.isfunction(obj)
    }
    assert public == SIGNATURES


def test_module_level_signatures():
    assert _parameters(spectra.axis_pairs) == ("roots",)
    assert _parameters(simulate.measure_cycle) == ("traj", "period_tol")
    assert _parameters(hopf.spectral_hopf_check) == ("params",)


def test_cli_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: tuple(s for action in p._actions for s in action.option_strings or [action.dest])
        for name, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS


def test_tolerance_inventory():
    found = {
        module.__name__.rsplit(".", 1)[1]: {
            name: value
            for name, value in vars(module).items()
            if name.endswith(("_TOL", "_FACTOR"))
        }
        for module in (spectra, genericity, hopf, phases, simulate)
    }
    assert found == TOLERANCES
