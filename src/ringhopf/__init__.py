"""Hopf bifurcation analysis for fully inhomogeneous unidirectional rings."""

from .model import (
    AdjacencyMatrix,
    AdmissibleOdeFamily,
    RingParams,
    cyclic_relabel,
    load_adjacency,
    load_family,
    load_ring,
    save,
    time_rescale,
    validate,
)
from .spectra import (
    CharPoly,
    Eigenvector,
    Spectrum,
    adjacency_spectrum,
    char_poly,
    eigenvalues,
    eigenvector_for,
)
from .hopf import (
    CrossingCheck,
    HopfReport,
    crossing_check,
    detect_imaginary_pair,
    hopf_conditions_3,
    sign_constraints,
    solve_coupling_for_hopf,
)
from .phases import (
    PhaseProfile,
    RatioSector,
    classify_case,
    generate_tables,
    phase_shifts,
    quadrant_of_ratio,
    table_lookup,
)
from .genericity import (
    ForbiddenSet,
    PerturbationResult,
    detect_multiple,
    detect_resonance,
    multiplicity_forbidden_set,
    remove_multiple,
    remove_resonances,
    resonance_poly,
)
from .simulate import (
    CycleMeasurement,
    Trajectory,
    branch_sweep,
    compare_predicted,
    find_limit_cycle,
    integrate,
)

__version__ = "0.1.0"
