"""Non-Markovian open-system generators and their spectral analysis.

The package assembles the sparse generator of the coupled hierarchy of
auxiliary density operators for baths with exponentially decomposed
correlation functions, analyzes its spectrum (steady states, gaps, symmetry
sectors) for phase-transition signatures, and cross-validates against the
enlarged Markovian description with explicit damped modes.
"""

__version__ = "0.1.8"

from .builder import (
    HeomLiouvillian,
    HeomState,
    adjoint_state,
    assemble,
    export_matrix,
    initial_state,
    propagate,
)
from .convergence import (
    ConvergenceTrace,
    auto_cutoff,
    auto_truncate,
    c_measure,
    s_measure,
)
from .dpt import (
    PhasePair,
    extrapolate,
    fidelity,
    reconstruct_mixture,
    split_phases,
    ssb_pair,
)
from .embedding import (
    EmbeddingSpec,
    boson_ops,
    build_lm,
    correlation_check,
    dimension_report,
)
from .hierarchy import HierarchySpace, count, enumerate_indices
from .linalg import (
    EigResult,
    devectorize,
    eig_dense,
    eig_targeted,
    herm_sqrt,
    kron,
    read_triplets,
    vectorize,
    write_triplets,
)
from .models import (
    BathSpec,
    BathTerm,
    ModelInstance,
    correlation,
    custom,
    lmg,
    two_mode_dicke,
    z2_lmg,
)
from .operators import SpinSpace, qubit_operators, spin_operators
from .spectra import (
    PhysicalState,
    SpectralResult,
    check_properties,
    expectation,
    gap,
    spectrum,
    steady_state,
)
from .symmetry import (
    SectorDecomposition,
    SymmetrySpec,
    decompose,
    sector_leading_eigs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
