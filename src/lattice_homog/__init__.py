"""Homogenized energy densities of periodic graphs on cylindrical lattice subsets."""

from .errors import (
    CellOutOfWindow,
    DatumUndefined,
    DisconnectedGraph,
    EmptyInterior,
    EmptyWindow,
    InvalidDirection,
    InvalidTensor,
    LatticeError,
    NoConvergence,
    TooLarge,
    UnknownNode,
    UnsupportedDimension,
    WindowTooSmall,
)
from .graph import (
    CellNode,
    EdgeOrbit,
    FiniteGraph,
    LatticeGraph,
    connectedness_certificate,
    graph_from_edges,
    instantiate_window,
    normalize_period,
    validate,
    witness_path,
)
from .lgf import ParseError, builtin_examples, parse, serialize
from .cell import (
    CorrectorField,
    HomogenizedTensor,
    assemble_quotient_system,
    cell_energy,
    corrector,
    f_hom,
    homogenized_tensor,
    solve_corrector,
)
from .oracle import brute_force_cell_oracle
from .asymptotic import convergence_study, finite_window_value, tiling_check
from .coarse import (
    CoarseField,
    LatticeFunction,
    check_poincare,
    check_poincare_wirtinger,
    check_two_connectedness,
    coarse_field,
    coarse_mean,
    compute_path_constants,
)
from .bvp import (
    BoundaryDatum,
    DirichletProblem,
    affine_datum,
    continuum_reference,
    discretize_boundary_datum,
    epsilon_convergence_study,
    solve_dirichlet,
)

__version__ = "0.1.0"
