"""riccatilab: dense-matrix laboratory for operator Riccati equations.

Given a Hermitian block matrix [[A, B], [B*, C]] whose diagonal spectra
are separated by a gap, the library solves X A - C X + X B X = B* by
three independent routes, factorizes the associated gap function,
measures subspace rotation angles, and certifies the classical norm and
enclosure bounds as explicit margins.
"""

from .block import (
    BlockProblem,
    SpectralGap,
    assemble_H,
    dist_spectra,
    find_gaps,
    herglotz_M,
    resolvent_H,
    select_gap,
)
from .certificates import (
    Certificate,
    certify_all,
    certify_apriori,
    certify_contraction,
    certify_existence,
    certify_tan2theta,
    certify_tan_theta,
    gamma_center,
    squared_shift,
)
from .errors import RiccatiLabError
from .factorization import (
    EnclosureBounds,
    compute_W,
    enclosure_bounds,
    factorization_grid,
    sign_conditions,
    verify_factorization,
)
from .geometry import (
    AngleReport,
    GraphProjection,
    block_diagonalize,
    graph_projection,
    operator_angle,
)
from .harness import (
    ExampleSpec,
    GenSpec,
    SweepResult,
    exact_example_solution,
    example_problem,
    generate,
    realize,
    sweep,
)
from .linalg import EigDecomposition, operator_norm
from .rng import SplitMix64
from .solvers import (
    Contour,
    RiccatiSolution,
    build_contour,
    residual,
    solve_contour,
    solve_fixedpoint,
    solve_spectral,
    uniqueness_class_check,
)

__version__ = "0.1.0"

__all__ = [
    "AngleReport",
    "BlockProblem",
    "Certificate",
    "Contour",
    "EigDecomposition",
    "EnclosureBounds",
    "ExampleSpec",
    "GenSpec",
    "GraphProjection",
    "RiccatiLabError",
    "RiccatiSolution",
    "SpectralGap",
    "SplitMix64",
    "SweepResult",
    "assemble_H",
    "block_diagonalize",
    "build_contour",
    "certify_all",
    "certify_apriori",
    "certify_contraction",
    "certify_existence",
    "certify_tan2theta",
    "certify_tan_theta",
    "compute_W",
    "dist_spectra",
    "enclosure_bounds",
    "exact_example_solution",
    "example_problem",
    "factorization_grid",
    "find_gaps",
    "gamma_center",
    "generate",
    "graph_projection",
    "herglotz_M",
    "realize",
    "operator_angle",
    "operator_norm",
    "residual",
    "resolvent_H",
    "select_gap",
    "sign_conditions",
    "solve_contour",
    "solve_fixedpoint",
    "solve_spectral",
    "squared_shift",
    "sweep",
    "uniqueness_class_check",
    "verify_factorization",
]
