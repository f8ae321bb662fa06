"""neckstress: a numerical laboratory for gradient concentration between two
rigid inclusions separated by a thin neck."""

from .asymptotics import (
    ScalingLaw,
    entry_case,
    flat_entry_oracle,
    integral_law,
    gram_integral_cases,
    predicted_rate,
    rho,
    rho_law,
    singular_integral_oracle,
    vbar,
    vtilde,
)
from .decomposition import (
    CellSolutions,
    CoefficientSystem,
    assemble_system,
    reconstruct,
    solve_cell_problems,
    solve_coefficients,
    sum_field_check,
)
from .elasticity import (
    ElasticParams,
    RigidMotion,
    n_rigid,
    rigid_basis,
)
from .fem import (
    DirichletSolver,
    DisplacementField,
    P2Space,
    SolveReport,
    SolverConfig,
    boundary_traction_moment,
    energy_integral,
    export_field,
    gradient_at,
    gradient_sq_integral,
    interpolate,
    max_gradient,
)
from .geometry import (
    ChartError,
    GeometryError,
    NeckProfile,
    ProfileKind,
    gap,
    make_profile,
    neck_region,
)
from .harness import (
    ExperimentConfig,
    RateFit,
    compare_oracles,
    default_eps_list,
    fit_rate,
    patch_energy_profile,
    read_csv,
    resolve_phi,
    run_point,
    run_sweep,
    solve_point,
    sweep_summary,
    write_csv,
)
from .meshing import (
    BoundaryTag,
    GradingConfig,
    GradingReport,
    Mesh,
    MeshingError,
    build_mesh,
    load_mesh,
    save_mesh,
)

__version__ = "0.1.0"
