"""Transport-rigidity toolkit for planar first-order elliptic systems.

The package analyzes systems u_x - alpha*v_y = 0, v_x + u_y - beta*v_y = 0
on the half-plane x > -1: it derives the pointwise structure (discriminant,
spectral parameter, Beltrami coefficient, condition number), detects the
transport obstruction whose vanishing ("rigidity") makes the system exactly
solvable by characteristics at delta-independent cost, solves rigid systems
that way, and quantifies how a Beurling-transform Neumann baseline degrades
as the ellipticity constant shrinks.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateStructure,
    DomainError,
    InvalidBranch,
    NonFiniteCoefficient,
    NotElliptic,
    RigidPdeError,
    StencilOutOfDomain,
)
from .fields import (
    REFERENCE_WINDOW,
    CallableField,
    CoefficientField,
    CoefficientSample,
    DeltaFamily,
    DeltaField,
    GridSpec,
    GridTableField,
    Region,
    aligned_gridspec,
    grid_axes,
    numeric_partials,
)
from .analysis import (
    RegionScanReport,
    StructureSample,
    TABLE_DELTAS,
    beltrami_coefficient,
    burgers_residual,
    condition_number,
    degeneration_table,
    discriminant,
    obstruction,
    scan_region,
    spectral_parameter,
    structure_sample,
)
from .transport import (
    ComplexField,
    ExpAffine,
    InitialData,
    LambdaPower,
    Polynomial,
    RealPairField,
    ResidualReport,
    characteristic_coordinate,
    from_real_pair,
    parse_f0,
    read_complex_csv,
    read_real_pair_csv,
    solve_characteristic,
    system_residual,
    to_real_pair,
    transport_residual,
    write_complex_csv,
    write_real_pair_csv,
)
from .beltrami import (
    BeltramiProblem,
    IterationTrace,
    TorusGrid,
    beurling_transform,
    cauchy_transform,
    delta_sweep,
    family_mu_on_torus,
    solve_beltrami_neumann,
)
from .bench import BenchConfig, BenchReport, BenchRow, run_benchmark

__all__ = [name for name in dir() if not name.startswith("_")]
