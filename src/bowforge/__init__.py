"""bowforge: bow complexes and monads for instanton bundles on multi-Taub-NUT."""

from .topology import (
    ChernSummary,
    DimensionVector,
    TopologicalData,
    Violation,
    chern_summary,
    compute_dimensions,
    validate_topology,
)
from .bowdata import (
    BowDatum,
    ExactnessResult,
    ValidationReport,
    aggregate_maps,
    check_chain_invariants,
    check_exactness,
    check_exactness_all,
    gauge_transform,
    validate_relations,
    with_perturbed_entry,
)
from .monad import (
    MonadAtPoint,
    MonadStack,
    ScanConfig,
    SurfacePoint,
    assemble_monad,
    fiber_at,
    is_locally_free_at,
    lift_commutativity_residuals,
    monad_assembler,
    scan_local_freeness,
)
from .orthosymplectic import (
    PairingDatum,
    fiber_form,
    p_pairing_matrix,
    verify_pairing_relations,
)
from .generator import (
    CanonicalExample,
    canonical_examples,
    degenerate_example,
    generate,
    generate_mirror,
    ginibre,
    rank_factorization,
    solve_sylvester,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
