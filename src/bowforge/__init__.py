"""bowforge: bow complexes and monads for instanton bundles on multi-Taub-NUT.

Importing the package loads none of its modules.  Each public name is
imported from its defining module on first access (PEP 562), so a CLI
command loads only the modules it runs.
"""

from importlib import import_module

# Each public module and the names the package takes from it (none from errors).
_EXPORTS = {
    "topology": "ChernSummary DimensionVector TopologicalData Violation chern_summary "
    "compute_dimensions validate_topology",
    "bowdata": "BowDatum ExactnessResult ValidationReport aggregate_maps "
    "check_chain_invariants check_exactness check_exactness_all gauge_transform "
    "validate_relations with_perturbed_entry",
    "monad": "MonadStack ScanConfig SurfacePoint assemble_monad fiber_at is_locally_free_at "
    "lift_commutativity_residuals monad_assembler scan_local_freeness",
    "orthosymplectic": "PairingDatum fiber_form p_pairing_matrix verify_pairing_relations",
    "generator": "CanonicalExample canonical_examples degenerate_example generate "
    "generate_mirror ginibre rank_factorization solve_sylvester",
    "errors": "",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
