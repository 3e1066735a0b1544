"""What `import bowforge` gives and what one CLI command loads.

Each check runs in a fresh interpreter, since this test session has
imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bowforge

SRC = str(Path(bowforge.__file__).resolve().parents[1])
FIXTURES = Path(__file__).parent / "fixtures"

# bowforge.__all__ when the package imported every module eagerly.
PUBLIC_NAMES = [
    "BowDatum", "CanonicalExample", "ChernSummary", "DimensionVector", "ExactnessResult",
    "MonadStack", "PairingDatum", "ScanConfig", "SurfacePoint", "TopologicalData",
    "ValidationReport", "Violation", "aggregate_maps", "assemble_monad", "bowdata",
    "canonical_examples", "check_chain_invariants", "check_exactness", "check_exactness_all",
    "chern_summary", "compute_dimensions", "degenerate_example", "errors", "fiber_at",
    "fiber_form", "gauge_transform", "generate", "generate_mirror", "generator", "ginibre",
    "is_locally_free_at", "lift_commutativity_residuals", "monad", "monad_assembler",
    "orthosymplectic", "p_pairing_matrix", "rank_factorization", "scan_local_freeness",
    "solve_sylvester", "topology", "validate_relations", "validate_topology",
    "verify_pairing_relations", "with_perturbed_entry",
]

SUBMODULES = {"bowdata", "errors", "generator", "monad", "orthosymplectic", "topology"}

# The modules every command loads: the CLI, the bow-file reader and what it imports.
CORE = {"cli", "bowfile", "bowdata", "orthosymplectic", "topology", "errors", "_linalg"}


def fresh(code: str, *args: str) -> dict:
    """The JSON that code prints last, run in a new interpreter on this checkout."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


API_PROBE = """
import importlib, json, sys
import bowforge
loaded = sorted(m for m in sys.modules if m.startswith("bowforge."))
home = {}  # where each name's object is defined: its module, or the module it is
for name in bowforge.__all__:
    obj = getattr(bowforge, name)
    if obj is sys.modules.get(f"bowforge.{name}"):
        home[name] = "module"
    elif getattr(importlib.import_module(obj.__module__), name, None) is obj:
        home[name] = obj.__module__
star = {}
exec("from bowforge import *", star)
try:
    bowforge.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded": loaded,
    "all": bowforge.__all__,
    "home": home,
    "dir": sorted(set(bowforge.__all__) - set(dir(bowforge))),
    "star": sorted(n for n in bowforge.__all__ if star.get(n) is not getattr(bowforge, n)),
    "extra_star": sorted(n for n in star if n != "__builtins__" and n not in bowforge.__all__),
    "unknown": unknown,
    "version": bowforge.__version__,
}))
"""


def test_package_api_is_the_eager_one():
    got = fresh(API_PROBE)
    assert got["loaded"] == []  # importing the package loads none of its modules
    assert got["all"] == PUBLIC_NAMES
    assert {name for name, home in got["home"].items() if home == "module"} == SUBMODULES
    assert all(
        home == "module" or home.startswith("bowforge.") for home in got["home"].values()
    )
    assert sorted(got["home"]) == PUBLIC_NAMES
    assert got["dir"] == []
    assert got["star"] == [] and got["extra_star"] == []
    assert got["unknown"] == "module 'bowforge' has no attribute 'no_such_name'"
    assert got["version"] == "0.1.0"


FOOTPRINT_PROBE = """
import contextlib, io, json, sys
from bowforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({
    "exit": code,
    "loaded": sorted(m[len("bowforge."):] for m in sys.modules if m.startswith("bowforge.")),
    "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
}))
"""


@pytest.mark.parametrize(
    "command, args, extra",
    [
        ("dims", ["u2-topology"], set()),
        ("validate", ["u2-basic"], set()),
        ("exactness", ["u2-basic"], set()),
        ("invariants", ["u2-basic"], set()),
        ("pairing", ["so2-mirror"], set()),
        ("export-bow", ["u2-basic", "-o", "{tmp}/complex.json"], {"export"}),
        ("gen", ["u2-topology", "--seed", "5", "-o", "{tmp}/bow.json"], {"generator"}),
        ("scan", ["u2-basic", "--n", "3"], {"monad"}),
        ("fiber", ["u2-basic", "--xi", "1.0", "--eta", "2.1+0.4j"], {"monad"}),
    ],
)
def test_cli_command_loads_only_what_it_runs(command, args, extra, tmp_path):
    fixture, *options = args
    argv = [command, str(FIXTURES / f"{fixture}.json")]
    argv += [a.format(tmp=tmp_path) for a in options]
    got = fresh(FOOTPRINT_PROBE, *argv)
    assert got["exit"] == 0
    assert set(got["loaded"]) == CORE | extra
    assert got["scipy"] == (command == "gen")  # solve_sylvester's deferred scipy.linalg
