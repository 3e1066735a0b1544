"""Acceptance criteria, one test per criterion, each printing a status line.

All tolerances are pinned here; nothing is deferred to later calibration.
Criterion 5's middle clause is known red: the documented degenerate datum
genuinely satisfies the pointwise freeness criterion (its defect lives in
the rank-one sheaf flags, which check_exactness reports), so the assertion
of a freeness failure stays red rather than being weakened.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from bowforge import bowfile
from bowforge.bowdata import (
    check_chain_invariants,
    check_exactness_all,
    validate_relations,
    with_perturbed_entry,
)
from bowforge.cli import main
from bowforge.generator import canonical_examples, degenerate_example, generate, ginibre
from bowforge.monad import (
    ScanConfig,
    SurfacePoint,
    assemble_monad,
    fiber_at,
    is_locally_free_at,
    lift_commutativity_residuals,
    random_points,
    scan_local_freeness,
    structured_points,
)
from bowforge.orthosymplectic import p_pairing_matrix, fiber_form, verify_pairing_relations
from bowforge.topology import compute_dimensions

from _suites import random_valid_topology, suite_topology

FIXTURES = Path(__file__).parent / "fixtures"
SUITE = [(n, k, m0) for n in (1, 2, 3) for k in (1, 2, 3) for m0 in (0, 1, 2, 3)]
N_SEEDS = 100


def report(number, ok, detail):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def canon():
    return {e.name: e for e in canonical_examples()}


@pytest.fixture(scope="module")
def generated_suite():
    start = time.monotonic()
    data = []
    for (n, k, m0) in SUITE:
        topo = suite_topology(n, k, m0)
        for seed in range(N_SEEDS):
            data.append(generate(topo, seed=seed))
    return data, time.monotonic() - start


def test_criterion_1_dimension_identities():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        t = random_valid_topology(rng)
        dims = compute_dimensions(t)
        for i in range(t.n):
            assert dims.d[i] - dims.d[i + 1] == t.m[i]
        for j in range(1, t.k + 1):
            assert dims.dn[j] - dims.dn[j - 1] == t.nd[j - 1]
        assert dims.dn[0] == dims.d[t.n] and dims.dn[t.k] == dims.d[0]
    elapsed = time.monotonic() - start
    ok = elapsed < 1.0
    report(1, ok, f"1000 random charge sets, identities exact, {elapsed:.2f}s (< 1s)")
    assert ok


def test_criterion_2_generate_validate_roundtrip(generated_suite):
    data, build_seconds = generated_suite
    start = time.monotonic()
    for datum in data:
        assert validate_relations(datum, tol=1e-8).passed
        assert all(r.passed for r in check_exactness_all(datum))
        assert check_chain_invariants(datum, tol=1e-6).passed
    elapsed = build_seconds + (time.monotonic() - start)
    ok = elapsed < 60.0
    report(
        2,
        ok,
        f"{len(data)} data ({N_SEEDS} seeds x {len(SUITE)} topologies) all pass, "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert len(data) == N_SEEDS * len(SUITE)
    assert ok


def test_criterion_3_telescoping_and_composites(generated_suite):
    data, _ = generated_suite
    worst = 0.0
    for datum in data:
        rep = check_chain_invariants(datum, tol=1e-6)
        for check in rep.checks:
            if check.name.startswith(("charpoly-telescope", "composite-")):
                worst = max(worst, check.residual)
                assert check.residual < 1e-6, check
    report(3, True, f"telescoping/composite identities on all data, worst {worst:.2e} (< 1e-6)")


def test_criterion_4_monad_soundness(canon):
    start = time.monotonic()
    suite = [generate(suite_topology(n, k, 1), seed=101) for n in (1, 2, 3) for k in (1, 2, 3)]
    suite += [canon["u1-single-nut"].datum, canon["u2-basic"].datum]
    worst_comp, worst_lift, points_checked = 0.0, 0.0, 0
    for datum in suite:
        n = datum.topo.n
        pts = random_points(datum, 50, seed=7) + structured_points(datum)
        for pt in pts:
            monad = assemble_monad(datum, pt)
            worst_comp = max(worst_comp, monad.composition_residuals[0])
            assert monad.composition_residuals[0] < 1e-8
            assert fiber_at(datum, pt).shape[1] == n
            r0, rn = lift_commutativity_residuals(datum, pt)
            worst_lift = max(worst_lift, r0, rn)
            assert r0 < 1e-8 and rn < 1e-8
            points_checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    report(
        4,
        ok,
        f"{points_checked} points over {len(suite)} data: composition {worst_comp:.1e}, "
        f"rank = n everywhere, lifts {worst_lift:.1e}, {elapsed:.1f}s (< 120s)",
    )
    assert ok


def test_criterion_5_degeneracy_detection(canon):
    t, degenerate = degenerate_example()

    exact = check_exactness_all(degenerate)[0]
    exactness_detected = (
        not exact.passed
        and any(abs(w.eta) < 1e-9 for w in exact.witnesses)
        and all(np.linalg.norm(w.vector) > 0 for w in exact.witnesses)
    )

    over_zero = [SurfacePoint.from_xi_eta(t.z, xi, 0.0) for xi in (1.0, 10.0, 0.1)]
    freeness_failures = [pt for pt in over_zero if not is_locally_free_at(degenerate, pt).passed]

    u1 = canon["u1-single-nut"].datum
    scan = scan_local_freeness(u1, ScanConfig(n_random=50, seed=5))
    u1_clean = not scan.failures and not scan.indeterminate and scan.ranks_all_expected

    ok = exactness_detected and bool(freeness_failures) and u1_clean
    report(
        5,
        ok,
        f"exactness witness at eta=0: {exactness_detected}; "
        f"is_locally_free_at fails over eta=0: {bool(freeness_failures)} "
        f"(known red, see README); u1-single-nut clean: {u1_clean}",
    )
    assert exactness_detected
    assert u1_clean
    # Known red: the degenerate datum breaks only the rank-one sheaf flags
    # (which check_exactness reports); its monad kernel is still a genuine
    # line bundle, so the pointwise freeness map stays injective at every
    # finite point and no failure over eta = 0 exists to detect.
    assert freeness_failures, (
        "no local-freeness failure over eta=0: the quotient of ker(alpha) by "
        "Im(mu) is mapped injectively at every point of that fiber"
    )


def test_criterion_6_mutation_sensitivity():
    pool = [
        generate(suite_topology(2, 1, 1), seed=3),
        generate(suite_topology(2, 2, 2), seed=4),
        generate(suite_topology(3, 1, 1), seed=5),
        generate(suite_topology(3, 3, 2), seed=6),
    ]
    rng = np.random.default_rng(99)
    worst_best = np.inf
    for trial in range(20):
        datum = pool[trial % len(pool)]
        names = [nm for nm, m in datum.all_matrices().items() if m.size > 0]
        name = names[rng.integers(len(names))]
        mat = datum.all_matrices()[name]
        idx = (int(rng.integers(mat.shape[0])), int(rng.integers(mat.shape[1])))
        delta = 1e-3 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        mutated = with_perturbed_entry(datum, name, idx, delta)
        excited = max(
            c.residual for rep in (validate_relations(mutated), check_chain_invariants(mutated))
            for c in rep.checks
        )
        worst_best = min(worst_best, excited)
        assert excited > 1e-6, (name, idx, excited)
    report(6, True, f"20 single-entry 1e-3 mutations all detected; weakest signal {worst_best:.1e}")


def test_criterion_7_so_sp(canon):
    results = []
    for name, sign in (("so2-mirror", 1.0), ("sp1-mirror", -1.0)):
        ex = canon[name]
        datum, pairing = ex.datum, ex.pairing
        assert verify_pairing_relations(datum, pairing, tol=1e-8).passed
        for pt in random_points(datum, 20, seed=13):
            form = fiber_form(datum, pairing, pt, tol=1e-6)
            asym = np.abs(form - sign * form.T).max()
            sigma_min = np.linalg.svd(form, compute_uv=False)[-1]
            assert asym < 1e-6 * (1 + np.abs(form).max())
            assert sigma_min > 1e-6
        rng = np.random.default_rng(21)
        n = datum.topo.n
        for _ in range(100):
            i = int(rng.integers(n))
            eta = complex(rng.uniform(2, 4), rng.uniform(2, 4))
            u = ginibre(rng, datum.dims.d[i] + 1, 1)
            v = ginibre(rng, datum.dims.d[n - i - 1] + 1, 1)
            lhs = (u.T @ p_pairing_matrix(datum, pairing, i, eta) @ v)[0, 0]
            rhs = (v.T @ p_pairing_matrix(datum, pairing, n - i - 1, eta) @ u)[0, 0]
            assert abs(lhs - sign * rhs) < 1e-9 * (1 + abs(lhs))
        results.append(name)
    report(7, True, f"{', '.join(results)}: pairing at 1e-8, forms at 20 points, 2x100 Gram pairs")


def test_criterion_8_serialization_and_cli(tmp_path, capsys):
    for path in sorted(FIXTURES.glob("*.json")):
        raw = path.read_bytes()
        assert bowfile.serialize(bowfile.parse(raw)) == raw, path.name

    u2 = str(FIXTURES / "u2-basic.json")
    assert main(["validate", u2]) == 0
    doc = json.loads(Path(u2).read_text())
    doc["bow"]["beta"][0][0][0][0] += 0.01
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", str(broken)]) == 1
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    report(8, True, f"{len(list(FIXTURES.glob('*.json')))} fixtures byte-identical; exit codes 0/1/2")
