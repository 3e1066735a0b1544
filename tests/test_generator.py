import numpy as np
import pytest

from bowforge.bowdata import (
    check_chain_invariants,
    check_exactness_all,
    validate_relations,
)
from bowforge import generator
from bowforge.errors import (
    ChainInfeasible,
    FlavorChargeMismatch,
    RankIndeterminate,
    RankTooLarge,
    RetriesExhausted,
    SpectraOverlap,
    ValidationFailure,
)
from bowforge.generator import (
    canonical_examples,
    degenerate_example,
    generate,
    generate_mirror,
    ginibre,
    rank_factorization,
    solve_sylvester,
)
from bowforge.orthosymplectic import verify_pairing_relations
from bowforge.topology import TopologicalData, compute_dimensions

from _suites import count_eigensolver_calls, random_valid_topology, suite_topology


# ---------------------------------------------------------------- sylvester

def test_sylvester_scalar():
    X = solve_sylvester(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))
    np.testing.assert_allclose(X, [[1.0]])


def test_sylvester_diagonal_example():
    X = solve_sylvester(np.diag([1.0, 2.0]), np.array([[0.0]]), np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(X, [[1.0], [0.5]])


def test_sylvester_spectra_overlap():
    with pytest.raises(SpectraOverlap):
        solve_sylvester(np.array([[0.0]]), np.array([[0.0]]), np.array([[1.0]]))


def test_sylvester_diagonal_closed_form():
    rng = np.random.default_rng(0)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    q = p + 1.0 + 0.5j  # guaranteed gap
    C = ginibre(rng, 4, 4)
    X = solve_sylvester(np.diag(p), np.diag(q), C)
    expected = C / (p[:, None] - q[None, :])
    np.testing.assert_allclose(X, expected, atol=1e-12)


def test_sylvester_empty_blocks():
    X = solve_sylvester(np.zeros((0, 0)), np.array([[1.0]]), np.zeros((0, 1)))
    assert X.shape == (0, 1)


def test_sylvester_nan_right_hand_side_raises():
    # a NaN residual is not below the tolerance, so it cannot pass
    with pytest.raises(ValidationFailure):
        solve_sylvester(np.diag([1.0, 2.0]), np.array([[0.0]]), np.array([[np.nan], [1.0]]))


@pytest.mark.parametrize("q", [*range(9), 21, 41, 130])
def test_sylvester_matches_scipy_bitwise(q):
    # la.sylvester runs scipy.linalg.solve_sylvester's steps without its wrappers
    import scipy.linalg

    rng = np.random.default_rng(q)
    P = ginibre(rng, q, q)
    for r in sorted({q, 1, 3}):
        Q = ginibre(rng, r, r) + 30.0  # far from P's spectrum, of radius about sqrt(q)
        C = ginibre(rng, q, r)
        X = solve_sylvester(P, Q, C)
        expected = scipy.linalg.solve_sylvester(P, -Q, C)
        assert X.shape == expected.shape and X.tobytes() == expected.tobytes()


# ------------------------------------------------------- rank factorization

def test_rank_factorization_zero_matrix():
    L, R = rank_factorization(np.zeros((1, 1)), 1, np.random.default_rng(1))
    assert L.shape == (1, 1) and R.shape == (1, 1)
    assert np.linalg.norm(L @ R) == 0.0
    assert np.linalg.norm(L) > 0  # padded column, unit norm
    assert np.linalg.norm(R) == 0.0


def test_rank_factorization_projector():
    C = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    L, R = rank_factorization(C, 1)
    assert L.shape == (2, 1) and R.shape == (1, 2)
    np.testing.assert_allclose(L @ R, C, atol=1e-12)


def test_rank_factorization_rank_too_large():
    with pytest.raises(RankTooLarge):
        rank_factorization(np.eye(2), 1)


@pytest.mark.parametrize("a,r0,inner", [(4, 2, 2), (4, 2, 3), (3, 0, 2), (5, 3, 5), (2, 1, 4)])
def test_rank_factorization_reconstruction_and_ranks(a, r0, inner):
    rng = np.random.default_rng(a * 100 + inner)
    C = ginibre(rng, a, r0) @ ginibre(rng, r0, a) if r0 else np.zeros((a, a), dtype=complex)
    L, R = rank_factorization(C, inner, rng)
    assert L.shape == (a, inner) and R.shape == (inner, a)
    assert np.linalg.norm(L @ R - C) / (1 + np.linalg.norm(C)) < 1e-10
    assert np.linalg.matrix_rank(L) == min(inner, a)


def test_rank_factorization_full_rank_generic():
    # generic full-rank input: both factors reach min(inner, a)
    rng = np.random.default_rng(7)
    C = ginibre(rng, 3, 3)
    L, R = rank_factorization(C, 5, rng)
    assert np.linalg.matrix_rank(L) == 3 and np.linalg.matrix_rank(R) == 3
    np.testing.assert_allclose(L @ R, C, atol=1e-12)


# ----------------------------------------------------------------- generate

def test_generate_u2_shapes_and_checks():
    t = suite_topology(2, 1, 1)
    d = generate(t, seed=7)
    assert d.dims.d == (2, 2, 1) and d.dims.dn == (1, 2)
    assert d.beta[0].shape == (2, 2) and d.A[0].shape == (2, 2) and d.A[1].shape == (1, 2)
    assert validate_relations(d, tol=1e-10).passed
    assert check_chain_invariants(d, tol=1e-6).passed
    assert all(r.passed for r in check_exactness_all(d))


def test_generate_reproduces_single_nut_family():
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.3,), m=(1,), nd=(1,), m0=0, z=(0.4 + 0.2j,))
    d = generate(t, seed=11)
    np.testing.assert_allclose(d.beta[0], [[t.z[0]]])
    assert abs(d.gamma[0][0, 0]) > 0


def test_generate_deterministic():
    t = suite_topology(2, 2, 2)
    a, b = generate(t, seed=5), generate(t, seed=5)
    for name, m in a.all_matrices().items():
        np.testing.assert_array_equal(m, b.all_matrices()[name])


@pytest.mark.parametrize("key", [(1, 2, 3), (2, 3, 2), (3, 2, 3)])
def test_generate_decomposes_each_beta_once_per_attempt(monkeypatch, key):
    # the interior draws and every Sylvester gap check share one eigenvalue
    # array per beta_i, which the datum keeps; the datum decomposes only its
    # interior betaN_j, and the checks that follow decompose nothing
    attempt, run_checks = generator._attempt, generator._run_checks
    decomposed, attempts = [], []

    def recording(t, dims, rng):
        decomposed.clear()
        return attempt(t, dims, rng)

    def checked(datum):
        failure = run_checks(datum)
        chain = [id(m) for m in (*datum.beta, *datum.betaN[1:-1]) if m.size]
        attempts.append((sorted(decomposed), sorted(chain)))
        return failure

    count_eigensolver_calls(monkeypatch, lambda a: decomposed.append(id(a)))
    monkeypatch.setattr(generator, "_attempt", recording)
    monkeypatch.setattr(generator, "_run_checks", checked)
    for seed in range(4):
        generate(suite_topology(*key), seed)
    assert attempts
    for calls, chain in attempts:
        assert calls == chain


def test_generate_retries_after_indeterminate_rank(monkeypatch):
    real_attempt = generator._attempt
    calls = []

    def straddle_once(t, dims, rng):
        calls.append(None)
        if len(calls) == 1:
            raise RankIndeterminate("singular value straddles the cutoff")
        return real_attempt(t, dims, rng)

    monkeypatch.setattr(generator, "_attempt", straddle_once)
    d = generate(suite_topology(2, 1, 1), seed=7)
    assert len(calls) == 2
    assert validate_relations(d, tol=1e-10).passed


def test_generate_retries_exhausted_keeps_last_failure(monkeypatch):
    failure = RankIndeterminate("singular value straddles the cutoff")

    def always_straddle(t, dims, rng):
        raise failure

    monkeypatch.setattr(generator, "_attempt", always_straddle)
    with pytest.raises(RetriesExhausted) as info:
        generate(suite_topology(2, 1, 1), seed=7)
    assert info.value.last_failure is failure


def test_generate_retries_after_failed_check(monkeypatch):
    real_checks = generator._run_checks
    checked = []

    def fail_once(datum):
        checked.append(datum)
        return "relations failed: injected" if len(checked) == 1 else real_checks(datum)

    monkeypatch.setattr(generator, "_run_checks", fail_once)
    d = generate(suite_topology(2, 1, 1), seed=7)
    assert len(checked) == 2 and d is checked[1]
    assert validate_relations(d, tol=1e-10).passed


def test_generate_failed_checks_exhaust_retries(monkeypatch):
    monkeypatch.setattr(generator, "_run_checks", lambda datum: "relations failed: injected")
    with pytest.raises(RetriesExhausted, match=f"after {generator.ATTEMPTS} attempts") as info:
        generate(suite_topology(2, 1, 1), seed=7)
    assert info.value.last_failure == "relations failed: injected"


def exact_datum_refused():
    """Draw 8 of random_valid_topology(default_rng(7)): n = k = 2, m = (3, -2),
    nd = (-1, 2), m0 = 0, d = (3, 0, 2).  Its charges pass validate_topology,
    yet every attempt of generate fails exactness at i = 0."""
    rng = np.random.default_rng(7)
    t = [random_valid_topology(rng) for _ in range(9)][8]
    assert (t.n, t.k, t.m, t.nd, t.m0) == (2, 2, (3, -2), (-1, 2), 0)
    assert compute_dimensions(t).d == (3, 0, 2)
    return t


REFUSED = f"generation failed after {generator.ATTEMPTS} attempts: exactness failed at i=0 (fail)"


def test_generate_failed_checks_name_the_last_one():
    # no check injected: _run_checks' own exactness failure, as generate raises it
    with pytest.raises(RetriesExhausted) as info:
        generate(exact_datum_refused(), seed=0)
    assert str(info.value) == REFUSED
    assert info.value.last_failure == "exactness failed at i=0 (fail)"


def test_cli_gen_reports_the_failed_check(tmp_path, capsys):
    from bowforge import bowfile
    from bowforge.cli import main

    topo = tmp_path / "refused.json"
    topo.write_bytes(bowfile.serialize(bowfile.BowFile(topo=exact_datum_refused())))
    out = tmp_path / "generated.json"
    assert main(["gen", str(topo), "--seed", "0", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"validation failure: {REFUSED}\n"


def test_generate_negative_dimension_propagates():
    bad = TopologicalData(
        n=2, k=1, ell=1.0, lam=(0.3, 0.7), m=(3, -2), nd=(1,), m0=0, z=(0.0,)
    )
    with pytest.raises(ValidationFailure, match="negative"):
        generate(bad, seed=0)


def test_generate_interior_peak_reports_infeasible():
    # dn = (2, 4, 3) has an interior peak: no generic factorization order works
    t = TopologicalData(
        n=1, k=2, ell=1.0, lam=(0.5,), m=(1,), nd=(2, -1), m0=0, z=(0.0, 1.0)
    )
    assert compute_dimensions(t).dn == (2, 4, 3)
    with pytest.raises(ChainInfeasible):
        generate(t, seed=0)


def test_generate_valley_profile():
    # dn = (2, 1, 2): valley in the middle, built by the two-sided sweep
    t = TopologicalData(
        n=1, k=2, ell=1.0, lam=(0.5,), m=(0,), nd=(-1, 1), m0=1, z=(0.0, 1.0)
    )
    assert compute_dimensions(t).dn == (2, 1, 2)
    d = generate(t, seed=3)
    assert validate_relations(d, tol=1e-10).passed
    assert all(r.passed for r in check_exactness_all(d))
    # nd_1 = -1 exercises the reciprocal telescoping direction
    report = check_chain_invariants(d, tol=1e-6)
    assert {c.name: c for c in report.checks}["charpoly-telescope[1]"].passed
    assert report.passed


def test_generate_right_end_valley():
    # dn = (2, 1): the valley is the last node, so the seed step is step k
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(-1,), nd=(-1,), m0=1, z=(0.2,))
    assert compute_dimensions(t).dn == (2, 1)
    d = generate(t, seed=1)
    assert validate_relations(d, tol=1e-10).passed
    assert check_chain_invariants(d, tol=1e-6).passed
    assert all(r.passed for r in check_exactness_all(d))


# -------------------------------------------------------- canonical examples

@pytest.fixture(scope="module")
def canon():
    return {e.name: e for e in canonical_examples()}


def test_canonical_names(canon):
    assert set(canon) == {"u1-single-nut", "u1-charge", "u2-basic", "so2-mirror", "sp1-mirror"}


def test_canonical_all_pass_validation(canon):
    for ex in canon.values():
        assert validate_relations(ex.datum, tol=1e-10).passed, ex.name
        assert check_chain_invariants(ex.datum, tol=1e-6).passed, ex.name
        assert all(r.passed for r in check_exactness_all(ex.datum)), ex.name
        if ex.pairing is not None:
            assert verify_pairing_relations(ex.datum, ex.pairing, tol=1e-8).passed, ex.name


def test_u1_single_nut_residuals_exactly_zero(canon):
    report = validate_relations(canon["u1-single-nut"].datum)
    assert all(c.residual == 0.0 for c in report.checks)


def test_u1_single_nut_exactness_requires_nonzero_gamma(canon):
    from bowforge.bowdata import check_exactness, with_perturbed_entry

    ex = canon["u1-single-nut"]
    assert check_exactness(ex.datum, 0).passed
    broken = with_perturbed_entry(ex.datum, "gamma[0]", (0, 0), -1.0)  # gamma -> 0
    res = check_exactness(broken, 0)
    assert not res.passed
    assert res.witnesses and res.witnesses[0].side == "kernel"


def test_degenerate_example_relations_hold_but_exactness_fails():
    _, d = degenerate_example()
    assert validate_relations(d, tol=1e-12).passed
    res = check_exactness_all(d)[0]
    assert not res.passed
    eta, vec = res.witnesses[0].eta, res.witnesses[0].vector
    assert abs(eta) < 1e-12
    np.testing.assert_allclose(np.abs(vec), [1.0], atol=1e-12)


# ----------------------------------------------------------------- mirrors

def test_mirror_requires_symmetric_charges():
    t = suite_topology(2, 1, 1)  # nd = (1,): not an SO/Sp charge pattern
    with pytest.raises(FlavorChargeMismatch):
        generate_mirror(t, "SO", seed=0)


def test_mirror_multi_nut_so():
    t = TopologicalData(
        n=2, k=3, ell=1.0, lam=(0.25, 0.75), m=(0, 0), nd=(0, 0, 0), m0=2,
        z=(0.3 - 0.2j, -0.5 + 0.1j, 0.8 + 0.6j),
    )
    datum, pairing = generate_mirror(t, "SO", seed=2)
    assert validate_relations(datum, tol=1e-10).passed
    assert verify_pairing_relations(datum, pairing, tol=1e-8).passed
    assert all(r.passed for r in check_exactness_all(datum))


def test_mirror_sp_with_charge():
    t = TopologicalData(
        n=2, k=1, ell=1.0, lam=(0.2, 0.8), m=(-1, 1), nd=(0,), m0=3, z=(0.1 + 0.2j,)
    )
    datum, pairing = generate_mirror(t, "Sp", seed=4)
    assert pairing.f == (1, -1)
    assert verify_pairing_relations(datum, pairing, tol=1e-8).passed
    assert all(r.passed for r in check_exactness_all(datum))


@pytest.mark.parametrize("flavor", ["SO", "Sp"])
@pytest.mark.parametrize("k", [2, 3])
def test_mirror_with_empty_blocks_over_several_nuts(flavor, k):
    # m0 = 0 leaves every block empty: the dual chain's factors are 0 x 0,
    # with no condition number to draw for
    t = TopologicalData(
        n=2, k=k, ell=1.0, lam=(0.25, 0.75), m=(0, 0), nd=(0,) * k, m0=0, z=(0.1, 0.2j, 0.3 + 0.1j)[:k]
    )
    datum, pairing = generate_mirror(t, flavor, seed=0)
    assert datum.dims.d == (0, 0, 0)
    assert validate_relations(datum).passed
    assert verify_pairing_relations(datum, pairing).passed


SO2_MIRROR = TopologicalData(
    n=2, k=1, ell=1.0, lam=(0.25, 0.75), m=(0, 0), nd=(0,), m0=2, z=(0.3 - 0.2j,)
)


def pairing_check_failing_first(count, reports):
    """verify_pairing_relations whose first `count` calls run at tolerance 0,
    where every identity fails; each report is appended to `reports`."""
    real_verify = generator.verify_pairing_relations

    def verify(datum, pairing):
        tol = {"tol": 0.0} if len(reports) < count else {}
        reports.append(real_verify(datum, pairing, **tol))
        return reports[-1]

    return verify


def test_mirror_retries_after_failed_pairing_check(monkeypatch):
    reports = []
    monkeypatch.setattr(generator, "verify_pairing_relations", pairing_check_failing_first(1, reports))
    datum, pairing = generate_mirror(SO2_MIRROR, "SO", seed=11)
    assert [r.passed for r in reports] == [False, True]
    assert verify_pairing_relations(datum, pairing, tol=1e-8).passed


def test_mirror_failed_pairing_checks_exhaust_retries(monkeypatch):
    reports = []
    monkeypatch.setattr(
        generator, "verify_pairing_relations", pairing_check_failing_first(generator.ATTEMPTS, reports)
    )
    with pytest.raises(RetriesExhausted, match=f"after {generator.ATTEMPTS} attempts") as info:
        generate_mirror(SO2_MIRROR, "SO", seed=11)
    assert len(reports) == generator.ATTEMPTS
    assert info.value.last_failure == f"pairing relations failed: {reports[-1].failures()}"


def test_mirror_rejects_two_charges_on_one_nut():
    t = TopologicalData(
        n=2, k=1, ell=1.0, lam=(0.2, 0.8), m=(-2, 2), nd=(0,), m0=2, z=(0.1j,)
    )
    with pytest.raises(ChainInfeasible, match="cannot place 2 unit charges on 1 NUTs"):
        generate_mirror(t, "SO", seed=0)


def test_mirror_rejects_unsplittable_instanton_number():
    t = TopologicalData(
        n=2, k=1, ell=1.0, lam=(0.2, 0.8), m=(0, 0), nd=(0,), m0=1, z=(0.0,)
    )
    with pytest.raises(ChainInfeasible):
        generate_mirror(t, "SO", seed=0)
