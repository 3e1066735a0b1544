import dataclasses
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowforge import _linalg as la
from bowforge import bowfile
from bowforge.bowdata import (
    FAMILIES,
    BowDatum,
    aggregate_maps,
    check_chain_invariants,
    check_exactness,
    check_exactness_all,
    gauge_transform,
    validate_relations,
    with_perturbed_entry,
)
from bowforge.errors import ShapeMismatch
from bowforge.generator import canonical_examples, generate, ginibre
from bowforge.topology import DimensionVector, TopologicalData, compute_dimensions

from _suites import BOW_FIXTURES, FIXTURES, suite_topology

SUITE = [(n, k, m0) for n in (1, 2, 3) for k in (1, 2, 3) for m0 in (0, 1, 2, 3)]


@pytest.fixture(scope="module")
def canon():
    return {e.name: e for e in canonical_examples()}


@pytest.fixture(scope="module")
def u2(canon):
    return canon["u2-basic"].datum


def toy_chain_datum(beta0, beta1, A, alpha, gamma):
    """1x1 lambda chain over one NUT; the chain block is chosen consistent
    with beta0, so only the opposite chain relation can be off."""
    t = TopologicalData(
        n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=1, z=(0.25,)
    )
    return BowDatum.assemble(
        t,
        beta=[np.array([[beta0]], dtype=complex), np.array([[beta1]], dtype=complex)],
        A=[np.array([[A]], dtype=complex)],
        alpha=[np.array([[alpha]], dtype=complex)],
        gamma=[np.array([[gamma]], dtype=complex)],
        betaN_interior=[],
        Mxi=[np.array([[1.0 + 0j]])],
        Mpsi=[np.array([[beta0 - 0.25]], dtype=complex)],
    )


# --------------------------------------------------------------- relations

def test_sylvester_residual_zero_on_toy_chain():
    d = toy_chain_datum(0.0, 1.0, A=1.0, alpha=1.0, gamma=1.0)
    check = {c.name: c for c in validate_relations(d).checks}["sylvester[0]"]
    assert check.residual == 0.0
    assert check.passed


def test_sylvester_residual_detects_wrong_A():
    d = toy_chain_datum(0.0, 1.0, A=2.0, alpha=1.0, gamma=1.0)
    check = {c.name: c for c in validate_relations(d).checks}["sylvester[0]"]
    # |2 - 0 - 1| over (1 + |lhs| + |rhs|) = 1/4 in the relative convention
    assert not check.passed
    assert check.residual == pytest.approx(0.25)


def test_u1_canonical_relations_exact(canon):
    report = validate_relations(canon["u1-single-nut"].datum)
    assert report.passed and all(c.residual == 0.0 for c in report.checks)


def test_shape_mismatch_raised_before_numerics():
    t = suite_topology(2, 1, 1)
    d = generate(t, seed=1)
    mats = d.all_matrices()
    with pytest.raises(ShapeMismatch, match=r"A\[0\]"):
        BowDatum.assemble(
            t,
            beta=[mats[f"beta[{i}]"] for i in range(3)],
            A=[np.zeros((3, 3)), mats["A[1]"]],
            alpha=[mats[f"alpha[{i}]"] for i in range(2)],
            gamma=[mats[f"gamma[{i}]"] for i in range(2)],
            betaN_interior=[],
            Mxi=[mats["Mxi[0]"]],
            Mpsi=[mats["Mpsi[0]"]],
        )


def test_datum_is_immutable(u2):
    with pytest.raises(dataclasses.FrozenInstanceError):
        u2.beta = ()
    with pytest.raises(AttributeError):
        u2.A.append(np.zeros((1, 1)))  # block sequences are tuples
    with pytest.raises(ValueError):
        u2.beta[0][0, 0] = 1.0  # and the blocks are read-only


def test_direct_construction_checks_shapes(u2):
    fields = {f.name: getattr(u2, f.name) for f in dataclasses.fields(BowDatum)}
    assert BowDatum(**fields).A is u2.A
    with pytest.raises(ShapeMismatch, match=r"gamma\[1\]"):
        BowDatum(**{**fields, "gamma": (u2.gamma[0], np.zeros((1, 7)))})


def test_chain_endpoints_are_aliased(u2):
    assert u2.betaN[0] is u2.beta[2]
    assert u2.betaN[-1] is u2.beta[0]


def test_one_family_table_names_fields_arguments_and_file_keys(u2):
    fields = [family.field for family in FAMILIES]
    assert [f.name for f in dataclasses.fields(BowDatum)] == ["topo", "dims", *fields]
    assert list(inspect.signature(BowDatum.assemble).parameters)[1:8] == fields
    assert sorted(json.loads(bowfile.serialize(bowfile.BowFile(u2.topo, u2)))["bow"]) == sorted(fields)
    assert {family.field: family.count for family in FAMILIES} == COUNTS


# each family's length in n and k, as the count message prints it
COUNTS = {"beta": "n+1", "A": "n", "alpha": "n", "gamma": "n", "betaN_interior": "k-1", "Mxi": "k", "Mpsi": "k"}


def families(d):
    """The matrices of d by family, as BowDatum.assemble takes them."""
    out = {family: [] for family in COUNTS}
    for name, m in d.all_matrices().items():
        family = name.split("[")[0]
        out["betaN_interior" if family == "betaN" else family].append(m)
    return out


def edited_bow(d, family, blocks, topology=None):
    """The bow file of d with one family's matrices replaced, and its topology edited."""
    doc = json.loads(bowfile.serialize(bowfile.BowFile(d.topo, d)))
    doc["bow"][family] = [bowfile.matrix_to_doc(m) for m in blocks]
    doc["topology"].update(topology or {})
    return json.dumps(doc)


@pytest.mark.parametrize("family", list(COUNTS))
@pytest.mark.parametrize("wrong", ["count", "shape"])
def test_every_family_is_checked_when_built(family, wrong):
    # n = k = 2, d = (2, 2, 1), dn = (1, 2, 2): every family holds a nonempty matrix
    d = generate(suite_topology(2, 2, 1), seed=0)
    blocks = families(d)
    good = blocks[family]
    if wrong == "count":
        bad = good[:-1]
        built = f"{family} must have {COUNTS[family]}={len(good)} blocks, got {len(bad)}"
        read = (bowfile.ParseError, f"bow.{family}: expected {len(good)} matrices")
    else:
        bad = [np.zeros((good[0].shape[0] + 1, good[0].shape[1])), *good[1:]]
        name = "betaN[1]" if family == "betaN_interior" else f"{family}[0]"
        built = f"{name} has shape {bad[0].shape}, expected {good[0].shape}"
        read = (ShapeMismatch, f"bow: {built}")
    for build in (lambda: dataclasses.replace(d, **{family: tuple(bad)}),
                  lambda: BowDatum.assemble(d.topo, **{**blocks, family: bad})):
        with pytest.raises(ShapeMismatch) as exc:
            build()
        assert str(exc.value) == built
    with pytest.raises(read[0]) as exc:
        bowfile.parse(edited_bow(d, family, bad))
    assert str(exc.value) == read[1]


def test_chain_endpoints_are_checked_against_the_nut_chain(u2):
    # beta_n is the NUT chain's first node and beta_0 its last: each is
    # checked as betaN[0] and betaN[k] too, before the Mxi and Mpsi it meets
    d = generate(suite_topology(2, 2, 1), seed=0)
    for j, message in ((0, "betaN[0] has shape (1, 1), expected (2, 2)"),
                       (2, "betaN[2] has shape (2, 2), expected (3, 3)")):
        dn = list(d.dims.dn)
        dn[j] += 1
        with pytest.raises(ShapeMismatch) as exc:
            BowDatum.assemble(d.topo, **families(d), dims=DimensionVector(d.dims.d, dn))
        assert str(exc.value) == message
    # charge balance broken (m0 = 2, nd = (0,)): d_n = 1 but dn_0 = 2
    with pytest.raises(ShapeMismatch) as exc:
        bowfile.parse(edited_bow(u2, "beta", u2.beta, {"m0": 2, "nd": [0]}))
    assert str(exc.value) == "bow: betaN[0] has shape (1, 1), expected (2, 2)"


def test_perturbing_names_only_independent_matrices(u2):
    # the chain endpoints betaN[0] and betaN[k] are beta[n] and beta[0], named so
    for name in ("betaN[0]", "betaN[1]", "delta[0]", "beta[3]"):
        with pytest.raises(KeyError, match=re.escape(f"unknown matrix {name!r}")):
            with_perturbed_entry(u2, name, (0, 0), 1.0)
    shifted = with_perturbed_entry(u2, "beta[2]", (0, 0), 1.0)
    assert shifted.betaN[0] is shifted.beta[2] and shifted.betaN[0][0, 0] == u2.beta[2][0, 0] + 1.0


# --------------------------------------------------------------- exactness

def test_exactness_passes_on_toy_chain():
    d = toy_chain_datum(0.0, 1.0, A=1.0, alpha=1.0, gamma=1.0)
    assert check_exactness(d, 0).passed


def test_exactness_fails_on_zero_matrices_with_witness():
    d = toy_chain_datum(0.0, 0.0, A=0.0, alpha=1.0, gamma=0.0)
    res = check_exactness(d, 0)
    assert res.status == "fail"
    kernel_side = [w for w in res.witnesses if w.side == "kernel"]
    assert kernel_side and abs(kernel_side[0].eta) < 1e-12
    np.testing.assert_allclose(np.abs(kernel_side[0].vector), [1.0])


def straddle_datum(alpha0):
    """d = (2, 2) with beta_0 = 0, gamma_0 = [1, 0], A_0 = diag(0, c): the
    kernel-side stack at eta = 0 has singular values (1, c), c the cutoff.
    beta_1 = diag(1, 2) keeps the cokernel side well clear of it unless
    alpha0 leaves a left eigenvector of beta_1 in ker A_0^T."""
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=2, z=(0.25,))
    c = la.rank_cutoff(1.0, (5, 2))
    return BowDatum.assemble(
        t,
        beta=[np.zeros((2, 2), dtype=complex), np.diag([1.0, 2.0]).astype(complex)],
        A=[np.diag([0.0, c]).astype(complex)],
        alpha=[np.array(alpha0, dtype=complex).reshape(2, 1)],
        gamma=[np.array([[1.0, 0.0]], dtype=complex)],
        betaN_interior=[],
        Mxi=[np.eye(2, dtype=complex)],
        Mpsi=[np.eye(2, dtype=complex)],
    )


def test_exactness_straddle_is_indeterminate():
    res = check_exactness(straddle_datum([1.0, 1.0]), 0)
    assert res.status == "indeterminate" and not res.passed
    assert res.witnesses == ()
    assert "kernel side at eta=0" in res.detail and "straddle cutoff" in res.detail


def test_exactness_witness_outranks_straddle():
    # alpha0 = (0, 1) leaves the left eigenvector (1, 0) of beta_1 = diag(1, 2)
    # at eta = 1 annihilated by A_0 and alpha_0: a real witness
    res = check_exactness(straddle_datum([0.0, 1.0]), 0)
    assert res.status == "fail"
    assert [(w.side, w.eta) for w in res.witnesses] == [("cokernel", 1.0)]


def test_exactness_vacuous_for_empty_blocks():
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=0, z=(0.0,))
    d = BowDatum.assemble(
        t,
        beta=[np.zeros((0, 0)), np.zeros((0, 0))],
        A=[np.zeros((0, 0))],
        alpha=[np.zeros((0, 1))],
        gamma=[np.zeros((1, 0))],
        betaN_interior=[],
        Mxi=[np.zeros((0, 0))],
        Mpsi=[np.zeros((0, 0))],
    )
    assert validate_relations(d).passed
    assert check_exactness(d, 0).passed
    assert check_chain_invariants(d).passed


def test_exactness_gauge_invariance(u2):
    # general invertible gauges, not just unitary ones
    rng = np.random.default_rng(5)
    g = [np.eye(size) + 0.3 * ginibre(rng, size, size) for size in u2.dims.d]
    assert all(np.linalg.cond(gi) < 50 for gi in g if gi.size)
    conjugated = gauge_transform(u2, g, [])
    assert validate_relations(conjugated, tol=1e-8).passed
    for i in range(u2.topo.n):
        assert check_exactness(conjugated, i).passed == check_exactness(u2, i).passed


def test_exactness_gauge_invariance_of_failure():
    # the degenerate witness survives conjugation
    from bowforge.generator import degenerate_example

    _, d = degenerate_example()
    rng = np.random.default_rng(8)
    g = [np.eye(1) + 0.3 * ginibre(rng, 1, 1) for _ in d.dims.d]
    conjugated = gauge_transform(d, g, [])
    assert not check_exactness(conjugated, 0).passed


# ---------------------------------------------------------- chain invariants

def test_chain_invariants_projector_example():
    # M_xi = (1,0)^T, M_psi = (1,0), z = 0, dn = (1, 2)
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(1,), nd=(1,), m0=1, z=(0.0,))
    assert compute_dimensions(t).dn == (1, 2)
    d = BowDatum.assemble(
        t,
        beta=[np.array([[1, 0], [0, 0]], dtype=complex), np.array([[1.0 + 0j]])],
        A=[np.array([[5.0, 1.0]], dtype=complex)],
        alpha=[np.array([[1.0 + 0j]])],
        gamma=[np.array([[0.0, 1.0]], dtype=complex)],
        betaN_interior=[],
        Mxi=[np.array([[1.0], [0.0]], dtype=complex)],
        Mpsi=[np.array([[1.0, 0.0]], dtype=complex)],
    )
    np.testing.assert_allclose(d.betaN[0], [[1.0]])
    np.testing.assert_allclose(d.betaN[1], [[1, 0], [0, 0]])
    assert validate_relations(d).passed
    report = check_chain_invariants(d)
    assert report.passed
    checks = {c.name: c for c in report.checks}
    assert checks["charpoly-telescope[1]"].residual < 1e-14
    assert checks["trace-step[1]"].residual < 1e-14


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_det_identity_pure_linear_algebra(p, q, seed):
    # det(tI - AB) = t^(p-q) det(tI - BA), tested coefficientwise via np.poly
    rng = np.random.default_rng(seed)
    A = ginibre(rng, p, q)
    B = ginibre(rng, q, p)
    cab = np.atleast_1d(np.poly(A @ B))
    cba = np.atleast_1d(np.poly(B @ A))
    if p >= q:
        expected = np.concatenate([cba, np.zeros(p - q)])
        np.testing.assert_allclose(cab, expected, atol=1e-8 * max(1, np.abs(cab).max()))
    else:
        expected = np.concatenate([cab, np.zeros(q - p)])
        np.testing.assert_allclose(cba, expected, atol=1e-8 * max(1, np.abs(cba).max()))


def test_chain_invariants_on_generated_data():
    for (n, k, m0) in [(1, 2, 2), (2, 2, 1), (3, 3, 2)]:
        d = generate(suite_topology(n, k, m0), seed=n + k + m0)
        assert validate_relations(d, tol=1e-10).passed
        report = check_chain_invariants(d, tol=1e-6)
        assert report.passed, report.failures()


def oracle_telescopes(d):
    """charpoly-telescope[j] residuals from np.poly of the matrices
    betaN_j - z_j I themselves, each decomposed afresh."""

    def charpoly(m):
        return np.atleast_1d(np.poly(m)).astype(np.complex128) if len(m) else np.ones(1, complex)

    out = []
    for j in range(1, d.topo.k + 1):
        z, ndj = d.topo.z[j - 1], d.topo.nd[j - 1]
        hi, lo = d.betaN[j], d.betaN[j - 1]
        big, small = (hi, lo) if ndj >= 0 else (lo, hi)
        cb = charpoly(big - z * np.eye(len(big)))
        shifted = np.concatenate([charpoly(small - z * np.eye(len(small))), np.zeros(abs(ndj))])
        num = np.max(np.abs(cb - shifted))
        out.append(num / (1.0 + np.max(np.abs(cb)) + np.max(np.abs(shifted))))
    return out


def telescopes(d):
    checks = {c.name: c for c in check_chain_invariants(d).checks}
    return [checks[f"charpoly-telescope[{j}]"].residual for j in range(1, d.topo.k + 1)]


def test_telescopes_from_kept_spectra_match_matrix_oracle():
    data = [generate(suite_topology(*key), seed) for key in SUITE for seed in (1, 2, 3)]
    data += [bowfile.parse((FIXTURES / f"{name}.json").read_text()).datum for name in BOW_FIXTURES]
    for d in data:
        np.testing.assert_allclose(telescopes(d), oracle_telescopes(d), rtol=0, atol=1e-13)


@pytest.mark.parametrize("key", [(1, 2, 1), (2, 3, 2), (3, 3, 3)])
def test_perturbed_interior_node_fails_its_telescopes(key):
    # the perturbed datum keeps its own spectra, not its parent's
    d = generate(suite_topology(*key), seed=3)
    assert check_chain_invariants(d).passed
    for j in range(1, d.topo.k):
        mutated = with_perturbed_entry(d, f"betaN[{j}]", (0, 0), 1e-3)
        residuals = telescopes(mutated)
        np.testing.assert_allclose(residuals, oracle_telescopes(mutated), rtol=0, atol=1e-13)
        assert min(residuals[j - 1], residuals[j]) > 10 * la.DERIVED_TOL
        assert {c.name for c in check_chain_invariants(mutated).failures()} >= {
            f"charpoly-telescope[{j}]", f"charpoly-telescope[{j + 1}]"}


def test_aggregate_maps_single_step(u2):
    mxi_hat, mpsi_hat = aggregate_maps(u2)
    np.testing.assert_array_equal(mxi_hat, u2.Mxi[0])
    np.testing.assert_array_equal(mpsi_hat, u2.Mpsi[0])


def test_aggregate_maps_empty_blocks(canon):
    d = canon["u1-single-nut"].datum
    mxi_hat, mpsi_hat = aggregate_maps(d)
    assert mxi_hat.shape == (1, 0) and mpsi_hat.shape == (0, 1)


def test_aggregate_intertwining_two_steps():
    d = generate(suite_topology(2, 2, 1), seed=9)
    mxi_hat, mpsi_hat = aggregate_maps(d)
    n = d.topo.n
    assert np.linalg.norm(mpsi_hat @ d.beta[0] - d.beta[n] @ mpsi_hat) < 1e-10
    assert np.linalg.norm(mxi_hat @ d.beta[n] - d.beta[0] @ mxi_hat) < 1e-10


def test_mutation_detection(u2):
    rng = np.random.default_rng(17)
    names = [nm for nm, m in u2.all_matrices().items() if m.size > 0]
    for _ in range(5):
        name = names[rng.integers(len(names))]
        mat = u2.all_matrices()[name]
        idx = (int(rng.integers(mat.shape[0])), int(rng.integers(mat.shape[1])))
        mutated = with_perturbed_entry(u2, name, idx, 1e-3)
        worst = max(
            c.residual for report in (validate_relations(mutated), check_chain_invariants(mutated))
            for c in report.checks
        )
        assert worst > 1e-6, (name, idx)


def test_validation_report_semantics(u2):
    report = validate_relations(u2, tol=1e-10)
    assert report.passed and report.verdict == "pass" and not report.failures()
    strict = validate_relations(u2, tol=1e-20)
    assert not strict.passed and strict.verdict == "fail"
