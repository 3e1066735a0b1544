"""What a BowDatum keeps: its chain spectra and its tolerance-free reports.

Each kept value must equal a direct computation bitwise, belong to its own
datum only, refuse writes, and be computed once however often the
validators run.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from bowforge import _linalg as la
from bowforge import bowdata, bowfile, generator
from bowforge.bowdata import (
    chain_invariant_residuals,
    check_chain_invariants,
    check_exactness,
    check_exactness_all,
    datum_exactness,
    gauge_transform,
    p_step_residuals,
    sylvester_residuals,
    validate_relations,
    with_perturbed_entry,
)
from bowforge.generator import canonical_examples, degenerate_example, generate, ginibre
from bowforge.monad import random_points, structured_points
from bowforge.orthosymplectic import p_pairing_matrix

from _suites import BOW_FIXTURES, FIXTURES, count_eigensolver_calls, suite_topology

SUITE = [(n, k, m0) for n in (1, 2, 3) for k in (1, 2, 3) for m0 in (0, 1, 2, 3)]


def data(group):
    if group == "fixtures":
        return [bowfile.parse((FIXTURES / f"{n}.json").read_text()).datum for n in BOW_FIXTURES]
    if group == "canonical":
        return [e.datum for e in canonical_examples()]
    if group == "degenerate":
        return [degenerate_example()[1]]
    return [generate(suite_topology(*key), seed) for key in SUITE for seed in (1, 2)]


def fresh(d):
    """The same matrices in a new datum, which keeps nothing yet."""
    return dataclasses.replace(d)


def bits(named):
    return [(nm, type(r), np.float64(r).tobytes()) for nm, r in named]


def witnesses(result):
    return [(w.side, w.eta, w.vector.tobytes()) for w in result.witnesses]


@pytest.mark.parametrize("group", ["fixtures", "canonical", "degenerate", "suite"])
def test_kept_values_equal_direct_computation(group):
    for d in data(group):
        relations = bits(sylvester_residuals(fresh(d)) + p_step_residuals(fresh(d)))
        invariants = bits(chain_invariant_residuals(fresh(d)))
        assert bits(d.relation_residuals) == relations
        assert bits(d.invariant_residuals) == invariants
        for tol in (1e-8, 1e-10):
            assert bits((c.name, c.residual) for c in validate_relations(d, tol).checks) == relations
        assert bits((c.name, c.residual) for c in check_chain_invariants(d).checks) == invariants

        direct = datum_exactness(fresh(d))
        kept = check_exactness_all(d)
        assert [(r.index, r.status, r.detail) for r in kept] == [
            (r.index, r.status, r.detail) for r in direct
        ]
        assert [witnesses(r) for r in kept] == [witnesses(r) for r in direct]
        assert [check_exactness(d, i) for i in range(d.topo.n)] == kept

        chain = (*d.beta, *d.betaN[1:-1])
        assert len(d.eigenvalues) == len(chain)
        for vals, m in zip(d.eigenvalues, chain):
            assert vals.tobytes() == la.eigenvalues(m).tobytes()
        assert d.spectrum_clusters == tuple(la.cluster_eigenvalues(fresh(d).spectra()))


def test_one_datum_at_two_tolerances():
    d = canonical_examples()[2].datum  # u2-basic
    loose, strict = validate_relations(d, tol=1e-10), validate_relations(d, tol=1e-20)
    assert loose.passed and not strict.passed
    assert [c.tol for c in loose.checks] == [1e-10] * len(loose.checks)
    assert [c.passed for c in strict.checks] == [c.residual < 1e-20 for c in strict.checks]
    assert validate_relations(d, tol=1e-10).passed  # the strict report left nothing behind
    assert check_chain_invariants(d, tol=1e-6).passed
    assert not check_chain_invariants(d, tol=0.0).passed


def test_new_data_keep_their_own_reports():
    d = generate(suite_topology(2, 2, 1), seed=4)
    assert validate_relations(d).passed and all(r.passed for r in check_exactness_all(d))

    mutated = with_perturbed_entry(d, "A[0]", (0, 0), 1e-3)
    assert not {c.name: c for c in validate_relations(mutated).checks}["sylvester[0]"].passed
    assert bits(mutated.relation_residuals) == bits(
        sylvester_residuals(mutated) + p_step_residuals(mutated)
    )

    rng = np.random.default_rng(6)
    g = [np.eye(s) + 0.3 * ginibre(rng, s, s) for s in d.dims.d]
    g_p = [np.eye(s) + 0.3 * ginibre(rng, s, s) for s in d.dims.dn[1:-1]]
    conjugated = gauge_transform(d, g, g_p)
    assert bits(conjugated.invariant_residuals) != bits(d.invariant_residuals)
    assert bits(conjugated.invariant_residuals) == bits(chain_invariant_residuals(conjugated))
    for vals, m in zip(conjugated.eigenvalues, conjugated.beta):
        assert vals.tobytes() == la.eigenvalues(m).tobytes()


def test_kept_arrays_refuse_writes():
    _, d = degenerate_example()
    result = check_exactness(d, 0)
    assert result.status == "fail" and result.witnesses
    with pytest.raises(ValueError, match="read-only"):
        result.witnesses[0].vector[0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        d.eigenvalues[0][...] = 7.0
    kept_values = (d.eigenvalues, d.clusters, d.spectrum_clusters, d.relation_residuals,
                   d.invariant_residuals, d.exactness)
    for kept in kept_values:
        assert isinstance(kept, tuple)
    check_exactness_all(d).clear()  # the caller's list, not the kept tuple
    assert check_exactness(d, 0) == result


def test_structured_points_cluster_the_spectrum_once_per_datum(monkeypatch):
    cluster = la.cluster_eigenvalues
    clustered = []

    def counting(vals):
        clustered.append(len(vals))
        return cluster(vals)

    d = fresh(generate(suite_topology(3, 3, 2), seed=8))
    monkeypatch.setattr(la, "cluster_eigenvalues", counting)
    points = structured_points(d)
    assert structured_points(d) == points
    assert clustered == [len(d.spectra())]
    assert {x.eta for x in points} <= {*d.spectrum_clusters, *d.topo.z}


def test_eigensolver_failure_is_indeterminate_and_not_kept(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    u2 = canonical_examples()[2].datum
    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    d = fresh(u2)  # built inside the patch, so nothing kept can hide it
    for result in [check_exactness(d, 0), *check_exactness_all(d)]:
        assert result.status == "indeterminate" and not result.witnesses
        assert "eigensolver failed" in result.detail
    assert "eigenvalues" not in vars(d) and "exactness" not in vars(d)
    monkeypatch.undo()
    assert [r.status for r in check_exactness_all(d)] == ["pass", "pass"]


def test_generate_then_validate_computes_each_report_once(monkeypatch):
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("sylvester_residuals", "p_step_residuals", "chain_invariant_residuals", "datum_exactness"):
        counting(bowdata, name)
    counting(generator, "_run_checks")
    d = generate(suite_topology(3, 2, 2), seed=5)
    for tol in (1e-8, 1e-10):
        assert validate_relations(d, tol=tol).passed
        assert check_chain_invariants(d, tol=1e-6).passed
        assert all(r.passed for r in check_exactness_all(d))
    checked = calls["_run_checks"]  # one datum per attempt that built one
    assert checked >= 1
    assert calls == {
        "_run_checks": checked,
        "sylvester_residuals": checked,
        "p_step_residuals": checked,
        "chain_invariant_residuals": checked,
        "datum_exactness": checked,
    }


@pytest.mark.parametrize("name", ["generated", "so2-mirror"])
def test_each_chain_endomorphism_decomposed_once(monkeypatch, name):
    if name == "generated":
        d, pairing = generate(suite_topology(3, 3, 2), seed=8), None
    else:
        example = {e.name: e for e in canonical_examples()}[name]
        d, pairing = example.datum, example.pairing
    d = fresh(d)
    decomposed = Counter()
    count_eigensolver_calls(monkeypatch, lambda a: decomposed.update([id(a)]))
    for _ in range(2):
        validate_relations(d)
        check_chain_invariants(d)
        check_exactness_all(d)
        for i in range(d.topo.n):
            check_exactness(d, i)
        d.spectra()
        structured_points(d)
        eta = random_points(d, 3, seed=1)[0].eta
        if pairing is not None:
            for i in range(d.topo.n):
                p_pairing_matrix(d, pairing, i, eta)
    chain = [m for m in (*d.beta, *d.betaN[1:-1]) if m.shape[0] > 0]
    assert decomposed == Counter(id(m) for m in chain)
