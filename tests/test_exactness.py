"""datum_exactness against the per-stack reference it replaced.

The reference ranks each eigenvalue stack with its own full SVD
(la.null_space); datum_exactness ranks every stack of a datum from one
padded values-only SVD and builds a kernel only where a stack is deficient.
Statuses, details and witness bytes must agree.
"""

from collections import Counter

import numpy as np
import pytest

from bowforge import _linalg as la
from bowforge import bowdata
from bowforge.bowdata import (
    FAIL,
    INDETERMINATE,
    PASS,
    BowDatum,
    ExactnessResult,
    ExactnessWitness,
    check_exactness_all,
    datum_exactness,
    validate_relations,
)
from bowforge.errors import RankIndeterminate
from bowforge.generator import degenerate_example, generate, generate_mirror
from bowforge.monad import ScanConfig, random_points, scan_local_freeness
from bowforge.orthosymplectic import fiber_form, verify_pairing_relations
from bowforge.topology import TopologicalData

from _suites import suite_topology
from test_bowdata import straddle_datum
from test_kept_reports import data, fresh, witnesses

GROUPS = ["fixtures", "canonical", "degenerate", "suite", "straddle"]


def cases(group):
    if group == "straddle":
        return [straddle_datum([1.0, 1.0]), straddle_datum([0.0, 1.0])]
    return data(group)


def reference_step_exactness(b, i):
    """Step i's exactness with one la.null_space (a full SVD) per stack."""
    lo, hi = b.beta[i], b.beta[i + 1]
    found: list[ExactnessWitness] = []
    straddles: list[str] = []
    eye_lo = np.eye(lo.shape[0], dtype=np.complex128)
    eye_hi = np.eye(hi.shape[0], dtype=np.complex128)
    a_h, alpha_h = b.A[i].conj().T, b.alpha[i].conj().T
    stacks = [("kernel", eta, [eta * eye_lo - lo, b.gamma[i], b.A[i]]) for eta in b.clusters[i]]
    stacks += [("cokernel", eta, [(eta * eye_hi - hi).conj().T, a_h, alpha_h]) for eta in b.clusters[i + 1]]
    for side, eta, stack in stacks:
        try:
            kernel = la.null_space(np.vstack(stack))
        except RankIndeterminate as exc:
            straddles.append(f"{side} side at eta={eta:.6g}: {exc}")
            continue
        if kernel.shape[1] > 0:
            vector = kernel[:, 0] if side == "kernel" else kernel[:, 0].conj()
            found.append(ExactnessWitness(side, eta, vector))
    if found:
        return ExactnessResult(i, FAIL, tuple(found))
    if straddles:
        return ExactnessResult(i, INDETERMINATE, detail="; ".join(straddles))
    return ExactnessResult(i, PASS)


def summary(results):
    return [(r.index, r.status, r.detail, witnesses(r)) for r in results]


@pytest.mark.parametrize("budget", [None, 0])
@pytest.mark.parametrize("group", GROUPS)
def test_datum_exactness_matches_per_stack_reference(monkeypatch, group, budget):
    # budget 0 takes the path of a datum past EXACTNESS_STACK_BYTES: one
    # padded SVD per side of a step
    if budget is not None:
        monkeypatch.setattr(bowdata, "EXACTNESS_STACK_BYTES", budget)
    statuses = Counter()
    for d in cases(group):
        reference = [reference_step_exactness(fresh(d), i) for i in range(d.topo.n)]
        assert summary(datum_exactness(fresh(d))) == summary(reference)
        statuses.update(r.status for r in reference)
    if group in ("degenerate", "straddle"):
        assert statuses[FAIL] + statuses[INDETERMINATE] > 0


@pytest.mark.parametrize("group", GROUPS)
def test_one_values_only_svd_per_datum(monkeypatch, group):
    # one batched values-only SVD per datum, and a kernel only for each
    # deficient stack, which takes a full SVD (of a stack of one, through
    # la.null_spaces) unless the stack is zero
    svd, null_space = np.linalg.svd, la.null_space
    calls, kernels = [], []

    def counting_svd(m, *args, compute_uv=True, **kwargs):
        calls.append((np.ndim(m), compute_uv))
        return svd(m, *args, compute_uv=compute_uv, **kwargs)

    def counting_null_space(m, rank=None):
        kernels.append(la.fro(m) > 0)
        return null_space(m, rank)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(la, "null_space", counting_null_space)
    for d in cases(group):
        d = fresh(d)
        d.clusters  # the eigensolver runs before the count starts
        calls.clear()
        kernels.clear()
        results = datum_exactness(d)
        assert len(kernels) == sum(len(r.witnesses) for r in results)
        assert calls == [(3, False)] + [(3, True)] * sum(kernels)


def test_a_large_datum_ranks_one_side_per_svd(monkeypatch):
    # its stacks pass EXACTNESS_STACK_BYTES, so each padded SVD holds the
    # stacks of one side of a step, and the memory held stays near theirs
    d = fresh(generate(suite_topology(3, 3, 10), seed=101))
    d.clusters
    svd = np.linalg.svd
    batches = []

    def counting_svd(m, *args, **kwargs):
        if np.ndim(m) == 3:
            batches.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    results = datum_exactness(d)
    monkeypatch.undo()
    assert [len(c) for i in range(d.topo.n) for c in d.clusters[i : i + 2]] == [k for k, _, _ in batches]
    assert sum(k * rows * cols for k, rows, cols in batches) * 16 > bowdata.EXACTNESS_STACK_BYTES
    assert summary(results) == summary([reference_step_exactness(d, i) for i in range(d.topo.n)])


def scaled(d, c):
    """The datum with beta, A, alpha and gamma multiplied by c."""
    return BowDatum.assemble(
        d.topo,
        beta=[c * m for m in d.beta],
        A=[c * m for m in d.A],
        alpha=[c * m for m in d.alpha],
        gamma=[c * m for m in d.gamma],
        betaN_interior=d.betaN[1:-1],
        Mxi=d.Mxi,
        Mpsi=d.Mpsi,
        dims=d.dims,
    )


@pytest.mark.parametrize("c", [1e-3, 1e3])
@pytest.mark.parametrize("group", ["fixtures", "canonical", "suite"])
def test_exactness_statuses_are_scale_invariant(group, c):
    # every stack scales by c, so no rank, and no status, may change
    for d in cases(group):
        before = [r.status for r in check_exactness_all(d)]
        assert [r.status for r in check_exactness_all(scaled(d, c))] == before


def verdicts(exact, scanned):
    out = []
    for d in exact:
        results = datum_exactness(fresh(d))
        out.append([(r.status, [(w.side, w.eta) for w in r.witnesses]) for r in results])
    for d in scanned:
        report = scan_local_freeness(fresh(d), ScanConfig(n_random=4, seed=2))
        out.append([(p.status, p.fiber_rank, p.locally_free, p.reason) for p in report.points])
    return out


def test_verdicts_survive_svd_nonconvergence(monkeypatch):
    # every SVD retries with gesvd when numpy's gesdd fails to converge
    exact = [d for group in ("canonical", "degenerate", "straddle") for d in cases(group)]
    scanned = [degenerate_example()[1], generate(suite_topology(3, 3, 3), seed=101)]
    expected = verdicts(exact, scanned)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert verdicts(exact, scanned) == expected
    # so do generation (rank_factorization builds every NUT chain), the
    # K-invertible checks of the pairing and fiber_form's degeneracy check
    d = generate(suite_topology(2, 2, 2), seed=5)
    assert validate_relations(d).passed and all(r.passed for r in check_exactness_all(d))
    mirrors = [
        (TopologicalData(n=2, k=3, ell=1.0, lam=(0.25, 0.75), m=(0, 0), nd=(0, 0, 0), m0=2,
                         z=(0.3 - 0.2j, -0.5 + 0.1j, 0.8 + 0.6j)), "SO"),
        (TopologicalData(n=2, k=1, ell=1.0, lam=(0.2, 0.8), m=(-1, 1), nd=(0,), m0=3,
                         z=(0.1 + 0.2j,)), "Sp"),
    ]
    for t, flavor in mirrors:
        datum, pairing = generate_mirror(t, flavor, seed=4)
        assert verify_pairing_relations(datum, pairing).passed
        for x in random_points(datum, 3, seed=1):
            assert fiber_form(datum, pairing, x).shape == (2, 2)
