import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import sympy

from bowforge.bowdata import gauge_transform
from bowforge import _linalg as la
from bowforge import bowfile
from bowforge.errors import RankIndeterminate, SurfaceViolation
from bowforge.generator import canonical_examples, degenerate_example, generate, ginibre
from bowforge.monad import (
    MonadStack,
    ScanConfig,
    SurfacePoint,
    assemble_monad,
    block_layout,
    fiber_at,
    is_locally_free_at,
    lift_commutativity_residuals,
    monad_assembler,
    monad_dimensions,
    random_points,
    scan_local_freeness,
    structured_points,
)
from bowforge.topology import TopologicalData

from _suites import suite_topology


@pytest.fixture(scope="module")
def canon():
    return {e.name: e for e in canonical_examples()}


@pytest.fixture(scope="module")
def u2(canon):
    return canon["u2-basic"].datum


def point(datum, xi, eta):
    return SurfacePoint.from_xi_eta(datum.topo.z, xi, eta)


def alpha_beta_tilde(m, j):
    """alpha and beta_tilde of point j of a stack: Amap = (alpha; -beta_tilde)."""
    dim_b = m.block_index.dims[1]
    return m.Amap[j][:dim_b], -m.Amap[j][dim_b:]


def map_dims(m):
    """(dimA, dimB, dimC, dimD) as read off the shapes of a stack's maps."""
    dim_c, dim_bc, dim_a = m.Bmap.shape[1], m.Amap.shape[1], m.Amap.shape[2]
    return dim_a, dim_bc - dim_c, dim_c, dim_c


def alone(stack, j):
    """Point j of a stack as a stack of one."""
    one = slice(j, j + 1)
    return MonadStack(stack.points[one], stack.Amap[one], stack.Bmap[one], stack.mu[one], stack.block_index)


def oracle_fiber_rank(m, j):
    """Independent rank count at point j: dim ker(Bmap) - rank(Amap) via plain SVDs."""
    dim_k = m.Bmap[j].shape[1] - np.linalg.matrix_rank(m.Bmap[j])
    return dim_k - np.linalg.matrix_rank(m.Amap[j])


def oracle_locally_free(m, j):
    """Kernel-quotient construction at point j: is beta_tilde injective on
    ker(alpha) / Im(mu)?

    Builds representatives of the quotient and ranks their image against
    ||beta_tilde||_2.  Returns (passed, quotient_dim).
    """
    alpha, beta_tilde = alpha_beta_tilde(m, j)
    kernel = la.null_space(alpha)
    reps = kernel @ la.null_space(m.mu[j].conj().T @ kernel)
    q = reps.shape[1]
    if q == 0:
        return True, 0
    s = np.linalg.svd(beta_tilde @ reps, compute_uv=False)
    cut = la.rank_cutoff(np.linalg.norm(beta_tilde, 2), (beta_tilde.shape[0], q))
    if np.any((s > cut / la.STRADDLE_FACTOR) & (s < cut * la.STRADDLE_FACTOR)):
        raise RankIndeterminate(f"singular values {s} straddle cutoff {cut:.3e}")
    return bool(np.count_nonzero(s > cut) == q), q


def dense_rank(m):
    """Rank of a whole map, as the block ranks of MonadStack replace it."""
    return la.rank_decision(np.linalg.svd(m, compute_uv=False), m.shape) if m.size else 0


def dense_verdict(m, j):
    """(status, fiber rank, passed, quotient_dim) at point j of a stack from
    dense ranks of the whole maps, with both zero-product checks; every field
    None when indeterminate."""
    amap, bmap, mu = m.Amap[j], m.Bmap[j], m.mu[j]
    dim_a = amap.shape[1]
    try:
        for left, right in ((bmap, amap), (amap, mu)):
            residual = la.fro(left @ right) / (1.0 + la.fro(left) * la.fro(right))
            if not residual < la.DEFAULT_TOL:
                raise RankIndeterminate("nonzero product")
        rank_amap, rank_mu = dense_rank(amap), dense_rank(mu)
        passed = dim_a - rank_amap == rank_mu
        return (
            "ok" if passed else "fail",
            bmap.shape[1] - dense_rank(bmap) - rank_amap,
            passed,
            dim_a - dense_rank(alpha_beta_tilde(m, j)[0]) - rank_mu,
        )
    except RankIndeterminate:
        return ("indeterminate", None, None, None)


def block_verdict(m, j):
    """The same four fields from fiber_rank(j) and locally_free(j) of a stack."""
    try:
        rank, free = m.fiber_rank(j), m.locally_free(j)
    except RankIndeterminate:
        return ("indeterminate", None, None, None)
    return ("ok" if free.passed else "fail", rank, free.passed, free.quotient_dim)


# ---------------------------------------------------------------- assembly

def test_u1_monad_dimensions(canon):
    d = canon["u1-single-nut"].datum
    m = assemble_monad(d, point(d, 1.0, 2.0 + 0.3j))
    assert map_dims(m) == m.block_index.dims == (3, 3, 1, 1)
    assert monad_dimensions(d.dims) == (3, 3, 1, 1)


def test_u2_block_offsets_golden(u2):
    # d = (2, 2, 1): offsets recomputed by hand from the dimension vector
    m = assemble_monad(u2, point(u2, 1.0, 2.0 + 0j))
    assert m.block_index.A == {
        "P0": (0, 2), "P1": (2, 2), "R0": (4, 2), "R1": (6, 1), "R2": (7, 2), "R3": (9, 1),
    }
    assert m.block_index.B == {"P0": (0, 3), "P1": (3, 3), "R": (6, 3)}
    assert m.block_index.C == {"Q0": (0, 2), "Q1": (2, 2), "Q2": (4, 1)}
    assert m.block_index.F == {"F0": (0, 2), "F1": (2, 1)}
    assert map_dims(m) == m.block_index.dims == (10, 9, 5, 5)


def test_assembled_points_share_no_array(u2):
    assemble = monad_assembler(u2)
    p, q = random_points(u2, 2, seed=8)
    stack = assemble([p, q])
    fresh = assemble_monad(u2, q)
    maps = ("Amap", "Bmap", "mu")  # alpha and beta_tilde are Amap's rows
    for name in maps:
        getattr(stack, name)[0][...] = 7.0
    third = assemble([q])  # the templates are untouched too
    for name in maps:
        np.testing.assert_array_equal(getattr(stack, name)[1], getattr(fresh, name)[0])
        np.testing.assert_array_equal(getattr(third, name), getattr(fresh, name))


def test_surface_violation_rejected(u2):
    with pytest.raises(SurfaceViolation):
        assemble_monad(u2, SurfacePoint(1.0, 1.0, 123.0))
    # a NaN residual is no pass: the check asks for residual < tol
    for bad in (SurfacePoint(float("nan"), 1.0, 1.0), SurfacePoint(1.0, 1.0, float("nan"))):
        with pytest.raises(SurfaceViolation, match="residual nan"):
            assemble_monad(u2, bad)
    # from_xi_eta builds no non-finite point in the first place
    for xi, eta in [(float("nan"), 1.0), (1.0, float("inf")), (1e-320, 1.0)]:
        with pytest.raises(ValueError, match="must be finite"):
            point(u2, xi, eta)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "xi, eta",
    [(NAN, 1.0), (INF, 1.0), (complex(1.0, NAN), 1.0), (complex(-INF, 0.0), 1.0),
     (1.0, NAN), (1.0, -INF), (1.0, complex(0.5, INF)), (1.0, complex(NAN, 0.0)),
     (1e-320, 3.0), (1e-320j, 3.0), (complex(1e-320, -1e-320), 2.0 + 1.0j)],
)
@pytest.mark.parametrize("z", [(), (1.0 + 0j,), (0.3 - 0.2j, -1.5 + 0j, 2j)])
def test_from_xi_eta_rejects_non_finite_points(xi, eta, z):
    # a subnormal xi makes psi = prod(eta - z_i) / xi overflow
    with pytest.raises(ValueError, match="must be finite"):
        SurfacePoint.from_xi_eta(z, xi, eta)


@pytest.mark.parametrize("xi", [0, 0.0, -0.0, 0j, complex(-0.0, 0.0)])
def test_from_xi_eta_rejects_xi_zero(xi):
    with pytest.raises(ValueError, match="xi must be nonzero"):
        SurfacePoint.from_xi_eta((1.0 + 0j,), xi, 0.5)


def test_from_xi_eta_psi_is_the_left_to_right_product():
    # psi is ((1 (eta - z_1)) (eta - z_2)) ... / xi, the product numpy's prod
    # takes from its identity, bitwise; and 1 / xi with no NUTs
    rng = np.random.default_rng(11)
    for k in range(6):
        for _ in range(200):
            z = tuple(complex(*v) for v in rng.normal(size=(k, 2)) * 10.0 ** rng.integers(-3, 4))
            eta = complex(*rng.normal(size=2)) if k == 0 or rng.uniform() < 0.8 else z[0]
            xi = complex(*rng.normal(size=2))
            x = SurfacePoint.from_xi_eta(z, xi, eta)
            psi = complex(np.prod([eta - zi for zi in z])) / xi if z else (1.0 + 0j) / xi
            assert (x.xi, x.eta) == (xi, eta)
            assert np.array([x.psi]).tobytes() == np.array([psi]).tobytes()
    # numpy's prod starts from 1, and 1 * (-0 - 1j) is +0 - 1j: signed zeros follow it
    for eta, z in [(complex(-0.0, 0.0), (1j,)), (complex(-0.0, -0.0), (0j, 1j)), (-1.0 + 0j, (-1.0, 0.5j))]:
        psi = complex(np.prod([eta - zi for zi in z])) / (1.0 + 0j)
        x = SurfacePoint.from_xi_eta(z, 1.0, eta)
        assert np.array([x.psi]).tobytes() == np.array([psi]).tobytes()


def numpy_random_points(b, n_random, seed):
    """random_points as it was written with numpy scalars: the reference
    that the Python-scalar version must reproduce bitwise."""
    rng = np.random.default_rng(seed)
    spectrum = b.spectra() + list(b.topo.z)
    center = complex(np.mean(spectrum)) if spectrum else 0.0 + 0.0j
    radius = max(2.0 * max((abs(v - center) for v in spectrum), default=0.5), 0.5)
    pts = []
    while len(pts) < n_random:
        rho = radius * np.sqrt(rng.uniform())
        eta = center + rho * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if any(abs(eta - v) < 1e-4 for v in spectrum):
            continue
        pts.append(SurfacePoint.from_xi_eta(b.topo.z, 10.0 ** rng.uniform(-1.0, 1.0), eta))
    return pts


def test_random_points_match_the_numpy_reference(canon):
    data = [e.datum for e in canon.values()] + [generate(suite_topology(3, 3, 3), seed=101)]
    for d in data:
        for seed in (0, 1, 7):
            points = random_points(d, 25, seed)
            reference = numpy_random_points(d, 25, seed)
            as_bytes = [np.array([(x.xi, x.psi, x.eta) for x in pts]).tobytes() for pts in (points, reference)]
            assert as_bytes[0] == as_bytes[1]


def test_surface_violation_names_the_first_point_off_the_surface(u2):
    assemble = monad_assembler(u2)
    pts = random_points(u2, 5, seed=2)
    assert len(assemble(pts)) == 5
    for off in (dataclasses.replace(pts[2], psi=pts[2].psi + 1.0), SurfacePoint(float("nan"), 1.0, 1.0)):
        stack = [*pts[:2], off, pts[3], dataclasses.replace(pts[4], xi=2 * pts[4].xi)]
        with pytest.raises(SurfaceViolation, match=re.escape(f"point {off} violates")):
            assemble(stack)


def test_composition_zero_on_generated_data():
    for (n, k, m0) in [(1, 1, 1), (2, 2, 1), (3, 1, 2)]:
        d = generate(suite_topology(n, k, m0), seed=n * 10 + k)
        for pt in random_points(d, 8, seed=n + k):
            m = assemble_monad(d, pt)
            assert m.composition_residuals[0] < 1e-8


def test_lift_commutativity_at_random_eta(u2):
    rng = np.random.default_rng(3)
    for _ in range(20):
        eta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r0, rn = lift_commutativity_residuals(u2, point(u2, 1.0, eta))
        assert r0 < 1e-8 and rn < 1e-8


# ------------------------------------------------------------------- fibers

def test_u1_fiber_rank_generic_and_exceptional(canon):
    d = canon["u1-single-nut"].datum
    generic = point(d, 1.0, 1.7 - 0.4j)
    assert fiber_at(d, generic).shape[1] == 1
    exceptional = SurfacePoint(0.0, 0.0, d.topo.z[0])  # node of the NUT fiber
    assert fiber_at(d, exceptional).shape[1] == 1


def test_fiber_matches_rank_count_oracle(u2):
    rng = np.random.default_rng(11)
    for _ in range(6):
        pt = point(u2, 10 ** rng.uniform(-1, 1), complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        m = assemble_monad(u2, pt)
        basis = fiber_at(u2, pt)
        assert basis.shape[1] == oracle_fiber_rank(m, 0)
        # basis is orthonormal, inside ker(Bmap), orthogonal to Im(Amap)
        amap, bmap = m.Amap[0], m.Bmap[0]
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        assert np.linalg.norm(bmap @ basis) < 1e-8 * (1 + np.linalg.norm(bmap))
        assert np.linalg.norm(basis.conj().T @ amap) < 1e-8 * (1 + np.linalg.norm(amap))


def _fiber_rank_data():
    data = [generate(suite_topology(3, 3, m0), seed=m0) for m0 in (3, 10)]
    data += [e.datum for e in canonical_examples()] + [degenerate_example()[1]]
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        bf = bowfile.parse(path.read_bytes())
        if bf.datum is not None:
            data.append(bf.datum)
    return data


def test_fiber_rank_matches_fiber_basis():
    compared = total = 0
    for d in _fiber_rank_data():
        stack = monad_assembler(d)(random_points(d, 6, seed=13) + structured_points(d))
        for j in range(len(stack)):
            total += 1
            try:
                rank, basis = stack.fiber_rank(j), stack.fiber(j)
            except RankIndeterminate:
                continue
            assert rank == basis.shape[1]
            compared += 1
    assert compared >= 0.9 * total


def test_fiber_rank_rules(u2):
    m = assemble_monad(u2, point(u2, 1.0, 2.1 + 0.4j))
    assert m.fiber_rank(0) == 2
    # Im(Amap) outside ker(Bmap): no rank is returned
    rng = np.random.default_rng(4)
    stray = dataclasses.replace(m, Amap=ginibre(rng, *m.Amap.shape[1:])[None])
    with pytest.raises(RankIndeterminate, match="not contained"):
        stray.fiber_rank(0)
    with pytest.raises(RankIndeterminate, match="not contained"):
        stray.fiber(0)
    # Im(mu) outside ker(Amap): no freeness verdict either
    with pytest.raises(RankIndeterminate, match="not contained"):
        stray.locally_free(0)


def test_u2_fiber_rank_at_ten_points(u2):
    for pt in random_points(u2, 10, seed=23):
        assert fiber_at(u2, pt).shape[1] == 2


def test_u1_charge_fiber_rank(canon):
    d = canon["u1-charge"].datum
    for pt in random_points(d, 6, seed=2) + structured_points(d):
        assert fiber_at(d, pt).shape[1] == 1


def test_trivial_line_bundle_fiber_rank():
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=0, z=(0.0,))
    d = generate(t, seed=0)  # all blocks empty
    for pt in random_points(d, 5, seed=4):
        assert fiber_at(d, pt).shape[1] == 1


def test_chart_consistency_under_gauge(u2):
    rng = np.random.default_rng(31)
    g = []
    for size in u2.dims.d:
        q, _ = np.linalg.qr(ginibre(rng, size, size))
        g.append(q)
    conjugated = gauge_transform(u2, g, [])
    pt = point(u2, 1.3, 1.9 - 0.7j)
    basis = fiber_at(u2, pt)
    basis_conj = fiber_at(conjugated, pt)
    # induced transformation on B (+) C: diag over P-blocks (g_i, 1), R-block
    # (g_0, g_n), then the C-blocks g_i
    blocks = []
    for i in range(u2.topo.n):
        blocks.append(scipy.linalg.block_diag(g[i], np.eye(1)))
    blocks.append(scipy.linalg.block_diag(g[0], g[u2.topo.n]))
    blocks.extend(g)
    T = scipy.linalg.block_diag(*blocks)
    angles = scipy.linalg.subspace_angles(T @ basis, basis_conj)
    assert np.max(angles) < 1e-6


# ----------------------------------------------------------- local freeness

def test_u1_locally_free_everywhere(canon):
    d = canon["u1-single-nut"].datum
    report = scan_local_freeness(d, ScanConfig(n_random=25, seed=7))
    assert report.all_pass and report.ranks_all_expected
    assert not report.indeterminate


def test_locally_free_far_from_spectra(u2):
    pt = point(u2, 1.0, 40.0 + 17.0j)  # eta far from every eigenvalue
    res = is_locally_free_at(u2, pt)
    assert res.passed and res.quotient_dim == 0  # ker(alpha) = Im(mu)


def test_locally_free_fails_with_witness(u2):
    m = assemble_monad(u2, point(u2, 1.3, 1.9 - 0.7j))
    assert m.locally_free(0).quotient_dim == 0
    # mu vanishes on the P-block rows, so zeroing a P-block column of Amap
    # puts e_j into ker(Amap) outside Im(mu) and keeps Amap mu = 0
    broken = zeroed_p_column(m)
    amap = broken.Amap[0]
    res = broken.locally_free(0)
    assert not res.passed and res.quotient_dim == 1
    assert oracle_locally_free(broken, 0) == (False, 1)
    w = res.witness
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert np.linalg.norm(amap @ w) < 1e-10
    assert np.linalg.norm(m.mu[0].conj().T @ w) < 1e-10


def zeroed_p_column(m):
    """m with a zeroed P-block column of Amap: a real freeness failure."""
    amap = m.Amap.copy()
    amap[..., m.block_index.A["P0"][0]] = 0.0
    return dataclasses.replace(m, Amap=amap)


def test_block_ranks_match_dense_oracle(u2):
    data = [generate(suite_topology(3, 3, m0), seed=s) for m0 in (3, 10) for s in (101, 202)]
    data += [e.datum for e in canonical_examples()] + [degenerate_example()[1]]
    monads, scanned, stacked = [], [], []
    for d in data:
        report = scan_local_freeness(d, ScanConfig(n_random=5, seed=1))
        stack = monad_assembler(d)([p.point for p in report.points])
        monads += [alone(stack, j) for j in range(len(stack))]
        scanned += [(p.status, p.fiber_rank, p.locally_free) for p in report.points]
        stacked += [block_verdict(stack, j) for j in range(len(stack))]
    monads.append(zeroed_p_column(assemble_monad(u2, point(u2, 1.3, 1.9 - 0.7j))))
    dense = [dense_verdict(m, 0) for m in monads]
    # the scan itself, chunked as it runs, agrees with the dense ranks; so
    # does a stack of all of a datum's points, and each point on its own
    assert scanned == [v[:3] for v in dense[:-1]]
    assert stacked == dense[:-1]
    verdicts = [block_verdict(m, 0) for m in monads]
    assert verdicts == dense
    statuses = [v[0] for v in verdicts]
    assert statuses.count("fail") == 1 and statuses.count("indeterminate") == 0


def test_cokernel_of_gamma_ranked_at_bmap_scale(u2):
    # Zero one Q-row of Bmap and refill it with noise at 1e-16 fro(Bmap).
    # gamma's block loses a rank, and W^H delta is that row's delta part.
    m = assemble_monad(u2, point(u2, 1.3, 1.9 - 0.7j))
    noisy = noisy_q_row(m)
    # ranked at its own sigma_max the noise would count as rank 1 ...
    w_delta = noisy.Bmap[0, m.block_index.C["Q1"][0], None, : m.block_index.dims[1]]
    assert la.rank_decision(np.linalg.svd(w_delta, compute_uv=False), w_delta.shape) == 1
    # ... at Bmap's scale it counts as 0, so Bmap loses a rank and the fiber gains one
    assert noisy.fiber_rank(0) == m.fiber_rank(0) + 1 == 3
    assert block_verdict(noisy, 0) == dense_verdict(noisy, 0) == ("ok", 3, True, 0)


def noisy_q_row(m):
    """m, a stack of one, with one Q-row of Bmap replaced by noise at 1e-16 fro(Bmap)."""
    bmap = m.Bmap.copy()
    noise = 1e-16 * la.fro(m.Bmap[0]) * ginibre(np.random.default_rng(5), 1, bmap.shape[2])
    bmap[0, m.block_index.C["Q1"][0]] = noise[0]
    return dataclasses.replace(m, Bmap=bmap)


def test_stack_answers_each_point_as_alone(u2):
    # points that differ in every per-point result, stacked: each must get
    # its own zero products, block ranks, W^H delta and rank(mu)
    m = assemble_monad(u2, point(u2, 1.3, 1.9 - 0.7j))
    thin_mu = m.mu.copy()
    thin_mu[:, :, 0] = 0.0  # rank(mu) drops by one, Amap mu stays zero
    rng = np.random.default_rng(4)
    changes = [
        {"mu": thin_mu},
        {"Bmap": ginibre(rng, *m.Bmap.shape[1:])[None]},  # Bmap Amap != 0, Amap mu = 0
        {"mu": ginibre(rng, *m.mu.shape[1:])[None]},  # Amap mu != 0, Bmap Amap = 0
        {"Amap": zeroed_p_column(m).Amap},
    ]
    monads = [m] + [dataclasses.replace(m, **change) for change in changes]
    monads += [noisy_q_row(m)] + [assemble_monad(u2, x) for x in structured_points(u2)[:2]]
    stack = MonadStack(
        tuple(x.points[0] for x in monads),
        *(np.concatenate([getattr(x, name) for x in monads]) for name in ("Amap", "Bmap", "mu")),
        m.block_index,
    )
    each = [block_verdict(x, 0) for x in monads]
    assert [block_verdict(stack, j) for j in range(len(stack))] == each
    assert each == [dense_verdict(x, 0) for x in monads]
    assert len(set(each)) >= 4


def test_locally_free_matches_kernel_quotient_oracle():
    compared = total = 0
    for d in _fiber_rank_data():
        stack = monad_assembler(d)(random_points(d, 6, seed=13) + structured_points(d))
        for j in range(len(stack)):
            total += 1
            try:
                res, expected = stack.locally_free(j), oracle_locally_free(stack, j)
            except RankIndeterminate:
                continue
            assert (res.passed, res.quotient_dim) == expected
            compared += 1
    assert compared >= 0.9 * total


def test_degenerate_datum_tor_criterion():
    # The all-zero degenerate datum breaks exactness (torsion in the
    # rank-one sheaf) but its monad kernel is still a line bundle, so the
    # pointwise criterion passes; see the decisions ledger for the analysis.
    t, d = degenerate_example()
    pt = SurfacePoint.from_xi_eta(t.z, 1.0, 0.0)
    assert fiber_at(d, pt).shape[1] == 1
    assert is_locally_free_at(d, pt).passed


@pytest.mark.parametrize("xi", [1.0, 10.0, 0.1])
def test_degenerate_datum_freeness_matches_exact_oracle(xi):
    # Criterion 5 asks this datum to fail freeness over eta = 0.  Its entries
    # are integers, so at a rational point the maps are rational and sympy
    # decides the criterion with no rank cutoff: beta_tilde must be
    # injective on ker(alpha) / Im(mu).
    t, d = degenerate_example()
    pt = SurfacePoint.from_xi_eta(t.z, xi, 0.0)
    numeric = assemble_monad(d, pt)

    def exact(v):  # the short decimal float repr recovers 1/10, -10, ...
        assert complex(v).imag == 0.0
        return sympy.Rational(repr(complex(v).real))

    # the rationalized point lies exactly on xi * psi = eta - z_1 = -1
    assert exact(numeric.points[0].xi) * exact(numeric.points[0].psi) == -1
    alpha, beta_t, mu = (
        sympy.Matrix(m.shape[0], m.shape[1], [exact(v) for v in m.ravel()])
        for m in (*alpha_beta_tilde(numeric, 0), numeric.mu[0])
    )
    kernel = sympy.Matrix.hstack(*alpha.nullspace())
    assert (alpha * mu).is_zero_matrix and (beta_t * mu).is_zero_matrix
    quotient_dim = kernel.shape[1] - mu.rank()
    assert (kernel.shape[1], mu.rank(), quotient_dim) == (4, 2, 2)
    # beta_tilde kills Im(mu), so it is injective on the quotient exactly
    # when its rank on ker(alpha) equals the quotient dimension
    exact_free = (beta_t * kernel).rank() == quotient_dim

    result = is_locally_free_at(d, pt)
    assert result.passed == exact_free
    assert result.quotient_dim == quotient_dim


def test_scan_report_structure(u2):
    report = scan_local_freeness(u2, ScanConfig(n_random=15, seed=1))
    kinds = {p.kind for p in report.points}
    assert kinds == {"random", "structured"}
    assert report.all_pass and report.ranks_all_expected
    assert sum(p.kind == "random" for p in report.points) == 15


def test_scan_reports_raising_points_indeterminate(u2, monkeypatch):
    # W^H delta, the one decision at its parent's scale, is taken only where a
    # block of gamma is deficient: at every structured point, at no random one
    real_rank_decision = la.rank_decision

    def straddle_at_parent_scale(s, shape, sigma_max=None):
        if sigma_max is not None:
            raise RankIndeterminate("singular value straddles the cutoff")
        return real_rank_decision(s, shape)

    monkeypatch.setattr(la, "rank_decision", straddle_at_parent_scale)
    u2 = dataclasses.replace(u2)  # a new datum, so nothing it keeps predates the patch
    report = scan_local_freeness(u2, ScanConfig(n_random=5, seed=1))
    assert report.indeterminate == tuple(p for p in report.points if p.kind == "structured")
    assert report.indeterminate and not report.failures and not report.all_pass
    assert all((p.fiber_rank, p.locally_free) == (None, None) for p in report.indeterminate)
    assert all(p.reason == "singular value straddles the cutoff" for p in report.indeterminate)
    assert all((p.status, p.reason) == ("ok", "") for p in report.points if p.kind == "random")


def test_scan_assembles_once_per_point(u2, monkeypatch):
    from bowforge import monad

    calls = []

    def counting_assembler(b):
        assemble = monad_assembler(b)

        def counting(points):
            calls.append(list(points))
            return assemble(points)

        return counting

    monkeypatch.setattr(monad, "monad_assembler", counting_assembler)
    report = scan_local_freeness(u2, ScanConfig(n_random=6, seed=3))
    assert [] not in calls  # no empty stack is assembled, for its sizes or otherwise
    assert [x for chunk in calls for x in chunk] == [p.point for p in report.points]
    assert [len(chunk) for chunk in calls] == [len(report.points)]  # one chunk fits all
    assert all((p.status, p.reason) == ("ok", "") for p in report.points)


def _chunking_data(canon):
    return {
        "u2-basic": canon["u2-basic"].datum,
        "u1-charge": canon["u1-charge"].datum,
        "degenerate": degenerate_example()[1],
        "ladder-m0-3": generate(suite_topology(3, 3, 3), seed=101),
    }


@pytest.mark.parametrize("name", ["u2-basic", "u1-charge", "degenerate", "ladder-m0-3"])
def test_scan_report_independent_of_chunking(canon, monkeypatch, name):
    from bowforge import monad

    d = _chunking_data(canon)[name]
    config = ScanConfig(n_random=8, seed=4)
    points = random_points(d, config.n_random, config.seed) + structured_points(d)
    stack = monad_assembler(d)(points)
    for j, x in enumerate(points):
        single = assemble_monad(d, x)
        for field in ("Amap", "Bmap", "mu"):
            assert np.array_equal(getattr(stack, field)[j], getattr(single, field)[0])

    chunks = []

    def recording_assembler(b):
        assemble = monad_assembler(b)

        def recording(pts):
            chunks.append(len(pts))
            return assemble(pts)

        return recording

    monkeypatch.setattr(monad, "monad_assembler", recording_assembler)
    reports = []
    for size in (1, 2, 7, len(points)):
        chunks.clear()
        monkeypatch.setattr(monad, "CHUNK_BYTES", size * block_layout(d.dims.d).point_bytes)
        reports.append(scan_local_freeness(d, config).points)
        assert chunks == [min(size, len(points) - i) for i in range(0, len(points), size)]
    assert all(r == reports[0] for r in reports[1:])
    assert [p.point for p in reports[0]] == points


def _sharing_data():
    return {
        "ladder-m0-3": generate(suite_topology(3, 3, 3), seed=101),
        "degenerate": degenerate_example()[1],
    }


@pytest.mark.parametrize("size", [1, 2, 7, None])
@pytest.mark.parametrize("name", ["ladder-m0-3", "degenerate"])
def test_scan_shares_eta_only_work_across_chunks(monkeypatch, name, size):
    # a scan computes what depends on eta alone once per distinct eta,
    # however its points fall into chunks: the padded SVD of the chain
    # blocks, and the SVDs of gamma's deficient blocks for W
    from bowforge import monad

    d = _sharing_data()[name]
    config = ScanConfig(n_random=8, seed=4)
    points = random_points(d, config.n_random, config.seed) + structured_points(d)
    etas = {x.eta for x in points}
    assert len(etas) < len(points)  # some eta has two or more points
    each = [block_verdict(assemble_monad(d, x), 0) for x in points]
    assert all(v[0] == "ok" for v in each)  # so null_space runs for K_i and W only

    chain_blocks = 2 * d.topo.n + 1
    padded, kernels = [], []
    padded_spectra, null_space = la.padded_spectra, la.null_space

    def counting_padded(blocks):
        padded.append((len(blocks), len(blocks[0])))
        return padded_spectra(blocks)

    def counting_null_space(m, rank=None):
        kernels.append(np.shape(m))
        return null_space(m, rank)

    monkeypatch.setattr(la, "padded_spectra", counting_padded)
    monkeypatch.setattr(la, "null_space", counting_null_space)

    def w_and_k(calls):  # W's SVDs take square blocks, K_i's take (d_i + 1) x d_i ones
        return sum(a == b for a, b in calls), sum(a != b for a, b in calls)

    once = []  # the SVDs of one point of each eta, each point on its own
    for eta in etas:
        kernels.clear()
        assemble_monad(d, next(x for x in points if x.eta == eta)).fiber_rank(0)
        once.append(w_and_k(kernels))
    padded.clear()
    kernels.clear()
    monkeypatch.setattr(monad, "CHUNK_BYTES", (size or len(points)) * block_layout(d.dims.d).point_bytes)
    report = scan_local_freeness(d, config)

    assert sum(k for blocks, k in padded if blocks == chain_blocks) == len(etas)
    assert w_and_k(kernels) == tuple(map(sum, zip(*once)))
    assert sum(w for w, _ in once) > 0
    assert [p.point for p in report.points] == points
    assert [(p.status, p.fiber_rank, p.locally_free) for p in report.points] == [v[:3] for v in each]
    assert all(p.reason == "" for p in report.points)


@pytest.mark.parametrize("size", [1, None])
def test_shared_indeterminate_decision_reaches_every_point_of_its_eta(monkeypatch, size):
    # gamma's block ranks depend on eta alone, so one decision serves all
    # points of an eta: when it straddles, each of them is indeterminate,
    # with the one reason, in whichever chunk it falls
    from bowforge import monad

    d = generate(suite_topology(3, 3, 3), seed=101)
    config = ScanConfig(n_random=8, seed=4)
    before = scan_local_freeness(d, config).points
    dim_c = monad_dimensions(d.dims)[2]
    rank_decision = la.rank_decision
    straddles = []

    def straddle_where_gamma_is_deficient(s, shape, sigma_max=None):
        if shape == (dim_c, dim_c) and sigma_max is None and s[-1] < 1e-8 * s[0]:
            straddles.append(s)
            raise RankIndeterminate(f"gamma decision {len(straddles)} straddles its cutoff")
        return rank_decision(s, shape, sigma_max)

    monkeypatch.setattr(la, "rank_decision", straddle_where_gamma_is_deficient)
    monkeypatch.setattr(monad, "CHUNK_BYTES", (size or len(before)) * block_layout(d.dims.d).point_bytes)
    after = scan_local_freeness(dataclasses.replace(d), config).points

    assert [p.point for p in after] == [p.point for p in before]
    assert [p for p in after if p.kind == "random"] == [p for p in before if p.kind == "random"]
    by_eta = {}
    for p in after:
        by_eta.setdefault(p.point.eta, []).append(p)
    reasons = {eta: {(p.status, p.reason) for p in group} for eta, group in by_eta.items()}
    struck = [eta for eta, r in reasons.items() if ("ok", "") not in r]
    assert len(struck) == len(straddles) and max(len(by_eta[eta]) for eta in struck) >= 2
    assert all(len(reasons[eta]) == 1 for eta in struck)  # one status and one reason per eta
    assert sorted(reasons[eta].pop()[1] for eta in struck) == sorted(
        f"gamma decision {i} straddles its cutoff" for i in range(1, len(straddles) + 1)
    )
    assert all(p.status == "indeterminate" for eta in struck for p in by_eta[eta])
    assert {p.status for p in after if p.point.eta not in struck} == {"ok"}


def test_kernels_kept_per_eta_follow_each_points_rank(canon, monkeypatch):
    # alpha's rank is decided with G, which reads xi, so two points of one
    # eta may give a P-block two ranks: K_i is kept by eta, block and rank,
    # and each point reads the kernel of its own decision
    from bowforge import monad

    d = canon["sp1-mirror"].datum
    x, y = [p for p in structured_points(d) if p.xi != 0][:2]
    assert x.eta == y.eta and (x.xi, y.xi) == (1, 10)
    dim_a, dim_b, _, _ = monad_dimensions(d.dims)
    block_ranks = monad._block_ranks

    def one_less_at_the_second_point(spectra, shape):
        ranks = block_ranks(spectra, shape)
        if shape == (dim_b, dim_a):  # alpha's P-blocks and G
            ranks[1] = [r - (i == 1) for i, r in enumerate(ranks[1])]
        return ranks

    monkeypatch.setattr(monad, "_block_ranks", one_less_at_the_second_point)
    unshared = monad_assembler(d)([x, y])
    shared = dataclasses.replace(unshared, shared={})
    kernels = [[(i, k.shape) for i, k in stack._alpha[j][1]] for stack in (unshared, shared) for j in (0, 1)]
    assert kernels[:2] == kernels[2:] and kernels[0] != kernels[1]
    assert [block_verdict(shared, j) for j in (0, 1)] == [block_verdict(unshared, j) for j in (0, 1)]


def test_scan_rejects_a_negative_count(u2):
    with pytest.raises(ValueError, match="number of random points"):
        ScanConfig(n_random=-1)
    report = scan_local_freeness(u2, ScanConfig(n_random=0))
    assert report.points and {p.kind for p in report.points} == {"structured"}


@pytest.mark.parametrize("which", ["u2-basic", "ladder-m0-3"])
def test_scan_takes_no_dense_svd(canon, monkeypatch, which):
    # the scan ranks blocks: no SVD is taken of a whole Amap, Bmap or alpha
    if which == "u2-basic":
        d = canon["u2-basic"].datum
    else:
        d = generate(suite_topology(3, 3, 3), seed=101)
    dim_a, dim_b, dim_c, _ = monad_dimensions(d.dims)
    svd = np.linalg.svd
    shapes = []

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    d = dataclasses.replace(d)  # a new datum, so nothing it keeps predates the patch
    report = scan_local_freeness(d, ScanConfig(n_random=6, seed=3))
    assert report.all_pass and not report.indeterminate and shapes
    whole = {(dim_b + dim_c, dim_a), (dim_c, dim_b + dim_c), (dim_b, dim_a)}
    assert len(whole) == 3 and whole.isdisjoint(shapes)


def test_fiber_form_and_cli_fiber_assemble_once(canon, monkeypatch, capsys):
    from pathlib import Path

    from bowforge import cli, monad
    from bowforge.orthosymplectic import fiber_form

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return assemble_monad(*args, **kwargs)

    monkeypatch.setattr(monad, "assemble_monad", counting)
    so2 = canon["so2-mirror"]
    pt = random_points(so2.datum, 1, seed=5)[0]
    fiber_form(so2.datum, so2.pairing, pt)
    assert calls == [pt]
    calls.clear()
    fixture = Path(__file__).parent / "fixtures" / "u2-basic.json"
    assert cli.main(["fiber", str(fixture), "--xi", "1.0", "--eta", "2.1+0.4j"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_assemble_monad_builds_one_assembler_per_datum(monkeypatch):
    from bowforge import monad

    built = []

    def counting_assembler(b):
        built.append(b)
        return monad_assembler(b)

    monkeypatch.setattr(monad, "monad_assembler", counting_assembler)
    d = generate(suite_topology(2, 1, 1), seed=3)  # fresh, so nothing is kept yet
    for pt in random_points(d, 3, seed=2):
        assert assemble_monad(d, pt).fiber_rank(0) == 2
    assert built == [d]


def test_scan_deterministic(u2):
    a = scan_local_freeness(u2, ScanConfig(n_random=10, seed=42))
    b = scan_local_freeness(u2, ScanConfig(n_random=10, seed=42))
    assert [p.point for p in a.points] == [p.point for p in b.points]
    assert [p.fiber_rank for p in a.points] == [p.fiber_rank for p in b.points]


def test_structured_points_cover_nut_branches(canon):
    d = canon["u1-single-nut"].datum  # beta_0 = [z_1]: eigenvalue on a NUT
    pts = structured_points(d)
    assert any(p.xi == 0.0 and p.psi == 1.0 for p in pts)  # xi = 0 branch
    assert any(p.xi == 0.0 and p.psi == 0.0 for p in pts)  # the node
    assert any(p.xi == 1.0 for p in pts) and any(p.xi == 10.0 for p in pts)


def test_random_points_avoid_eigenvalue_tube(u2):
    spectrum = u2.spectra() + list(u2.topo.z)
    for pt in random_points(u2, 40, seed=9):
        assert min(abs(pt.eta - v) for v in spectrum) >= 1e-4
        assert 0.1 <= abs(pt.xi) <= 10.0
