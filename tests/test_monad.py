import ast
import dataclasses
import functools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bowforge.bowdata import gauge_transform, with_perturbed_entry
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
from bowforge.topology import DimensionVector, TopologicalData, compute_dimensions

from _suites import BOW_FIXTURES, FIXTURES, suite_topology


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


def test_block_layout_is_worked_out_once_per_dimension_vector(u2):
    # memoised on the tuple d, which a DimensionVector built from lists has
    # too; every datum of that d shares the index, so its tables are read-only
    ix = block_layout(u2.dims.d)
    assert block_layout(DimensionVector(d=list(u2.dims.d), dn=list(u2.dims.dn)).d) is ix
    assert monad_assembler(u2)([point(u2, 1.0, 2.0 + 0j)]).block_index is ix
    with pytest.raises(TypeError):
        ix.A["P0"] = (0, 0)


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
    # u2-basic has one NUT, so S and T are the identity there; the m0 = 10
    # ladder datum has three, and is also tried over its chain eigenvalues
    rng = np.random.default_rng(3)
    ladder = generate(suite_topology(3, 3, 10), seed=10)
    for d, extra in ((u2, []), (ladder, structured_points(ladder))):
        randoms = [point(d, 1.0, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(20)]
        for x in randoms + extra:
            r0, rn = lift_commutativity_residuals(d, x)
            assert r0 < 1e-8 and rn < 1e-8


# ------------------------------------------------------------ zero products

def dense_zero_products(m):
    """Oracle for the banded zero products of a stack: the dense Bmap Amap
    and Amap mu of each point, and their residuals fro(product) /
    (1 + fro(left) fro(right))."""
    def fro(x):
        return np.linalg.norm(x, axis=(1, 2))

    ba, amu = m.Bmap @ m.Amap, m.Amap @ m.mu
    return (
        ba, fro(ba) / (1.0 + fro(m.Bmap) * fro(m.Amap)),
        amu, fro(amu) / (1.0 + fro(m.Amap) * fro(m.mu)),
    )


def band_masks(ix):
    """Where Bmap Amap and Amap mu may be nonzero, by the bands of ix."""
    dim_a, dim_b, dim_c, _ = ix.dims
    ba = np.zeros((dim_c, dim_a), dtype=bool)
    for rows, cols, _ in ix.bmap_amap:
        ba[rows, cols] = True
    amu = np.zeros((dim_b + dim_c, sum(size for _, size in ix.F.values())), dtype=bool)
    for rows in ix.r_rows:
        amu[rows] = True
    return ba, amu


def _band_data(group):
    if group == "suite":
        data = [
            generate(suite_topology(n, k, m0), seed=17 * n + 5 * k + m0)
            for n in (1, 2, 3) for k in (1, 2, 3) for m0 in range(4)
        ]
    elif group == "canonical":
        data = [e.datum for e in canonical_examples()] + [degenerate_example()[1]]
    else:
        data = [generate(suite_topology(3, 3, int(group.removeprefix("ladder-m0-"))), seed=101)]
    return data


@pytest.mark.parametrize("group", ["suite", "canonical", "ladder-m0-3", "ladder-m0-10", "ladder-m0-20"])
def test_zero_products_lie_in_their_bands(group):
    # The two zero products are taken on the bands of block_layout only.
    # Against the dense products: nothing lies outside the bands, the
    # residuals agree to rounding, and the same points raise, also on data
    # with a broken relation (A[0] or Mxi[0] shifted by 1e-3).
    raised = {"": 0, "A[0]": 0, "Mxi[0]": 0}
    for d in _band_data(group):
        variants = {"": d}
        for name in ("A[0]", "Mxi[0]"):
            if d.all_matrices()[name].size:
                variants[name] = with_perturbed_entry(d, name, (0, 0), 1e-3)
        for tag, datum in variants.items():
            points = random_points(datum, 3, seed=5) + structured_points(datum)
            for start in range(0, len(points), 16):
                m = monad_assembler(datum)(points[start : start + 16])
                ba, ba_residuals, amu, amu_residuals = dense_zero_products(m)
                in_ba, in_amu = band_masks(m.block_index)
                assert np.all(ba[:, ~in_ba] == 0.0) and np.all(amu[:, ~in_amu] == 0.0)
                np.testing.assert_allclose(m.composition_residuals, ba_residuals, rtol=1e-10, atol=1e-15)
                np.testing.assert_allclose(m._mu_residuals, amu_residuals, rtol=1e-10, atol=1e-15)
                for j in range(len(m)):
                    for check, residual, what in (
                        (m.fiber_rank, ba_residuals[j], "image of Amap"),
                        (m.locally_free, amu_residuals[j], "image of mu"),
                    ):
                        try:
                            check(j)
                        except RankIndeterminate as exc:
                            hit = str(exc).startswith(what)
                        else:
                            hit = False
                        assert hit == (not residual < la.DEFAULT_TOL)
                        raised[tag] += hit
    assert raised[""] == 0 and raised["A[0]"] + raised["Mxi[0]"] > 0


@pytest.mark.parametrize("m0", [3, 10, 20])
def test_chunk_memory_within_point_bytes(monkeypatch, m0):
    # point_bytes counts what one point holds while its chunk is assembled
    # and ranked: the traced peak of each chunk of a scan stays within it,
    # and comes close to it, as the largest live set, not a sum of phases
    from bowforge import monad

    d = generate(suite_topology(3, 3, m0), seed=101)
    budget = block_layout(d.dims.d).point_bytes
    chunks = []  # (points, traced memory at its start, peak until the next chunk)

    def close_chunk():
        if chunks:
            chunks[-1][2] = tracemalloc.get_traced_memory()[1]

    def measuring_assembler(b):
        assemble = monad_assembler(b)

        def measuring(points):
            close_chunk()
            tracemalloc.reset_peak()
            chunks.append([len(points), tracemalloc.get_traced_memory()[0], None])
            return assemble(points)

        return measuring

    monkeypatch.setattr(monad, "monad_assembler", measuring_assembler)
    tracemalloc.start()
    try:
        report = scan_local_freeness(d, ScanConfig(n_random=20, seed=1))
        close_chunk()
    finally:
        tracemalloc.stop()
    assert sum(k for k, _, _ in chunks) == len(report.points)
    assert all(peak - start <= k * budget for k, start, peak in chunks)
    assert max((peak - start) / k for k, start, peak in chunks) >= 0.85 * budget


@pytest.mark.parametrize("m0, points", [(3, 46), (10, 8), (20, 2), (40, 1)])
def test_ladder_points_a_chunk(m0, points):
    # a scan of suite_topology(3, 3, m0) holds this many points a chunk: at
    # m0 = 3 all 46 of its points fit in one
    from bowforge import monad

    size = max(1, monad.CHUNK_BYTES // block_layout(compute_dimensions(suite_topology(3, 3, m0)).d).point_bytes)
    assert size >= points if m0 == 3 else size == points


@pytest.mark.parametrize("m0", [10, 20])
def test_failing_point_witness_beside_point_bytes(m0):
    # point_bytes leaves out the witness of a failing point: one full SVD
    # of [Amap; mu^H] at a time, whose input, U, s and Vh come on top of
    # the stack's own arrays, however many of its points fail (not at
    # m0 = 3, where a stack's own few kB outweigh the margin)
    d = generate(suite_topology(3, 3, m0), seed=101)
    ix = block_layout(d.dims.d)
    dim_a, dim_b, dim_c, _ = ix.dims
    rows = dim_b + dim_c + sum(size for _, size in ix.F.values())
    witness = 16 * (rows * dim_a + rows * rows + dim_a * dim_a) + 8 * min(rows, dim_a)
    points = random_points(d, 2, seed=3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stack = monad_assembler(d)(points)
        stack.Amap[:, :, ix.A["P0"][0]] = 0.0  # alpha's P-block 0 loses a rank: ker(Amap) > Im(mu)
        results = [(stack.fiber_rank(j), stack.locally_free(j)) for j in range(len(stack))]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(not free.passed and free.witness is not None for _, free in results)
    assert len(points) * ix.point_bytes < peak <= len(points) * ix.point_bytes + witness


def test_no_whole_maps_are_multiplied():
    # the zero products are taken band by band: monad.py multiplies no two
    # whole maps (Amap, Bmap, mu, or one point's of them) with @
    maps = {"Amap", "Bmap", "mu", "amap", "bmap"}

    def whole(node):
        if isinstance(node, ast.Subscript):  # one point of a map, or all of it
            index = node.slice.elts[1:] if isinstance(node.slice, ast.Tuple) else []
            if not all(isinstance(e, ast.Slice) and e.lower is e.upper is e.step is None for e in index):
                return False
            node = node.value
        return (isinstance(node, ast.Attribute) and node.attr in maps) or (
            isinstance(node, ast.Name) and node.id in maps
        )

    path = Path(la.__file__).parent / "monad.py"
    tree = ast.parse(path.read_text(), str(path))
    products = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        and whole(node.left) and whole(node.right)
    ]
    assert products == []


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
    data += [bowfile.parse((FIXTURES / f"{name}.json").read_bytes()).datum for name in sorted(BOW_FIXTURES)]
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


def test_fiber_width_follows_the_block_rank_of_bmap(monkeypatch):
    # fiber(j) takes ker(Bmap) at the block rank fiber_rank(j) uses, not at a
    # dense rank of its own: with the one decision at its parent's scale
    # (W^H delta at fro(Bmap)) patched to find one less, a dense rank of Bmap
    # would disagree wherever a block of gamma is deficient.  Unpatched, the
    # two agree on more data in test_fiber_rank_matches_fiber_basis.
    real_rank_decisions = la.rank_decisions

    def one_less_at_parent_scale(s, shape, sigma_max=None):
        ranks = real_rank_decisions(s, shape, sigma_max)
        return [rank - 1 if sigma_max is not None else rank for rank in ranks]

    monkeypatch.setattr(la, "rank_decisions", one_less_at_parent_scale)
    widths = []
    for d in (e.datum for e in canonical_examples()):
        stack = monad_assembler(d)(random_points(d, 6, seed=13) + structured_points(d))
        widths += [(stack.fiber(j).shape[1], stack.fiber_rank(j)) for j in range(len(stack))]
    assert [(width, rank) for width, rank in widths if width != rank] == []


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
    assert not report.failures and not report.indeterminate and report.ranks_all_expected


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


def zeroed_p_column(m, width=1):
    """m with the first `width` columns of Amap's P0 block zeroed: a real
    freeness failure, of quotient dimension `width` off the chain spectra."""
    amap = m.Amap.copy()
    off = m.block_index.A["P0"][0]
    amap[..., off : off + width] = 0.0
    return dataclasses.replace(m, Amap=amap)


def test_each_matrix_ranked_once(u2, monkeypatch):
    # M's rank is decided once for the stack, in numpy (a stack of at least
    # STACKED_DECISION_ROWS hands no row off the band to the rule); the
    # witness is taken at the kept ranks and never decides M's again
    etas = np.linspace(-1.7 + 0.9j, 2.3 - 1.1j, la.STACKED_DECISION_ROWS)
    broken = zeroed_p_column(monad_assembler(u2)([point(u2, 1.3, eta) for eta in etas]))
    expected = [broken.locally_free(j) for j in range(len(broken))]
    assert all(not r.passed and r.quotient_dim == 1 for r in expected)
    m_shape, rank_decision = broken._m(0).shape, la.rank_decision

    def never_for_m(s, shape, sigma_max=None):
        assert shape != m_shape, "M ranked a second time"
        return rank_decision(s, shape, sigma_max)

    monkeypatch.setattr(la, "rank_decision", never_for_m)
    # and M itself is built once at each point, for its nullity and its kernel
    built, build = [], MonadStack._m

    def counting_m(self, j):
        built.append(j)
        return build(self, j)

    monkeypatch.setattr(MonadStack, "_m", counting_m)
    fresh = dataclasses.replace(broken)  # nothing decided yet
    for j, before in enumerate(expected):
        after = fresh.locally_free(j)
        assert (after.passed, after.quotient_dim) == (False, 1)
        assert after.witness.tobytes() == before.witness.tobytes()
    assert sorted(built) == list(range(len(fresh)))


def test_bases_decide_no_rank_of_their_own(u2, monkeypatch):
    # fiber(j) and the witness of a failing locally_free(j) are kernels of
    # [left; right^H] at the sum of the kept block ranks: once those are
    # decided, neither takes a rank decision
    stack = monad_assembler(u2)(random_points(u2, 3, seed=5) + structured_points(u2))
    stacks = [stack, zeroed_p_column(stack)]
    kept = [[(s.fiber_rank(j), s.locally_free(j)) for j in range(len(s))] for s in stacks]
    assert all(free.passed for _, free in kept[0]) and not any(free.passed for _, free in kept[1])

    def no_decision(*args, **kwargs):
        raise AssertionError("a basis decided a rank of its own")

    monkeypatch.setattr(la, "rank_decision", no_decision)
    monkeypatch.setattr(la, "rank_decisions", no_decision)
    for s, answers in zip(stacks, kept):
        for j, (rank, free) in enumerate(answers):
            assert s.fiber(j).shape[1] == rank
            if not free.passed:
                assert s.locally_free(j).witness.tobytes() == free.witness.tobytes()


def test_witness_of_a_two_dimensional_quotient(u2):
    stack = zeroed_p_column(monad_assembler(u2)(random_points(u2, 4, seed=9)), width=2)
    for j in range(len(stack)):
        res = stack.locally_free(j)
        assert (res.passed, res.quotient_dim) == oracle_locally_free(stack, j) == (False, 2)
        assert block_verdict(stack, j) == dense_verdict(stack, j)
        w, amap, mu = res.witness, stack.Amap[j], stack.mu[j]
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.linalg.norm(amap @ w) < 1e-10 * (1 + np.linalg.norm(amap))
        assert np.linalg.norm(mu.conj().T @ w) < 1e-10 * (1 + np.linalg.norm(mu))


def test_kept_ranks_past_the_columns_raise_naming_both(u2):
    # the one check the kept ranks can fail: their sum exceeds the columns
    # of [left; right^H]
    stack = zeroed_p_column(monad_assembler(u2)(random_points(u2, 2, seed=9)))
    dim_a, dim_bc = stack.Amap.shape[2], stack.Bmap.shape[2]
    rank_amap = dim_a - stack._amap_nullity[0]
    vars(stack)["_bmap_rank"] = [dim_bc] * len(stack)
    with pytest.raises(RankIndeterminate, match=f"ranks {dim_bc} and {rank_amap} sum past the {dim_bc} columns"):
        stack.fiber(0)
    rank_mu = stack._mu_rank[1]
    vars(stack)["_amap_nullity"] = [0] * len(stack)
    with pytest.raises(RankIndeterminate, match=f"ranks {dim_a} and {rank_mu} sum past the {dim_a} columns"):
        stack.locally_free(1)


def test_null_space_is_called_only_by_the_cohomology_helper():
    from test_linalg import scoped_calls

    calls = scoped_calls(lambda name, _: name.split(".")[-1] == "null_space")
    assert [c for c in calls if c[0].startswith("monad.")] == [("monad._cohomology", "la.null_space")]


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


def test_mu_loses_a_rank_where_p_repeats_an_eigenvalue_of_beta_0():
    # Off the chain spectra, where no P-block is deficient, rank M = d0 + dn
    # and rank mu = dn + rank S(eta, beta_0).  S(eta, beta_0) =
    # (p(eta) - p(beta_0)) (eta - beta_0)^{-1} is singular at each eta* !=
    # lambda with p(eta*) = p(lambda), lambda an eigenvalue of beta_0; for two
    # NUTs eta* = z_1 + z_2 - lambda.  Over eta*, mu loses a rank and
    # locally_free fails while the fiber rank stays n: the block ranks and
    # the dense ranks agree.  A point 1e-9 away passes.
    d = generate(suite_topology(2, 2, 2), seed=4)
    d0, dn, n = d.dims.d[0], d.dims.d[-1], d.topo.n
    for lam in d.eigenvalues[0]:
        eta = sum(d.topo.z) - lam
        assert min(abs(eta - v) for v in d.spectra()) > 0.5
        for xi in (1.0, 10.0):
            m = assemble_monad(d, point(d, xi, eta))
            assert block_verdict(m, 0) == dense_verdict(m, 0) == ("fail", n, False, 1)
            assert dense_rank(m.mu[0]) == d0 + dn - 1
            # la.full_rank proves nothing here, and the SVD of mu's R rows decides
            assert not la.full_rank(mu_rows(m), m.mu.shape[1:], [la.fro(m.mu[0])])[0]
            assert m._mu_rank == [d0 + dn - 1]
            assert block_verdict(assemble_monad(d, point(d, xi, eta + 1e-9)), 0) == ("ok", n, True, 0)


def mu_rows(m):
    """mu's R rows, its only nonzero ones, at each point of a stack."""
    return m.mu[:, m.block_index.alpha_g[1]]


@pytest.mark.parametrize("name", ["ladder-m0-3", "u2-basic", "so2-mirror"])
def test_scan_is_the_same_without_the_full_rank_proof(canon, monkeypatch, name):
    # la.full_rank proves only a rank that the rule gives: with a proof that
    # proves nothing, every rank(mu) comes from the SVD of mu's R rows, and
    # every report, reasons included, is the same
    d = generate(suite_topology(3, 3, 3), seed=101) if name == "ladder-m0-3" else canon[name].datum
    config = ScanConfig(n_random=20, seed=1)
    proved, full_rank = [], la.full_rank

    def recording(a, shape, scale):
        proof = full_rank(a, shape, scale)
        proved.extend(proof.tolist())
        return proof

    monkeypatch.setattr(la, "full_rank", recording)
    with_proof = scan_local_freeness(d, config)
    monkeypatch.setattr(la, "full_rank", lambda a, shape, scale: np.zeros(len(a), dtype=bool))
    assert scan_local_freeness(d, config) == with_proof
    assert len(proved) == len(with_proof.points) and sum(proved) > len(proved) / 2


def test_mu_on_the_cutoff_is_indeterminate_with_the_rules_message(u2):
    # mu with a singular value planted on the rule's cutoff: the proof
    # declines, and locally_free raises the straddle that rank_decision
    # raises on the singular values of mu's R rows
    m = assemble_monad(u2, point(u2, 1.3, 1.9 - 0.7j))
    rows = m.block_index.alpha_g[1]
    u, s, vh = np.linalg.svd(m.mu[0, rows], full_matrices=False)
    s[-1] = la.rank_cutoff(s[0], m.mu.shape[1:])
    mu = m.mu.copy()
    mu[0, rows] = (u * s) @ vh  # still inside ker(Amap): Amap mu stays zero
    planted = dataclasses.replace(m, mu=mu)
    assert not la.full_rank(mu_rows(planted), mu.shape[1:], [la.fro(mu[0])])[0]
    with pytest.raises(RankIndeterminate) as rule:
        la.rank_decision(la.svd(mu[0, rows].T, compute_uv=False), mu.shape[1:])
    with pytest.raises(RankIndeterminate) as raised:
        planted.locally_free(0)
    assert str(raised.value) == str(rule.value) and "straddle" in str(rule.value)


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
    assert not report.failures and not report.indeterminate and report.ranks_all_expected
    assert sum(p.kind == "random" for p in report.points) == 15


def test_scan_reports_raising_points_indeterminate(u2, monkeypatch):
    # W^H delta, the one decision at its parent's scale, is taken only where a
    # block of gamma is deficient: at every structured point, at no random one
    real_rank_decisions = la.rank_decisions

    def straddle_at_parent_scale(s, shape, sigma_max=None):
        if sigma_max is not None:
            return [RankIndeterminate("singular value straddles the cutoff") for _ in s]
        return real_rank_decisions(s, shape)

    monkeypatch.setattr(la, "rank_decisions", straddle_at_parent_scale)
    u2 = dataclasses.replace(u2)  # a new datum, so nothing it keeps predates the patch
    report = scan_local_freeness(u2, ScanConfig(n_random=5, seed=1))
    assert report.indeterminate == tuple(p for p in report.points if p.kind == "structured")
    assert report.indeterminate and not report.failures
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
    u2 = dataclasses.replace(u2)  # a new datum, whose kept assembler is built under the patch
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
        "ladder-m0-10": generate(suite_topology(3, 3, 10), seed=101),  # M proved at some points of a stack
    }


@pytest.mark.parametrize("name", ["u2-basic", "u1-charge", "degenerate", "ladder-m0-3", "ladder-m0-10"])
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
    d = dataclasses.replace(d)  # a new datum, whose kept assembler is built under the patch
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
    padded_spectra, null_spaces = la.padded_spectra, la.null_spaces

    def counting_padded(blocks):
        padded.append((len(blocks), len(blocks[0])))
        return padded_spectra(blocks)

    def counting_null_spaces(ms, ranks):
        kernels.extend(np.shape(m) for m in ms)
        return null_spaces(ms, ranks)

    monkeypatch.setattr(la, "padded_spectra", counting_padded)
    monkeypatch.setattr(la, "null_spaces", counting_null_spaces)

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
    rank_decisions = la.rank_decisions
    straddles = []

    def straddle_where_gamma_is_deficient(s, shape, sigma_max=None):
        ranks = rank_decisions(s, shape, sigma_max)
        for r, row in enumerate(s):
            if shape == (dim_c, dim_c) and sigma_max is None and row[-1] < 1e-8 * row[0]:
                straddles.append(row)
                ranks[r] = RankIndeterminate(f"gamma decision {len(straddles)} straddles its cutoff")
        return ranks

    monkeypatch.setattr(la, "rank_decisions", straddle_where_gamma_is_deficient)
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
    d = canon["sp1-mirror"].datum
    x, y = [p for p in structured_points(d) if p.xi != 0][:2]
    assert x.eta == y.eta and (x.xi, y.xi) == (1, 10)
    dim_a, dim_b, _, _ = monad_dimensions(d.dims)
    block_ranks = la.block_ranks

    def one_less_at_the_second_point(spectra, shape):
        ranks = block_ranks(spectra, shape)
        if shape == (dim_b, dim_a):  # alpha's P-blocks and G
            ranks[1] = [r - (i == 1) for i, r in enumerate(ranks[1])]
        return ranks

    monkeypatch.setattr(la, "block_ranks", one_less_at_the_second_point)
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
    assert not report.failures and not report.indeterminate and shapes
    whole = {(dim_b + dim_c, dim_a), (dim_c, dim_b + dim_c), (dim_b, dim_a)}
    assert len(whole) == 3 and whole.isdisjoint(shapes)


def test_fiber_form_and_cli_fiber_assemble_once(canon, monkeypatch, capsys):
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
    fixture = FIXTURES / "u2-basic.json"
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


# ------------------------------------------------ the chain proof of G


@functools.lru_cache(maxsize=None)
def ladder(m0):
    return generate(suite_topology(3, 3, m0), seed=101)


@functools.lru_cache(maxsize=None)
def example(name):
    if name == "degenerate":
        return degenerate_example()[1]
    if name.startswith("ladder-m0-"):
        return ladder(int(name.removeprefix("ladder-m0-")))
    return {e.name: e.datum for e in canonical_examples()}[name]


def alpha_shape(stack):
    return (stack.Bmap.shape[2] - stack.Bmap.shape[1], stack.Amap.shape[2])


def _len(s):
    return s.stop - s.start


def plant_in_q_rows(stack, j, value, rng):
    """Point j's plain M plus value * w v^H, v its last right singular vector
    and w a unit vector on M's Q0 and Qn rows, so that G, and E in it, keep
    their entries: one trailing singular value of M moves to about value."""
    ix, amap = stack.block_index, stack.Amap.copy()
    rows = np.r_[ix.r_rows[0], ix.r_rows[1]][_len(ix.alpha_g[0]) :]
    w = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    v_h = np.linalg.svd(stack._plain_m[j])[2][-1]  # v^H
    amap[j][np.ix_(rows, np.arange(ix.alpha_g[1].start, ix.alpha_g[1].stop))] += value * np.outer(w / np.linalg.norm(w), v_h)
    return dataclasses.replace(stack, Amap=amap)


@st.composite
def chain_proof_cases(draw):
    """A stack of 2 random points and 2 structured ones (over interior
    eigenvalues, where a P-block is deficient, and over beta_0's and
    beta_n's, where E is singular) of a datum with d0, dn > 0, perturbed:
    not at all; a trailing value of one point's M planted at cut /
    STRADDLE_FACTOR times 1/2, 1 or 2; P0's first column zeroed; one
    column of the R-blocks zeroed; or noise on every entry of Amap but E's."""
    d = example(draw(st.sampled_from(["ladder-m0-3", "u2-basic", "so2-mirror"])))
    structured = structured_points(d)
    points = random_points(d, 2, seed=draw(st.integers(0, 20)))
    points += [structured[draw(st.integers(0, len(structured) - 1))] for _ in range(2)]
    stack = monad_assembler(d)(points)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["none", "planted", "deficient", "zeroed", "noise"]))
    if kind == "planted":
        j = draw(st.integers(0, len(stack) - 1))
        s = np.linalg.svd(stack._plain_m[j], compute_uv=False)
        cut = la.rank_cutoff(s[0], stack._plain_m.shape[1:])
        stack = plant_in_q_rows(stack, j, draw(st.sampled_from([0.5, 1.0, 2.0])) * cut / la.STRADDLE_FACTOR, rng)
    elif kind == "deficient":
        stack = zeroed_p_column(stack)
    elif kind == "zeroed":
        cols = stack.block_index.alpha_g[1]
        amap = stack.Amap.copy()
        amap[..., draw(st.integers(cols.start, cols.stop - 1))] = 0.0
        stack = dataclasses.replace(stack, Amap=amap)
    elif kind == "noise":
        ix, amap = stack.block_index, stack.Amap.copy()
        e = (slice(None), ix.alpha_g[0], slice(ix.alpha_g[1].start, ix.alpha_g[1].start + _len(ix.alpha_g[0])))
        kept = amap[e].copy()
        amap += 10.0 ** draw(st.integers(-16, -8)) * (rng.standard_normal(amap.shape) + 1j * rng.standard_normal(amap.shape))
        amap[e] = kept
        stack = dataclasses.replace(stack, Amap=amap)
    return stack


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(chain_proof_cases())
def test_chain_proofs_answer_as_the_rule(case):
    # wherever G's chain proof answers, the SVD and the rule give its
    # answer: alpha's block ranks from the kept P-block spectra and G's
    # singular values, with no straddle
    from bowforge import monad

    stack = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monad, "CHAIN_PROOF_COLUMNS", 0)
        shape = alpha_shape(stack)
        alpha = stack._proved_alpha(shape)
    ix = stack.block_index
    sizes = [min(map(_len, s)) for s in ix.alpha_p]
    for j in range(len(stack)):
        if alpha[j] is not None:
            p = [stack._chain[j, i, :size] for i, size in enumerate(sizes)]
            g = np.linalg.svd(stack.Amap[j][ix.alpha_g], compute_uv=False)
            union = np.sort(np.concatenate(p + [g]))[::-1]
            cut = la.rank_cutoff(union[0], shape)
            assert sum(alpha[j]) == la.rank_decision(union, shape)
            assert alpha[j] == [int((b > cut).sum()) for b in p + [g]]


def test_chain_proofs_decline_on_the_band_and_off_e(u2, monkeypatch):
    # planted on the band, a trailing value of M makes M's SVD raise; an E
    # that is not Bmap's pair of blocks, or that has a value on the band,
    # proves nothing
    from bowforge import monad

    monkeypatch.setattr(monad, "CHAIN_PROOF_COLUMNS", 0)
    rng = np.random.default_rng(5)
    stack = monad_assembler(u2)(random_points(u2, 2, seed=3))
    s = np.linalg.svd(stack._plain_m[0], compute_uv=False)
    edge = la.rank_cutoff(s[0], stack._plain_m.shape[1:]) / la.STRADDLE_FACTOR
    on_band = plant_in_q_rows(stack, 0, 2.0 * edge, rng)
    with pytest.raises(RankIndeterminate, match="straddle"):
        on_band.locally_free(0)
    assert on_band.locally_free(1).passed
    assert None not in stack._proved_alpha(alpha_shape(stack))
    # an entry of E off Bmap's, in a diagonal block or off them
    ix = stack.block_index
    row, col, d0 = ix.alpha_g[0].start, ix.alpha_g[1].start, _len(ix.gamma[0][0])
    for entry, value in (((row, col), stack.Amap[0][row, col] * (1 + 1e-15)), ((row, col + d0), 1e-300)):
        amap = stack.Amap.copy()
        amap[0][entry] = value
        off_e = dataclasses.replace(stack, Amap=amap)
        assert off_e._proved_alpha(alpha_shape(off_e))[0] is None
        assert off_e._proved_alpha(alpha_shape(off_e))[1] is not None
    # 1e-13 off an eigenvalue of beta_0, E has a value on alpha's band
    straddle = monad_assembler(u2)([point(u2, 1.0, complex(u2.eigenvalues[0][0]) + 1e-13)])
    assert straddle._proved_alpha(alpha_shape(straddle)) == [None]
    with pytest.raises(RankIndeterminate, match=r"straddle cutoff 1\.432e-13"):
        straddle.fiber_rank(0)


@pytest.mark.parametrize("name, shift", [
    (name, "") for name in (
        "u1-single-nut", "u1-charge", "u2-basic", "so2-mirror", "sp1-mirror", "degenerate",
        "ladder-m0-3", "ladder-m0-10", "ladder-m0-20",
    )
] + [(name, shift) for name in ("u2-basic", "so2-mirror", "ladder-m0-10") for shift in ("A[0]", "Mxi[0]")])
def test_scan_is_the_same_without_the_chain_proofs(monkeypatch, name, shift):
    # the chain proofs prove only what the SVDs and the rule decide: with
    # them off, at their floor and on every stack, every report is equal
    from bowforge import monad

    d = example(name)
    if shift:
        d = with_perturbed_entry(d, shift, (0, 0), 1e-3)
    config = ScanConfig(n_random=20, seed=1)
    reports, proved = [], []
    proved_block_ranks = la.proved_block_ranks

    def recording(*args):
        out = proved_block_ranks(*args)
        proved.extend(out[0].tolist())
        return out

    def declining(*args):
        out = proved_block_ranks(*args)
        return np.zeros_like(out[0]), out[1]

    monkeypatch.setattr(la, "proved_block_ranks", recording)
    for floor in (10**9, monad.CHAIN_PROOF_COLUMNS, 0):
        monkeypatch.setattr(monad, "CHAIN_PROOF_COLUMNS", floor)
        reports.append(scan_local_freeness(dataclasses.replace(d), config))
    monkeypatch.setattr(la, "proved_block_ranks", declining)  # at floor 0: tried on every stack, never proved
    reports.append(scan_local_freeness(dataclasses.replace(d), config))
    assert all(report == reports[0] for report in reports[1:])
    if not shift:  # a shifted datum's points may raise at the zero-product checks, before any rank
        assert any(proved)  # empty end blocks too: E bounds all of G's d0 + dn rows


def chain_svd_shapes(run, monkeypatch):
    """The shapes of every matrix whose SVD `run()` takes."""
    svd, shapes = np.linalg.svd, []

    def recording(a, *args, **kwargs):
        shapes.extend([np.shape(a)[-2:]] * (len(a) if np.ndim(a) == 3 else 1))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    run()
    monkeypatch.setattr(np.linalg, "svd", svd)
    return shapes


def g_and_m_shapes(d):
    ix = block_layout(d.dims.d)
    g = (_len(ix.alpha_g[0]), _len(ix.alpha_g[1]))
    return g, (sum(map(_len, ix.r_rows)), g[1])


def test_no_svd_of_g_or_m_off_the_boundary_spectra(monkeypatch):
    # suite_topology(3, 3, 10): a stack of random points takes no SVD of G's
    # shape; over an eigenvalue of beta_0, E is singular and G's is taken
    from bowforge import monad

    d = ladder(10)
    g_shape, m_shape = g_and_m_shapes(d)
    assert m_shape[1] >= monad.CHAIN_PROOF_COLUMNS
    off = monad_assembler(d)(random_points(d, 6, seed=4))
    shapes = chain_svd_shapes(lambda: [(off.fiber_rank(j), off.locally_free(j)) for j in range(len(off))], monkeypatch)
    assert shapes and g_shape not in shapes
    lam = complex(d.eigenvalues[0][0])
    over = monad_assembler(d)([point(d, 1.0, lam)])
    shapes = chain_svd_shapes(lambda: over.fiber_rank(0), monkeypatch)
    assert shapes.count(g_shape) == 1


def test_ladder_scan_takes_svds_of_g_and_m_over_the_boundary_spectra_only(monkeypatch):
    # m0 = 20, seed 101, 20 random points: of the 148 points, 104 are off
    # the spectra of beta_0 and beta_n and take no SVD of G; every point
    # takes one of its plain M
    d = ladder(20)
    g_shape, m_shape = g_and_m_shapes(d)
    report = []
    shapes = chain_svd_shapes(lambda: report.append(scan_local_freeness(d, ScanConfig(n_random=20, seed=1))), monkeypatch)
    assert len(report[0].points) == 148 and not report[0].indeterminate
    assert shapes.count(m_shape) == 148 and 0 < shapes.count(g_shape) <= 44


@pytest.mark.parametrize("d, ends", [
    ((0, 1), "d0 = 0"), ((1, 0), "dn = 0"), ((0, 0), "all empty"), ((1, 0, 1), "an empty interior P-block"),
])
def test_chain_proofs_answer_as_the_rule_on_empty_blocks(monkeypatch, d, ends):
    # with no floor, the proofs run on empty blocks too: E = diag(eta -
    # beta_0, eta - beta_n) bounds all of G's d0 + dn rows, whichever is 0;
    # each proved row is what the SVD and the rule give, and the reports
    # are those of the SVD path
    from bowforge import monad

    topologies = {
        (0, 1): TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(-1,), nd=(-1,), m0=0, z=(0.3 - 0.2j,)),
        (1, 0): TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(1,), nd=(1,), m0=0, z=(0.3 - 0.2j,)),
        (0, 0): TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=0, z=(0.0,)),
        (1, 0, 1): TopologicalData(
            n=2, k=3, ell=1.0, lam=(0.1, 0.2), m=(1, -1), nd=(0, -1, 1), m0=0, z=(-0.2 + 0.2j, -0.6 + 0.4j, 0.9 + 0.6j)
        ),
    }
    datum = generate(topologies[d], seed=0)
    assert datum.dims.d == d, ends
    config = ScanConfig(n_random=8, seed=2)
    monkeypatch.setattr(monad, "CHAIN_PROOF_COLUMNS", 10**9)
    unproved = scan_local_freeness(datum, config)
    monkeypatch.setattr(monad, "CHAIN_PROOF_COLUMNS", 0)
    stack = monad_assembler(datum)(random_points(datum, 3, seed=1))
    shape, ix = alpha_shape(stack), stack.block_index
    sizes = [min(map(_len, s)) for s in ix.alpha_p]
    spectra = [stack._chain[:, i, :size] for i, size in enumerate(sizes)]
    by_svd = la.block_ranks(spectra + [np.linalg.svd(stack.Amap[:, ix.alpha_g[0], ix.alpha_g[1]], compute_uv=False)], shape)
    for row, expected in zip(stack._proved_alpha(shape), by_svd):
        assert row is None or row == expected
    assert scan_local_freeness(dataclasses.replace(datum), config) == unproved
    for j in range(len(stack)):
        assert stack.fiber_rank(j) == datum.topo.n


def test_chain_proof_rule_counts_the_stacks_g_columns(monkeypatch):
    # the proof runs where a stack holds CHAIN_PROOF_COLUMNS of G's
    # columns: the m0 = 3 ladder scan (seed 101, 20 random points at seed
    # 1), one stack of 46 points at 14 columns, takes G's SVD at the 10
    # points over the spectra of beta_0 and beta_n only; a stack of one of
    # its points, 14 columns, takes it
    from bowforge import monad

    d = ladder(3)
    g_shape, _ = g_and_m_shapes(d)
    assert g_shape[1] == 14 < monad.CHAIN_PROOF_COLUMNS
    report = []
    shapes = chain_svd_shapes(lambda: report.append(scan_local_freeness(d, ScanConfig(n_random=20, seed=1))), monkeypatch)
    over = {complex(v) for v in np.concatenate([d.eigenvalues[0], d.eigenvalues[d.topo.n]])}
    at_spectra = [p for p in report[0].points if any(abs(p.point.eta - v) < la.EIG_CLUSTER_TOL for v in over)]
    assert len(report[0].points) == 46 and shapes.count(g_shape) == len(at_spectra) == 10
    one = monad_assembler(d)(random_points(d, 1, seed=4))
    shapes = chain_svd_shapes(lambda: one.fiber_rank(0), monkeypatch)
    assert shapes.count(g_shape) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: the zero-product checks divide fro(Bmap Amap) by 1 + fro(Bmap) fro(Amap), "
    "which grows as |psi|^2, so far out a monad that is not a complex passes them"
))
def test_zero_product_check_rejects_a_non_complex_far_out():
    # suite_topology(3, 3, 10) at seed 101 with Mxi[0][0, 0] shifted by
    # 1e-3 fails validate_relations, and fro(Bmap Amap) is 0.395 at each of
    # its 20 random points (seed 2); yet composition_residuals falls with
    # |psi|, below DEFAULT_TOL at the 4 points with |psi| >= 7.4e3
    from bowforge.bowdata import validate_relations

    d = with_perturbed_entry(ladder(10), "Mxi[0]", (0, 0), 1e-3)
    assert not validate_relations(d).passed
    stack = monad_assembler(d)(random_points(d, 20, seed=2))
    products = [np.linalg.norm(stack.Bmap[j] @ stack.Amap[j]) for j in range(len(stack))]
    np.testing.assert_allclose(products, 0.395, rtol=1e-2)
    far = np.array([abs(x.psi) >= 7.4e3 for x in stack.points])
    assert far.sum() == 4
    assert (stack.composition_residuals[far] >= la.DEFAULT_TOL).all()
