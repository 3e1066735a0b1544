import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowforge import _linalg as la
from bowforge.errors import RankIndeterminate


def test_rel_residual_scale_free():
    lhs = np.array([[2.0]])
    rhs = np.array([[1.0]])
    assert la.rel_residual(lhs, rhs) == pytest.approx(1.0 / 4.0)
    assert la.rel_residual(lhs, lhs) == 0.0
    assert la.rel_residual(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
    with pytest.raises(ValueError):
        la.rel_residual(np.zeros((1, 2)), np.zeros((2, 1)))


def test_rel_residual_finite_where_a_norm_overflows():
    # fro squares the entries: above about 1e154 the norms overflow, and
    # inf / inf was nan; both sides are then rescaled by their largest entry
    lhs = np.array([[2.0e200, 0.0], [0.0, 1.0e200j]])
    rhs = np.array([[1.0e200, 0.0], [0.0, 1.0e200j]])
    with np.errstate(over="ignore"):
        assert la.fro(lhs) == np.inf
        assert la.rel_residual(lhs, rhs) == pytest.approx(1.0 / (np.sqrt(5.0) + np.sqrt(2.0)))
        assert la.rel_residual(lhs, lhs) == 0.0
        # a residual that is not finite at its own scale stays nan
        for bad in (np.inf, np.nan):
            assert np.isnan(la.rel_residual(lhs, np.array([[bad, 0.0], [0.0, 0.0]])))
    # a finite case keeps the bits of the plain formula
    a, b = np.arange(6.0).reshape(2, 3) * (1 + 2j), np.ones((2, 3))
    plain = la.fro(a - b) / (1.0 + la.fro(a) + la.fro(b))
    assert la.rel_residual(a, b).hex() == plain.hex()


def test_null_space_edge_shapes():
    assert la.null_space(np.zeros((0, 3))).shape == (3, 3)  # no constraints
    assert la.null_space(np.zeros((3, 0))).shape == (0, 0)
    assert la.null_space(np.zeros((2, 2))).shape == (2, 2)
    basis = la.null_space(np.array([[1.0, 1.0]]))
    assert basis.shape == (2, 1)
    assert abs(basis[0, 0] + basis[1, 0]) < 1e-14


def test_null_space_survives_svd_nonconvergence(monkeypatch):
    # numpy's default SVD routine (gesdd) fails to converge on some monad
    # projections at m0 = 20; null_space then retries with gesvd
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    m = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    basis = la.null_space(m)
    assert basis.shape == (3, 1)
    assert np.linalg.norm(m @ basis) < 1e-14


SHAPES = [(3, 3), (2, 4), (4, 2), (0, 3), (3, 0)]


@st.composite
def kernel_cases(draw):
    """(ms, ranks): up to 7 complex matrices of a few shapes, so that some
    share one, each zero, rank-deficient, of full rank or with a singular
    value on the cutoff, at a given rank or None; at most one matrix with a
    value on the cutoff and no given rank, so at most one raises."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ms, ranks, raising = [], [], False
    for _ in range(draw(st.integers(1, 7))):
        r, c = draw(st.sampled_from(SHAPES))
        kind = draw(st.sampled_from(["zero", "deficient", "full", "straddle"]))
        rank = draw(st.none() | st.integers(0, c))
        u = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))[0]
        v = np.linalg.qr(rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c)))[0]
        sigma = np.zeros((r, c))
        diagonal = np.arange(min(r, c))
        if kind != "zero":
            sigma[diagonal, diagonal] = rng.uniform(0.5, 2.0, len(diagonal))
        if kind == "deficient" and len(diagonal):
            sigma[diagonal[-1], diagonal[-1]] = 0.0
        if kind == "straddle" and len(diagonal) > 1 and not (rank is None and raising):
            sigma[diagonal[-1], diagonal[-1]] = la.rank_cutoff(sigma[0, 0], (r, c))
            raising |= rank is None
        ms.append(u @ sigma.astype(complex) @ v.conj().T)
        ranks.append(rank)
    return ms, ranks


def kernel_oracle(m, rank):
    """The kernel of m from numpy's SVD of m alone, sliced at `rank` or at the
    rule's rank; the identity where m has no nonzero entry."""
    if not m.any():
        return np.eye(m.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    return vh[(la.rank_decision(s, m.shape) if rank is None else rank) :].conj().T


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_null_spaces_is_each_matrix_own_svd(case):
    # a batched SVD gives each matrix the bits of its own, and a rank of
    # None is the rule's: a straddle raises the rule's message
    ms, ranks = case
    try:
        expected = [kernel_oracle(m, rank) for m, rank in zip(ms, ranks)]
    except RankIndeterminate as exc:
        with pytest.raises(RankIndeterminate) as raised:
            la.null_spaces(ms, ranks)
        assert str(raised.value) == str(exc)
        return
    got = la.null_spaces(ms, ranks)
    assert [(k.shape, k.tobytes()) for k in got] == [(k.shape, k.tobytes()) for k in expected]
    for m, rank, k in zip(ms, ranks, expected):
        one = la.null_space(m, rank)
        assert (one.shape, one.tobytes()) == (k.shape, k.tobytes())


def svd_rank(m):
    return la.rank_decision(np.linalg.svd(m, compute_uv=False), m.shape)


@pytest.mark.parametrize(
    "a",
    [
        np.arange(12.0).reshape(3, 4) - 5.5,
        (np.arange(12.0) + 1j * np.arange(12.0)[::-1]).reshape(3, 4) / 7,
        np.arange(-6, 6).reshape(3, 4),
        np.array([True, False, True]),
        np.zeros((0, 3)),
        np.zeros((2, 0), dtype=np.complex128),
        np.linspace(-1.0, 2.0, 7),
        np.linspace(-1.0, 2.0, 60).reshape(3, 4, 5) * (1 - 0.3j),
    ],
    ids=["real", "complex", "integer", "bool", "empty", "empty-complex", "1d", "3d"],
)
def test_fro_is_numpy_norm_bitwise(a):
    for view in (a, a.T, a[::2], a[..., ::-2], np.asfortranarray(a)):
        assert la.fro(view).hex() == float(np.linalg.norm(view)).hex()


def test_schur_raises_where_zgees_fails(monkeypatch):
    from bowforge.generator import solve_sylvester

    lapack = la._lapack()
    zgees = lapack.zgees

    def failing(*args, **kwargs):
        *out, _ = zgees(*args, **kwargs)
        return (*out, 1)  # info > 0: the QR algorithm did not converge

    monkeypatch.setattr(lapack, "zgees", failing)
    with pytest.raises(np.linalg.LinAlgError):
        la.schur(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        solve_sylvester(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))


def test_schur_is_a_schur_form():
    a = np.arange(16.0).reshape(4, 4) + 1j * np.eye(4)
    t, z = la.schur(a)
    assert np.array_equal(t, np.triu(t))
    np.testing.assert_allclose(z @ t @ z.conj().T, a, atol=1e-12)
    np.testing.assert_allclose(z.conj().T @ z, np.eye(4), atol=1e-14)


def test_svd_rank_and_straddle_detection():
    assert svd_rank(np.diag([1.0, 1e-3])) == 2
    assert svd_rank(np.diag([1.0, 0.0])) == 1
    # a singular value sitting right at the cutoff is indeterminate
    cutoff = la.rank_cutoff(1.0, (2, 2))
    m = np.diag([1.0, cutoff])
    with pytest.raises(RankIndeterminate):
        svd_rank(m)
    with pytest.raises(RankIndeterminate):
        la.null_space(m)
    # a rank decided elsewhere is taken as given
    assert la.null_space(m, rank=1).shape == (2, 1)


def test_rank_decision_straddle_and_scale():
    cutoff = la.rank_cutoff(1.0, (2, 2))
    s = np.array([1.0, cutoff])
    with pytest.raises(RankIndeterminate):
        la.rank_decision(s, (2, 2))
    # the cutoff scales with sigma_max: small values of a small matrix count
    s = np.array([1e-6, 1e-7])
    assert la.rank_decision(s, (2, 2)) == 2
    assert la.rank_decision(np.zeros(0), (0, 3)) == 0
    # ranked at a parent's scale, the same values are rounding noise
    assert la.rank_decision(s, (2, 2), sigma_max=1e9) == 0
    with pytest.raises(RankIndeterminate):
        la.rank_decision(s, (2, 2), sigma_max=1e-6 / cutoff)


def test_rank_decision_matches_straddle_mask():
    # reference: the straddle rule as a mask over every singular value
    rng = np.random.default_rng(3)
    shape = (6, 6)
    cut = la.rank_cutoff(1.0, shape)
    for _ in range(2000):
        tail = cut * 10.0 ** rng.uniform(-2.0, 2.0, size=5)
        s = np.sort(np.concatenate([[1.0], tail]))[::-1]
        straddling = (s > cut / la.STRADDLE_FACTOR) & (s < cut * la.STRADDLE_FACTOR)
        if np.any(straddling):
            with pytest.raises(RankIndeterminate):
                la.rank_decision(s, shape)
        else:
            assert la.rank_decision(s, shape) == np.count_nonzero(s > cut)


def _band_edges(cut):
    """The straddle band's edges cut * STRADDLE_FACTOR and cut / STRADDLE_FACTOR,
    each with its neighbours one ulp below and above."""
    edges = (cut * la.STRADDLE_FACTOR, cut / la.STRADDLE_FACTOR)
    return [v for edge in edges for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))]


@st.composite
def decision_stacks(draw):
    """(s, shape, sigma_max): up to 12 rows of up to 6 values each, drawn on
    and around the straddle band of the row's cutoff, at the row's own scale
    (its first value) or, with sigma_max given, at a parent's scale far above
    the row, as W^H delta is ranked at fro(Bmap)."""
    shape = (draw(st.integers(0, 40)), draw(st.integers(0, 40)))
    k, m = draw(st.integers(0, 12)), draw(st.integers(0, 6))
    at_parent_scale = draw(st.booleans())
    rows, scales = [], []
    for _ in range(k):
        scale = 10.0 ** draw(st.floats(-6.0, 6.0))
        cut = la.rank_cutoff(scale, shape)
        value = st.one_of(
            st.sampled_from(_band_edges(cut) + [0.0]),
            st.floats(-3.0, 3.0).map(lambda e, cut=cut: cut * 10.0 ** e),
            st.sampled_from([np.inf, np.nan]),
        )
        values = sorted(draw(st.lists(value, min_size=m, max_size=m)), reverse=True)
        if m and not at_parent_scale:
            values[0] = scale  # the scale sigma_max defaults to
        rows.append(values)
        scales.append(scale)
    return np.array(rows, dtype=float).reshape(k, m), shape, np.array(scales) if at_parent_scale else None


def _outcome(rank):
    return ("raised", str(rank)) if isinstance(rank, RankIndeterminate) else rank


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(decision_stacks())
def test_stacked_rank_decisions_equal_the_rule_row_by_row(case):
    # the stacked form returns, row by row, what rank_decision returns or
    # raises: the same rank, or the same message; also for rows with no
    # values, stacks of one and a given sigma_max
    s, shape, sigma_max = case
    expected = []
    for r, row in enumerate(s):
        try:
            expected.append(la.rank_decision(row, shape, None if sigma_max is None else sigma_max[r]))
        except RankIndeterminate as exc:
            expected.append(("raised", str(exc)))
    assert [_outcome(rank) for rank in la.rank_decisions(s, shape, sigma_max)] == expected
    for r in range(len(s)):
        one = la.rank_decisions(s[r : r + 1], shape, None if sigma_max is None else sigma_max[r : r + 1])
        assert [_outcome(rank) for rank in one] == expected[r : r + 1]


def test_stacked_rank_decisions_hand_only_rows_near_the_band_to_the_rule(monkeypatch):
    shape = (5, 7)
    cut = la.rank_cutoff(1.0, shape)
    s = np.tile([1.0, 0.5, 1e-20], (la.STACKED_DECISION_ROWS + 3, 1))
    s[2, 1] = 2.0 * cut  # inside the band: raises
    s[4, 2] = cut * la.STRADDLE_FACTOR  # on the band's edge: rank 3
    s[5, 2] = cut * la.STRADDLE_FACTOR * 1.5  # off the band: rank 3, counted in numpy
    handed = []
    rule = la.rank_decision

    def spy(row, shape, sigma_max=None):
        handed.append(row.tolist())
        return rule(row, shape, sigma_max)

    monkeypatch.setattr(la, "rank_decision", spy)
    ranks = la.rank_decisions(s, shape)
    assert handed == [s[2].tolist(), s[4].tolist()]
    assert isinstance(ranks[2], RankIndeterminate) and "straddle" in str(ranks[2])
    assert [r for i, r in enumerate(ranks) if i != 2] == [2, 2, 2, 3, 3] + [2] * (len(s) - 6)


@st.composite
def block_spectra(draw):
    """(spectra, shape): up to 12 block-diagonal matrices' singular values in
    1-4 blocks of 0-4 values each (spectra[b], k x size_b), empty blocks
    included.  Each row holds its largest value, at a drawn scale, in one
    block, beside values on and one ulp either side of the straddle band's
    edges at that scale, 0 or anything below it; some rows are all zero, or
    hold a NaN or an inf."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    width = sum(sizes)
    shape = (width + draw(st.integers(0, 20)), width + draw(st.integers(0, 20)))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        scale = 10.0 ** draw(st.floats(-6.0, 6.0))
        value = st.one_of(
            st.sampled_from(_band_edges(la.rank_cutoff(scale, shape)) + [0.0]),
            st.floats(-20.0, 0.0).map(lambda e, scale=scale: scale * 10.0**e),
        )
        row = draw(st.lists(value, min_size=width, max_size=width))
        kind = draw(st.sampled_from(["values", "values", "values", "zero", np.nan, np.inf]))
        if width:
            row[draw(st.integers(0, width - 1))] = scale
            if kind == "zero":
                row = [0.0] * width
            elif kind != "values":
                row[draw(st.integers(0, width - 1))] = kind
        rows.append(row)
    union = np.array(rows, dtype=float).reshape(len(rows), width)
    return np.split(union, np.cumsum(sizes)[:-1], axis=1), shape


def _selected_block_ranks(spectra, shape):
    """The selection that block_ranks replaced, kept as a reference: per
    decided row, a block's rank is the count of its values among the union's
    top `rank`, those at least the union's rank-th largest value (inf at
    rank 0), and every block's size at full rank."""
    sizes = [s.shape[1] for s in spectra]
    union = np.concatenate(spectra, axis=1)
    ranked = np.sort(union, axis=1)[:, ::-1]
    out = []
    for rank, row, values in zip(la.rank_decisions(ranked, shape), union, ranked):
        if isinstance(rank, RankIndeterminate) or rank == len(row):
            out.append(rank if isinstance(rank, RankIndeterminate) else sizes)
            continue
        least = values[rank - 1] if rank else np.inf
        out.append([int(np.count_nonzero(b >= least)) for b in np.split(row, np.cumsum(sizes)[:-1])])
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(block_spectra())
def test_block_ranks_count_values_above_the_rules_cutoff(case):
    # where the rule raises on the union of a row's blocks, so does
    # block_ranks; else its counts sum to the rule's rank and, on a finite
    # row, equal the selection's.  A row holding NaN or inf has a cutoff
    # that no value is above: rank 0, and no block counts a value, where
    # the selection counted each inf toward its block
    spectra, shape = case
    union = np.concatenate(spectra, axis=1)
    ranks = la.block_ranks(spectra, shape)
    assert len(ranks) == len(union)
    for r, (counts, selected) in enumerate(zip(ranks, _selected_block_ranks(spectra, shape))):
        try:
            rank = la.rank_decision(np.sort(union[r])[::-1], shape)
        except RankIndeterminate as exc:
            assert isinstance(counts, RankIndeterminate) and str(counts) == str(exc)
            continue
        assert len(counts) == len(spectra) and sum(counts) == rank
        if np.isfinite(union[r]).all():
            assert counts == selected
        else:
            assert rank == 0 and counts == [0] * len(spectra)
            assert selected == [int(np.isposinf(s[r]).sum()) for s in spectra]


@st.composite
def planted_stacks(draw):
    """(a, shape, sigma): up to 5 tall complex matrices U diag(sigma) V^H
    with planted singular values, each row of sigma sorted; the rule's shape
    is at least the matrix's, as mu's is for its R rows.  The values sit on
    the straddle band of the cutoff at the first, on the proof's bound
    FULL_RANK_MARGIN * STRADDLE_FACTOR * cut and one ulp either side of it,
    anywhere up to the first, or at 0; some matrices get a NaN or inf entry,
    and n = 0 and k = 0 are drawn too."""
    n = draw(st.integers(0, 5))
    m = n + draw(st.integers(0, 4))
    shape = (m + draw(st.integers(0, 30)), n)
    k = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats, sigmas = [], []
    for _ in range(k):
        top = 10.0 ** draw(st.floats(-6.0, 6.0))
        cut = la.rank_cutoff(top, shape)
        bound = la.FULL_RANK_MARGIN * la.STRADDLE_FACTOR * cut
        value = st.one_of(
            st.sampled_from(_band_edges(cut) + [np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf), 0.0]),
            st.floats(-12.0, 0.0).map(lambda e, top=top: top * 10.0**e),
        )
        sigma = sorted(draw(st.lists(value, min_size=n, max_size=n)), reverse=True)
        if n:
            sigma[0] = top
        u = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        a = (u * np.array(sigma)) @ v.conj().T
        if m * n and draw(st.integers(0, 7)) == 0:
            a[rng.integers(m), rng.integers(n)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        mats.append(a)
        sigmas.append(sigma)
    return np.array(mats, dtype=complex).reshape(k, m, n), shape, np.array(sigmas).reshape(k, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(planted_stacks())
def test_full_rank_proves_only_what_the_rule_gives(case):
    # where the Cholesky certificate holds, the rule gives rank n without a
    # straddle; it never holds with a value at or below its bound, or with
    # a non-finite entry
    a, shape, sigma = case
    proof = la.full_rank(a, shape, [la.fro(m) for m in a])
    assert proof.shape == (len(a),) and proof.dtype == bool
    for m, s, proved in zip(a, sigma, proof.tolist()):
        if not proved:
            continue
        assert np.isfinite(m).all()
        assert not len(s) or s[-1] > la.FULL_RANK_MARGIN * la.STRADDLE_FACTOR * la.rank_cutoff(s[0], shape)
        assert la.rank_decision(la.svd(m, compute_uv=False), shape) == a.shape[2]


def test_full_rank_declines_what_it_cannot_prove():
    # a NaN entry or a subnormal rounding bound tau proves nothing, and the
    # other matrices of the stack are still proved; a rank-deficient matrix
    # proves nothing
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 8, 4)) + 1j * rng.standard_normal((5, 8, 4))
    a[1, 0, 0] = np.nan
    a[3] *= 1e-100  # a matrix of small scale is still proved ...
    a[4] *= 1e-160  # ... until its rounding bound tau leaves the normal numbers
    proof = la.full_rank(a, a.shape[1:], [la.fro(m) for m in a])
    assert proof.tolist() == [True, False, True, True, False]
    deficient = a[2:3].copy()
    deficient[0, :, 2] = deficient[0, :, 0]  # rank 3
    assert la.full_rank(deficient, (8, 4), [la.fro(deficient[0])]).tolist() == [False]
    assert la.full_rank(np.zeros((0, 8, 4)), (8, 4), []).shape == (0,)
    assert la.full_rank(np.zeros((2, 3, 0)), (3, 0), [0.0, 0.0]).tolist() == [True, True]


def test_proved_block_ranks_decide_as_the_rule():
    # a row is proved where G's floor and every known value clear the band
    # at every sigma_max that the bounds allow, and its counts are the
    # rule's; it declines where a known value or the floor is on the band,
    # or a value is NaN
    shape = (40, 30)
    r = max(shape) * np.finfo(float).eps  # the rounding allowance at scale 1
    # the straddle band at the highest sigma_max, 1, and at the lowest, max(e) = 0.5
    edge_down, edge_up = (f * la.rank_cutoff(1.0, shape) for f in (1 / la.STRADDLE_FACTOR, la.STRADDLE_FACTOR))
    low_down, low_up = (f * la.rank_cutoff(0.5, shape) for f in (1 / la.STRADDLE_FACTOR, la.STRADDLE_FACTOR))
    margin = la.FULL_RANK_MARGIN * edge_up
    known = [
        [[1.01 * edge_up, 0.99 * low_down], [0.3, 0.0]],  # clear of both bands
        [[0.3, 0.0], [1.01 * low_up, 0.0]],  # above the band at sigma_max 0.5, on it at 1
        [[0.3, 0.0], [0.99 * edge_down, 0.0]],  # below the band at 1, on it at 0.5
        [[0.3, 0.0], [0.0, 0.0]],
        [[0.3, 0.0], [0.0, 0.0]],
        [[0.3, 0.0], [0.0, 0.0]],
        [[0.3, 0.0], [0.0, 0.0]],
        [[np.nan, 0.0], [0.0, 0.0]],
    ]
    e = [
        [0.5, 1.01 * margin],
        [0.5, 1.01 * margin],
        [0.5, 1.01 * margin],
        [0.5, 0.99 * edge_up],  # the floor on the band at sigma_max 1
        [0.5, margin],  # the floor on the band's margin
        [0.5, margin + 1.5 * r],  # above it less E's rounding, not less G's too
        [0.5, np.nan],
        [0.5, 1.01 * margin],
    ]
    proved, counts = la.proved_block_ranks(np.array(known), np.array(e), np.ones(8), shape[0] * shape[1], shape)
    assert proved.tolist() == [True] + [False] * 7
    assert counts[0].tolist() == [1, 1]
    g_rows = 2
    for sigma_max in (0.5, 0.75, 1.0):
        for g in (e[0][1] - 2 * r, 0.4):  # G's values anywhere above the floor
            values = np.sort(np.r_[np.ravel(known[0]), [g] * g_rows])[::-1]
            assert la.rank_decision(values, shape, sigma_max) == sum(counts[0]) + g_rows
    for row, sigma_max in ((1, 1.0), (2, 0.5)):
        with pytest.raises(RankIndeterminate):
            la.rank_decision(np.sort(np.ravel(known[row]))[::-1], shape, sigma_max)
    with pytest.raises(RankIndeterminate):
        la.rank_decision(np.array(e[3]), shape, 1.0)
    # a norm that is not finite proves nothing
    proved, _ = la.proved_block_ranks(np.array(known[:1]), np.array(e[:1]), np.array([np.inf]), 1, shape)
    assert proved.tolist() == [False]
    # a G with no rows: nothing to bound, and the known values decide alone,
    # with sigma_max(A) from their largest, 0.3, so 0.99 low_down is on its band
    alone = np.array([[[1.01 * edge_up, 0.0], [0.3, 0.0]], known[0]])
    proved, counts = la.proved_block_ranks(alone, np.zeros((2, 0)), np.ones(2), shape[0] * shape[1], shape)
    assert proved.tolist() == [True, False] and counts[0].tolist() == [1, 1]
    proved, _ = la.proved_block_ranks(alone[:1], np.zeros((1, 0)), np.array([np.inf]), 1, shape)
    assert proved.tolist() == [False]


def test_complement_by_null_space_of_adjoint():
    m = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    comp = la.null_space(m.conj().T)  # orthogonal complement of the column span
    assert comp.shape == (3, 2)
    assert np.linalg.norm(m.conj().T @ comp) < 1e-12
    np.testing.assert_allclose(comp.conj().T @ comp, np.eye(2), atol=1e-12)


def test_poly_from_roots_conventions():
    for roots, coeffs in (([], [1.0]), ([2.0, 3.0], [1.0, -5.0, 6.0])):
        out = la.poly_from_roots(roots)
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(out, coeffs)


def test_poly_from_roots_matches_np_poly():
    rng = np.random.default_rng(3)
    for _ in range(200):
        size = int(rng.integers(1, 7))
        roots = 1.5 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        np.testing.assert_allclose(la.poly_from_roots(roots), np.poly(roots), rtol=0, atol=1e-12)


def test_cluster_eigenvalues():
    vals = [1.0, 1.0 + 1e-10, 5.0, 5.0 - 1e-9j]
    clusters = la.cluster_eigenvalues(vals)
    assert len(clusters) == 2
    assert min(abs(c - 1.0) for c in clusters) < 1e-9
    assert min(abs(c - 5.0) for c in clusters) < 1e-9


def test_divided_difference_single_root_is_identity():
    beta = np.array([[0.3, 1.0], [0.0, -0.2]], dtype=complex)
    S = la.divided_difference([0.7], beta)(2.0)
    np.testing.assert_allclose(S, np.eye(2))


def test_divided_difference_matches_resolvent_formula():
    # away from eigenvalues: S = (p(eta) I - p(beta)) (eta I - beta)^{-1}
    rng = np.random.default_rng(1)
    roots = [0.3 + 0.1j, -0.5, 1.2 - 0.4j]
    beta = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    eta = 2.5 + 1.0j
    S = la.divided_difference(roots, beta)(eta)
    p_eta = np.prod([eta - z for z in roots])
    direct = (p_eta * np.eye(4) - la.matrix_poly_at_roots(beta, roots)) @ np.linalg.inv(
        eta * np.eye(4) - beta
    )
    np.testing.assert_allclose(S, direct, atol=1e-10)


def test_divided_difference_defined_at_eigenvalues():
    # polynomial in beta and eta: no singularity when eta hits the spectrum
    beta = np.diag([0.5 + 0j, -1.0 + 0j])
    S = la.divided_difference([0.0, 1.0], beta)(0.5)
    assert np.all(np.isfinite(S))
    # value against the scalar divided difference on each eigenvalue
    p = lambda t: t * (t - 1.0)
    np.testing.assert_allclose(S[1, 1], (p(0.5) - p(-1.0)) / (0.5 - (-1.0)))


def clustered_lift_data(num_roots, rng):
    """Roots, beta (4 x 4) and eta within 1e-5 of one centre, eta off beta's spectrum."""
    centre = 0.4 + 0.3j

    def near(size):
        return centre + 1e-5 * (rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))

    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    beta = q @ np.diag(near(4) - centre) @ q.conj().T + centre * np.eye(4)
    return near(num_roots), beta, complex(near(1)[0])


@pytest.mark.parametrize("num_roots", [3, 6])
def test_divided_difference_matches_mpmath_at_clustered_roots(num_roots):
    # the resolvent formula at 50 digits is the reference; expanding p into
    # coefficients loses about 1e-6 relative here at three roots, and every
    # digit at six
    rng = np.random.default_rng(num_roots)
    for _ in range(5):
        roots, beta, eta = clustered_lift_data(num_roots, rng)
        with mpmath.workdps(50):
            b = mpmath.matrix(beta.tolist())
            e, eye = mpmath.mpc(eta), mpmath.eye(4)
            p_beta, p_eta = eye, mpmath.mpc(1)
            for z in roots.tolist():
                p_beta, p_eta = p_beta * (b - z * eye), p_eta * (e - z)
            exact = (p_eta * eye - p_beta) * mpmath.inverse(e * eye - b)
            S = la.divided_difference(roots, beta)(eta)
            error = mpmath.mnorm(mpmath.matrix(S.tolist()) - exact, "f") / mpmath.mnorm(exact, "f")
            assert error < 1e-14


def test_divided_difference_of_a_batch_is_each_eta_alone():
    # every eta's value is bitwise the same whatever else is in its batch,
    # also for 1 x 1 beta, where numpy's loops run along the batch
    rng = np.random.default_rng(5)
    etas = rng.standard_normal(37) + 1j * rng.standard_normal(37)
    for size, num_roots in ((1, 3), (1, 6), (3, 1), (3, 4), (6, 3)):
        roots = rng.standard_normal(num_roots) + 1j * rng.standard_normal(num_roots)
        beta = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        S = la.divided_difference(roots, beta)
        batch = S(etas)
        assert batch.shape == (37, size, size)
        for j, eta in enumerate(etas):
            assert np.array_equal(batch[j], S(eta))
            assert np.array_equal(batch[j], S(etas[j : j + 1])[0])
        assert np.array_equal(S(etas[:36].reshape(6, 6)), batch[:36].reshape(6, 6, size, size))
    # p = 1 has no roots: S is zero
    assert np.array_equal(la.divided_difference([], beta)(etas), np.zeros((37, 6, 6)))


def test_matrix_poly_at_roots_empty():
    out = la.matrix_poly_at_roots(np.array([[4.0]]), [])
    np.testing.assert_allclose(out, [[1.0]])


def dotted(node):
    """The dotted name of a call target (np.linalg.svd), or "" where it has none."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_thresholds_live_only_in_linalg():
    # a float literal this small is a tolerance, cutoff or coincidence
    # threshold; only _linalg may define one
    package = Path(la.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-5
            ):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert stray == []


def test_svd_is_called_only_in_linalg():
    # every SVD goes through la.svd, which retries with gesvd where gesdd
    # fails to converge; only _linalg may call numpy's or scipy's directly,
    # and np.linalg.cond, an SVD inside numpy, is la.cond
    package = Path(la.__file__).parent

    calls = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and dotted(node.func) in (
                "np.linalg.svd", "np.linalg.cond", "scipy.linalg.svd"):
                calls.setdefault(path.name, []).append(node.lineno)
    assert set(calls) == {"_linalg.py"}


def scoped_calls(keep):
    """(module.function, dotted name) of each call in src/ that keep(name, call) accepts."""
    calls = []

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            name = dotted(node.func)
            if keep(name, node):
                calls.append((".".join(self.scope), name))
            self.generic_visit(node)

    for path in sorted(Path(la.__file__).parent.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text(), str(path)))
    return calls


def test_eigensolver_is_called_only_in_linalg_eigenvalues():
    # each chain matrix is decomposed once per datum, through la.eigenvalues;
    # np.poly of a matrix runs a second eigensolver, so src/ calls it nowhere
    calls = scoped_calls(
        lambda name, _: name.split(".")[-1] == "eigvals" or name in ("np.poly", "numpy.poly")
    )
    assert calls == [("_linalg.eigenvalues", "np.linalg.eigvals")]


def test_eigenvectors_are_taken_once_per_n1_attempt():
    # an n = 1 attempt decomposes each nonempty chain endpoint once, with its
    # eigenvectors, for the spectra and the shared-spectrum step alike
    calls = scoped_calls(lambda name, _: name.split(".")[-1] == "eig")
    assert calls == [("generator._attempt", "np.linalg.eig")]


def test_null_space_is_null_spaces_of_one_matrix():
    # one kernel routine: the zero shortcut, the SVD and the kernel slice
    # are written once, in null_spaces
    calls = scoped_calls(lambda name, _: True)
    assert [name for scope, name in calls if scope == "_linalg.null_space"] == ["null_spaces", "cmat"]


def test_lapack_is_reached_only_through_linalg():
    # only _linalg imports scipy.linalg.lapack; la.schur is the one Schur
    # entry point (zgees, with its workspace query), and la.sylvester is
    # the one caller of it
    package = Path(la.__file__).parent
    lapack_users = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [dotted(node)]
            if any("lapack" in name.split(".") for name in names):
                lapack_users.add(path.name)
    assert lapack_users == {"_linalg.py"}

    gees = scoped_calls(lambda name, _: name.split(".")[-1].endswith("gees"))
    assert {scope for scope, _ in gees} == {"_linalg.schur"}
    schurs = scoped_calls(lambda name, _: name.split(".")[-1] == "schur")
    assert set(schurs) == {("_linalg.sylvester", "schur")}


def test_norm_is_whole_array_only_through_fro():
    # la.fro is numpy's Frobenius arithmetic without np.linalg.norm's dispatch;
    # a norm along an axis is a different computation and may stay
    calls = scoped_calls(
        lambda name, call: name.split(".")[-2:] == ["linalg", "norm"]
        and len(call.args) < 3 and not any(kw.arg == "axis" for kw in call.keywords)
    )
    assert [scope for scope, _ in calls if not scope.startswith("_linalg.")] == []


def test_scipy_solve_sylvester_is_not_used():
    # its wrappers cost more than the solve at the package's sizes; la.sylvester
    # computes the same bits
    package = Path(la.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                uses += [path.name for alias in node.names if alias.name == "solve_sylvester"]
            elif isinstance(node, ast.Attribute) and dotted(node).endswith("linalg.solve_sylvester"):
                uses.append(path.name)
    assert uses == []


def test_polynomials_stay_in_root_form():
    # Expanded coefficients of p(t) = prod_j (t - z_j) lose relative accuracy
    # as the roots cluster (see the mpmath test above).  Only bowdata's
    # charpoly telescope, which compares coefficients on purpose, forms
    # them, and no module evaluates a polynomial at a matrix by Horner's
    # rule, acc = acc @ m + c, the form that consumed them.
    package = Path(la.__file__).parent

    def horner_step(node):
        # acc = acc @ m + c, or any order of the sum and of the product
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
            return False
        acc, value = node.targets[0].id, node.value
        if not (isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub))):
            return False
        return any(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.MatMult)
            and any(isinstance(f, ast.Name) and f.id == acc for f in (side.left, side.right))
            for side in (value.left, value.right)
        )

    callers, steps = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and dotted(node.func).split(".")[-1] == "poly_from_roots":
                callers.add(path.name)
            if isinstance(node, (ast.For, ast.While)):
                steps += [f"{path.name}:{n.lineno}" for n in ast.walk(node) if horner_step(n)]
    assert callers == {"bowdata.py"}
    assert steps == []


def test_only_the_cli_entry_point_ends_the_process():
    # os._exit skips the caller's cleanup; a library function that called it
    # would end an embedding process, so only the command line may
    calls = scoped_calls(
        lambda name, _: name.split(".")[-1] in ("_exit", "_run_exitfuncs")
    )
    assert sorted(calls) == [
        ("cli.entrypoint", "atexit._run_exitfuncs"), ("cli.entrypoint", "os._exit"),
    ]
