"""Shared numerical conventions: residuals, rank thresholds, null spaces.

Every tolerance, cutoff and coincidence threshold of the package is defined
here.  The bounds that reject random draws (the generators' bounds on `cond`,
random_points' clearance from the spectra) are sampling policy and stay with
their draws.  Every SVD, condition numbers included, goes through `svd`, which
retries with gesvd where gesdd fails to converge.  Every rank decision goes
through `rank_decision`, so the convention (the ranked matrix's own sigma_max *
max(dim) * eps * 64) and the straddle rule are set once.  There is one rule: a
singular value too close to the cutoff to call raises RankIndeterminate and is
never rounded.  Its stacked form, `rank_decisions`, gives each row of a stack
of singular values the rank or the exception that the rule gives.  There is one
kernel routine, `null_spaces`: the kernels of many matrices, each at a rank
decided before or by the rule, one SVD call per shape (`null_space` is its call
for one matrix).  `full_rank` proves, without an SVD, a full rank that the rule
would give: where its Cholesky certificate holds, every singular value lies far
above the straddle band.  It is not a second rule: where it proves nothing, the
caller asks `rank_decision`, which alone defines the cutoff, the straddle test
and its message.  Nor is `proved_block_ranks`, which proves the rule's
decision on a block-diagonal matrix with one block whose singular values are
known only to lie above a floor (the monad's chain proof of G's rank),
with one allowance for the rounding of every svd it reasons about: max(shape)
eps times a bound on every sigma_max involved.  Each states the rounding it
allows for (gamma_n, Higham's n eps / (1 - n eps)).

Every Schur form goes through `schur`, the one caller of LAPACK zgees, and
`sylvester` solves P X - X Q = C from two of them with ztrsyl.  Both run
the steps of scipy.linalg.schur and solve_sylvester and return their bits,
without scipy's per-call wrappers, which cost more than the arithmetic on
the package's blocks of a few rows.  For the same reason `fro` is numpy's
own Frobenius arithmetic without np.linalg.norm's dispatch: every residual
keeps the bits that np.linalg.norm gives it.

The two routines come from `_lapack`: scipy's compiled LAPACK binding,
scipy.linalg._flapack, loaded alone from scipy's install directory and
registered under its own name, so that a later `import scipy.linalg` reuses
it.  The package init of scipy.linalg loads scipy's array-API layer
(numpy.testing, numpy.ma, unittest, ...), which takes many times the
binding's own load time and memory and which the package never calls; so
`gen`, and any process that only generates data, loads numpy and the
binding and no other part of scipy.  Only the gesvd retry of `svd` imports
scipy.linalg.

A block-diagonal matrix is ranked from the union of its blocks' singular
values, which is its own spectrum; a block's rank is the count of its values
above that decision's cutoff, in `block_ranks` and `proved_block_ranks`
alike.  Independent matrices share one padded SVD (padded_spectra), each
ranked at its own shape and sigma_max.  One product is ranked against its
parent's scale instead of its own: the monad's W^H delta (the cokernel of
gamma applied to delta) sits at rounding level when it should be zero, so
it is ranked at fro(Bmap) and Bmap's shape, as a rank of the whole Bmap
would see it (see monad.MonadStack).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from collections.abc import Callable, Sequence

import numpy as np

from .errors import RankIndeterminate

# Scale-free residual below which a defining equation holds: the bow
# relations, and the surface equation xi * psi = prod_i (eta - z_i).
DEFAULT_TOL = 1e-9
# Tolerance for derived invariants, which amplify rounding.
DERIVED_TOL = 1e-6
# Tolerance for the pairing identities.
PAIRING_TOL = 1e-8
# Residual below which a generated datum, Sylvester solve or factorization is exact.
GENERATION_TOL = 1e-10
# Points of the eta plane closer than this coincide: split eigenvalues merge,
# an eigenvalue sits on a NUT position z_i, and eta hits a resolvent pole.
EIG_CLUSTER_TOL = 1e-8
# Eigenvalues of two matrices closer than this are shared: a Sylvester solve
# between them is ill posed.
SYLVESTER_GAP = 1e-6
# Least gap that generate keeps between the eigenvalues it draws for the
# interior beta_i and every eigenvalue drawn or fixed before them, well above
# SYLVESTER_GAP, so that each Sylvester solve for A_i is well posed.
SPECTRAL_SEPARATION = 1e-3
# Pairing matrices with sigma_min <= K_CONDITION_FLOOR * sigma_max are degenerate.
K_CONDITION_FLOOR = 1e-8
# Safety factor on top of the standard numerical-rank convention.
RANK_SAFETY = 64
# Singular values within this factor of the cutoff (either side) make a
# rank decision indeterminate.
STRADDLE_FACTOR = np.sqrt(10.0)
# full_rank and proved_block_ranks prove singular values above this factor
# times the straddle band's upper edge.  In full_rank the margin covers the
# rounding of the rule's own SVD; proved_block_ranks allows for that rounding
# in its floor, and keeps the margin as room to spare.
FULL_RANK_MARGIN = 2.0
# Below this many rows a stacked rank decision takes its rows one by one (about
# 7 us a row, against 25-30 us a call in numpy): fiber_form's one-point stacks,
# the two-point chunks of an m0 = 20 scan and the one-point chunks of m0 = 40;
# 40 mirror forms took 14 % longer without it.
STACKED_DECISION_ROWS = 6

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def cmat(a) -> np.ndarray:
    """Coerce to a 2-d complex array without copying when possible."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={m.ndim}")
    return m


def fro(a) -> float:
    """Frobenius norm by numpy's own arithmetic for it, without np.linalg.norm's
    dispatch: the bits of float(np.linalg.norm(a)) for any double-precision,
    integer or bool array of any shape or layout, empty ones included."""
    x = np.asarray(a)
    kind = x.dtype.kind
    if kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def rel_residual(lhs, rhs) -> float:
    """Scale-free mismatch ||lhs - rhs||_F / (1 + ||lhs||_F + ||rhs||_F).

    fro squares the entries, so a norm of entries above about 1e154
    overflows, with no warning; only then are both sides divided by their
    largest magnitude first, which keeps the residual finite unless an
    entry is not.
    """
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if lhs.shape != rhs.shape:
        raise ValueError(f"residual of mismatched shapes {lhs.shape} vs {rhs.shape}")
    with np.errstate(over="ignore"):  # handled below
        diff, lnorm, rnorm = fro(lhs - rhs), fro(lhs), fro(rhs)
    if not math.isfinite(diff + lnorm + rnorm):
        scale = float(np.abs(np.concatenate((lhs.ravel(), rhs.ravel()))).max())
        if math.isfinite(scale):
            lhs, rhs = lhs / scale, rhs / scale
            return fro(lhs - rhs) / (1.0 / scale + fro(lhs) + fro(rhs))
    return diff / (1.0 + lnorm + rnorm)


def rank_cutoff(sigma_max: float, shape: tuple[int, int]) -> float:
    return sigma_max * max(shape + (1,)) * _EPS * RANK_SAFETY


def rank_decision(s, shape: tuple[int, int], sigma_max: float | None = None) -> int:
    """Numerical rank from the singular values `s` of a matrix of `shape`.

    `s` is sorted in descending order, as an SVD returns it.  The rank is
    the count of singular values above rank_cutoff(sigma_max, shape); a
    singular value within STRADDLE_FACTOR of the cutoff, on either side,
    raises RankIndeterminate.  By the ordering, some value straddles the
    cutoff exactly when one of the two values next to it does.  sigma_max
    defaults to s[0]; the one product ranked at its parent's scale passes
    the parent's scale and shape (see the module docstring).
    """
    if sigma_max is None:
        sigma_max = float(s[0]) if len(s) else 0.0
    cut = rank_cutoff(sigma_max, shape)
    rank = int(np.count_nonzero(s > cut))
    if (rank > 0 and s[rank - 1] < cut * STRADDLE_FACTOR) or (
        rank < len(s) and s[rank] > cut / STRADDLE_FACTOR
    ):
        straddling = s[(s > cut / STRADDLE_FACTOR) & (s < cut * STRADDLE_FACTOR)]
        raise RankIndeterminate(f"singular values {straddling} straddle cutoff {cut:.3e}")
    return rank


def rank_decisions(s, shape: tuple[int, int], sigma_max=None) -> list:
    """rank_decision(s[r], shape, sigma_max[r]) for each row r of the k x m
    array `s`: a list of ranks, each an int or the RankIndeterminate that
    its row raised.

    Each row is sorted in descending order, as an SVD returns it; sigma_max,
    one scale per row, defaults to each row's first value.  A stack of fewer
    than STACKED_DECISION_ROWS rows is decided row by row.  A larger one
    counts each row's values above its cutoff (rank_cutoff, elementwise,
    so with the rule's bits) in numpy, and hands to rank_decision only the
    rows with a value on the straddle band or inside it, or a value that is
    not finite; so the straddle test and its message are defined there
    alone.
    """
    s = np.asarray(s)
    if len(s) < STACKED_DECISION_ROWS:
        scales = [None] * len(s) if sigma_max is None else sigma_max
        return [_decided(row, shape, scale) for row, scale in zip(s, scales)]
    if sigma_max is None:
        sigma_max = s[:, 0] if s.shape[1] else np.zeros(len(s))
    cut = rank_cutoff(np.asarray(sigma_max, dtype=float), shape)[:, None]
    above = s > cut
    near = ((s >= cut / STRADDLE_FACTOR) & (s <= cut * STRADDLE_FACTOR)).any(axis=1)
    ranks: list = above.sum(axis=1).tolist()
    for r in np.flatnonzero(near | ~np.isfinite(s.sum(axis=1) + cut[:, 0])).tolist():
        ranks[r] = _decided(s[r], shape, sigma_max[r])
    return ranks


def _decided(s, shape: tuple[int, int], sigma_max) -> int | RankIndeterminate:
    try:
        return rank_decision(s, shape, sigma_max)
    except RankIndeterminate as exc:
        return exc


def full_rank(a, shape: tuple[int, int], scale) -> np.ndarray:
    """Per matrix A of the k x m x n stack `a` (m >= n): True where a Cholesky
    factorization proves every singular value of A above FULL_RANK_MARGIN *
    STRADDLE_FACTOR * rank_cutoff(scale, shape), so that rank_decision gives
    rank n with no straddle; False proves nothing.

    `scale`, one per matrix, is fro(A), which bounds sigma_max from above.
    The proof is a Cholesky factor of A^H A - tau I, with tau that bound
    squared plus 2 ((m + 2) + (n + 1) (n + 2)) eps fro(A)^2, a bound on the
    rounding of the complex Gram product (an inner product of length m
    carries gamma_{m+2} in complex arithmetic) and of its complex Cholesky
    factorization, with room to spare; it holds while tau is a normal
    number.  A subnormal tau, or a non-finite entry or scale, leaves a
    non-finite pivot, and proves nothing.  Where the batched factorization
    fails (some matrix of the stack is not proved), the whole stack is left
    unproved: the caller's SVD path decides every matrix as the rule would
    have without the proof.
    """
    a = np.asarray(a)
    k, m, n = a.shape
    scale = np.asarray(scale, dtype=float)
    bound = FULL_RANK_MARGIN * STRADDLE_FACTOR * rank_cutoff(scale, shape)
    tau = bound * bound + 2.0 * ((m + 2) + (n + 1) * (n + 2)) * _EPS * (scale * scale)
    diagonal = np.arange(n)
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.matmul(a.conj().transpose(0, 2, 1), a)
        gram[:, diagonal, diagonal] -= np.where(tau >= _TINY, tau, np.nan)[:, None]
    try:
        pivots = np.linalg.cholesky(gram)[:, diagonal, diagonal]
    except np.linalg.LinAlgError:  # some matrix has no factor
        return np.zeros(k, dtype=bool)
    return np.isfinite(pivots).all(axis=1)


def fros(stack) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, as one dot product of its
    entries (a complex entry as its real and imaginary parts)."""
    rows = np.ascontiguousarray(stack).reshape(len(stack), 1, -1)
    rows = rows.view(np.float64) if rows.dtype.kind == "c" else rows
    with np.errstate(over="ignore"):  # entries above about 1e154: an inf norm, and an inf residual
        return np.sqrt(rows @ rows.transpose(0, 2, 1)).reshape(len(stack))


def block_ranks(spectra: list[np.ndarray], shape: tuple[int, int]) -> list:
    """Per matrix of a stack, block diagonal in blocks whose singular values
    are spectra[b] (k x size_b): its block ranks, or the RankIndeterminate
    that rank_decisions raised on the union of its blocks' values (its own
    spectrum) at `shape`.  A block's rank is the count of its values above
    the decision's cutoff, rank_cutoff of the union's largest value."""
    sizes = [s.shape[1] for s in spectra]
    union = np.concatenate(spectra, axis=1)
    ranks = rank_decisions(np.sort(union, axis=1)[:, ::-1], shape)
    if all(r == union.shape[1] for r in ranks):  # every row full: each block at its size, no count to take
        return [sizes] * len(ranks)
    cut = rank_cutoff(union.max(axis=1, initial=0.0), shape)
    owner = np.repeat(np.eye(len(sizes), dtype=np.intp), sizes, axis=0)
    counts = ((union > cut[:, None]) @ owner).tolist()
    return [r if isinstance(r, RankIndeterminate) else row for r, row in zip(ranks, counts)]


def proved_block_ranks(p, e, norms, size: int, shape: tuple[int, int]):
    """Per matrix A of a stack, block diagonal in blocks whose singular
    values are known, p[j] (k x b x w, each block's values zero-padded), and
    one block G whose rows(G) values (maybe none) are known only through a
    block E of it, G G^H >= E E^H, whose values svd gave as e[j] (NaN where
    E is no such block): (proved, ranks).  Where proved[j], rank_decision on
    A's values, G's as svd computes them, at A's `shape`, counts all of G's
    and ranks[j, i] of block i's, and none straddles.  norms[j] is what fros
    gave for a matrix of `size` entries that holds A, E and every block of p.

    One allowance, r = max(shape) eps scale, stands for svd's rounding of
    each value (LAPACK's bound p(m, n) eps sigma_max, p a modest function of
    the shape; the LAPACK Users' Guide takes p = 1): scale, norms times 1 +
    gamma_{2 size + 1} for fros' sum of 2 size real squares and its square
    root, bounds every sigma_max involved, and no matrix whose values are
    used here has a side longer than max(shape).  So svd gives G's values
    at least min(e) - 2r (E's rounding, then G's), and sigma_max(A) in
    [low, high] = [max(p's largest, max(e) - 2r), scale + r].  A row is
    proved where that floor is above FULL_RANK_MARGIN times the straddle
    band's upper edge at high, and every known value is above that edge or
    below the band's lower edge at low: clear of the band at each sigma_max
    in [low, high].  A block's rank is then the count of its values above
    the band.  A bound that is not finite proves nothing."""
    scale = np.asarray(norms) * (1.0 + _gamma(2 * size + 1))
    r = max(shape) * _EPS * scale
    low = np.maximum(p.max(axis=(1, 2), initial=0.0), e.max(axis=1, initial=0.0) - 2.0 * r)
    top = STRADDLE_FACTOR * rank_cutoff(scale + r, shape)[:, None, None]
    above = p > top
    clear = (above | (p < rank_cutoff(low, shape)[:, None, None] / STRADDLE_FACTOR)).all(axis=(1, 2))
    return (e.min(axis=1, initial=np.inf) > FULL_RANK_MARGIN * top[:, 0, 0] + 2.0 * r) & clear, above.sum(axis=2)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n eps / (1 - n eps), the relative rounding of n operations."""
    return n * _EPS / (1.0 - n * _EPS)


def svd(m, compute_uv: bool = True):
    """np.linalg.svd of a matrix or a stack, retried with gesvd where gesdd fails."""
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        import scipy.linalg  # deferred: importing scipy.linalg dominates CLI start-up
        return scipy.linalg.svd(m, compute_uv=compute_uv, lapack_driver="gesvd")


def cond(m) -> float:
    """np.linalg.cond(m), the ratio sigma_max / sigma_min, from svd."""
    s = svd(m, compute_uv=False)
    with np.errstate(all="ignore"):
        return s[0] / s[-1]


def padded_spectra(stacks: list[np.ndarray]) -> np.ndarray:
    """Singular values of the matrices of stacks (stack b is k_b x rows_b x cols_b)
    from one SVD of all of them zero-padded to one shape: one row per matrix, in
    order.  Padding adds zeros, which sort last: b's own are [:min(rows_b, cols_b)]."""
    rows, cols = (max((s.shape[axis] for s in stacks), default=0) for axis in (1, 2))
    padded = np.zeros((sum(map(len, stacks)), rows, cols), dtype=np.complex128)
    start = 0
    for s in stacks:
        padded[start : start + len(s), : s.shape[1], : s.shape[2]] = s
        start += len(s)
    return svd(padded, compute_uv=False)


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's f2py LAPACK extension, the module that defines zgees and ztrsyl.

    The one already imported, if any.  Otherwise the extension file in
    scipy's linalg directory, loaded without scipy.linalg's package init and
    registered in sys.modules under its own name, where `import scipy.linalg`
    finds it later (as `from scipy.linalg import _flapack`; the import does
    not set it as an attribute of the package).  An install without that
    file gets the same compiled routines from scipy.linalg.lapack.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    for home in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(home, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_FLAPACK, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_FLAPACK] = module
                return module
    from scipy.linalg import lapack

    return lapack


def _unsorted(w) -> None:
    """zgees's eigenvalue selector when no sorting is asked for."""


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, Z), a = Z T Z^H, of a nonempty square matrix.

    LAPACK zgees, called as scipy.linalg.schur calls it, with the same bits:
    the workspace size comes from zgees's own query (a fixed minimum changes
    the result of large matrices).  Raises LinAlgError where zgees fails.
    """
    lapack = _lapack()
    a = cmat(a)
    lwork = int(lapack.zgees(_unsorted, a, lwork=-1)[-2][0].real)
    t, _, _, z, _, info = lapack.zgees(_unsorted, a, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgees failed (info = {info}): no Schur form")
    return t, z


def sylvester(P, Q, C) -> np.ndarray:
    """X with P X - X Q = C, for nonempty square P and Q (Bartels-Stewart).

    The steps, and the bits, of scipy.linalg.solve_sylvester(P, -Q, C) on
    complex input: P = U R U^H and -Q^H = V S V^H by schur, then ztrsyl solves
    R Y + Y S^H = scale * (U^H C) V, and X = U (scale Y) V^H.  ztrsyl
    perturbs eigenvalues too close to separate (info = 1) without raising;
    the caller checks the gap and the residual.
    """
    P, Q, C = cmat(P), cmat(Q), cmat(C)
    R, U = schur(P)
    S, V = schur(-Q.conj().T)
    F = np.dot(np.dot(U.conj().T, C), V)
    Y, scale, _ = _lapack().ztrsyl(R, S, F, tranb="C")
    return np.dot(np.dot(U, scale * Y), V.conj().T)


def null_space(m, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m: null_spaces([m], [rank])[0]."""
    return null_spaces([cmat(m)], [rank])[0]


def null_spaces(ms: Sequence[np.ndarray], ranks: Sequence[int | None]) -> list[np.ndarray]:
    """Orthonormal bases (columns) of the kernels of the complex matrices `ms`,
    each at its rank in `ranks`, decided by the caller, or None: decided by
    rank_decision from the matrix's own singular values.  The SVDs of the
    nonzero matrices of one shape are one svd call, which gives each matrix
    the bits of its own SVD."""
    out: list = [None] * len(ms)
    by_shape: dict[tuple, list[int]] = {}
    for t, m in enumerate(ms):
        if fro(m) == 0.0:  # also when m has no rows or no columns
            out[t] = np.eye(m.shape[1], dtype=np.complex128)
        else:
            by_shape.setdefault(m.shape, []).append(t)
    for ts in by_shape.values():
        _, ss, vhs = svd(np.stack([ms[t] for t in ts]) if len(ts) > 1 else ms[ts[0]][None])
        for t, s, vh in zip(ts, ss, vhs):
            rank = rank_decision(s, ms[t].shape) if ranks[t] is None else ranks[t]
            out[t] = vh[rank:].conj().T
    return out


def eigenvalues(m) -> np.ndarray:
    m = cmat(m)
    if m.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    return np.linalg.eigvals(m)


def cluster_eigenvalues(vals) -> list[complex]:
    """Greedy clustering of (complex) eigenvalues; returns cluster means.

    Avoids double-counting multiple roots that rounding has split.
    """
    means: list[complex] = []
    members: list[list[complex]] = []
    for v in sorted(np.asarray(vals, dtype=np.complex128), key=lambda c: (c.real, c.imag)):
        for idx, mu in enumerate(means):
            if abs(v - mu) <= EIG_CLUSTER_TOL:
                members[idx].append(v)
                means[idx] = complex(np.mean(members[idx]))
                break
        else:
            means.append(complex(v))
            members.append([complex(v)])
    return means


def poly_from_roots(roots) -> np.ndarray:
    """Coefficients of prod(t - r) over the given roots, highest first, by
    synthetic multiplication: no roots give [1]."""
    roots = np.asarray(roots, dtype=np.complex128)
    coeffs = np.zeros(roots.size + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    for r in roots.tolist():
        coeffs[1:] -= r * coeffs[:-1]
    return coeffs


def matrix_poly_at_roots(m, roots) -> np.ndarray:
    """prod_j (m - z_j I), computed as an explicit product of commuting factors."""
    m = cmat(m)
    d = m.shape[0]
    out = np.eye(d, dtype=np.complex128)
    for z in roots:
        out = out @ (m - complex(z) * np.eye(d, dtype=np.complex128))
    return out


def divided_difference(roots, beta) -> Callable[[object], np.ndarray]:
    """S(eta) = (p(eta) I - p(beta)) (eta I - beta)^{-1} for p(t) = prod_j (t - z_j),
    as a function of eta of any shape (the result has eta's shape, then beta's).

    By telescoping, S = sum_j head_j(eta) tail_j with head_j = prod_{l<j}
    (eta - z_l) and tail_j = prod_{l>j} (beta - z_l), formed here once: a
    polynomial in beta and eta, valid also where eta is an eigenvalue, and
    built from the roots, not from p's coefficients, whose expansion loses
    relative accuracy as the roots cluster.  No roots give S = 0.  Each
    complex factor that depends on eta is split into real multiples of 1 and
    i: numpy multiplies complex arrays with fused multiply-adds in some loops
    only, so an eta's value would otherwise depend on the rest of its batch.
    """
    roots = [complex(z) for z in roots]
    beta = cmat(beta)
    tails = (matrix_poly_at_roots(beta, roots[j + 1 :]) for j in range(len(roots)))
    terms = [(tail, 1j * tail) for tail in tails]

    def at(eta) -> np.ndarray:
        eta = np.asarray(eta, dtype=np.complex128)[..., None, None]
        out = np.zeros(eta.shape[:-2] + beta.shape, dtype=np.complex128)
        head = np.ones_like(eta)
        for j, (tail, i_tail) in enumerate(terms):
            if j:
                step = eta - roots[j - 1]
                head = step.real * head + step.imag * (1j * head)
                tail = head.real * tail + head.imag * i_tail
            out += tail
        return out

    return at
