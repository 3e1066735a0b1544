"""Shared numerical conventions: residuals, rank thresholds, null spaces.

Every tolerance, cutoff and coincidence threshold of the package is defined
here.  The bounds that reject random draws (the generators' bounds on `cond`,
random_points' clearance from the spectra) are sampling policy and stay with
their draws.  Every SVD, condition numbers included, goes through `svd`, which
retries with gesvd where gesdd fails to converge.  Every rank decision goes
through `rank_decision`, so the convention (the ranked matrix's own sigma_max *
max(dim) * eps * 64) and the straddle rule are set once.  There is one rule: a
singular value too close to the cutoff to call raises RankIndeterminate and is
never rounded.

A block-diagonal matrix is ranked from the union of its blocks' singular
values, which is its own spectrum.  Independent matrices share one padded
SVD (padded_spectra), each ranked at its own shape and sigma_max.  One
product is ranked against its parent's scale instead of its own: the
monad's W^H delta (the cokernel of gamma applied to delta) sits at rounding
level when it should be zero, so it is ranked at fro(Bmap) and Bmap's
shape, as a rank of the whole Bmap would see it (see monad.MonadStack).
"""

from __future__ import annotations

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
# between them is ill posed, and a spectral projector takes them together.
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

_EPS = float(np.finfo(np.float64).eps)


def cmat(a) -> np.ndarray:
    """Coerce to a 2-d complex array without copying when possible."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={m.ndim}")
    return m


def fro(a) -> float:
    m = np.asarray(a)
    return 0.0 if m.size == 0 else float(np.linalg.norm(m))


def rel_residual(lhs, rhs) -> float:
    """Scale-free mismatch ||lhs - rhs||_F / (1 + ||lhs||_F + ||rhs||_F)."""
    lhs = np.asarray(lhs, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if lhs.shape != rhs.shape:
        raise ValueError(f"residual of mismatched shapes {lhs.shape} vs {rhs.shape}")
    return fro(lhs - rhs) / (1.0 + fro(lhs) + fro(rhs))


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


def null_space(m, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m.

    The rank of m is decided by rank_decision unless the caller has already
    decided it (a block ranked within its whole matrix) and passes it.
    """
    m = cmat(m)
    if fro(m) == 0.0:  # also when m has no rows or no columns
        return np.eye(m.shape[1], dtype=np.complex128)
    _, s, vh = svd(m)
    if rank is None:
        rank = rank_decision(s, m.shape)
    return vh[rank:].conj().T


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


def charpoly(m) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first."""
    m = cmat(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"charpoly of non-square matrix {m.shape}")
    if m.shape[0] == 0:
        return np.array([1.0 + 0j])
    return np.atleast_1d(np.poly(m)).astype(np.complex128)


def poly_from_roots(roots) -> np.ndarray:
    """Coefficients of prod(t - r) over the given roots, highest first."""
    return np.atleast_1d(np.poly(np.asarray(roots, dtype=np.complex128))).astype(
        np.complex128
    )


def polyval_matrix(coeffs, m) -> np.ndarray:
    """Evaluate a polynomial (highest-first coefficients) at a square matrix.

    `coeffs` may carry trailing axes, one polynomial per index; the result
    then has those axes in front of m's.
    """
    m = cmat(m)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    d = m.shape[0]
    out = np.zeros(coeffs.shape[1:] + (d, d), dtype=np.complex128)
    eye = np.eye(d, dtype=np.complex128)
    for c in coeffs[..., None, None]:
        out = out @ m + c * eye
    return out


def matrix_poly_at_roots(m, roots) -> np.ndarray:
    """prod_j (m - z_j I), computed as an explicit product of commuting factors."""
    m = cmat(m)
    d = m.shape[0]
    out = np.eye(d, dtype=np.complex128)
    for z in roots:
        out = out @ (m - complex(z) * np.eye(d, dtype=np.complex128))
    return out


def divided_difference(coeffs, eta, beta) -> np.ndarray:
    """The matrix divided difference (p(eta) I - p(beta)) (eta I - beta)^{-1}.

    Here p has the highest-first coefficients `coeffs`; for
    p(t) = prod_j (t - z_j) they are poly_from_roots(z).  Computed as the
    synthetic-division quotient q(t) = (p(t) - p(eta)) / (t - eta) evaluated
    at beta, so the result is a polynomial in beta and eta; no inversion is
    ever performed and the formula is valid also when eta is an eigenvalue.
    `eta` may be an array of points; the result then has eta's shape in
    front of beta's.
    """
    beta = cmat(beta)
    etas = np.asarray(eta, dtype=np.complex128)
    quot = np.zeros((len(coeffs) - 1, etas.size), dtype=np.complex128)
    for col, e in enumerate(etas.ravel().tolist()):
        # Horner/synthetic division of p by (t - e); drop the remainder p(e).
        acc = 0.0 + 0.0j
        for i in range(len(coeffs) - 1):
            acc = coeffs[i] + e * acc
            quot[i, col] = acc
    return polyval_matrix(quot.reshape(quot.shape[:1] + etas.shape), beta)


def spectral_projector(m, eigenvalue: complex) -> np.ndarray:
    """Spectral projector of a diagonalizable matrix at one eigenvalue cluster."""
    m = cmat(m)
    vals, vecs = np.linalg.eig(m)
    idx = np.abs(vals - complex(eigenvalue)) < SYLVESTER_GAP
    if not np.any(idx):
        raise ValueError(f"{eigenvalue} is not an eigenvalue (tol {SYLVESTER_GAP})")
    vinv = np.linalg.inv(vecs)
    return vecs[:, idx] @ vinv[idx, :]
