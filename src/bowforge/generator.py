"""Random and canonical bow data that provably satisfy every relation.

The NUT chain is built by seeding at the smallest block of the dimension
profile and factoring outward, so each factorization constrains only a
freshly drawn matrix.  Profiles whose interior contains a strict peak would
require a simultaneous eigenstructure completion across several nodes; those
are reported as infeasible rather than forced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .bowdata import (
    BowDatum,
    aggregate_maps,
    check_chain_invariants,
    check_exactness_all,
    validate_relations,
)
from .errors import (
    ChainInfeasible,
    FlavorChargeMismatch,
    RankIndeterminate,
    RankTooLarge,
    RetriesExhausted,
    SpectraOverlap,
    ValidationFailure,
)
from .orthosymplectic import PairingDatum, expected_signs, verify_pairing_relations
from .topology import TopologicalData, compute_dimensions, validate_topology

# Draws a generator makes before giving up on a topology.
ATTEMPTS = 20


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """iid standard complex Gaussian entries."""
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def solve_sylvester(P, Q, C) -> np.ndarray:
    """Unique X with P X - X Q = C, for disjoint spectra of P and Q.

    Raises SpectraOverlap when the smallest eigenvalue gap between P and Q
    is at most SYLVESTER_GAP; under the precondition the solution is unique
    and the relative residual is checked to be below GENERATION_TOL.
    """
    return _solve_sylvester(P, Q, C, la.eigenvalues(P), la.eigenvalues(Q))


def _solve_sylvester(P, Q, C, eigenvalues_p, eigenvalues_q) -> np.ndarray:
    P, Q, C = la.cmat(P), la.cmat(Q), la.cmat(C)
    q, r = P.shape[0], Q.shape[0]
    if C.shape != (q, r):
        raise ValueError(f"C has shape {C.shape}, expected ({q}, {r})")
    if q == 0 or r == 0:
        return np.zeros((q, r), dtype=np.complex128)
    gap = float(np.min(np.abs(eigenvalues_p[:, None] - eigenvalues_q[None, :])))
    if gap <= la.SYLVESTER_GAP:
        raise SpectraOverlap(f"spectra of P and Q are {gap:.3e} apart (need > {la.SYLVESTER_GAP})")
    import scipy.linalg  # deferred: importing scipy.linalg dominates CLI start-up

    X = scipy.linalg.solve_sylvester(P, -Q, C)
    res = la.fro(P @ X - X @ Q - C) / (1.0 + la.fro(C))
    if res >= la.GENERATION_TOL:
        raise ValidationFailure(f"sylvester solve residual {res:.3e} too large")
    return X


def rank_factorization(
    C, inner: int, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Factor a square matrix as L @ R with inner dimension `inner`.

    Uses a truncated SVD.  When inner exceeds rank(C), the extra columns of
    L are random unit-norm combinations of the left null directions; extra
    rows of R live in ker(L_extra) composed with the right null directions,
    so the product is unchanged and both factors have the largest rank the
    exact reconstruction allows.  Raises RankIndeterminate when rank(C) is
    too close to call (see rank_decision).
    """
    C = la.cmat(C)
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got {C.shape}")
    if inner < 0:
        raise ValueError("inner dimension must be nonnegative")
    a = C.shape[0]
    rng = rng if rng is not None else np.random.default_rng(0)

    if a == 0:
        return np.zeros((0, inner), dtype=np.complex128), np.zeros(
            (inner, 0), dtype=np.complex128
        )
    u, s, vh = la.svd(C)
    r0 = la.rank_decision(s, C.shape)
    if r0 > inner:
        raise RankTooLarge(f"rank(C) = {r0} exceeds inner dimension {inner}")

    sq = np.sqrt(s[:r0])
    L = u[:, :r0] * sq[None, :]
    R = sq[:, None] * vh[:r0, :]
    pad = inner - r0
    if pad == 0:
        return L, R

    left_null = u[:, r0:]  # a x (a - r0)
    if left_null.shape[1] > 0:
        extra = left_null @ ginibre(rng, left_null.shape[1], pad)
        norms = np.linalg.norm(extra, axis=0)
        extra = extra / np.where(norms > 0, norms, 1.0)
    else:
        extra = np.zeros((a, pad), dtype=np.complex128)
    L = np.hstack([L, extra])

    R_extra = np.zeros((pad, a), dtype=np.complex128)
    ker = la.null_space(extra)  # columns of R_extra must stay inside it
    right_null = vh[r0:, :]
    if ker.shape[1] > 0 and right_null.shape[0] > 0:
        rows = ker @ ginibre(rng, ker.shape[1], right_null.shape[0]) @ right_null
        # only a global scale keeps the columns inside ker(extra)
        top = float(np.max(np.linalg.norm(rows, axis=1)))
        R_extra = rows / top if top > 0 else rows
    R = np.vstack([R, R_extra])

    res = la.fro(L @ R - C) / (1.0 + la.fro(C))
    if res >= la.GENERATION_TOL:
        raise ValidationFailure(f"rank factorization residual {res:.3e} too large")
    return L, R


def _chain_profile_kind(dn: tuple[int, ...]) -> int:
    """Index of the valley node for monotone/valley profiles; raises otherwise."""
    j0 = int(np.argmin(dn))
    left_ok = all(dn[j] >= dn[j + 1] for j in range(j0))
    right_ok = all(dn[j] <= dn[j + 1] for j in range(j0, len(dn) - 1))
    if not (left_ok and right_ok):
        raise ChainInfeasible(
            f"p-chain profile {dn} has an interior peak; generic factorizations "
            "cannot satisfy the rank constraints on both sides of it"
        )
    return j0


def _build_p_chain(t: TopologicalData, dn: tuple[int, ...], rng: np.random.Generator):
    """NUT chain (betaN nodes, Mxi, Mpsi) built by a valley-seeded sweep."""
    k = t.k
    j0 = _chain_profile_kind(dn)
    betaN: list = [None] * (k + 1)
    Mxi: list = [None] * k
    Mpsi: list = [None] * k

    def set_forward(j):  # node j-1 known, factor it, determine node j
        z = t.z[j - 1]
        C = betaN[j - 1] - z * np.eye(dn[j - 1], dtype=np.complex128)
        L, R = rank_factorization(C, dn[j], rng)  # C = Mpsi @ Mxi
        Mpsi[j - 1], Mxi[j - 1] = L, R
        betaN[j] = R @ L + z * np.eye(dn[j], dtype=np.complex128)

    def set_backward(j):  # node j known, factor it, determine node j-1
        z = t.z[j - 1]
        C = betaN[j] - z * np.eye(dn[j], dtype=np.complex128)
        L, R = rank_factorization(C, dn[j - 1], rng)  # C = Mxi @ Mpsi
        Mxi[j - 1], Mpsi[j - 1] = L, R
        betaN[j - 1] = R @ L + z * np.eye(dn[j - 1], dtype=np.complex128)

    s = min(j0 + 1, k)  # seed the step right of the valley, or left of a right-end one
    z = t.z[s - 1]
    Mpsi[s - 1] = ginibre(rng, dn[s - 1], dn[s])
    Mxi[s - 1] = ginibre(rng, dn[s], dn[s - 1])
    betaN[s - 1] = Mpsi[s - 1] @ Mxi[s - 1] + z * np.eye(dn[s - 1], dtype=np.complex128)
    betaN[s] = Mxi[s - 1] @ Mpsi[s - 1] + z * np.eye(dn[s], dtype=np.complex128)
    for j in range(s + 1, k + 1):
        set_forward(j)
    for j in range(s - 1, 0, -1):
        set_backward(j)
    return betaN, Mxi, Mpsi


def _draw_separated(rng, count, avoid):
    vals: list[complex] = []
    while len(vals) < count:
        c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if all(abs(c - o) > la.SPECTRAL_SEPARATION for o in list(avoid) + vals):
            vals.append(c)
    return vals


def _diagonalizable_with_eigs(rng, eigs) -> np.ndarray:
    d = len(eigs)
    if d == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    while True:
        V = ginibre(rng, d, d)
        if la.cond(V) < 1e4:
            break
    return V @ np.diag(np.asarray(eigs, dtype=np.complex128)) @ np.linalg.inv(V)


def _lambda_maps_shared_spectrum(beta0, beta1, rng):
    """(A, alpha, gamma) for one step whose endpoints share eigenvalues.

    Happens for rank-one structure groups, where the chain forces the two
    endpoint spectra to agree away from the NUT positions.  gamma is set to
    vanish on the shared eigendirections; the corresponding entries of A are
    homogeneous solutions and are drawn freely.
    """
    d0, d1 = beta0.shape[0], beta1.shape[0]
    alpha = ginibre(rng, d1, 1)
    if d0 == 0 or d1 == 0:
        return np.zeros((d1, d0), dtype=np.complex128), alpha, ginibre(rng, 1, d0)
    w0, V0 = np.linalg.eig(beta0)
    w1, V1 = np.linalg.eig(beta1)
    V0inv, V1inv = np.linalg.inv(V0), np.linalg.inv(V1)
    gamma_t = ginibre(rng, 1, d0)
    shared = np.abs(w1[:, None] - w0[None, :]) < la.SYLVESTER_GAP
    gamma_t[0, shared.any(axis=0)] = 0.0
    alpha_t = V1inv @ alpha
    At = np.zeros((d1, d0), dtype=np.complex128)
    for a in range(d1):
        for b in range(d0):
            if shared[a, b]:
                At[a, b] = complex(ginibre(rng, 1, 1)[0, 0])
            else:
                At[a, b] = alpha_t[a, 0] * gamma_t[0, b] / (w1[a] - w0[b])
    return V1 @ At @ V0inv, alpha, gamma_t @ V0inv


def _attempt(t: TopologicalData, dims, rng) -> BowDatum:
    n = t.n
    betaN, Mxi, Mpsi = _build_p_chain(t, dims.dn, rng)
    beta: list = [None] * (n + 1)
    beta[0] = betaN[-1]
    beta[n] = betaN[0]

    spectra = {0: la.eigenvalues(beta[0]), n: la.eigenvalues(beta[n])}  # one per beta_i
    pool = [*spectra[0], *spectra[n]]
    for i in range(1, n):
        eigs = _draw_separated(rng, dims.d[i], pool)
        pool.extend(eigs)
        beta[i] = _diagonalizable_with_eigs(rng, eigs)
        spectra[i] = la.eigenvalues(beta[i])

    A, alpha, gamma = [], [], []
    for i in range(n):
        if n == 1:
            Ai, ai, gi = _lambda_maps_shared_spectrum(beta[0], beta[1], rng)
        else:
            ai = ginibre(rng, dims.d[i + 1], 1)
            gi = ginibre(rng, 1, dims.d[i])
            Ai = _solve_sylvester(beta[i + 1], beta[i], ai @ gi, spectra[i + 1], spectra[i])
        A.append(Ai)
        alpha.append(ai)
        gamma.append(gi)

    return BowDatum.assemble(
        t, beta, A, alpha, gamma, betaN[1:-1], Mxi, Mpsi, dims=dims
    )


def _run_checks(datum: BowDatum):
    rel = validate_relations(datum, tol=la.GENERATION_TOL)
    if not rel.passed:
        return f"relations failed: {rel.failures()}"
    inv = check_chain_invariants(datum, tol=la.DERIVED_TOL)
    if not inv.passed:
        return f"chain invariants failed: {inv.failures()}"
    for res in check_exactness_all(datum):
        if not res.passed:
            return f"exactness failed at i={res.index} ({res.status})"
    return None


def generate(t: TopologicalData, seed: int) -> BowDatum:
    """Random bow datum for the given charges, passing all validators.

    Construction: build the NUT chain by valley-seeded rank factorizations,
    alias the chain endpoints into the lambda chain, draw the interior
    endomorphisms with separated spectra, draw the boundary vectors, and
    solve each A_i from the Sylvester relation.  Resamples up to ATTEMPTS
    times if a genericity check fails or a rank is too close to call.

    The datum has passed the three validators and keeps their reports (see
    BowDatum), so validating it again only applies the caller's tol.
    """
    problems = validate_topology(t)
    if problems:
        raise ValidationFailure("; ".join(str(p) for p in problems))
    dims = compute_dimensions(t)
    rng = np.random.default_rng(seed)
    last: object = None
    for _ in range(ATTEMPTS):
        try:
            datum = _attempt(t, dims, rng)
        except (ChainInfeasible, RankTooLarge):
            raise
        except (ValidationFailure, RankIndeterminate) as exc:
            last = exc
            continue
        failure = _run_checks(datum)
        if failure is None:
            return datum
        last = failure
    raise RetriesExhausted(f"generation failed after {ATTEMPTS} attempts", last)


def _hyperbolic_block(upper, lower) -> np.ndarray:
    """Anti-diagonal 2x2 block matrix [[0, upper], [lower, 0]]."""
    ru, cu = upper.shape
    rl, cl = lower.shape
    out = np.zeros((ru + rl, cl + cu), dtype=np.complex128)
    out[:ru, cl:] = upper
    out[ru:, :cl] = lower
    return out


def _block_diag(first, second) -> np.ndarray:
    """Block-diagonal matrix [[first, 0], [0, second]]."""
    r1, c1 = first.shape
    out = np.zeros((r1 + second.shape[0], c1 + second.shape[1]), dtype=np.complex128)
    out[:r1, :c1] = first
    out[r1:, c1:] = second
    return out


def generate_mirror(t: TopologicalData, flavor: str, seed: int) -> tuple[BowDatum, PairingDatum]:
    """Rank-2 bow datum with an SO/Sp structure, plus its pairing data.

    Hyperbolic construction: the datum splits into a rank-one datum X and
    its transpose dual running the NUT chain in the reverse order, so every
    pairing identity holds by construction with block-anti-diagonal K
    matrices.  The dual-block sign bookkeeping is fixed by the identities
    K_i alpha_{n-i-1} = f_i gamma_i^T and -alpha_i^T K_{i+1} = f_i
    gamma_{n-i-1}; the middle K comes out antisymmetric for SO and
    symmetric for Sp, as the flavor demands.
    """
    problems = validate_topology(t)
    if problems:
        raise ValidationFailure("; ".join(str(p) for p in problems))
    dims = compute_dimensions(t)
    n, k = t.n, t.k
    if n != 2:
        raise ValidationFailure(
            "mirror generation is implemented for rank 2 (SO(2)/Sp(1)) data"
        )
    if any(v != 0 for v in t.nd):
        raise FlavorChargeMismatch(f"SO/Sp data needs all nd_i = 0, got {t.nd}")
    if t.m[0] != -t.m[1]:
        raise FlavorChargeMismatch(f"SO/Sp data needs m_1 = -m_2, got {t.m}")
    f = expected_signs(flavor, n)
    m_top = t.m[1]
    if m_top < 0:
        raise ValidationFailure("mirror generation expects m = (-m, m) with m >= 0")
    if (t.m0 - m_top) % 2 != 0 or t.m0 < m_top:
        raise ChainInfeasible(
            f"no split (hyperbolic) datum with m0 = {t.m0}, m = {t.m}: "
            "the rank-one factor needs instanton number (m0 - m_2)/2"
        )
    if k > 1 and m_top != 0:
        raise ChainInfeasible(
            "dual chains with rank-changing steps over several NUTs are not "
            "implemented; use k = 1 or m = (0, 0)"
        )
    if m_top > 1:
        raise ChainInfeasible(f"cannot place {m_top} unit charges on {k} NUTs")
    t_x = TopologicalData(
        n=1,
        k=k,
        ell=t.ell,
        lam=(t.ell * 0.5,),
        m=(m_top,),
        nd=(m_top,) + (0,) * (k - 1),
        m0=(t.m0 - m_top) // 2,
        z=t.z,
    )

    last: object = None
    for attempt in range(ATTEMPTS):
        X = generate(t_x, seed=seed + 7919 * attempt)
        x0, x1 = X.dims.d
        b0, b1 = X.beta[0], X.beta[1]
        Ax, ax, gx = X.A[0], X.alpha[0], X.gamma[0]

        # Dual factor: beta~_i = b_{1-i}^T with maps fixed by the identities.
        A_dual = f[0] * Ax.T
        alpha_dual = -f[0] * gx.T
        gamma_dual = ax.T

        beta = [_block_diag(b1.T, b0), _block_diag(b0.T, b0), _block_diag(b0.T, b1)]
        A = [
            _block_diag(A_dual, np.eye(x0, dtype=np.complex128)),
            _block_diag(np.eye(x0, dtype=np.complex128), Ax),
        ]
        alpha = [
            np.vstack([alpha_dual, np.zeros((x0, 1))]),
            np.vstack([np.zeros((x0, 1)), ax]),
        ]
        gamma = [
            np.hstack([gamma_dual, np.zeros((1, x0))]),
            np.hstack([np.zeros((1, x0)), gx]),
        ]

        # Dual NUT chain: runs from b0^T to b1^T over the same z order.  For
        # k = 1 the transposed step is exact; otherwise (all blocks square,
        # m_top = 0) a conjugation chain with total conjugator Mxi_hat(X)^T
        # reproduces the transposed aggregates, which is all the pairing
        # identities constrain.
        if k == 1:
            dual_nodes = [X.betaN[1].T, X.betaN[0].T]
            dual_mxi = [X.Mxi[0].T]
            dual_mpsi = [X.Mpsi[0].T]
        else:
            mxi_hat_x, _ = aggregate_maps(X)
            total = mxi_hat_x.T
            rng = np.random.default_rng((seed, 104729, attempt))
            factors = []
            for _ in range(k - 1):
                while True:
                    F = ginibre(rng, x0, x0)
                    if la.cond(F) < 50:
                        break
                factors.append(F)
            prefix = np.eye(x0, dtype=np.complex128)
            for F in factors:
                prefix = F @ prefix
            factors.append(total @ np.linalg.inv(prefix))
            dual_nodes = [b0.T]
            dual_mxi, dual_mpsi = [], []
            for j in range(1, k + 1):
                F = factors[j - 1]
                nxt = F @ dual_nodes[-1] @ np.linalg.inv(F)
                dual_mxi.append(F)
                dual_mpsi.append(
                    np.linalg.solve(F, nxt - t.z[j - 1] * np.eye(x0, dtype=np.complex128))
                )
                dual_nodes.append(nxt)

        betaN = [_block_diag(dual_nodes[j], X.betaN[j]) for j in range(k + 1)]
        Mxi = [_block_diag(dual_mxi[j - 1], X.Mxi[j - 1]) for j in range(1, k + 1)]
        Mpsi = [_block_diag(dual_mpsi[j - 1], X.Mpsi[j - 1]) for j in range(1, k + 1)]

        datum = BowDatum.assemble(
            t, beta, A, alpha, gamma, betaN[1:-1], Mxi, Mpsi, dims=dims
        )
        eye = lambda m: np.eye(m, dtype=np.complex128)
        K = [
            _hyperbolic_block(f[0] * eye(x1), -f[1] * eye(x0)),
            _hyperbolic_block(eye(x0), -f[1] * eye(x0)),
            _hyperbolic_block(eye(x0), -f[1] * eye(x1)),
        ]
        pairing = PairingDatum(flavor=flavor, K=K, f=f)
        failure = _run_checks(datum)
        if failure is None:
            rep = verify_pairing_relations(datum, pairing)
            if rep.passed:
                return datum, pairing
            failure = f"pairing relations failed: {rep.failures()}"
        last = failure
    raise RetriesExhausted(f"mirror generation failed after {ATTEMPTS} attempts", last)


@dataclass(frozen=True)
class CanonicalExample:
    name: str
    topo: TopologicalData
    datum: BowDatum
    pairing: PairingDatum | None = None


def _u1_single_nut() -> CanonicalExample:
    t = TopologicalData(
        n=1, k=1, ell=1.0, lam=(0.3,), m=(1,), nd=(1,), m0=0, z=(0.0,)
    )
    z = t.z[0]
    datum = BowDatum.assemble(
        t,
        beta=[np.array([[z]]), np.zeros((0, 0))],
        A=[np.zeros((0, 1))],
        alpha=[np.zeros((0, 1))],
        gamma=[np.array([[1.0 + 0j]])],
        betaN_interior=[],
        Mxi=[np.zeros((1, 0))],
        Mpsi=[np.zeros((0, 1))],
    )
    return CanonicalExample("u1-single-nut", t, datum)


def _u1_charge() -> CanonicalExample:
    t = TopologicalData(
        n=1, k=1, ell=1.0, lam=(0.4,), m=(0,), nd=(0,), m0=1, z=(0.4 - 0.3j,)
    )
    z = t.z[0]
    w = 0.8 + 0.2j  # M_xi M_psi; both chain endpoints equal z + w
    b = np.array([[z + w]])
    datum = BowDatum.assemble(
        t,
        beta=[b, np.array(b)],
        A=[np.array([[w]])],  # the aggregate Mpsi_hat, an exact intertwiner
        alpha=[np.array([[1.0 + 0j]])],
        gamma=[np.zeros((1, 1))],
        betaN_interior=[],
        Mxi=[np.array([[1.0 + 0j]])],
        Mpsi=[np.array([[w]])],
    )
    return CanonicalExample("u1-charge", t, datum)


def _u2_basic() -> CanonicalExample:
    t = TopologicalData(
        n=2,
        k=1,
        ell=1.0,
        lam=(0.25, 0.75),
        m=(0, 1),
        nd=(1,),
        m0=1,
        z=(0.2 + 0.1j,),
    )
    return CanonicalExample("u2-basic", t, generate(t, seed=7))


def _so2_mirror() -> CanonicalExample:
    t = TopologicalData(
        n=2,
        k=1,
        ell=1.0,
        lam=(0.25, 0.75),
        m=(0, 0),
        nd=(0,),
        m0=2,
        z=(0.3 - 0.2j,),
    )
    datum, pairing = generate_mirror(t, "SO", seed=11)
    return CanonicalExample("so2-mirror", t, datum, pairing)


def _sp1_mirror() -> CanonicalExample:
    t = TopologicalData(
        n=2,
        k=1,
        ell=1.0,
        lam=(0.2, 0.8),
        m=(-1, 1),
        nd=(0,),
        m0=1,
        z=(-0.1 + 0.4j,),
    )
    datum, pairing = generate_mirror(t, "Sp", seed=13)
    return CanonicalExample("sp1-mirror", t, datum, pairing)


def canonical_examples() -> list[CanonicalExample]:
    """Named examples, each passing its full validation suite."""
    return [_u1_single_nut(), _u1_charge(), _u2_basic(), _so2_mirror(), _sp1_mirror()]


def degenerate_example() -> tuple[TopologicalData, BowDatum]:
    """A datum that satisfies the relations but fails exactness over eta = 0.

    All lambda-chain matrices vanish except alpha_0 = [1]; the kernel vector
    [1] at eta* = 0 witnesses the failure.  The defect is torsion in a
    rank-one sheaf: the monad kernel stays locally free over that fiber.
    """
    t = TopologicalData(
        n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=1, z=(1.0,)
    )
    datum = BowDatum.assemble(
        t,
        beta=[np.zeros((1, 1)), np.zeros((1, 1))],
        A=[np.zeros((1, 1))],
        alpha=[np.array([[1.0 + 0j]])],
        gamma=[np.zeros((1, 1))],
        betaN_interior=[],
        Mxi=[np.array([[1.0 + 0j]])],
        Mpsi=[np.array([[-1.0 + 0j]])],
    )
    return t, datum
