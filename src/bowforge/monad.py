"""Monad assembly on the surface, fiber evaluation, and local freeness.

Everything is evaluated on the affine chart xi*psi = prod_i (eta - z_i),
where every line-bundle twist trivializes.  The lifts into the first
resolution stage use the matrix divided difference
S(eta, beta) = (p(eta) I - p(beta)) (eta I - beta)^{-1}, a polynomial in
beta and eta computed by synthetic division; their correctness is asserted
numerically by the lift-commutativity residuals rather than trusted.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg as la
from .bowdata import BowDatum, aggregate_maps
from .errors import RankIndeterminate, SurfaceViolation


@dataclass(frozen=True)
class SurfacePoint:
    """A point (xi, psi, eta) on the affine chart of the surface."""

    xi: complex
    psi: complex
    eta: complex

    def surface_residual(self, z) -> float:
        prod = np.prod([self.eta - zi for zi in z]) if len(z) else 1.0
        lhs = self.xi * self.psi
        return abs(lhs - prod) / (1.0 + abs(lhs) + abs(prod))

    @staticmethod
    def from_xi_eta(z, xi: complex, eta: complex) -> "SurfacePoint":
        """Point with psi derived from the surface equation (xi != 0)."""
        if xi == 0:
            raise ValueError("xi must be nonzero: psi is derived from xi*psi = prod(eta - z_i)")
        prod = complex(np.prod([eta - zi for zi in z])) if len(z) else 1.0 + 0j
        return SurfacePoint(xi=complex(xi), psi=prod / complex(xi), eta=complex(eta))


@dataclass(frozen=True)
class BlockIndex:
    """Named (offset, size) for every block of the monad spaces A, B, C = D, F."""

    A: dict
    B: dict
    C: dict
    F: dict


@dataclass(frozen=True)
class LocalFreenessResult:
    passed: bool
    witness: np.ndarray | None = None
    quotient_dim: int = 0


@dataclass(frozen=True)
class MonadAtPoint:
    """The monad maps evaluated at one surface point (see monad_assembler).

    Amap stacks (alpha; -beta_tilde): (dimB + dimC) x dimA.
    Bmap concatenates (delta, gamma): dimD x (dimB + dimC), with D = C.
    mu maps the auxiliary space F = C^{d_0 + d_n} into the R blocks of A.
    alpha, beta_tilde and the dimensions are read off these three maps.
    fiber_rank() and locally_free() answer from singular values alone and
    share one rank of Amap; fiber() builds a basis of the cohomology.
    """

    point: SurfacePoint
    Amap: np.ndarray
    Bmap: np.ndarray
    mu: np.ndarray
    block_index: BlockIndex

    @property
    def dimA(self) -> int:
        return self.Amap.shape[1]

    @property
    def dimB(self) -> int:
        return self.Bmap.shape[1] - self.dimC

    @property
    def dimC(self) -> int:
        return self.Bmap.shape[0]

    @property
    def dimD(self) -> int:
        return self.Bmap.shape[0]

    @property
    def alpha(self) -> np.ndarray:
        return self.Amap[: self.dimB]

    @property
    def beta_tilde(self) -> np.ndarray:
        return -self.Amap[self.dimB :]

    def composition_residual(self) -> float:
        return _product_residual(self.Bmap, self.Amap)

    @cached_property
    def _amap_rank(self) -> int:
        return la.svd_rank(self.Amap)

    def fiber_rank(self) -> int:
        """Rank of the monad cohomology: dim ker(Bmap) - rank(Amap).

        Needs only singular values.  Raises RankIndeterminate when a singular
        value sits too close to the rank threshold to call, or when Im(Amap)
        is not inside ker(Bmap) (composition_residual not below DEFAULT_TOL).
        """
        _require_zero_product(self.Bmap, self.Amap, "image of Amap not contained in ker(Bmap)")
        return self.Bmap.shape[1] - la.svd_rank(self.Bmap) - self._amap_rank

    def fiber(self) -> np.ndarray:
        """Orthonormal basis of the monad cohomology ker(Bmap)/Im(Amap).

        Returns a (dimB + dimC) x fiber_rank() matrix spanning ker(Bmap)
        intersected with Im(Amap)^perp.  Raises RankIndeterminate where
        fiber_rank() does, or when the basis found has another column count.
        """
        _require_zero_product(self.Bmap, self.Amap, "image of Amap not contained in ker(Bmap)")
        return _cohomology(self.Bmap, self.Amap, self._amap_rank)

    def locally_free(self) -> LocalFreenessResult:
        """Pointwise local-freeness criterion: dim ker(Amap) = rank(mu).

        beta_tilde must be injective on ker(alpha) / Im(mu).  As Amap mu = 0,
        Im(mu) lies in ker(Amap) = ker(alpha) & ker(beta_tilde), so injectivity
        means the two are equal.  quotient_dim is dim ker(alpha) - rank(mu); a
        failure returns a witness in ker(Amap) orthogonal to Im(mu).  Raises
        RankIndeterminate on a rank too close to call, on Amap mu != 0, or
        when the witnesses found number other than dim ker(Amap) - rank(mu).
        """
        _require_zero_product(self.Amap, self.mu, "image of mu not contained in ker(Amap)")
        rank_mu = la.svd_rank(self.mu)
        quotient_dim = self.dimA - la.svd_rank(self.alpha) - rank_mu
        if self.dimA - self._amap_rank == rank_mu:
            return LocalFreenessResult(passed=True, quotient_dim=quotient_dim)
        witnesses = _cohomology(self.Amap, self.mu, rank_mu)
        return LocalFreenessResult(passed=False, witness=witnesses[:, 0], quotient_dim=quotient_dim)


def _product_residual(left: np.ndarray, right: np.ndarray) -> float:
    return la.fro(left @ right) / (1.0 + la.fro(left) * la.fro(right))


def _require_zero_product(left: np.ndarray, right: np.ndarray, what: str) -> None:
    residual = _product_residual(left, right)
    if not residual < la.DEFAULT_TOL:
        raise RankIndeterminate(f"{what}: residual {residual:.3e}")


def _cohomology(left: np.ndarray, right: np.ndarray, rank_right: int) -> np.ndarray:
    """Orthonormal basis of ker(left) & Im(right)^perp, for left @ right = 0.

    Raises RankIndeterminate on a rank too close to call, or when the basis
    found has other than dim ker(left) - rank_right columns.
    """
    kernel = la.null_space(left)
    basis = kernel @ la.null_space(right.conj().T @ kernel)
    expected = kernel.shape[1] - rank_right
    if basis.shape[1] != expected:
        raise RankIndeterminate(f"cohomology basis has {basis.shape[1]} columns, expected {expected}")
    return basis


def _offsets(sizes: list[tuple[str, int]]) -> tuple[dict, int]:
    table = {}
    off = 0
    for name, size in sizes:
        table[name] = (off, size)
        off += size
    return table, off


def monad_dimensions(dims) -> tuple[int, int, int, int]:
    d = dims.d
    n = len(d) - 1
    dim_a = sum(d[:n]) + 2 * d[0] + 2 * d[n]
    dim_b = sum(di + 1 for di in d[:n]) + d[0] + d[n]
    dim_c = sum(d)
    return dim_a, dim_b, dim_c, dim_c


def monad_assembler(b: BowDatum) -> Callable[[SurfacePoint], MonadAtPoint]:
    """Evaluation of the monad maps of `b` at surface points.

    Every block that does not depend on the point is written once, here,
    into zero templates; the returned function checks the surface equation,
    copies the templates and writes the blocks that do depend on the point:
    eta I - beta_i, the xi and psi identity blocks and the divided
    differences S and T.  Points never share arrays.

    Block layout (offsets recorded in the block_index of every result):
      A: P-blocks C^{d_i}, i = 0..n-1, then R-blocks C^{d_0}, C^{d_n},
         C^{d_0}, C^{d_n} in resolution order;
      B: P-blocks C^{d_i + 1}, then the R-block C^{d_0} + C^{d_n};
      C = D: Q-blocks C^{d_i}, i = 0..n.
    """
    n = b.topo.n
    d = b.dims.d
    d0, dnn = d[0], d[n]
    mxi_hat, mpsi_hat = aggregate_maps(b)
    coeffs = la.poly_from_roots(b.topo.z)

    a_table, dim_a = _offsets(
        [(f"P{i}", d[i]) for i in range(n)]
        + [("R0", d0), ("R1", dnn), ("R2", d0), ("R3", dnn)]
    )
    b_table, dim_b = _offsets(
        [(f"P{i}", d[i] + 1) for i in range(n)] + [("R", d0 + dnn)]
    )
    c_table, dim_c = _offsets([(f"Q{i}", d[i]) for i in range(n + 1)])
    f_table, dim_f = _offsets([("F0", d0), ("F1", dnn)])
    block_index = BlockIndex(A=a_table, B=b_table, C=c_table, F=f_table)

    eye = lambda m: np.eye(m, dtype=np.complex128)

    # every block derives from the datum, shape-checked once when it was built
    def at(table_r, row, table_c, col, rows=None, cols=None):
        """Slices of one block; `rows`/`cols` narrow it to a sub-range."""
        r0, rs = table_r[row]
        c0, cs = table_c[col]
        r_lo, r_hi = rows or (0, rs)
        c_lo, c_hi = cols or (0, cs)
        return slice(r0 + r_lo, r0 + r_hi), slice(c0 + c_lo, c0 + c_hi)

    # Amap = (alpha; -beta_tilde); alpha ends in the R-block G of the resolution.
    # C-blocks shifted past B: the -beta_tilde rows of Amap, the gamma columns of Bmap
    cb_table = {q: (dim_b + off, size) for q, (off, size) in c_table.items()}
    amap0 = np.zeros((dim_b + dim_c, dim_a), dtype=np.complex128)
    alpha_res = [at(b_table, f"P{i}", a_table, f"P{i}", rows=(0, d[i])) for i in range(n)]
    for i in range(n):
        amap0[at(b_table, f"P{i}", a_table, f"P{i}", rows=(d[i], d[i] + 1))] = -b.gamma[i]
    g_res0 = at(b_table, "R", a_table, "R0", rows=(0, d0))
    g_xi = at(b_table, "R", a_table, "R2", rows=(0, d0))
    amap0[at(b_table, "R", a_table, "R3", rows=(0, d0))] = mxi_hat
    g_resn = at(b_table, "R", a_table, "R1", rows=(d0, d0 + dnn))
    amap0[at(b_table, "R", a_table, "R2", rows=(d0, d0 + dnn))] = -mpsi_hat
    g_psi = at(b_table, "R", a_table, "R3", rows=(d0, d0 + dnn))

    for i in range(n):
        amap0[at(cb_table, f"Q{i}", a_table, f"P{i}")] = -eye(d[i])
        amap0[at(cb_table, f"Q{i + 1}", a_table, f"P{i}")] = -b.A[i]
    bt_psi = at(cb_table, "Q0", a_table, "R0")
    amap0[at(cb_table, "Q0", a_table, "R1")] = -mxi_hat
    bt_s = at(cb_table, "Q0", a_table, "R2")
    amap0[at(cb_table, f"Q{n}", a_table, "R0")] = mpsi_hat
    bt_xi = at(cb_table, f"Q{n}", a_table, "R1")
    bt_t = at(cb_table, f"Q{n}", a_table, "R3")

    # Bmap = (delta, gamma): columns B then C; gamma is block diagonal
    bmap0 = np.zeros((dim_c, dim_b + dim_c), dtype=np.complex128)
    for i in range(n):
        bmap0[at(c_table, f"Q{i}", b_table, f"P{i}")] = np.eye(d[i], d[i] + 1)
        bmap0[at(c_table, f"Q{i + 1}", b_table, f"P{i}")] = np.hstack([b.A[i], b.alpha[i]])
    delta_psi = at(c_table, "Q0", b_table, "R", cols=(0, d0))
    bmap0[at(c_table, "Q0", b_table, "R", cols=(d0, d0 + dnn))] = mxi_hat
    bmap0[at(c_table, f"Q{n}", b_table, "R", cols=(0, d0))] = -mpsi_hat
    delta_xi = at(c_table, f"Q{n}", b_table, "R", cols=(d0, d0 + dnn))
    gamma_res = [at(c_table, f"Q{i}", cb_table, f"Q{i}") for i in range(n + 1)]

    # mu spans ker(alpha) at generic points: polynomial first-stage lift of
    # the R resolution (divided differences in the top blocks).
    mu0 = np.zeros((dim_a, dim_f), dtype=np.complex128)
    mu_s = at(a_table, "R0", f_table, "F0")
    mu_t = at(a_table, "R1", f_table, "F1")
    mu_psi = at(a_table, "R2", f_table, "F0")
    mu0[at(a_table, "R2", f_table, "F1")] = mxi_hat
    mu0[at(a_table, "R3", f_table, "F0")] = -mpsi_hat
    mu_xi = at(a_table, "R3", f_table, "F1")

    def assemble(x: SurfacePoint) -> MonadAtPoint:
        residual = x.surface_residual(b.topo.z)
        if residual >= la.DEFAULT_TOL:
            raise SurfaceViolation(
                f"point {x} violates xi*psi = prod(eta - z_i): residual {residual:.3e}"
            )
        eta, xi, psi = x.eta, x.xi, x.psi
        res = [eta * eye(d[i]) - b.beta[i] for i in range(n + 1)]  # eta I - beta_i
        S = la.divided_difference(coeffs, eta, b.beta[0])
        T = la.divided_difference(coeffs, eta, b.beta[n])
        psi_0, xi_0 = psi * eye(d0), xi * eye(d0)
        psi_n, xi_n = -psi * eye(dnn), -xi * eye(dnn)

        amap = amap0.copy()
        for i in range(n):
            amap[alpha_res[i]] = res[i]
        amap[g_res0] = res[0]
        amap[g_xi] = xi_0
        amap[g_resn] = res[n]
        amap[g_psi] = psi_n
        amap[bt_psi] = -psi_0
        amap[bt_s] = -S
        amap[bt_xi] = -xi_n
        amap[bt_t] = -T

        bmap = bmap0.copy()
        bmap[delta_psi] = psi_0
        bmap[delta_xi] = xi_n
        for i in range(n + 1):
            bmap[gamma_res[i]] = res[i]

        mu = mu0.copy()
        mu[mu_s] = -S
        mu[mu_t] = -T
        mu[mu_psi] = psi_0
        mu[mu_xi] = xi_n
        return MonadAtPoint(
            point=x,
            Amap=amap,
            Bmap=bmap,
            mu=mu,
            block_index=block_index,
        )

    return assemble


def assemble_monad(b: BowDatum, x: SurfacePoint) -> MonadAtPoint:
    """Evaluate the monad maps at a surface point (see monad_assembler)."""
    return monad_assembler(b)(x)


def lift_commutativity_residuals(b: BowDatum, x: SurfacePoint) -> tuple[float, float]:
    """Residuals of the two squares the divided-difference lifts must close.

    (eta - beta_0) [row of beta_tilde into Q0] = (psi, Mxi_hat) o G and
    (eta - beta_n) [row into Qn] = (-Mpsi_hat, -xi) o G.
    """
    m = assemble_monad(b, x)
    n = b.topo.n
    d0, dnn = b.dims.d[0], b.dims.d[n]
    mxi_hat, mpsi_hat = aggregate_maps(b)
    a0 = m.block_index.A["R0"][0]
    G = m.alpha[m.block_index.B["R"][0] :, a0 : a0 + 2 * d0 + 2 * dnn]
    row0 = m.beta_tilde[
        m.block_index.C["Q0"][0] : m.block_index.C["Q0"][0] + d0,
        a0 : a0 + 2 * d0 + 2 * dnn,
    ]
    rown = m.beta_tilde[
        m.block_index.C[f"Q{n}"][0] : m.block_index.C[f"Q{n}"][0] + dnn,
        a0 : a0 + 2 * d0 + 2 * dnn,
    ]
    lhs0 = (x.eta * np.eye(d0) - b.beta[0]) @ row0
    rhs0 = np.hstack([x.psi * np.eye(d0), mxi_hat]) @ G
    lhsn = (x.eta * np.eye(dnn) - b.beta[n]) @ rown
    rhsn = np.hstack([-mpsi_hat, -x.xi * np.eye(dnn)]) @ G
    return la.rel_residual(lhs0, rhs0), la.rel_residual(lhsn, rhsn)


def fiber_at(b: BowDatum, x: SurfacePoint) -> np.ndarray:
    """Orthonormal basis of the monad cohomology at x (see MonadAtPoint.fiber).

    At locally free points its rank equals the structure-group rank n.
    """
    return assemble_monad(b, x).fiber()


def is_locally_free_at(b: BowDatum, x: SurfacePoint) -> LocalFreenessResult:
    """Pointwise local-freeness criterion (see MonadAtPoint.locally_free)."""
    return assemble_monad(b, x).locally_free()


@dataclass(frozen=True)
class ScanConfig:
    n_random: int = 50
    seed: int = 0


@dataclass(frozen=True)
class PointReport:
    point: SurfacePoint
    kind: str  # "random" | "structured"
    fiber_rank: int | None
    locally_free: bool | None
    status: str  # "ok" | "fail" | "indeterminate"


@dataclass(frozen=True)
class ScanReport:
    points: tuple[PointReport, ...]
    expected_rank: int

    @property
    def indeterminate(self) -> tuple[PointReport, ...]:
        return tuple(p for p in self.points if p.status == "indeterminate")

    @property
    def failures(self) -> tuple[PointReport, ...]:
        return tuple(p for p in self.points if p.status == "fail")

    @property
    def all_pass(self) -> bool:
        return all(p.status == "ok" for p in self.points)

    @property
    def ranks_all_expected(self) -> bool:
        return all(
            p.fiber_rank == self.expected_rank
            for p in self.points
            if p.status != "indeterminate"
        )


def structured_points(b: BowDatum) -> list[SurfacePoint]:
    """Stress points over every chain eigenvalue.

    For each eigenvalue eta*: (xi, psi) = (1, p(eta*)) and (10, p(eta*)/10);
    over NUT fibers (eta* at some z_i, where the fiber breaks into two
    lines) also the xi = 0 branch and the node (0, 0).
    """
    z = b.topo.z
    pts: list[SurfacePoint] = []
    for eta in la.cluster_eigenvalues(b.spectra()):
        near_nut = min((abs(eta - zi) for zi in z), default=np.inf)
        if near_nut < la.EIG_CLUSTER_TOL:
            eta = min(z, key=lambda zi: abs(eta - zi))
            pts.append(SurfacePoint(0.0, 1.0, eta))
            pts.append(SurfacePoint(0.0, 0.0, eta))
        pts.append(SurfacePoint.from_xi_eta(z, 1.0, eta))
        pts.append(SurfacePoint.from_xi_eta(z, 10.0, eta))
    return pts


def random_points(b: BowDatum, n_random: int, seed: int) -> list[SurfacePoint]:
    """Sample points with eta uniform in the doubled spectral disk and xi
    log-uniform in [0.1, 10]; a tube of radius 1e-4 around the chain
    eigenvalues is avoided to keep random and structured diagnostics apart."""
    rng = np.random.default_rng(seed)
    spectrum = b.spectra() + list(b.topo.z)
    center = complex(np.mean(spectrum)) if spectrum else 0.0 + 0.0j
    radius = 2.0 * max((abs(v - center) for v in spectrum), default=0.5)
    radius = max(radius, 0.5)
    pts: list[SurfacePoint] = []
    while len(pts) < n_random:
        rho = radius * np.sqrt(rng.uniform())
        theta = rng.uniform(0, 2 * np.pi)
        eta = center + rho * np.exp(1j * theta)
        if any(abs(eta - v) < 1e-4 for v in spectrum):
            continue
        xi = 10.0 ** rng.uniform(-1.0, 1.0)
        pts.append(SurfacePoint.from_xi_eta(b.topo.z, xi, eta))
    return pts


def scan_local_freeness(b: BowDatum, config: ScanConfig = ScanConfig()) -> ScanReport:
    """Evaluate fiber rank and the local-freeness criterion over a sample.

    Random points cannot fail: away from the chain spectra every
    eta I - beta_i is invertible, so mu spans ker(alpha), the quotient is
    zero and the rank is exactly n.  They test conditioning only; the
    structured points over the chain eigenvalues carry the information.
    Indeterminate rank decisions are collected separately, never coerced
    into pass or fail.
    """
    batches = [(pt, "random") for pt in random_points(b, config.n_random, config.seed)]
    batches += [(pt, "structured") for pt in structured_points(b)]
    assemble = monad_assembler(b)
    reports: list[PointReport] = []
    for pt, kind in batches:
        try:
            monad = assemble(pt)
            rank = monad.fiber_rank()
            free = monad.locally_free()
            status = "ok" if free.passed else "fail"
            reports.append(PointReport(pt, kind, rank, free.passed, status))
        except RankIndeterminate:
            reports.append(PointReport(pt, kind, None, None, "indeterminate"))
    return ScanReport(points=tuple(reports), expected_rank=b.topo.n)
