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
        """Point with psi derived from the surface equation (xi != 0).

        Raises ValueError on xi = 0, and when xi, eta or the derived psi is
        not finite (a subnormal xi makes psi overflow).
        """
        if xi == 0:
            raise ValueError("xi must be nonzero: psi is derived from xi*psi = prod(eta - z_i)")
        xi, eta = complex(xi), complex(eta)
        if np.isfinite(xi) and np.isfinite(eta):
            prod = complex(np.prod([eta - zi for zi in z])) if len(z) else 1.0 + 0j
            point = SurfacePoint(xi=xi, psi=prod / xi, eta=eta)
            if np.isfinite(point.psi):
                return point
        raise ValueError(
            f"xi, eta and psi = prod(eta - z_i) / xi must be finite: got xi={xi}, eta={eta}"
        )


@dataclass(frozen=True)
class BlockIndex:
    """Named (offset, size) for every block of the monad spaces A, B, C = D, F,
    and the slices of the maps that the block ranks of MonadAtPoint read."""

    A: dict
    B: dict
    C: dict
    F: dict
    alpha_p: tuple  # Amap (rows, columns) of alpha's P-blocks [(eta - beta_i); -gamma_i]
    alpha_g: tuple  # Amap (rows, columns) of alpha's R-block G; the columns are A's R-blocks
    gamma: tuple  # Bmap (rows, columns) of gamma's blocks eta - beta_i, i = 0..n
    r_rows: np.ndarray  # Amap rows below alpha's P-blocks that reach A's R-blocks: G, Q0, Qn


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

    fiber_rank() and locally_free() rank blocks of the maps, never a whole
    map, and answer from singular values; only a rank-deficient block has
    its singular vectors computed.  Block by block:
      rank(alpha): alpha is block diagonal in its P-blocks
        [(eta - beta_i); -gamma_i] and its R-block G, each ranked at
        alpha's sigma_max and shape;
      rank(mu): its R rows, the only nonzero ones, at mu's shape;
      rank(Amap) = dimA - dim ker M: ker(Amap) lies in ker(alpha), whose
        P part is the kernels K_i of the deficient P-blocks.  M is Amap
        restricted to the columns of those K_i and of the R-blocks, with
        the P rows of alpha (zero there) dropped; it holds G and
        beta_tilde at full scale, so it is ranked at its own sigma_max;
      rank(Bmap) = rank(gamma) + rank(W^H delta): gamma is block diagonal
        in eta - beta_i, ranked at gamma's sigma_max and shape, and W holds
        the left kernels of its deficient blocks.  W^H delta sits at
        rounding level when it should be zero, so it is the one product
        ranked at its parent's scale: fro(Bmap) and Bmap's shape.
    fiber() builds a basis of the cohomology.
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
    def _spectra(self) -> tuple[list, list, np.ndarray, np.ndarray]:
        """Singular values of alpha's P-blocks, of gamma's blocks, of G and of
        mu's R rows, from two batched SVDs (see _batched_spectra)."""
        ix = self.block_index
        n = len(ix.alpha_p)
        chain = _batched_spectra(
            [self.Amap[s] for s in ix.alpha_p] + [self.Bmap[s] for s in ix.gamma]
        )
        g, mu_r = _batched_spectra([self.Amap[ix.alpha_g], self.mu[ix.alpha_g[1]].T])
        return chain[:n], chain[n:], g, mu_r

    @cached_property
    def _alpha(self) -> tuple[int, list]:
        """rank(alpha), and (i, K_i) for each rank-deficient P-block i."""
        ix = self.block_index
        p, _, g, _ = self._spectra
        ranks = _block_ranks(p + [g], (self.dimB, self.dimA))
        kernels = [
            (i, la.null_space(self.Amap[ix.alpha_p[i]], r))
            for i, (s, r) in enumerate(zip(p, ranks))
            if r < len(s)
        ]
        return sum(ranks), kernels

    def _m(self) -> np.ndarray:
        """M (see the class) without the rows that are zero on its columns.

        Off the deficient P-blocks' columns only G and the Q0 and Qn rows of
        beta_tilde reach the R columns, so the other Q rows are left out.
        """
        ix = self.block_index
        g_rows, r_cols = ix.alpha_g
        kernels = self._alpha[1]
        rows = self.Amap[g_rows.start :] if kernels else self.Amap[ix.r_rows]
        return np.hstack([rows[:, ix.alpha_p[i][1]] @ k for i, k in kernels] + [rows[:, r_cols]])

    @cached_property
    def _amap_nullity(self) -> int:
        """dim ker(Amap) = dim ker M, ranked at M's own sigma_max and shape."""
        m = self._m()
        shape = (self.Amap.shape[0] - self.block_index.alpha_g[0].start, m.shape[1])
        return m.shape[1] - la.rank_decision(np.linalg.svd(m, compute_uv=False), shape)

    @cached_property
    def _bmap_rank(self) -> int:
        """rank(gamma) + rank(W^H delta) (see the class)."""
        ix = self.block_index
        spectra = self._spectra[1]
        ranks = _block_ranks(spectra, (self.dimC, self.dimC))
        cokernel = [
            la.null_space(self.Bmap[block].conj().T, r).conj().T @ self.Bmap[block[0], : self.dimB]
            for block, s, r in zip(ix.gamma, spectra, ranks)
            if r < len(s)
        ]
        if not cokernel:
            return sum(ranks)
        s = np.linalg.svd(np.vstack(cokernel), compute_uv=False)
        return sum(ranks) + la.rank_decision(s, self.Bmap.shape, la.fro(self.Bmap))

    def fiber_rank(self) -> int:
        """Rank of the monad cohomology: dim ker(Bmap) - rank(Amap).

        From blocks (see the class): (dimB + dimC) - rank(gamma)
        - rank(W^H delta) - (dimA - dim ker M).  gamma's blocks are ranked
        at gamma's sigma_max, W^H delta at fro(Bmap) and M at its own
        sigma_max.  Raises RankIndeterminate when a singular value sits too
        close to its rank cutoff to call, or when Im(Amap) is not inside
        ker(Bmap) (composition_residual not below DEFAULT_TOL).
        """
        _require_zero_product(self.Bmap, self.Amap, "image of Amap not contained in ker(Bmap)")
        return self.Bmap.shape[1] - self._bmap_rank - (self.dimA - self._amap_nullity)

    def fiber(self) -> np.ndarray:
        """Orthonormal basis of the monad cohomology ker(Bmap)/Im(Amap).

        Returns a (dimB + dimC) x fiber_rank() matrix spanning ker(Bmap)
        intersected with Im(Amap)^perp.  Raises RankIndeterminate where
        fiber_rank() does, or when the basis found has other than
        dim ker(Bmap) - rank(Amap) columns, with rank(Amap) from the blocks.
        """
        _require_zero_product(self.Bmap, self.Amap, "image of Amap not contained in ker(Bmap)")
        rank_amap = self.dimA - self._amap_nullity
        return _quotient(la.null_space(self.Bmap), self.Amap, rank_amap)

    def locally_free(self) -> LocalFreenessResult:
        """Pointwise local-freeness criterion: dim ker(Amap) = rank(mu).

        beta_tilde must be injective on ker(alpha) / Im(mu).  As Amap mu = 0,
        Im(mu) lies in ker(Amap) = ker(alpha) & ker(beta_tilde), so injectivity
        means the two are equal.  quotient_dim is dim ker(alpha) - rank(mu).

        From blocks (see the class): passed is dim ker M == rank(mu), with M
        ranked at its own sigma_max and mu's R rows at mu's; quotient_dim
        is dimA - rank(alpha) - rank(mu), with alpha's P-blocks and G
        ranked at alpha's sigma_max.  A failure returns a witness in
        ker(Amap), built from ker M, orthogonal to Im(mu).  Raises
        RankIndeterminate on a rank too close to call, on Amap mu != 0, or
        when the witnesses found number other than dim ker(Amap) - rank(mu).
        """
        _require_zero_product(self.Amap, self.mu, "image of mu not contained in ker(Amap)")
        rank_mu = la.rank_decision(self._spectra[3], self.mu.shape)
        quotient_dim = self.dimA - self._alpha[0] - rank_mu
        if self._amap_nullity == rank_mu:
            return LocalFreenessResult(passed=True, quotient_dim=quotient_dim)
        witnesses = _quotient(self._amap_kernel(), self.mu, rank_mu)
        return LocalFreenessResult(passed=False, witness=witnesses[:, 0], quotient_dim=quotient_dim)

    def _amap_kernel(self) -> np.ndarray:
        """Orthonormal basis of ker(Amap): ker M with each K_i put back."""
        ix = self.block_index
        y = la.null_space(self._m())
        kernel = np.zeros((self.dimA, y.shape[1]), dtype=np.complex128)
        off = 0
        for i, k in self._alpha[1]:
            kernel[ix.alpha_p[i][1]] = k @ y[off : off + k.shape[1]]
            off += k.shape[1]
        kernel[ix.alpha_g[1]] = y[off:]
        return kernel


def _batched_spectra(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Singular values of each block, from one SVD of the blocks stacked and
    zero-padded to a common shape.  Padding adds only zero singular values,
    which sort last and are cut off at min(block shape)."""
    rows = max((b.shape[0] for b in blocks), default=0)
    cols = max((b.shape[1] for b in blocks), default=0)
    stack = np.zeros((len(blocks), rows, cols), dtype=np.complex128)
    for j, b in enumerate(blocks):
        stack[j, : b.shape[0], : b.shape[1]] = b
    spectra = np.linalg.svd(stack, compute_uv=False)
    return [s[: min(b.shape)] for s, b in zip(spectra, blocks)]


def _block_ranks(spectra: list[np.ndarray], shape: tuple[int, int]) -> list[int]:
    """Ranks of the blocks of a block-diagonal matrix of `shape`, from their
    singular values `spectra`.

    Their union is the spectrum of the whole, ranked in one decision; a
    block's rank is the count of its values among the union's top `rank`.
    """
    union = np.concatenate(spectra)
    order = np.argsort(union)[::-1]
    rank = la.rank_decision(union[order], shape)
    if rank == len(union):
        return [len(s) for s in spectra]
    owner = np.repeat(np.arange(len(spectra)), [len(s) for s in spectra])
    return np.bincount(owner[order[:rank]], minlength=len(spectra)).tolist()


def _product_residual(left: np.ndarray, right: np.ndarray) -> float:
    return la.fro(left @ right) / (1.0 + la.fro(left) * la.fro(right))


def _require_zero_product(left: np.ndarray, right: np.ndarray, what: str) -> None:
    residual = _product_residual(left, right)
    if not residual < la.DEFAULT_TOL:
        raise RankIndeterminate(f"{what}: residual {residual:.3e}")


def _quotient(kernel: np.ndarray, right: np.ndarray, rank_right: int) -> np.ndarray:
    """Orthonormal basis of span(kernel) & Im(right)^perp.

    `kernel` is an orthonormal basis of ker(left) for some left with
    left @ right = 0.  Raises RankIndeterminate on a rank too close to call,
    or when the basis found has other than kernel columns - rank_right.
    """
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

    Every entry that does not depend on the point is written once, here,
    into templates, -beta_i included.  The returned function checks the
    surface equation, copies the templates, adds eta on the diagonals of
    the eta I - beta_i blocks, writes xi and psi on the diagonals of their
    identity blocks and writes the divided differences S and T.  Points
    never share arrays.

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
    # C-blocks shifted past B: the -beta_tilde rows of Amap, the gamma columns of Bmap
    cb_table = {q: (dim_b + off, size) for q, (off, size) in c_table.items()}

    # every block derives from the datum, shape-checked once when it was built
    def at(table_r, row, table_c, col, rows=None, cols=None):
        """Slices of one block; `rows`/`cols` narrow it to a sub-range."""
        r0, rs = table_r[row]
        c0, cs = table_c[col]
        r_lo, r_hi = rows or (0, rs)
        c_lo, c_hi = cols or (0, cs)
        return slice(r0 + r_lo, r0 + r_hi), slice(c0 + c_lo, c0 + c_hi)

    def diagonal(shape, *blocks):
        """Flat indices into a `shape` matrix of the diagonals of square blocks."""
        return np.array(
            [(r.start + k) * shape[1] + c.start + k for r, c in blocks for k in range(r.stop - r.start)],
            dtype=np.intp,
        )

    b_r = b_table["R"][0]
    block_index = BlockIndex(
        A=a_table,
        B=b_table,
        C=c_table,
        F=f_table,
        alpha_p=tuple(at(b_table, f"P{i}", a_table, f"P{i}") for i in range(n)),
        alpha_g=(slice(b_r, dim_b), slice(a_table["R0"][0], dim_a)),
        gamma=tuple(at(c_table, f"Q{i}", cb_table, f"Q{i}") for i in range(n + 1)),
        # G's rows and Q0's follow each other; Qn is the last C-block
        r_rows=np.concatenate(
            [np.arange(b_r, dim_b + d0), np.arange(cb_table[f"Q{n}"][0], dim_b + dim_c)]
        ),
    )

    # Amap = (alpha; -beta_tilde); alpha ends in the R-block G of the resolution.
    amap_shape = (dim_b + dim_c, dim_a)
    amap0 = np.zeros(amap_shape, dtype=np.complex128)
    alpha_res = [at(b_table, f"P{i}", a_table, f"P{i}", rows=(0, d[i])) for i in range(n)]
    for i in range(n):
        amap0[alpha_res[i]] = -b.beta[i]
        amap0[at(b_table, f"P{i}", a_table, f"P{i}", rows=(d[i], d[i] + 1))] = -b.gamma[i]
    g_res0 = at(b_table, "R", a_table, "R0", rows=(0, d0))
    amap0[g_res0] = -b.beta[0]
    amap0[at(b_table, "R", a_table, "R3", rows=(0, d0))] = mxi_hat
    g_resn = at(b_table, "R", a_table, "R1", rows=(d0, d0 + dnn))
    amap0[g_resn] = -b.beta[n]
    amap0[at(b_table, "R", a_table, "R2", rows=(d0, d0 + dnn))] = -mpsi_hat

    for i in range(n):
        amap0[at(cb_table, f"Q{i}", a_table, f"P{i}")] = -np.eye(d[i])
        amap0[at(cb_table, f"Q{i + 1}", a_table, f"P{i}")] = -b.A[i]
    amap0[at(cb_table, "Q0", a_table, "R1")] = -mxi_hat
    bt_s = at(cb_table, "Q0", a_table, "R2")
    amap0[at(cb_table, f"Q{n}", a_table, "R0")] = mpsi_hat
    bt_t = at(cb_table, f"Q{n}", a_table, "R3")
    a_eta = diagonal(amap_shape, *alpha_res, g_res0, g_resn)
    a_xi = diagonal(  # xi I in G and in -beta_tilde
        amap_shape,
        at(b_table, "R", a_table, "R2", rows=(0, d0)),
        at(cb_table, f"Q{n}", a_table, "R1"),
    )
    a_mpsi = diagonal(  # -psi I in G and in -beta_tilde
        amap_shape,
        at(b_table, "R", a_table, "R3", rows=(d0, d0 + dnn)),
        at(cb_table, "Q0", a_table, "R0"),
    )

    # Bmap = (delta, gamma): columns B then C; gamma is block diagonal
    bmap_shape = (dim_c, dim_b + dim_c)
    bmap0 = np.zeros(bmap_shape, dtype=np.complex128)
    for i in range(n):
        bmap0[at(c_table, f"Q{i}", b_table, f"P{i}")] = np.eye(d[i], d[i] + 1)
        bmap0[at(c_table, f"Q{i + 1}", b_table, f"P{i}")] = np.hstack([b.A[i], b.alpha[i]])
    bmap0[at(c_table, "Q0", b_table, "R", cols=(d0, d0 + dnn))] = mxi_hat
    bmap0[at(c_table, f"Q{n}", b_table, "R", cols=(0, d0))] = -mpsi_hat
    for i in range(n + 1):
        bmap0[block_index.gamma[i]] = -b.beta[i]
    b_eta = diagonal(bmap_shape, *block_index.gamma)
    b_psi = diagonal(bmap_shape, at(c_table, "Q0", b_table, "R", cols=(0, d0)))
    b_mxi = diagonal(bmap_shape, at(c_table, f"Q{n}", b_table, "R", cols=(d0, d0 + dnn)))

    # mu spans ker(alpha) at generic points: polynomial first-stage lift of
    # the R resolution (divided differences in the top blocks).
    mu_shape = (dim_a, dim_f)
    mu0 = np.zeros(mu_shape, dtype=np.complex128)
    mu_s = at(a_table, "R0", f_table, "F0")
    mu_t = at(a_table, "R1", f_table, "F1")
    mu0[at(a_table, "R2", f_table, "F1")] = mxi_hat
    mu0[at(a_table, "R3", f_table, "F0")] = -mpsi_hat
    mu_psi = diagonal(mu_shape, at(a_table, "R2", f_table, "F0"))
    mu_mxi = diagonal(mu_shape, at(a_table, "R3", f_table, "F1"))

    def assemble(x: SurfacePoint) -> MonadAtPoint:
        residual = x.surface_residual(b.topo.z)
        if not residual < la.DEFAULT_TOL:
            raise SurfaceViolation(
                f"point {x} violates xi*psi = prod(eta - z_i): residual {residual:.3e}"
            )
        eta, xi, psi = x.eta, x.xi, x.psi
        minus_s = -la.divided_difference(coeffs, eta, b.beta[0])
        minus_t = -la.divided_difference(coeffs, eta, b.beta[n])

        amap = amap0.copy()
        flat = amap.reshape(-1)
        flat[a_eta] += eta
        flat[a_xi] = xi
        flat[a_mpsi] = -psi
        amap[bt_s] = minus_s
        amap[bt_t] = minus_t

        bmap = bmap0.copy()
        flat = bmap.reshape(-1)
        flat[b_eta] += eta
        flat[b_psi] = psi
        flat[b_mxi] = -xi

        mu = mu0.copy()
        flat = mu.reshape(-1)
        flat[mu_psi] = psi
        flat[mu_mxi] = -xi
        mu[mu_s] = minus_s
        mu[mu_t] = minus_t
        return MonadAtPoint(point=x, Amap=amap, Bmap=bmap, mu=mu, block_index=block_index)

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

    Each point is assembled once and ranked from blocks, never from a whole
    Amap, Bmap or alpha (see MonadAtPoint): one batched SVD of alpha's
    P-blocks and gamma's blocks, one of G and mu's R rows, one of M.  Only
    where some block is deficient, which in practice means the structured
    points, are its singular vectors computed and W^H delta ranked, at
    fro(Bmap); every other decision uses the ranked matrix's own sigma_max.
    """
    batches = [(pt, "random") for pt in random_points(b, config.n_random, config.seed)]
    batches += [(pt, "structured") for pt in structured_points(b)]
    assemble = monad_assembler(b)
    # each monad is dropped with its report, before the next point's is built
    reports = tuple(_point_report(assemble(pt), kind) for pt, kind in batches)
    return ScanReport(points=reports, expected_rank=b.topo.n)


def _point_report(monad: MonadAtPoint, kind: str) -> PointReport:
    try:
        rank = monad.fiber_rank()
        free = monad.locally_free()
    except RankIndeterminate:
        return PointReport(monad.point, kind, None, None, "indeterminate")
    return PointReport(monad.point, kind, rank, free.passed, "ok" if free.passed else "fail")
