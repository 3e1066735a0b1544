"""Monad assembly on the surface, fiber evaluation, and local freeness.

Everything is evaluated on the affine chart xi*psi = prod_i (eta - z_i),
where every line-bundle twist trivializes.  The lifts into the first
resolution stage use the matrix divided difference
S(eta, beta) = (p(eta) I - p(beta)) (eta I - beta)^{-1}, a polynomial in
beta and eta computed by synthetic division; their correctness is asserted
numerically by the lift-commutativity residuals rather than trusted.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg as la
from .bowdata import BowDatum, aggregate_maps
from .errors import RankIndeterminate, SurfaceViolation

# Bytes that one chunk of scan_local_freeness may hold, every array of its
# evaluation counted (MonadStack.point_bytes).  A chunk pays numpy's per-call
# overhead once for all its points.  2 MiB is one core's L2 cache on current
# x86 servers, so a chunk's arrays stay in cache, and a scan holds at most
# this much more memory than a point-at-a-time scan.  On the benchmark ladder
# suite_topology(3, 3, m0) that is 45 points a chunk at m0 = 3, 5 at m0 = 10,
# and at m0 = 20 (1.4 MB a point) one.
CHUNK_BYTES = 2 << 20


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
    and the slices of the maps that the block ranks of MonadStack read."""

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

    fiber_rank(), fiber() and locally_free() evaluate this point as a
    MonadStack of one, so a single point runs the code that
    scan_local_freeness runs on its stacks of up to CHUNK_BYTES.
    They rank blocks of the maps, never a whole map, and answer from
    singular values; only a rank-deficient block has its singular vectors
    computed.  Block by block:
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

    @cached_property
    def _stack(self) -> MonadStack:
        """This point as a stack of one, which every rank below is read from."""
        return MonadStack(
            (self.point,), self.Amap[None], self.Bmap[None], self.mu[None], self.block_index
        )

    def composition_residual(self) -> float:
        return float(self._stack.composition_residuals[0])

    def fiber_rank(self) -> int:
        """Rank of the monad cohomology: dim ker(Bmap) - rank(Amap).

        From blocks (see the class): (dimB + dimC) - rank(gamma)
        - rank(W^H delta) - (dimA - dim ker M).  gamma's blocks are ranked
        at gamma's sigma_max, W^H delta at fro(Bmap) and M at its own
        sigma_max.  Raises RankIndeterminate when a singular value sits too
        close to its rank cutoff to call, or when Im(Amap) is not inside
        ker(Bmap) (composition_residual not below DEFAULT_TOL).
        """
        return self._stack.fiber_rank(0)

    def fiber(self) -> np.ndarray:
        """Orthonormal basis of the monad cohomology ker(Bmap)/Im(Amap).

        Returns a (dimB + dimC) x fiber_rank() matrix spanning ker(Bmap)
        intersected with Im(Amap)^perp.  Raises RankIndeterminate where
        fiber_rank() does, or when the basis found has other than
        dim ker(Bmap) - rank(Amap) columns, with rank(Amap) from the blocks.
        """
        return self._stack.fiber(0)

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
        return self._stack.locally_free(0)


@dataclass(frozen=True)
class MonadStack:
    """The monad maps at k surface points, each map with a leading point axis.

    Amap is k x (dimB + dimC) x dimA, Bmap k x dimD x (dimB + dimC) and mu
    k x dimA x dimF; stack[j] is point j as a MonadAtPoint.  fiber_rank(j),
    fiber(j) and locally_free(j) answer for point j as MonadAtPoint does
    (see there for the block ranks).  What they read is evaluated for the
    whole stack on first use: each zero product is one batched matmul and
    one norm; alpha's P-blocks and gamma's blocks are one zero-padded SVD,
    G and mu's R rows another, and M one more for the points where no
    P-block is deficient.  Only what is truly per point runs in a loop:
    each rank_decision, the kernels of deficient blocks and W^H delta.
    Each per-point result holds a value or the RankIndeterminate its point
    raised, which is raised when that point is asked.
    """

    points: tuple[SurfacePoint, ...]
    Amap: np.ndarray
    Bmap: np.ndarray
    mu: np.ndarray
    block_index: BlockIndex

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, j: int) -> MonadAtPoint:
        return MonadAtPoint(self.points[j], self.Amap[j], self.Bmap[j], self.mu[j], self.block_index)

    @property
    def point_bytes(self) -> int:
        """Bytes one point holds while its stack is evaluated, counted whole
        (see CHUNK_BYTES): its three maps, S and T, both zero products, its
        share of the two padded block stacks, and M as it is where no
        P-block is deficient."""
        ix = self.block_index
        dim_bc, dim_a = self.Amap.shape[1:]
        dim_c, dim_f = self.Bmap.shape[1], self.mu.shape[2]
        chain = ix.alpha_p + ix.gamma
        g_rows, r_cols = map(_len, ix.alpha_g)
        entries = (
            dim_bc * dim_a + dim_c * dim_bc + dim_a * dim_f  # Amap, Bmap, mu
            + ix.A["R0"][1] ** 2 + ix.A["R1"][1] ** 2  # S, T
            + dim_c * dim_a + dim_bc * dim_f  # Bmap Amap, Amap mu
            + len(chain) * max(_len(r) for r, _ in chain) * max(_len(c) for _, c in chain)
            + 2 * g_rows * r_cols  # G, mu's R rows
            + len(ix.r_rows) * r_cols  # M
        )
        return max(entries, 1) * np.dtype(np.complex128).itemsize

    @cached_property
    def composition_residuals(self) -> np.ndarray:
        """Per point: fro(Bmap Amap) / (1 + fro(Bmap) fro(Amap))."""
        return _fro(self.Bmap @ self.Amap) / (1.0 + self._fro_bmap * self._fro_amap)

    @cached_property
    def _mu_residuals(self) -> np.ndarray:
        """Per point: fro(Amap mu) / (1 + fro(Amap) fro(mu))."""
        return _fro(self.Amap @ self.mu) / (1.0 + self._fro_amap * _fro(self.mu))

    @cached_property
    def _fro_amap(self) -> np.ndarray:
        return _fro(self.Amap)

    @cached_property
    def _fro_bmap(self) -> np.ndarray:
        return _fro(self.Bmap)

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Singular values of alpha's P-blocks then gamma's blocks, and of G
        and mu's R rows, from two padded SVDs (see _padded_spectra)."""
        ix = self.block_index
        g_rows, r_cols = ix.alpha_g
        chain = [self.Amap[:, r, c] for r, c in ix.alpha_p] + [self.Bmap[:, r, c] for r, c in ix.gamma]
        g_mu = [self.Amap[:, g_rows, r_cols], self.mu[:, r_cols].transpose(0, 2, 1)]
        return _padded_spectra(chain), _padded_spectra(g_mu)

    @cached_property
    def _alpha(self) -> list:
        """Per point: rank(alpha), and (i, K_i) for each rank-deficient P-block i."""
        ix = self.block_index
        chain, g_mu = self._spectra
        sizes = [min(map(_len, s)) for s in ix.alpha_p]
        spectra = [chain[:, i, :size] for i, size in enumerate(sizes)]
        spectra.append(g_mu[:, 0, : min(map(_len, ix.alpha_g))])
        ranks = _block_ranks(spectra, (self.Bmap.shape[2] - self.Bmap.shape[1], self.Amap.shape[2]))

        def alpha(j):
            blocks = _value(ranks[j])
            kernels = [
                (i, la.null_space(self.Amap[j][ix.alpha_p[i]], r))
                for i, (size, r) in enumerate(zip(sizes, blocks))
                if r < size
            ]
            return sum(blocks), kernels

        return _each(alpha, len(self))

    def _m(self, j: int) -> np.ndarray:
        """M of point j (see MonadAtPoint) without the rows that are zero on
        its columns.

        Off the deficient P-blocks' columns only G and the Q0 and Qn rows of
        beta_tilde reach the R columns, so the other Q rows are left out.
        """
        ix = self.block_index
        g_rows, r_cols = ix.alpha_g
        kernels = self._alpha[j][1]
        amap = self.Amap[j]
        rows = amap[g_rows.start :] if kernels else amap[ix.r_rows]
        return np.hstack([rows[:, ix.alpha_p[i][1]] @ k for i, k in kernels] + [rows[:, r_cols]])

    @cached_property
    def _amap_nullity(self) -> list:
        """Per point: dim ker(Amap) = dim ker M, ranked at M's own sigma_max
        and shape.  The Ms of the points with no deficient P-block share one
        shape and are one batched SVD."""
        ix = self.block_index
        plain = [j for j, a in enumerate(self._alpha) if not isinstance(a, RankIndeterminate) and not a[1]]
        spectra = {}
        if plain:
            at = slice(None) if len(plain) == len(self) else np.array(plain)[:, None]
            m = self.Amap[at, ix.r_rows, ix.alpha_g[1]]
            spectra = dict(zip(plain, np.linalg.svd(m, compute_uv=False)))
        m_rows = self.Amap.shape[1] - ix.alpha_g[0].start

        def nullity(j):
            cols = _len(ix.alpha_g[1]) + sum(k.shape[1] for _, k in _value(self._alpha[j])[1])
            s = spectra[j] if j in spectra else np.linalg.svd(self._m(j), compute_uv=False)
            return cols - la.rank_decision(s, (m_rows, cols))

        return _each(nullity, len(self))

    @cached_property
    def _bmap_rank(self) -> list:
        """Per point: rank(gamma) + rank(W^H delta) (see MonadAtPoint)."""
        ix = self.block_index
        n = len(ix.alpha_p)
        dim_c = self.Bmap.shape[1]
        dim_b = self.Bmap.shape[2] - dim_c
        sizes = [_len(r) for r, _ in ix.gamma]
        ranks = _block_ranks(
            [self._spectra[0][:, n + i, :size] for i, size in enumerate(sizes)], (dim_c, dim_c)
        )

        def bmap_rank(j):
            blocks = _value(ranks[j])
            bmap = self.Bmap[j]
            cokernel = [
                la.null_space(bmap[block].conj().T, r).conj().T @ bmap[block[0], :dim_b]
                for block, size, r in zip(ix.gamma, sizes, blocks)
                if r < size
            ]
            if not cokernel:
                return sum(blocks)
            s = np.linalg.svd(np.vstack(cokernel), compute_uv=False)
            return sum(blocks) + la.rank_decision(s, bmap.shape, self._fro_bmap[j])

        return _each(bmap_rank, len(self))

    @cached_property
    def _mu_rank(self) -> list:
        """Per point: rank(mu), from its R rows at mu's shape."""
        spectra = self._spectra[1][:, 1, : self.mu.shape[2]]
        return _each(lambda j: la.rank_decision(spectra[j], self.mu.shape[1:]), len(self))

    def _amap_rank(self, j: int) -> int:
        """rank(Amap) at point j: dimA - dim ker M."""
        return self.Amap.shape[2] - _value(self._amap_nullity[j])

    def fiber_rank(self, j: int) -> int:
        """MonadAtPoint.fiber_rank at point j."""
        _require_zero(self.composition_residuals[j], "image of Amap not contained in ker(Bmap)")
        return self.Bmap.shape[2] - _value(self._bmap_rank[j]) - self._amap_rank(j)

    def fiber(self, j: int) -> np.ndarray:
        """MonadAtPoint.fiber at point j."""
        _require_zero(self.composition_residuals[j], "image of Amap not contained in ker(Bmap)")
        return _quotient(la.null_space(self.Bmap[j]), self.Amap[j], self._amap_rank(j))

    def locally_free(self, j: int) -> LocalFreenessResult:
        """MonadAtPoint.locally_free at point j."""
        _require_zero(self._mu_residuals[j], "image of mu not contained in ker(Amap)")
        rank_mu = _value(self._mu_rank[j])
        quotient_dim = self.Amap.shape[2] - _value(self._alpha[j])[0] - rank_mu
        if _value(self._amap_nullity[j]) == rank_mu:
            return LocalFreenessResult(passed=True, quotient_dim=quotient_dim)
        witnesses = _quotient(self._amap_kernel(j), self.mu[j], rank_mu)
        return LocalFreenessResult(passed=False, witness=witnesses[:, 0], quotient_dim=quotient_dim)

    def _amap_kernel(self, j: int) -> np.ndarray:
        """Orthonormal basis of ker(Amap) at point j: ker M with each K_i put back."""
        ix = self.block_index
        y = la.null_space(self._m(j))
        kernel = np.zeros((self.Amap.shape[2], y.shape[1]), dtype=np.complex128)
        off = 0
        for i, k in self._alpha[j][1]:
            kernel[ix.alpha_p[i][1]] = k @ y[off : off + k.shape[1]]
            off += k.shape[1]
        kernel[ix.alpha_g[1]] = y[off:]
        return kernel


def _len(s: slice) -> int:
    return s.stop - s.start


def _each(result: Callable[[int], object], k: int) -> list:
    """result(j) for each point j of a stack, or the RankIndeterminate it raised."""
    out = []
    for j in range(k):
        try:
            out.append(result(j))
        except RankIndeterminate as exc:
            out.append(exc)
    return out


def _value(result):
    """A per-point result of MonadStack: raise it if it is a RankIndeterminate."""
    if isinstance(result, RankIndeterminate):
        raise result
    return result


def _padded_spectra(blocks: list[np.ndarray]) -> np.ndarray:
    """Singular values of stacks of blocks (each k x rows x cols), from one
    SVD of all of them zero-padded to a common shape.  The result is
    k x len(blocks) x min(padded shape); padding adds only zero singular
    values, which sort last, so block b's are [:, b, :min(its shape)]."""
    rows = max((b.shape[1] for b in blocks), default=0)
    cols = max((b.shape[2] for b in blocks), default=0)
    stack = np.zeros((len(blocks[0]), len(blocks), rows, cols), dtype=np.complex128)
    for j, b in enumerate(blocks):
        stack[:, j, : b.shape[1], : b.shape[2]] = b
    return np.linalg.svd(stack, compute_uv=False)


def _block_ranks(spectra: list[np.ndarray], shape: tuple[int, int]) -> list:
    """Per point, the ranks of the blocks of a block-diagonal matrix of
    `shape`, from their singular values (spectra[b][point]), or the
    RankIndeterminate its decision raised.

    A point's union of block spectra is the spectrum of its whole matrix,
    ranked in one decision; a block's rank is the count of its values among
    the union's top `rank`.
    """
    sizes = [s.shape[1] for s in spectra]
    union = np.concatenate(spectra, axis=1)
    ranked = np.sort(union, axis=1)[:, ::-1]

    def ranks(j):
        rank = la.rank_decision(ranked[j], shape)
        if rank == union.shape[1]:
            return sizes
        owner = np.repeat(np.arange(len(sizes)), sizes)[np.argsort(union[j])[::-1]]
        return np.bincount(owner[:rank], minlength=len(sizes)).tolist()

    return _each(ranks, len(union))


def _fro(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex stack."""
    rows = np.ascontiguousarray(stack).reshape(len(stack), 1, -1).view(np.float64)
    return np.sqrt(rows @ rows.transpose(0, 2, 1)).reshape(len(stack))


def _require_zero(residual: float, what: str) -> None:
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


def monad_assembler(b: BowDatum) -> Callable[[Sequence[SurfacePoint]], MonadStack]:
    """Evaluation of the monad maps of `b` at a stack of surface points.

    Every entry that does not depend on the point is written once, here,
    into templates, -beta_i included.  The returned function takes a
    sequence of k points and returns their MonadStack: it checks the
    surface equation at each point, copies each template once into a
    k x ... array, adds eta on the diagonals of the eta I - beta_i blocks,
    writes xi and psi on the diagonals of their identity blocks (all on
    precomputed flat indices, for all k points at once) and writes the
    divided differences S and T.  Points never share entries, and stacks
    never share arrays.  scan_local_freeness sizes its stacks by
    CHUNK_BYTES; assemble_monad is a stack of one.

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
    bt_s = (slice(None), *at(cb_table, "Q0", a_table, "R2"))
    amap0[at(cb_table, f"Q{n}", a_table, "R0")] = mpsi_hat
    bt_t = (slice(None), *at(cb_table, f"Q{n}", a_table, "R3"))
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
    mu_s = (slice(None), *at(a_table, "R0", f_table, "F0"))
    mu_t = (slice(None), *at(a_table, "R1", f_table, "F1"))
    mu0[at(a_table, "R2", f_table, "F1")] = mxi_hat
    mu0[at(a_table, "R3", f_table, "F0")] = -mpsi_hat
    mu_psi = diagonal(mu_shape, at(a_table, "R2", f_table, "F0"))
    mu_mxi = diagonal(mu_shape, at(a_table, "R3", f_table, "F1"))
    # the templates' -beta_i diagonals, to which each point adds its eta
    a_eta0 = amap0.reshape(-1)[a_eta, None]
    b_eta0 = bmap0.reshape(-1)[b_eta, None]

    def assemble(points: Sequence[SurfacePoint]) -> MonadStack:
        for x in points:
            residual = x.surface_residual(b.topo.z)
            if not residual < la.DEFAULT_TOL:
                raise SurfaceViolation(
                    f"point {x} violates xi*psi = prod(eta - z_i): residual {residual:.3e}"
                )
        k = len(points)
        eta, xi, psi = np.array(
            [(x.eta, x.xi, x.psi) for x in points], dtype=np.complex128
        ).reshape(k, 3).T
        minus_s = -la.divided_difference(coeffs, eta, b.beta[0])
        minus_t = -la.divided_difference(coeffs, eta, b.beta[n])

        amap, bmap, mu = (np.empty((k,) + t.shape, dtype=np.complex128) for t in (amap0, bmap0, mu0))
        amap[:], bmap[:], mu[:] = amap0, bmap0, mu0
        # each map is written through a view with one row per entry and one
        # column per point, so the diagonals are 1-d index writes
        entries = amap.reshape(k, amap0.size).T
        entries[a_eta] = a_eta0 + eta
        entries[a_xi] = xi
        entries[a_mpsi] = -psi
        amap[bt_s] = minus_s
        amap[bt_t] = minus_t

        entries = bmap.reshape(k, bmap0.size).T
        entries[b_eta] = b_eta0 + eta
        entries[b_psi] = psi
        entries[b_mxi] = -xi

        entries = mu.reshape(k, mu0.size).T
        entries[mu_psi] = psi
        entries[mu_mxi] = -xi
        mu[mu_s] = minus_s
        mu[mu_t] = minus_t
        return MonadStack(tuple(points), amap, bmap, mu, block_index)

    return assemble


def assemble_monad(b: BowDatum, x: SurfacePoint) -> MonadAtPoint:
    """Evaluate the monad maps at a surface point, with the datum's own
    assembler (see monad_assembler and BowDatum.monad_assembler)."""
    return b.monad_assembler([x])[0]


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

    def __post_init__(self):
        if self.n_random < 0:
            raise ValueError(f"the number of random points must be >= 0, got {self.n_random}")


@dataclass(frozen=True)
class PointReport:
    point: SurfacePoint
    kind: str  # "random" | "structured"
    fiber_rank: int | None
    locally_free: bool | None
    status: str  # "ok" | "fail" | "indeterminate"
    reason: str = ""  # what made an indeterminate point indeterminate


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
    into pass or fail; the report keeps each one's reason.

    The points are assembled and ranked in chunks, each one MonadStack
    (see there): per chunk, one assembly, one batched matmul per zero
    product, one padded SVD of alpha's P-blocks and gamma's blocks, one of
    G and mu's R rows, and one of M where no P-block is deficient.  Each
    point is ranked from blocks, never from a whole Amap, Bmap or alpha.
    Only where some block is deficient, which in practice means the
    structured points, are its singular vectors computed and W^H delta
    ranked, at fro(Bmap); every other decision uses the ranked matrix's own
    sigma_max.  A chunk holds as many points as fit in CHUNK_BYTES, and at
    least one.
    """
    batches = [(pt, "random") for pt in random_points(b, config.n_random, config.seed)]
    batches += [(pt, "structured") for pt in structured_points(b)]
    assemble = monad_assembler(b)
    size = max(1, CHUNK_BYTES // assemble([]).point_bytes)  # an empty stack has every shape
    reports = []
    for start in range(0, len(batches), size):
        chunk = batches[start : start + size]
        stack = assemble([x for x, _ in chunk])
        for j, (x, kind) in enumerate(chunk):
            try:
                rank, free = stack.fiber_rank(j), stack.locally_free(j)
            except RankIndeterminate as exc:
                reports.append(PointReport(x, kind, None, None, "indeterminate", str(exc)))
            else:
                status = "ok" if free.passed else "fail"
                reports.append(PointReport(x, kind, rank, free.passed, status))
        del stack  # freed before the next chunk is assembled
    return ScanReport(points=tuple(reports), expected_rank=b.topo.n)
