"""Monad assembly on the surface, fiber evaluation, and local freeness.

Everything is evaluated on the affine chart xi*psi = prod_i (eta - z_i),
where every line-bundle twist trivializes.  The lifts into the first
resolution stage use the matrix divided difference
S(eta, beta) = (p(eta) I - p(beta)) (eta I - beta)^{-1}, a polynomial in
beta and eta telescoped from the NUT positions z_i; their correctness is
asserted numerically by the lift-commutativity residuals rather than trusted.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from . import _linalg as la
from .bowdata import BowDatum, aggregate_maps
from .errors import RankIndeterminate, SurfaceViolation

# Bytes of arrays that one chunk of scan_local_freeness may hold, at
# BlockIndex.point_bytes a point.  A chunk is one MonadStack, which pays a
# fixed cost of a few hundred Python and numpy calls however many points it
# holds, so larger chunks scan faster, up to a crossover, and hold more
# memory.  tools/chunk_sweep.py times the ladder suite_topology(3, 3, m0) in
# one process with one BLAS thread (Xeon, 2 MiB of L2 a core; medians of
# two sweeps): at m0 = 10 a scan took 77-79 / 44-47 / 38-40 / 37.5-37.7 /
# 44-46 ms at 1 / 4 / 7 / 8 / 9 points a chunk (2.2 and 2.5 MB traced at 8
# and 9), and at m0 = 20, 270-272 / 237 / 204-210 / 189-198 / 236-248 ms at
# 1 / 2 / 4 / 8 / 9.  2.25 MiB, below nine m0 = 10 points, gives 46 points a
# chunk at m0 = 3 (all of a scan), 8 at m0 = 10, 2 at m0 = 20 and 1 at
# m0 = 40; four at m0 = 20 would hold 3.9 MB.  A chunk may end among one
# eta's points; what depends on eta alone is kept across chunks (see
# MonadStack).  A failing point's witness comes on top (see point_bytes).
CHUNK_BYTES = 9 << 18
# A stack that holds at least this many of G's columns (points times M's
# width) tries to prove G's rank from the kept chain spectra before it takes
# G's SVD (see MonadStack).  Timed in one process, one BLAS thread (Xeon),
# the proof tried or not in alternation: one point took 45-72 us (10-19 %)
# longer with it at 4, 8 and 14 columns (the mirror data, m0 = 3), 1-3 % at
# 34 and 42 (m0 = 8, 10; medians of 41); under this rule, scans (medians of
# 31) of the ladder at m0 = 3 / 5 / 8, chunks of 46 / 27 / 12 points at 14 /
# 22 / 34 columns, ran 7.5 / 6.5 / 9.7 % faster, and the bow fixtures' 20-
# random-point scans (22-30 points, 2-8 columns) 0.5-8.4 % (8-110 us) slower.
CHAIN_PROOF_COLUMNS = 36


@dataclass(frozen=True)
class SurfacePoint:
    """A point (xi, psi, eta) on the affine chart of the surface."""

    xi: complex
    psi: complex
    eta: complex

    @staticmethod
    def from_xi_eta(z, xi: complex, eta: complex) -> "SurfacePoint":
        """Point with psi derived from the surface equation (xi != 0).

        Raises ValueError on xi = 0, and when xi, eta or the derived psi is
        not finite (a subnormal xi makes psi overflow).
        """
        if xi == 0:
            raise ValueError("xi must be nonzero: psi is derived from xi*psi = prod(eta - z_i)")
        xi, eta = complex(xi), complex(eta)
        psi = reduce(operator.mul, [eta - zi for zi in z], 1.0 + 0j) / xi  # np.prod's order
        if all(map(math.isfinite, (xi.real, xi.imag, eta.real, eta.imag, psi.real, psi.imag))):
            return SurfacePoint(xi=xi, psi=psi, eta=eta)
        raise ValueError(
            f"xi, eta and psi = prod(eta - z_i) / xi must be finite: got xi={xi}, eta={eta}"
        )


@dataclass(frozen=True)
class BlockIndex:
    """The block layout of the monad (see block_layout): named (offset, size)
    for every block of the spaces A, B, C = D, F, the slices of the maps that
    the block ranks of MonadStack read, and the dimensions.  One index
    serves every datum of its dimension vector, so it is read-only."""

    A: MappingProxyType
    B: MappingProxyType
    C: MappingProxyType
    F: MappingProxyType
    alpha_p: tuple  # Amap (rows, columns) of alpha's P-blocks [(eta - beta_i); -gamma_i]
    alpha_g: tuple  # Amap (rows, columns) of alpha's R-block G; the columns are A's R-blocks
    gamma: tuple  # Bmap (rows, columns) of gamma's blocks eta - beta_i, i = 0..n
    r_rows: tuple  # Amap rows below alpha's P-blocks that reach A's R-blocks: G and Q0, then Qn
    bmap_amap: tuple  # Bmap Amap's bands (rows, columns, inner slices), where it can be nonzero
    dims: tuple[int, int, int, int]  # (dimA, dimB, dimC, dimD), D = C

    @property
    def point_bytes(self) -> int:
        """Bytes one point holds at most while its stack is evaluated (see
        CHUNK_BYTES), its largest live set: its three maps and M as it is
        where no P-block is deficient, which last as long as the stack, and
        the most that one phase holds beside them: the bands of Bmap Amap
        and their concatenation, or its share of the chain blocks' padded
        stack.  Every other phase holds less.  Not counted: a stack's few kB
        of its own; the one copy of M that _amap_nullity takes,
        self._plain_m[js], and only where the stack mixes points with a
        deficient P-block and plain ones; and the witness of a failing
        point, one full SVD of [Amap; mu^H] at a time, whose input, U, s
        and Vh come on top of the stack (1.4 point_bytes at m0 = 10 and 20
        on the benchmark ladder)."""
        dim_a, dim_b, dim_c, _ = self.dims
        dim_bc, dim_f = dim_b + dim_c, sum(size for _, size in self.F.values())
        chain = self.alpha_p + self.gamma
        r_cols, m_rows = _len(self.alpha_g[1]), sum(map(_len, self.r_rows))
        phases = [
            2 * sum(_len(r) * _len(c) for r, c, _ in self.bmap_amap),  # the bands, then concatenated
            len(chain) * max(_len(r) for r, _ in chain) * max(_len(c) for _, c in chain),
        ]
        maps = dim_bc * dim_a + dim_c * dim_bc + dim_a * dim_f  # Amap, Bmap, mu
        entries = maps + m_rows * r_cols + max(phases)
        return max(entries, 1) * np.dtype(np.complex128).itemsize


@dataclass(frozen=True)
class LocalFreenessResult:
    passed: bool
    witness: np.ndarray | None = None
    quotient_dim: int = 0


@dataclass(frozen=True)
class MonadStack:
    """The monad maps at k surface points, each map with a leading point axis.

    Amap = (alpha; -beta_tilde) is k x (dimB + dimC) x dimA, Bmap =
    (delta, gamma) k x dimD x (dimB + dimC) and mu, which maps F into the
    R-blocks of A, k x dimA x dimF.  fiber_rank(j) and locally_free(j) rank
    blocks of the maps of point j, never a whole map, from singular values,
    or from a proof of full rank; only a rank-deficient block has its
    singular vectors computed.  Block by block:
      rank(alpha): alpha is block diagonal in its P-blocks
        [(eta - beta_i); -gamma_i] and its R-block G, each ranked at
        alpha's sigma_max and shape (G with no SVD where a chain proof
        below holds);
      rank(mu): its R rows, the only nonzero ones, at mu's shape: dimF
        where la.full_rank's Cholesky certificate proves it, else ranked
        from their singular values;
      rank(Amap) = dimA - dim ker M: ker(Amap) lies in ker(alpha), whose
        P part is the kernels K_i of the deficient P-blocks.  M is Amap on
        the columns of those K_i and of the R-blocks, less the P rows of
        alpha (zero there); it holds G and beta_tilde at full scale, so it
        is ranked at its own sigma_max;
      rank(Bmap) = rank(gamma) + rank(W^H delta): gamma is block diagonal
        in eta - beta_i, ranked at gamma's sigma_max and shape, and W holds
        the left kernels of its deficient blocks.  W^H delta sits at
        rounding level when it should be zero, so it is the one product
        ranked at its parent's scale: fro(Bmap) and Bmap's shape.
    G's chain proof, on stacks that hold CHAIN_PROOF_COLUMNS of G's columns:
    G holds E = diag(eta - beta_0, eta - beta_n) on A's R0 and R1, whose
    values are gamma's first and last blocks' in _chain.  By Courant-Fischer,
    G's d0 + dn values are at least sigma_min(E) (d0 or dn may be 0), above
    the straddle band off the spectra of beta_0 and beta_n.  _proved_alpha
    checks that Amap's E is those blocks of Bmap, and la.proved_block_ranks,
    which states every bound and rounding allowance of the proof, gives
    what the SVD and the rule give, or declines, and the SVD decides.
    Both cohomology questions are ker(left) / Im(right) with left right = 0:
    the fiber is ker(Bmap) / Im(Amap), and freeness asks that ker(Amap) /
    Im(mu) vanish.  Im(right) lies in ker(left), orthogonal to the row space
    of left, so the singular values of [left; right^H] are those of left and
    of right together, and its kernel at rank(left) + rank(right) is
    ker(left) & Im(right)^perp (_cohomology).  fiber(j) and the witness of a
    failing locally_free(j) take that kernel at the ranks above, so a basis
    decides no rank of its own.
    Each rank is evaluated for the whole stack on first use: a zero product
    is batched matmuls of slice views on the bands where the maps as
    monad_assembler builds them can make it nonzero (Bmap Amap on
    BlockIndex.bmap_amap, Amap mu as M times mu's R rows), G one SVD of
    the points the chain proof does not prove, mu's R rows one Gram matrix
    and its Cholesky factorization (and one SVD of those that it does not
    prove of full rank), and the Ms of one width one more SVD; each M is
    built once, for its nullity only.  G's and mu's ranks are proved where
    a proof holds, and each kind of rank is decided in one call for the
    rest of the stack (la.block_ranks or la.rank_decisions, per shape), and
    the small SVDs (W^H delta, the K_i and W) are one la.svd call per shape;
    each matrix is ranked once.  The P-blocks and gamma's
    blocks depend on eta alone: their padded SVD, gamma's ranks and the
    kernels K_i and W_i are kept by _per_eta under keys (what, eta key, ...):
    the eta key is the exact eta in `shared`, which scan_local_freeness passes
    to all its stacks of one datum, else the point's index.  What depends on xi
    is per point: alpha's rank (G is ranked with the P-blocks), M, W^H delta
    and rank(mu).  A per-point result is a value or the RankIndeterminate
    raised when its point, or each point of its eta, is asked.
    """

    points: tuple[SurfacePoint, ...]
    Amap: np.ndarray
    Bmap: np.ndarray
    mu: np.ndarray
    block_index: BlockIndex
    shared: dict | None = None  # eta-only results by exact eta, within one scan

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def composition_residuals(self) -> np.ndarray:
        """Per point: fro(Bmap Amap) / (1 + fro(Bmap) fro(Amap)), the product
        taken on its bands (BlockIndex.bmap_amap) only."""
        bmap, amap = self.Bmap, self.Amap
        bands = [  # one norm of all bands is cheaper than one per band
            reduce(operator.iadd, (bmap[:, r, s] @ amap[:, s, c] for s in inner)).reshape(len(self), -1)
            for r, c, inner in self.block_index.bmap_amap
        ]
        return la.fros(np.concatenate(bands, axis=1)) / (1.0 + self._fro_bmap * self._fro_amap)

    @cached_property
    def _mu_residuals(self) -> np.ndarray:
        """Per point: fro(Amap mu) / (1 + fro(Amap) fro(mu)), the product
        taken as M times mu's R rows, the only nonzero ones."""
        mu_r = self.mu[:, self.block_index.alpha_g[1]]
        return la.fros(self._plain_m @ mu_r) / (1.0 + self._fro_amap * self._fro_mu)

    @cached_property
    def _plain_m(self) -> np.ndarray:
        """Per point: M where no P-block is deficient, Amap's r_rows on A's R-blocks."""
        cols = self.block_index.alpha_g[1]
        return np.concatenate([self.Amap[:, rows, cols] for rows in self.block_index.r_rows], axis=1)

    @cached_property
    def _fro_amap(self) -> np.ndarray:
        return la.fros(self.Amap)

    @cached_property
    def _fro_bmap(self) -> np.ndarray:
        return la.fros(self.Bmap)

    @cached_property
    def _fro_mu(self) -> np.ndarray:
        return la.fros(self.mu)

    @cached_property
    def _keys(self) -> tuple[list, dict]:
        """Per point, the key of its eta-only results, and the dict they are
        kept in: its exact eta in `shared`, else its index in a new dict."""
        if self.shared is None:
            return list(range(len(self))), {}
        return [x.eta for x in self.points], self.shared

    def _per_eta(self, keys: list[tuple], compute: Callable[[list[int]], Sequence]) -> list:
        """The kept result of each key (what, eta key, ...) of `keys`:
        compute(ts) returns those of keys[t] for one t of each key not kept yet."""
        kept = self._keys[1]
        new = {key: t for t, key in enumerate(keys) if key not in kept}
        if new:
            kept.update(zip(new, compute(list(new.values()))))
        return [kept[key] for key in keys]

    def _kernels(self, what: str, ranks: list, sizes: list[int], block: Callable) -> list:
        """Per point: the sum of its block ranks ranks[j] (or the
        RankIndeterminate they raised), and (i, kernel of block(j, i)) for
        each block i of rank below sizes[i].  Each kernel is kept per eta,
        block and rank; the new ones take one SVD call per shape."""
        deficient = [
            (j, i, b)
            for j, r in enumerate(ranks) if not isinstance(r, RankIndeterminate)
            for i, (size, b) in enumerate(zip(sizes, r)) if b < size
        ]
        keys = [(what, self._keys[0][j], i, b) for j, i, b in deficient]
        kernels = self._per_eta(keys, lambda ts: la.null_spaces(
            [block(*deficient[t][:2]) for t in ts], [deficient[t][2] for t in ts]
        ))
        out = [r if isinstance(r, RankIndeterminate) else (sum(r), []) for r in ranks]
        for (j, i, _), k in zip(deficient, kernels):
            out[j][1].append((i, k))
        return out

    @cached_property
    def _chain(self) -> np.ndarray:
        """Per point: the singular values of alpha's P-blocks then gamma's
        blocks, from one padded SVD (la.padded_spectra) of the new etas."""
        ix, keys = self.block_index, [("chain", key) for key in self._keys[0]]
        return np.array(self._per_eta(keys, lambda js: la.padded_spectra(
            [self.Amap[js, r, c] for r, c in ix.alpha_p] + [self.Bmap[js, r, c] for r, c in ix.gamma]
        ).reshape(len(ix.alpha_p) + len(ix.gamma), len(js), -1).swapaxes(0, 1)))

    @cached_property
    def _alpha(self) -> list:
        """Per point: rank(alpha), decided with G, and (i, K_i) for each
        rank-deficient P-block i, K_i its kernel (_kernels).  G's SVD is
        taken only at the points where _proved_alpha proves nothing."""
        ix = self.block_index
        sizes = [min(map(_len, s)) for s in ix.alpha_p]
        spectra = [self._chain[:, i, :size] for i, size in enumerate(sizes)]
        g = self.Amap[:, ix.alpha_g[0], ix.alpha_g[1]]
        shape = (self.Bmap.shape[2] - self.Bmap.shape[1], self.Amap.shape[2])
        ranks = self._proved_alpha(shape)
        js = [j for j, r in enumerate(ranks) if r is None]
        if js:
            rows = _rows(js, len(self))
            decided = la.block_ranks([s[rows] for s in spectra] + [la.svd(g[rows], compute_uv=False)], shape)
            for j, r in zip(js, decided):
                ranks[j] = r
        return self._kernels("K", ranks, sizes, lambda j, i: self.Amap[j][ix.alpha_p[i]])

    def _proved_alpha(self, shape: tuple[int, int]) -> list:
        """Per point: alpha's block ranks (as la.block_ranks gives them) where
        la.proved_block_ranks proves them without G's SVD, else None; None at
        each point where the stack holds fewer than CHAIN_PROOF_COLUMNS of
        G's columns (points times M's width).  G holds E = diag(eta - beta_0,
        eta - beta_n) on A's R0 and R1, so G G^H >= E E^H, d0 or dn 0 or
        not; where Amap's E is exactly Bmap's blocks, its values are _chain's."""
        ix = self.block_index
        n, (g_rows, g_cols) = len(ix.alpha_p), ix.alpha_g
        (r0, c0), (rn, cn) = ix.gamma[0], ix.gamma[n]
        d0, dn = _len(r0), _len(rn)
        if len(self) * _len(g_cols) < CHAIN_PROOF_COLUMNS:
            return [None] * len(self)
        e = self.Amap[:, g_rows, g_cols.start : g_cols.start + d0 + dn]
        blocks = [(e[:, :d0, :d0], self.Bmap[:, r0, c0]), (e[:, d0:, d0:], self.Bmap[:, rn, cn])]
        blocks += [(e[:, :d0, d0:], 0), (e[:, d0:, :d0], 0)]
        exact = np.logical_and.reduce([(block == expected).all(axis=(1, 2)) for block, expected in blocks])
        values = np.concatenate([self._chain[:, n, :d0], self._chain[:, 2 * n, :dn]], axis=1)
        proved, counts = la.proved_block_ranks(
            self._chain[:, :n], np.where(exact[:, None], values, np.nan), self._fro_amap, self.Amap[0].size, shape
        )
        return [row + [_len(g_rows)] if ok else None for ok, row in zip(proved.tolist(), counts.tolist())]

    def _m(self, j: int) -> np.ndarray:
        """M of point j (see the class), j with a deficient P-block, without
        its zero rows: off those blocks' columns only G and the Q0 and Qn
        rows reach it."""
        ix = self.block_index
        g_rows, r_cols = ix.alpha_g
        rows = self.Amap[j, g_rows.start :]
        return np.hstack([rows[:, ix.alpha_p[i][1]] @ k for i, k in self._alpha[j][1]] + [rows[:, r_cols]])

    @cached_property
    def _amap_nullity(self) -> list:
        """Per point: dim ker(Amap) = dim ker M, ranked at M's own sigma_max
        and shape.  The Ms of one width, set by the total nullity of the
        deficient P-blocks, are one values-only SVD and one stacked decision
        (la.rank_decisions): _plain_m where no P-block is deficient, else
        each point's _m."""
        out = list(self._alpha)  # a point whose alpha raised keeps that
        by_nullity: dict[int, list[int]] = {}
        for j, a in enumerate(self._alpha):
            if not isinstance(a, RankIndeterminate):
                by_nullity.setdefault(sum(k.shape[1] for _, k in a[1]), []).append(j)
        for nullity, js in by_nullity.items():
            m = np.stack([self._m(j) for j in js]) if nullity else self._plain_m[_rows(js, len(self))]
            ranks = la.rank_decisions(la.svd(m, compute_uv=False), m.shape[1:])
            for j, rank in zip(js, ranks):
                out[j] = rank if isinstance(rank, RankIndeterminate) else m.shape[2] - rank
        return out

    @cached_property
    def _gamma(self) -> list:
        """Per point: rank(gamma), decided once per eta key, and (i, W_i) for
        each rank-deficient block i of gamma, W_i its left kernel (_kernels)."""
        ix = self.block_index
        n, dim_c = len(ix.alpha_p), self.Bmap.shape[1]
        sizes = [_len(r) for r, _ in ix.gamma]
        ranks = self._per_eta([("gamma", key) for key in self._keys[0]], lambda js: la.block_ranks(
            [self._chain[js, n + i, :size] for i, size in enumerate(sizes)], (dim_c, dim_c)
        ))
        return self._kernels("W", ranks, sizes, lambda j, i: self.Bmap[j][ix.gamma[i]].conj().T)

    @cached_property
    def _bmap_rank(self) -> list:
        """Per point: rank(gamma) + rank(W^H delta) (see the class); the W^H
        delta of one shape are one batched SVD and one stacked decision."""
        gamma, dim_b = self.block_index.gamma, self.Bmap.shape[2] - self.Bmap.shape[1]
        out = [g if isinstance(g, RankIndeterminate) else g[0] for g in self._gamma]
        by_shape: dict[tuple, list] = {}
        for j, g in enumerate(self._gamma):
            if not isinstance(g, RankIndeterminate) and g[1]:
                w_delta = np.vstack([w.conj().T @ self.Bmap[j, gamma[i][0], :dim_b] for i, w in g[1]])
                by_shape.setdefault(w_delta.shape, []).append((j, w_delta))
        for group in by_shape.values():
            js = [j for j, _ in group]
            spectra = la.svd(np.stack([w_delta for _, w_delta in group]), compute_uv=False)
            for j, rank in zip(js, la.rank_decisions(spectra, self.Bmap.shape[1:], self._fro_bmap[js])):
                out[j] = rank if isinstance(rank, RankIndeterminate) else out[j] + rank
        return out

    @cached_property
    def _mu_rank(self) -> list:
        """Per point: rank(mu), from its R rows at mu's shape: dimF where
        la.full_rank proves it, else ranked from their singular values."""
        shape, mu_r = self.mu.shape[1:], self.mu[:, self.block_index.alpha_g[1]]
        out: list = [shape[1]] * len(self)
        unproved = np.flatnonzero(~la.full_rank(mu_r, shape, self._fro_mu)).tolist()
        if unproved:
            spectra = la.svd(mu_r[unproved].transpose(0, 2, 1), compute_uv=False)
            for j, rank in zip(unproved, la.rank_decisions(spectra, shape)):
                out[j] = rank
        return out

    def _amap_rank(self, j: int) -> int:
        """rank(Amap) at point j: dimA - dim ker M."""
        return self.Amap.shape[2] - _value(self._amap_nullity[j])

    def fiber_rank(self, j: int) -> int:
        """Rank of the monad cohomology at point j, dim ker(Bmap) - rank(Amap),
        from blocks (see the class).  Raises RankIndeterminate on a rank too
        close to call, or when Im(Amap) is not inside ker(Bmap)
        (composition_residuals not below DEFAULT_TOL)."""
        _require_zero(self.composition_residuals[j], "image of Amap not contained in ker(Bmap)")
        return self.Bmap.shape[2] - _value(self._bmap_rank[j]) - self._amap_rank(j)

    def fiber(self, j: int) -> np.ndarray:
        """Orthonormal basis of the cohomology ker(Bmap)/Im(Amap) at point j:
        (dimB + dimC) x fiber_rank(j), spanning ker(Bmap) & Im(Amap)^perp,
        the kernel of [Bmap; Amap^H] at the block ranks of Bmap and Amap
        that fiber_rank(j) uses (see the class).  Raises RankIndeterminate
        where fiber_rank(j) does, or where those ranks sum past the columns."""
        _require_zero(self.composition_residuals[j], "image of Amap not contained in ker(Bmap)")
        return _cohomology(self.Bmap[j], self.Amap[j], _value(self._bmap_rank[j]), self._amap_rank(j))

    def locally_free(self, j: int) -> LocalFreenessResult:
        """Pointwise local-freeness criterion at point j: dim ker(Amap) = rank(mu).

        beta_tilde must be injective on ker(alpha) / Im(mu).  As Amap mu = 0,
        Im(mu) lies in ker(Amap) = ker(alpha) & ker(beta_tilde), so injectivity
        means the two are equal; quotient_dim is dim ker(alpha) - rank(mu).
        A failure returns a witness in ker(Amap) & Im(mu)^perp: column 0 of
        the kernel of [Amap; mu^H] at the block ranks of Amap and mu (see the
        class).  Raises RankIndeterminate on a rank too close to call, on
        Amap mu != 0, or where those ranks sum past the columns."""
        _require_zero(self._mu_residuals[j], "image of mu not contained in ker(Amap)")
        rank_mu = _value(self._mu_rank[j])
        quotient_dim = self.Amap.shape[2] - _value(self._alpha[j])[0] - rank_mu
        if _value(self._amap_nullity[j]) == rank_mu:
            return LocalFreenessResult(passed=True, quotient_dim=quotient_dim)
        witnesses = _cohomology(self.Amap[j], self.mu[j], self._amap_rank(j), rank_mu)
        return LocalFreenessResult(passed=False, witness=witnesses[:, 0], quotient_dim=quotient_dim)


def _len(s: slice) -> int:
    return s.stop - s.start


def _value(result):
    """A per-point result of MonadStack: raise it if it is a RankIndeterminate."""
    if isinstance(result, RankIndeterminate):
        raise result
    return result


def _rows(ts, n: int):
    """An index of the rows ts of an n-row array: all of them without a copy."""
    return slice(None) if len(ts) == n else ts


def _require_zero(residual: float, what: str) -> None:
    if not residual < la.DEFAULT_TOL:
        raise RankIndeterminate(f"{what}: residual {residual:.3e}")


def _cohomology(left: np.ndarray, right: np.ndarray, rank_left: int, rank_right: int) -> np.ndarray:
    """Orthonormal basis of ker(left) & Im(right)^perp, for left right = 0 of
    ranks rank_left and rank_right: the kernel of [left; right^H] at rank
    rank_left + rank_right (see MonadStack).  Raises RankIndeterminate where
    the two kept ranks sum past the columns, as exact ranks of such a pair
    never do."""
    rank = rank_left + rank_right
    if rank > left.shape[1]:
        raise RankIndeterminate(
            f"kernel and image ranks {rank_left} and {rank_right} sum past the {left.shape[1]} columns"
        )
    return la.null_space(np.vstack([left, right.conj().T]), rank)


def _offsets(sizes: list[tuple[str, int]]) -> tuple[dict, int]:
    offsets = [0, *accumulate(size for _, size in sizes)]
    return {name: (off, size) for (name, size), off in zip(sizes, offsets)}, offsets[-1]


def _at(table_r, row, table_c, col, rows=None, cols=None) -> tuple[slice, slice]:
    """Slices of one block of a map, from the tables of its row and column
    spaces; `rows`/`cols` narrow it to a sub-range."""
    r0, rs = table_r[row]
    c0, cs = table_c[col]
    r_lo, r_hi = rows or (0, rs)
    c_lo, c_hi = cols or (0, cs)
    return slice(r0 + r_lo, r0 + r_hi), slice(c0 + c_lo, c0 + c_hi)


@lru_cache(maxsize=64)
def block_layout(d: tuple[int, ...]) -> BlockIndex:
    """The block layout of the monad of the dimension vector d = (d_0, ..., d_n):
      A: P-blocks C^{d_i}, i = 0..n-1, then R-blocks C^{d_0}, C^{d_n},
         C^{d_0}, C^{d_n} in resolution order;
      B: P-blocks C^{d_i + 1}, then the R-block C^{d_0} + C^{d_n};
      C = D: Q-blocks C^{d_i}, i = 0..n;
      F: C^{d_0}, C^{d_n}.
    monad_assembler, monad_dimensions and the chunk size of
    scan_local_freeness all read it, worked out once per d (a tuple, as in
    DimensionVector).  Bmap Amap's bands: rows Q_i, Q_{i+1} on A's P_i,
    through B's P_i and those Q-blocks; rows Q0 and Qn on A's R-blocks, each
    through G and its own Q-block."""
    n = len(d) - 1
    d0, dnn = d[0], d[n]
    a_table, dim_a = _offsets(
        [(f"P{i}", d[i]) for i in range(n)] + [("R0", d0), ("R1", dnn), ("R2", d0), ("R3", dnn)]
    )
    b_table, dim_b = _offsets([(f"P{i}", d[i] + 1) for i in range(n)] + [("R", d0 + dnn)])
    c_table, dim_c = _offsets([(f"Q{i}", d[i]) for i in range(n + 1)])
    alpha_p = tuple(_at(b_table, f"P{i}", a_table, f"P{i}") for i in range(n))
    g_rows, r_cols = slice(b_table["R"][0], dim_b), slice(a_table["R0"][0], dim_a)
    q = [slice(off, off + size) for off, size in c_table.values()]
    qb = [slice(dim_b + s.start, dim_b + s.stop) for s in q]  # the C-blocks past B
    r_rows = (slice(g_rows.start, qb[0].stop), qb[n])  # G's rows and Q0's follow each other
    return BlockIndex(
        A=MappingProxyType(a_table),
        B=MappingProxyType(b_table),
        C=MappingProxyType(c_table),
        F=MappingProxyType(_offsets([("F0", d0), ("F1", dnn)])[0]),
        alpha_p=alpha_p,
        alpha_g=(g_rows, r_cols),
        gamma=tuple(zip(q, qb)),
        r_rows=r_rows,
        bmap_amap=tuple(
            (slice(q[i].start, q[i + 1].stop), c, (r, slice(qb[i].start, qb[i + 1].stop)))
            for i, (r, c) in enumerate(alpha_p)
        ) + ((q[0], r_cols, r_rows[:1]), (q[n], r_cols, (g_rows, qb[n]))),
        dims=(dim_a, dim_b, dim_c, dim_c),
    )


def monad_dimensions(dims) -> tuple[int, int, int, int]:
    """(dimA, dimB, dimC, dimD) of the monad of the dimension vector dims.d."""
    return block_layout(dims.d).dims


def monad_assembler(b: BowDatum) -> Callable[[Sequence[SurfacePoint]], MonadStack]:
    """Evaluation of the monad maps of `b` at a stack of surface points.

    Every entry that does not depend on the point is written once, here,
    into templates, -beta_i included, at the offsets of block_layout, which
    every result keeps as its block_index.  The returned function takes a
    sequence of k points and returns their MonadStack: it checks the
    surface equation at all k points at once, copies each template once into a
    k x ... array, adds eta on the diagonals of the eta I - beta_i blocks,
    writes xi and psi on the diagonals of their identity blocks (all on
    precomputed flat indices, for all k points at once) and writes the
    divided differences S and T.  Points never share entries, and stacks
    never share arrays.  scan_local_freeness sizes its stacks by
    CHUNK_BYTES; assemble_monad is a stack of one.
    """
    n = b.topo.n
    d = b.dims.d
    d0, dnn = d[0], d[n]
    mxi_hat, mpsi_hat = aggregate_maps(b)
    z = np.asarray(b.topo.z, dtype=np.complex128)

    block_index = block_layout(d)
    a_table, b_table, c_table, f_table = block_index.A, block_index.B, block_index.C, block_index.F
    dim_a, dim_b, dim_c, _ = block_index.dims
    # C-blocks shifted past B: the -beta_tilde rows of Amap, the gamma columns of Bmap
    cb_table = {q: (dim_b + off, size) for q, (off, size) in c_table.items()}

    def diagonal(shape, *blocks):
        """Flat indices into a `shape` matrix of the diagonals of square blocks."""
        return np.array(
            [(r.start + k) * shape[1] + c.start + k for r, c in blocks for k in range(r.stop - r.start)],
            dtype=np.intp,
        )

    # every block derives from the datum, shape-checked once when it was built
    # Amap = (alpha; -beta_tilde); alpha ends in the R-block G of the resolution.
    amap_shape = (dim_b + dim_c, dim_a)
    amap0 = np.zeros(amap_shape, dtype=np.complex128)
    alpha_res = [_at(b_table, f"P{i}", a_table, f"P{i}", rows=(0, d[i])) for i in range(n)]
    for i in range(n):
        amap0[alpha_res[i]] = -b.beta[i]
        amap0[_at(b_table, f"P{i}", a_table, f"P{i}", rows=(d[i], d[i] + 1))] = -b.gamma[i]
    g_res0 = _at(b_table, "R", a_table, "R0", rows=(0, d0))
    amap0[g_res0] = -b.beta[0]
    amap0[_at(b_table, "R", a_table, "R3", rows=(0, d0))] = mxi_hat
    g_resn = _at(b_table, "R", a_table, "R1", rows=(d0, d0 + dnn))
    amap0[g_resn] = -b.beta[n]
    amap0[_at(b_table, "R", a_table, "R2", rows=(d0, d0 + dnn))] = -mpsi_hat

    for i in range(n):
        amap0[_at(cb_table, f"Q{i}", a_table, f"P{i}")] = -np.eye(d[i])
        amap0[_at(cb_table, f"Q{i + 1}", a_table, f"P{i}")] = -b.A[i]
    amap0[_at(cb_table, "Q0", a_table, "R1")] = -mxi_hat
    bt_s = (slice(None), *_at(cb_table, "Q0", a_table, "R2"))
    amap0[_at(cb_table, f"Q{n}", a_table, "R0")] = mpsi_hat
    bt_t = (slice(None), *_at(cb_table, f"Q{n}", a_table, "R3"))
    a_eta = diagonal(amap_shape, *alpha_res, g_res0, g_resn)
    a_xi = diagonal(  # xi I in G and in -beta_tilde
        amap_shape,
        _at(b_table, "R", a_table, "R2", rows=(0, d0)),
        _at(cb_table, f"Q{n}", a_table, "R1"),
    )
    a_mpsi = diagonal(  # -psi I in G and in -beta_tilde
        amap_shape,
        _at(b_table, "R", a_table, "R3", rows=(d0, d0 + dnn)),
        _at(cb_table, "Q0", a_table, "R0"),
    )

    # Bmap = (delta, gamma): columns B then C; gamma is block diagonal
    bmap_shape = (dim_c, dim_b + dim_c)
    bmap0 = np.zeros(bmap_shape, dtype=np.complex128)
    for i in range(n):
        bmap0[_at(c_table, f"Q{i}", b_table, f"P{i}")] = np.eye(d[i], d[i] + 1)
        bmap0[_at(c_table, f"Q{i + 1}", b_table, f"P{i}")] = np.hstack([b.A[i], b.alpha[i]])
    bmap0[_at(c_table, "Q0", b_table, "R", cols=(d0, d0 + dnn))] = mxi_hat
    bmap0[_at(c_table, f"Q{n}", b_table, "R", cols=(0, d0))] = -mpsi_hat
    for i in range(n + 1):
        bmap0[block_index.gamma[i]] = -b.beta[i]
    b_eta = diagonal(bmap_shape, *block_index.gamma)
    b_psi = diagonal(bmap_shape, _at(c_table, "Q0", b_table, "R", cols=(0, d0)))
    b_mxi = diagonal(bmap_shape, _at(c_table, f"Q{n}", b_table, "R", cols=(d0, d0 + dnn)))

    # mu spans ker(alpha) at generic points: polynomial first-stage lift of
    # the R resolution (divided differences in the top blocks).
    mu_shape = (dim_a, d0 + dnn)
    mu0 = np.zeros(mu_shape, dtype=np.complex128)
    mu_s = (slice(None), *_at(a_table, "R0", f_table, "F0"))
    mu_t = (slice(None), *_at(a_table, "R1", f_table, "F1"))
    mu0[_at(a_table, "R2", f_table, "F1")] = mxi_hat
    mu0[_at(a_table, "R3", f_table, "F0")] = -mpsi_hat
    mu_psi = diagonal(mu_shape, _at(a_table, "R2", f_table, "F0"))
    mu_mxi = diagonal(mu_shape, _at(a_table, "R3", f_table, "F1"))
    s_at, t_at = (la.divided_difference(b.topo.z, b.beta[i]) for i in (0, n))
    # the templates' -beta_i diagonals, to which each point adds its eta
    a_eta0 = amap0.reshape(-1)[a_eta, None]
    b_eta0 = bmap0.reshape(-1)[b_eta, None]

    def assemble(points: Sequence[SurfacePoint]) -> MonadStack:
        k = len(points)
        eta, xi, psi = np.array(
            [(x.eta, x.xi, x.psi) for x in points], dtype=np.complex128
        ).reshape(k, 3).T
        lhs, rhs = xi * psi, np.prod(eta[:, None] - z, axis=1)
        residual = np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
        off = np.flatnonzero(~(residual < la.DEFAULT_TOL))  # a NaN residual is off too
        if off.size:
            x, r = points[off[0]], residual[off[0]]
            raise SurfaceViolation(f"point {x} violates xi*psi = prod(eta - z_i): residual {r:.3e}")
        minus_s, minus_t = -s_at(eta), -t_at(eta)

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


def assemble_monad(b: BowDatum, x: SurfacePoint) -> MonadStack:
    """The monad maps at a surface point: its stack of one, from the datum's
    own assembler (see monad_assembler and BowDatum.monad_assembler)."""
    return b.monad_assembler([x])


def lift_commutativity_residuals(b: BowDatum, x: SurfacePoint) -> tuple[float, float]:
    """Residuals of the two squares the divided-difference lifts must close.

    (eta - beta_0) [row of beta_tilde into Q0] = (psi, Mxi_hat) o G and
    (eta - beta_n) [row into Qn] = (-Mpsi_hat, -xi) o G.
    """
    m = assemble_monad(b, x)
    n, ix, amap = b.topo.n, m.block_index, m.Amap[0]
    d0, dnn = b.dims.d[0], b.dims.d[n]
    mxi_hat, mpsi_hat = aggregate_maps(b)
    G, r_cols = amap[ix.alpha_g], ix.alpha_g[1]
    q0, qn = (ix.dims[1] + ix.C[q][0] for q in ("Q0", f"Q{n}"))  # beta_tilde rows of Amap
    row0, rown = -amap[q0 : q0 + d0, r_cols], -amap[qn : qn + dnn, r_cols]
    lhs0 = (x.eta * np.eye(d0) - b.beta[0]) @ row0
    rhs0 = np.hstack([x.psi * np.eye(d0), mxi_hat]) @ G
    lhsn = (x.eta * np.eye(dnn) - b.beta[n]) @ rown
    rhsn = np.hstack([-mpsi_hat, -x.xi * np.eye(dnn)]) @ G
    return la.rel_residual(lhs0, rhs0), la.rel_residual(lhsn, rhsn)


def fiber_at(b: BowDatum, x: SurfacePoint) -> np.ndarray:
    """Orthonormal basis of the monad cohomology at x (see MonadStack.fiber).

    At locally free points its rank equals the structure-group rank n.
    """
    return assemble_monad(b, x).fiber(0)


def is_locally_free_at(b: BowDatum, x: SurfacePoint) -> LocalFreenessResult:
    """Pointwise local-freeness criterion (see MonadStack.locally_free)."""
    return assemble_monad(b, x).locally_free(0)


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
    for eta in b.spectrum_clusters:
        nut = min(z, key=lambda zi: abs(eta - zi), default=None)
        if nut is not None and abs(eta - nut) < la.EIG_CLUSTER_TOL:
            eta = nut
            pts += [SurfacePoint(0.0, 1.0, eta), SurfacePoint(0.0, 0.0, eta)]
        pts += [SurfacePoint.from_xi_eta(z, xi, eta) for xi in (1.0, 10.0)]
    return pts


def random_points(b: BowDatum, n_random: int, seed: int) -> list[SurfacePoint]:
    """Sample points with eta uniform in the doubled spectral disk and xi
    log-uniform in [0.1, 10].  As sampling policy, not a tolerance, eta
    keeps 1e-4 clear of the chain eigenvalues and the NUT positions, so that
    random and structured diagnostics stay apart."""
    rng = np.random.default_rng(seed)
    spectrum = [complex(v) for v in b.spectra()] + list(b.topo.z)  # Python scalars, for speed
    center = complex(np.mean(spectrum)) if spectrum else 0.0 + 0.0j
    radius = max(2.0 * max((abs(v - center) for v in spectrum), default=0.5), 0.5)
    pts: list[SurfacePoint] = []
    while len(pts) < n_random:  # rng.uniform(lo, hi) draws lo + (hi - lo) * rng.random()
        rho = radius * math.sqrt(rng.random())
        theta = 2 * math.pi * rng.random()
        eta = center + rho * complex(math.cos(theta), math.sin(theta))  # np.exp(1j * theta) bitwise
        if any(abs(eta - v) < 1e-4 for v in spectrum):
            continue
        xi = 10.0 ** (-1.0 + 2.0 * rng.random())
        pts.append(SurfacePoint.from_xi_eta(b.topo.z, xi, eta))
    return pts


def scan_local_freeness(b: BowDatum, config: ScanConfig = ScanConfig()) -> ScanReport:
    """Evaluate fiber rank and the local-freeness criterion over a sample.

    Away from the chain spectra every eta I - beta_i is invertible, so
    dim ker(Amap) = d0 + dn and rank(mu) = dn + rank S(eta, beta_0).  S is
    singular, and the criterion fails over the whole fiber while the rank
    stays n, at each eta* != lambda with p(eta*) = p(lambda) for an
    eigenvalue lambda of beta_0, p(t) = prod_i (t - z_i): never when k = 1,
    and a random point misses eta* almost surely.  The structured points
    over the chain eigenvalues carry the information.  Indeterminate rank
    decisions are collected separately, never coerced into pass or fail;
    the report keeps each one's reason.

    The points are assembled by the datum's kept monad_assembler and ranked
    in chunks of as many as fit in CHUNK_BYTES at BlockIndex.point_bytes,
    the largest live set of a point, each, and at least one.  Each
    chunk is a MonadStack (see there), which ranks its points from blocks,
    never from a whole Amap, Bmap or alpha, and takes each kind of rank
    decision for the whole chunk at once.  What depends on eta alone (the SVD of alpha's P-blocks and
    gamma's blocks, gamma's ranks, W and the K_i) is computed once per eta
    and kept, keyed by exact eta, while that eta's adjacent points last, so
    also across a chunk boundary that falls among them.
    """
    batches = [(pt, "random") for pt in random_points(b, config.n_random, config.seed)]
    batches += [(pt, "structured") for pt in structured_points(b)]
    assemble = b.monad_assembler
    size = max(1, CHUNK_BYTES // block_layout(b.dims.d).point_bytes)
    reports, shared = [], {}  # shared: eta-only results, keyed (what, eta, ...)
    for start in range(0, len(batches), size):
        chunk = batches[start : start + size]
        # an eta's points are adjacent: only this chunk's first eta can have some
        shared = {key: r for key, r in shared.items() if key[1] == chunk[0][0].eta}
        stack = replace(assemble([x for x, _ in chunk]), shared=shared)
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
