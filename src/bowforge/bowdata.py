"""Matrix data of a bow complex and the validators for its relations.

A BowDatum carries the chain endomorphisms beta_i, the boundary maps
(A_i, alpha_i, gamma_i) at the holonomy points, and the bifundamental maps
(M_xi_j, M_psi_j) of the NUT chain together with its endomorphisms
beta_{n,j}.  The two chain endpoints are aliases: betaN[0] is beta[n] and
betaN[k] is beta[0] (the same array objects, never copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg as la
from .errors import RankIndeterminate, ShapeMismatch
from .topology import DimensionVector, TopologicalData, compute_dimensions

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RelationCheck:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


@dataclass(frozen=True)
class ValidationReport:
    """Named residuals plus an overall verdict at a fixed tolerance."""

    checks: tuple[RelationCheck, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        return PASS if self.passed else FAIL

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.passed]

    def by_name(self, name: str) -> RelationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    m.flags.writeable = False
    return m


@dataclass(frozen=True, eq=False)
class BowDatum:
    """All matrices of a bow complex, shape-checked against the dimension
    vector once, when the datum is built; the datum is immutable."""

    topo: TopologicalData
    dims: DimensionVector
    beta: tuple[np.ndarray, ...]  # beta[i]: d_i x d_i, i = 0..n
    A: tuple[np.ndarray, ...]  # A[i]: d_{i+1} x d_i, i = 0..n-1
    alpha: tuple[np.ndarray, ...]  # alpha[i]: d_{i+1} x 1
    gamma: tuple[np.ndarray, ...]  # gamma[i]: 1 x d_i
    betaN: tuple[np.ndarray, ...]  # betaN[j]: dn_j x dn_j; [0] aliases beta[n], [k] beta[0]
    Mxi: tuple[np.ndarray, ...]  # Mxi[j-1] = M_{xi_j}: dn_j x dn_{j-1}, j = 1..k
    Mpsi: tuple[np.ndarray, ...]  # Mpsi[j-1] = M_{psi_j}: dn_{j-1} x dn_j

    @classmethod
    def assemble(
        cls,
        topo: TopologicalData,
        beta,
        A,
        alpha,
        gamma,
        betaN_interior,
        Mxi,
        Mpsi,
        dims: DimensionVector | None = None,
    ) -> "BowDatum":
        """Build a datum from raw arrays; the chain endpoints are aliased.

        `betaN_interior` holds beta_{n,1}..beta_{n,k-1} only.
        """
        if dims is None:
            dims = compute_dimensions(topo)
        beta = tuple(_freeze(b) for b in beta)
        return cls(
            topo=topo,
            dims=dims,
            beta=beta,
            A=tuple(_freeze(a) for a in A),
            alpha=tuple(_freeze(a) for a in alpha),
            gamma=tuple(_freeze(g) for g in gamma),
            betaN=(beta[topo.n], *(_freeze(b) for b in betaN_interior), beta[0]),
            Mxi=tuple(_freeze(m) for m in Mxi),
            Mpsi=tuple(_freeze(m) for m in Mpsi),
        )

    def __post_init__(self) -> None:
        n, k = self.topo.n, self.topo.k
        d, dn = self.dims.d, self.dims.dn

        def want(mat, shape, name):
            if mat.shape != shape:
                raise ShapeMismatch(f"{name} has shape {mat.shape}, expected {shape}")

        if len(self.beta) != n + 1:
            raise ShapeMismatch(f"beta must have n+1={n + 1} blocks, got {len(self.beta)}")
        for i, b in enumerate(self.beta):
            want(b, (d[i], d[i]), f"beta[{i}]")
        for seq, name, shape_of in (
            (self.A, "A", lambda i: (d[i + 1], d[i])),
            (self.alpha, "alpha", lambda i: (d[i + 1], 1)),
            (self.gamma, "gamma", lambda i: (1, d[i])),
        ):
            if len(seq) != n:
                raise ShapeMismatch(f"{name} must have n={n} blocks, got {len(seq)}")
            for i, mat in enumerate(seq):
                want(mat, shape_of(i), f"{name}[{i}]")
        if len(self.betaN) != k + 1:
            raise ShapeMismatch(
                f"betaN must have k+1={k + 1} blocks, got {len(self.betaN)}"
            )
        for j, b in enumerate(self.betaN):
            want(b, (dn[j], dn[j]), f"betaN[{j}]")
        if self.betaN[0] is not self.beta[n] or self.betaN[k] is not self.beta[0]:
            raise ShapeMismatch("betaN[0]/betaN[k] must alias beta[n]/beta[0]")
        for seq, name, shape_of in (
            (self.Mxi, "Mxi", lambda j: (dn[j + 1], dn[j])),
            (self.Mpsi, "Mpsi", lambda j: (dn[j], dn[j + 1])),
        ):
            if len(seq) != k:
                raise ShapeMismatch(f"{name} must have k={k} blocks, got {len(seq)}")
            for j, mat in enumerate(seq):
                want(mat, shape_of(j), f"{name}[{j}]")

    def all_matrices(self) -> dict[str, np.ndarray]:
        """Named view of every independent matrix (chain endpoints not repeated)."""
        out: dict[str, np.ndarray] = {}
        for i, b in enumerate(self.beta):
            out[f"beta[{i}]"] = b
        for name, seq in (("A", self.A), ("alpha", self.alpha), ("gamma", self.gamma)):
            for i, m in enumerate(seq):
                out[f"{name}[{i}]"] = m
        for j in range(1, self.topo.k):
            out[f"betaN[{j}]"] = self.betaN[j]
        for j, m in enumerate(self.Mxi):
            out[f"Mxi[{j}]"] = m
        for j, m in enumerate(self.Mpsi):
            out[f"Mpsi[{j}]"] = m
        return out

    @cached_property
    def monad_assembler(self):
        """monad.monad_assembler of this datum, built on first use and kept
        with the datum, so that points evaluated one at a time (fiber_form,
        assemble_monad) share its templates."""
        from .monad import monad_assembler  # deferred: monad imports this module

        return monad_assembler(self)

    def spectra(self) -> list[complex]:
        """All eigenvalues of all chain endomorphisms (lambda and p chain)."""
        vals: list[complex] = []
        for b in self.beta:
            vals.extend(la.eigenvalues(b))
        for b in self.betaN[1:-1]:
            vals.extend(la.eigenvalues(b))
        return vals


def sylvester_residuals(b: BowDatum) -> list[tuple[str, float]]:
    """Residuals of beta_{i+1} A_i - A_i beta_i - alpha_i gamma_i = 0."""
    out = []
    for i in range(b.topo.n):
        lhs = b.beta[i + 1] @ b.A[i] - b.A[i] @ b.beta[i]
        rhs = b.alpha[i] @ b.gamma[i]
        out.append((f"sylvester[{i}]", la.rel_residual(lhs, rhs)))
    return out


def p_step_residuals(b: BowDatum) -> list[tuple[str, float]]:
    """Residuals of the NUT-chain relations.

    Step j couples betaN[j] = M_xi_j M_psi_j + z_j and
    betaN[j-1] = M_psi_j M_xi_j + z_j.
    """
    out = []
    for j in range(1, b.topo.k + 1):
        z = b.topo.z[j - 1]
        mxi, mpsi = b.Mxi[j - 1], b.Mpsi[j - 1]
        hi = np.eye(b.dims.dn[j], dtype=np.complex128)
        lo = np.eye(b.dims.dn[j - 1], dtype=np.complex128)
        out.append(
            (f"p-step-left[{j}]", la.rel_residual(b.betaN[j], mxi @ mpsi + z * hi))
        )
        out.append(
            (f"p-step-right[{j}]", la.rel_residual(b.betaN[j - 1], mpsi @ mxi + z * lo))
        )
    return out


def validate_relations(b: BowDatum, tol: float = la.DEFAULT_TOL) -> ValidationReport:
    """Check the n Sylvester relations and the 2k chain relations."""
    named = sylvester_residuals(b) + p_step_residuals(b)
    return ValidationReport(
        checks=tuple(RelationCheck(nm, r, tol) for nm, r in named), tol=tol
    )


def aggregate_maps(b: BowDatum) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate chain composites (Mxi_hat: d_n -> d_0, Mpsi_hat: d_0 -> d_n).

    Mxi_hat = M_{xi_k} ... M_{xi_1} and Mpsi_hat = M_{psi_1} ... M_{psi_k};
    they intertwine the chain endpoints: Mpsi_hat beta_0 = beta_n Mpsi_hat
    and Mxi_hat beta_n = beta_0 Mxi_hat whenever the relations hold.
    """
    dnn = b.dims.dn[0]
    mxi_hat = np.eye(dnn, dtype=np.complex128)
    for m in b.Mxi:
        mxi_hat = m @ mxi_hat
    mpsi_hat = np.eye(dnn, dtype=np.complex128)
    for m in b.Mpsi:
        mpsi_hat = mpsi_hat @ m
    return mxi_hat, mpsi_hat


def _telescoping_residual(big, small, z: complex, exponent: int) -> float:
    """charpoly(big - z) vs t^exponent * charpoly(small - z), coefficientwise."""
    cb = la.charpoly(big - z * np.eye(big.shape[0]))
    cs = la.charpoly(small - z * np.eye(small.shape[0]))
    shifted = np.concatenate([cs, np.zeros(exponent, dtype=np.complex128)])
    num = float(np.max(np.abs(cb - shifted))) if cb.size else 0.0
    den = 1.0 + float(np.max(np.abs(cb), initial=0.0)) + float(
        np.max(np.abs(shifted), initial=0.0)
    )
    return num / den


def check_chain_invariants(
    b: BowDatum, tol: float = la.DERIVED_TOL
) -> ValidationReport:
    """Derived consequences of the chain relations.

    (a) per-step intertwinings, (b) characteristic-polynomial telescoping
    charpoly(betaN_j - z_j)(t) = t^{nd_j} charpoly(betaN_{j-1} - z_j)(t)
    (stated in the reciprocal direction when nd_j < 0), (c) the composite
    products Mxi_hat Mpsi_hat = prod_j (beta_0 - z_j) and
    Mpsi_hat Mxi_hat = prod_j (beta_n - z_j), (d) the trace consequence
    tr betaN_j - tr betaN_{j-1} = z_j nd_j, and the aggregate intertwinings.
    """
    named: list[tuple[str, float]] = []
    for j in range(1, b.topo.k + 1):
        z = b.topo.z[j - 1]
        mxi, mpsi = b.Mxi[j - 1], b.Mpsi[j - 1]
        hi, lo = b.betaN[j], b.betaN[j - 1]
        named.append((f"intertwine-psi[{j}]", la.rel_residual(mpsi @ hi, lo @ mpsi)))
        named.append((f"intertwine-xi[{j}]", la.rel_residual(mxi @ lo, hi @ mxi)))
        ndj = b.topo.nd[j - 1]
        if ndj >= 0:
            named.append(
                (f"charpoly-telescope[{j}]", _telescoping_residual(hi, lo, z, ndj))
            )
        else:
            named.append(
                (f"charpoly-telescope[{j}]", _telescoping_residual(lo, hi, z, -ndj))
            )
        tr = complex(np.trace(hi)) - complex(np.trace(lo)) - z * ndj
        named.append((f"trace-step[{j}]", abs(tr) / (1.0 + abs(np.trace(hi)) + abs(np.trace(lo)))))

    mxi_hat, mpsi_hat = aggregate_maps(b)
    named.append(
        (
            "composite-xi-psi",
            la.rel_residual(mxi_hat @ mpsi_hat, la.matrix_poly_at_roots(b.beta[0], b.topo.z)),
        )
    )
    named.append(
        (
            "composite-psi-xi",
            la.rel_residual(
                mpsi_hat @ mxi_hat, la.matrix_poly_at_roots(b.beta[b.topo.n], b.topo.z)
            ),
        )
    )
    named.append(
        (
            "aggregate-intertwine-psi",
            la.rel_residual(mpsi_hat @ b.beta[0], b.beta[b.topo.n] @ mpsi_hat),
        )
    )
    named.append(
        (
            "aggregate-intertwine-xi",
            la.rel_residual(mxi_hat @ b.beta[b.topo.n], b.beta[0] @ mxi_hat),
        )
    )
    return ValidationReport(
        checks=tuple(RelationCheck(nm, r, tol) for nm, r in named), tol=tol
    )


@dataclass(frozen=True)
class ExactnessWitness:
    side: str  # "kernel" (injectivity side) | "cokernel" (surjectivity side)
    eta: complex
    vector: np.ndarray


@dataclass(frozen=True)
class ExactnessResult:
    index: int
    status: str  # pass | fail | indeterminate
    witnesses: tuple[ExactnessWitness, ...] = ()
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


def check_exactness(b: BowDatum, i: int) -> ExactnessResult:
    """Pointwise exactness of the i-th three-term complex, i in 0..n-1.

    Failure is only possible at eigenvalues, so two finite checks suffice:
    (a) at each eigenvalue eta* of beta_i there is no common kernel vector of
        (eta* - beta_i), gamma_i and A_i;
    (b) at each eigenvalue eta* of beta_{i+1} there is no left eigenvector
        annihilated by both A_i and alpha_i.
    Eigenvalues closer than the clustering tolerance are merged and tested
    at the cluster mean.  Any witness makes the step fail; otherwise a rank
    too close to call (see rank_decision) or an eigensolver failure makes it
    indeterminate, never silently passed.
    """
    if not 0 <= i < b.topo.n:
        raise IndexError(f"exactness index {i} out of range 0..{b.topo.n - 1}")
    lo, hi = b.beta[i], b.beta[i + 1]
    witnesses: list[ExactnessWitness] = []
    straddles: list[str] = []
    try:
        lo_eigs = la.cluster_eigenvalues(la.eigenvalues(lo))
        hi_eigs = la.cluster_eigenvalues(la.eigenvalues(hi))
    except np.linalg.LinAlgError as exc:
        return ExactnessResult(i, INDETERMINATE, detail=f"eigensolver failed: {exc}")

    eye_lo = np.eye(lo.shape[0], dtype=np.complex128)
    eye_hi = np.eye(hi.shape[0], dtype=np.complex128)
    a_h, alpha_h = b.A[i].conj().T, b.alpha[i].conj().T
    stacks = [("kernel", eta, [eta * eye_lo - lo, b.gamma[i], b.A[i]]) for eta in lo_eigs]
    stacks += [("cokernel", eta, [(eta * eye_hi - hi).conj().T, a_h, alpha_h]) for eta in hi_eigs]
    for side, eta, stack in stacks:
        try:
            kernel = la.null_space(np.vstack(stack))
        except RankIndeterminate as exc:
            straddles.append(f"{side} side at eta={eta:.6g}: {exc}")
            continue
        if kernel.shape[1] > 0:
            # a cokernel kernel holds conjugated row vectors; report the row vector itself
            vector = kernel[:, 0] if side == "kernel" else kernel[:, 0].conj()
            witnesses.append(ExactnessWitness(side, eta, vector))

    if witnesses:
        return ExactnessResult(i, FAIL, tuple(witnesses))
    if straddles:
        return ExactnessResult(i, INDETERMINATE, detail="; ".join(straddles))
    return ExactnessResult(i, PASS)


def check_exactness_all(b: BowDatum) -> list[ExactnessResult]:
    return [check_exactness(b, i) for i in range(b.topo.n)]


def gauge_transform(b: BowDatum, g: list[np.ndarray], g_p: list[np.ndarray]) -> BowDatum:
    """Conjugate the datum by invertible gauges.

    g has n+1 blocks acting on the lambda chain (g_i on C^{d_i});
    g_p has k-1 interior blocks for the p chain; the p-chain endpoints are
    forced to g[n] and g[0] by the aliasing.
    """
    n, k = b.topo.n, b.topo.k
    g_full = [g[n], *g_p, g[0]]
    beta = [gi @ bi @ np.linalg.inv(gi) for gi, bi in zip(g, b.beta)]
    A = [g[i + 1] @ b.A[i] @ np.linalg.inv(g[i]) for i in range(n)]
    alpha = [g[i + 1] @ b.alpha[i] for i in range(n)]
    gamma = [b.gamma[i] @ np.linalg.inv(g[i]) for i in range(n)]
    interior = [
        g_full[j] @ b.betaN[j] @ np.linalg.inv(g_full[j]) for j in range(1, k)
    ]
    Mxi = [
        g_full[j] @ b.Mxi[j - 1] @ np.linalg.inv(g_full[j - 1]) for j in range(1, k + 1)
    ]
    Mpsi = [
        g_full[j - 1] @ b.Mpsi[j - 1] @ np.linalg.inv(g_full[j]) for j in range(1, k + 1)
    ]
    return BowDatum.assemble(
        b.topo, beta, A, alpha, gamma, interior, Mxi, Mpsi, dims=b.dims
    )


def with_perturbed_entry(
    b: BowDatum, name: str, index: tuple[int, int], delta: complex
) -> BowDatum:
    """Copy of the datum with one entry of one named matrix shifted by delta."""
    mats = {nm: np.array(m) for nm, m in b.all_matrices().items()}
    if name not in mats:
        raise KeyError(f"unknown matrix {name!r}")
    mats[name][index] += delta

    n, k = b.topo.n, b.topo.k
    return BowDatum.assemble(
        b.topo,
        beta=[mats[f"beta[{i}]"] for i in range(n + 1)],
        A=[mats[f"A[{i}]"] for i in range(n)],
        alpha=[mats[f"alpha[{i}]"] for i in range(n)],
        gamma=[mats[f"gamma[{i}]"] for i in range(n)],
        betaN_interior=[mats[f"betaN[{j}]"] for j in range(1, k)],
        Mxi=[mats[f"Mxi[{j}]"] for j in range(k)],
        Mpsi=[mats[f"Mpsi[{j}]"] for j in range(k)],
        dims=b.dims,
    )
