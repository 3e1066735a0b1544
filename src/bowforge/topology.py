"""Topological charges, their consistency checks, and dimension vectors.

Everything here is exact integer (or rational-free) arithmetic; floating
point enters only through the holonomy positions and NUT coordinates, which
do not affect any dimension count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NegativeDimension


@dataclass(frozen=True)
class TopologicalData:
    """Charges and geometric parameters of an instanton bundle.

    n        rank of the unitary structure group
    k        number of NUTs
    ell      asymptotic circle length (> 0)
    lam      holonomy eigenvalue logs, 0 <= lam_1 < ... < lam_n < ell
    m        monopole charges m_1..m_n
    nd       divisor multiplicities n_1..n_k (c_1 coefficients)
    m0       instanton number (second Chern class), >= 0
    z        NUT positions in the eta-plane, pairwise distinct
    """

    n: int
    k: int
    ell: float
    lam: tuple[float, ...]
    m: tuple[int, ...]
    nd: tuple[int, ...]
    m0: int
    z: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "nd", tuple(int(v) for v in self.nd))
        object.__setattr__(self, "z", tuple(complex(v) for v in self.z))


@dataclass(frozen=True)
class DimensionVector:
    """Lengths of the direct-image sheaves: d_0..d_n and d_{n,0}..d_{n,k}.
    Both are tuples, so that d keys monad.block_layout's cache."""

    d: tuple[int, ...]
    dn: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "dn", tuple(self.dn))


@dataclass(frozen=True)
class Violation:
    kind: str  # "structural" | "semantic"
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True)
class ChernSummary:
    """First/second Chern data and the flag degrees on the zero divisor."""

    c1: tuple[int, ...]
    c2: int
    flag_degrees: tuple[int, ...]  # partial sums m_1 + ... + m_i, i = 1..n


def _raw_dimensions(t: TopologicalData) -> tuple[list[int], list[int]]:
    up = [(ni * ni + ni) // 2 for ni in t.nd]  # n_i (n_i + 1) / 2
    down = [(ni * ni - ni) // 2 for ni in t.nd]  # n_i (n_i - 1) / 2
    total_up = sum(up)
    d = [total_up + t.m0 - sum(t.m[:i]) for i in range(t.n + 1)]
    dn = [t.m0 + sum(up[:j]) + sum(down[j:]) for j in range(t.k + 1)]
    return d, dn


def validate_topology(t: TopologicalData) -> list[Violation]:
    """Check every invariant; empty list means the data is consistent.

    Structural problems (wrong list lengths, non-positive counts) are
    reported with kind "structural" and suppress the semantic checks that
    depend on the broken field.
    """
    out: list[Violation] = []

    def structural(msg):
        out.append(Violation("structural", msg))

    def semantic(msg):
        out.append(Violation("semantic", msg))

    if t.n < 1:
        structural(f"n must be a positive integer, got {t.n}")
    if t.k < 1:
        structural(f"k must be a positive integer, got {t.k}")
    if len(t.lam) != t.n:
        structural(f"lambda must have n={t.n} entries, got {len(t.lam)}")
    if len(t.m) != t.n:
        structural(f"m must have n={t.n} entries, got {len(t.m)}")
    if len(t.nd) != t.k:
        structural(f"nd must have k={t.k} entries, got {len(t.nd)}")
    if len(t.z) != t.k:
        structural(f"z must have k={t.k} entries, got {len(t.z)}")
    if out:
        return out

    if not t.ell > 0:
        semantic(f"ell must be positive, got {t.ell}")
    if t.m0 < 0:
        semantic(f"m0 must be nonnegative, got {t.m0}")

    lam_ok = all(t.lam[i] < t.lam[i + 1] for i in range(t.n - 1))
    if not (lam_ok and 0 <= t.lam[0] and (t.ell <= 0 or t.lam[-1] < t.ell)):
        semantic(
            f"holonomy logs must satisfy 0 <= lam_1 < ... < lam_n < ell, got {t.lam}"
        )

    if sum(t.m) != sum(t.nd):
        semantic(
            f"charge balance violated: sum(m) = {sum(t.m)} != sum(nd) = {sum(t.nd)}"
        )

    for a in range(t.k):
        for b in range(a + 1, t.k):
            if t.z[a] == t.z[b]:
                semantic(f"NUT positions must be pairwise distinct: z[{a}] == z[{b}]")

    d, dn = _raw_dimensions(t)
    bad = [("d", i, v) for i, v in enumerate(d) if v < 0]
    bad += [("dn", j, v) for j, v in enumerate(dn) if v < 0]
    for name, i, v in bad:
        semantic(f"dimension {name}[{i}] = {v} is negative")

    return out


def compute_dimensions(t: TopologicalData) -> DimensionVector:
    """Dimension vector of the direct-image sheaves, exact integers.

    d_i  = sum_j n_j(n_j+1)/2 + m0 - (m_1 + ... + m_i)
    dn_j = m0 + sum_{i<=j} (n_i^2+n_i)/2 + sum_{i>j} (n_i^2-n_i)/2
    """
    d, dn = _raw_dimensions(t)
    negative = [v for v in d + dn if v < 0]
    if negative:
        raise NegativeDimension(
            f"charges admit no bundle: negative entries {negative} in d={d}, dn={dn}"
        )
    return DimensionVector(d=tuple(d), dn=tuple(dn))


def chern_summary(t: TopologicalData) -> ChernSummary:
    """Chern bookkeeping: c1 coefficients, c2 = m0, flag degrees on C_0."""
    partial = []
    acc = 0
    for mi in t.m:
        acc += mi
        partial.append(acc)
    return ChernSummary(c1=tuple(t.nd), c2=t.m0, flag_degrees=tuple(partial))
