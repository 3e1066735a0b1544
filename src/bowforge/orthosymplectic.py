"""SO/Sp pairing structures: the K matrices, sign constants, and checks.

Index conventions.  The pairing between the i-th and (n-i)-th section
spaces has matrix K_i of shape d_i x d_{n-i}, oriented so that the
adjointness identity reads beta_i^T K_i = K_i beta_{n-i} literally as
matrices; every other identity below is stated in that convention.  The
boundary blocks follow the lambda-chain naming: A_i is the d_{i+1} x d_i
block, alpha_i the extra column, gamma_i the extra row.  (Sections of the
rank-one sheaves appear as pairs (a, a') with a of size d_i.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .bowdata import BowDatum, ValidationReport, _report, aggregate_maps
from .errors import (
    DegenerateForm,
    FlavorChargeMismatch,
    FormAsymmetry,
    PoleAtEta,
    ShapeMismatch,
)

SO = "SO"
SP = "Sp"


def expected_signs(flavor: str, n: int) -> tuple[int, ...]:
    """The sign constants f_0..f_{n-1}: all +1 for SO; +1 below the middle
    and -1 from the middle on for Sp (fixed by the value at infinity)."""
    if flavor == SO:
        return tuple(1 for _ in range(n))
    if flavor == SP:
        if n % 2 != 0:
            raise FlavorChargeMismatch(f"Sp requires even rank, got n={n}")
        return tuple(1 if i < n / 2 else -1 for i in range(n))
    raise ValueError(f"unknown flavor {flavor!r}; expected 'SO' or 'Sp'")


@dataclass(frozen=True)
class PairingDatum:
    """K matrices and sign constants encoding an SO/Sp structure.

    `transpose_convention` accepts data recorded with every K_i transposed
    (the mirrored orientation); all checks then substitute K_i^T for K_i.
    """

    flavor: str
    K: list[np.ndarray]
    f: tuple[int, ...]
    transpose_convention: bool = False

    def k_matrix(self, i: int) -> np.ndarray:
        m = la.cmat(self.K[i])
        return m.T if self.transpose_convention else m


def _check_flavor_charges(b: BowDatum, p: PairingDatum) -> None:
    n = b.topo.n
    if p.flavor not in (SO, SP):
        raise FlavorChargeMismatch(f"unknown flavor {p.flavor!r}")
    if any(v != 0 for v in b.topo.nd):
        raise FlavorChargeMismatch(
            f"SO/Sp structure needs all divisor multiplicities zero, got {b.topo.nd}"
        )
    if any(b.topo.m[i] != -b.topo.m[n - i - 1] for i in range(n)):
        raise FlavorChargeMismatch(
            f"SO/Sp structure needs m_i = -m_(n-i+1), got {b.topo.m}"
        )
    if any(b.dims.d[i] != b.dims.d[n - i] for i in range(n + 1)):
        raise FlavorChargeMismatch(f"asymmetric dimension vector {b.dims.d}")
    check_pairing_shapes(p, b.dims.d)


def check_pairing_shapes(p: PairingDatum, d: tuple[int, ...]) -> None:
    """K_i is d_i x d_{n-i} in the orientation p declares; f has n signs."""
    n = len(d) - 1
    if len(p.K) != n + 1:
        raise ShapeMismatch(f"K must have n+1={n + 1} blocks, got {len(p.K)}")
    for i in range(n + 1):
        want = (d[i], d[n - i])
        if p.k_matrix(i).shape != want:
            raise ShapeMismatch(f"K[{i}] has shape {p.k_matrix(i).shape}, expected {want}")
    if len(p.f) != n:
        raise ShapeMismatch(f"f must have n={n} signs, got {len(p.f)}")


def verify_pairing_relations(
    b: BowDatum, p: PairingDatum, tol: float = la.PAIRING_TOL
) -> ValidationReport:
    """Residuals of every pairing identity.

    Checks, for i in range: beta_i^T K_i = K_i beta_{n-i};
    K_i A_{n-i-1} = A_i^T K_{i+1}; K_i alpha_{n-i-1} = gamma_i^T f_i;
    -alpha_i^T K_{i+1} = gamma_{n-i-1} f_i; the sign pattern; invertibility
    of each K_i; and self-adjointness of the aggregate chain maps,
    K_n Mpsi_hat = Mpsi_hat^T K_0 and K_0 Mxi_hat = Mxi_hat^T K_n.
    """
    _check_flavor_charges(b, p)
    n, K = b.topo.n, [p.k_matrix(i) for i in range(b.topo.n + 1)]
    named = [("sign-pattern", 0.0 if tuple(p.f) == expected_signs(p.flavor, n) else 1.0)]
    for i, k in enumerate(K):
        if k.size:
            s = la.svd(k, compute_uv=False)
            named.append((f"K-invertible[{i}]", 0.0 if s[-1] > la.K_CONDITION_FLOOR * s[0] else 1.0))
    named += [
        (f"beta-adjoint[{i}]", la.rel_residual(b.beta[i].T @ K[i], K[i] @ b.beta[n - i])) for i in range(n + 1)
    ]
    for i in range(n):
        named += [
            (f"A-adjoint[{i}]", la.rel_residual(K[i] @ b.A[n - i - 1], b.A[i].T @ K[i + 1])),
            (f"alpha-gamma[{i}]", la.rel_residual(K[i] @ b.alpha[n - i - 1], p.f[i] * b.gamma[i].T)),
            (f"gamma-alpha[{i}]", la.rel_residual(-b.alpha[i].T @ K[i + 1], p.f[i] * b.gamma[n - i - 1])),
        ]

    # Aggregate self-adjointness; the only block-consistent orientation is
    # K_0 Mpsi_hat = Mpsi_hat^T K_n (and the xi-mirror), matching the typed
    # slots of the section pairings.
    mxi_hat, mpsi_hat = aggregate_maps(b)
    named += [
        ("Mpsi-self-adjoint", la.rel_residual(K[0] @ mpsi_hat, mpsi_hat.T @ K[n])),
        ("Mxi-self-adjoint", la.rel_residual(K[n] @ mxi_hat, mxi_hat.T @ K[0])),
    ]
    return _report(named, tol)


def _resolvent_column(b: BowDatum, i: int, eta: complex) -> np.ndarray:
    """[((eta - beta_i)^{-1})^T gamma_i^T ; 1], the section pairing profile."""
    beta, gamma = b.beta[i], b.gamma[i]
    d = beta.shape[0]
    out = np.zeros((d + 1, 1), dtype=np.complex128)
    if d > 0:
        if float(np.min(np.abs(b.eigenvalues[i] - eta))) < la.EIG_CLUSTER_TOL:
            raise PoleAtEta(f"eta={eta} is within {la.EIG_CLUSTER_TOL} of an eigenvalue")
        res = np.linalg.solve(eta * np.eye(d, dtype=np.complex128) - beta, np.eye(d))
        out[:d, 0] = (res.T @ gamma.T)[:, 0]
    out[d, 0] = 1.0
    return out


def p_pairing_matrix(b: BowDatum, p: PairingDatum, i: int, eta: complex) -> np.ndarray:
    """Gram matrix of the meromorphic pairing between the i-th and
    (n-i-1)-th rank-one section spaces, evaluated at eta.

    Returns the rank-one outer product U V^T f_i with
    U = [((eta - beta_i)^{-1})^T gamma_i^T ; 1] and V the mirror profile.
    """
    n = b.topo.n
    if not 0 <= i < n:
        raise IndexError(f"pairing index {i} out of range 0..{n - 1}")
    U = _resolvent_column(b, i, eta)
    V = _resolvent_column(b, n - i - 1, eta)
    return p.f[i] * (U @ V.T)


def form_on_basis(
    b: BowDatum, p: PairingDatum, eta: complex, basis: np.ndarray, block_index
) -> np.ndarray:
    """Direct-sum section pairing evaluated on the B-space P-coordinates of
    the given basis vectors; bilinear in the basis (congruent under basis
    changes)."""
    n = b.topo.n
    r = basis.shape[1]
    cols = [_resolvent_column(b, i, eta) for i in range(n)]  # p_pairing_matrix's U and V
    form = np.zeros((r, r), dtype=np.complex128)
    for i in range(n):
        off_u, size_u = block_index.B[f"P{i}"]
        off_v, size_v = block_index.B[f"P{n - 1 - i}"]
        u = basis[off_u : off_u + size_u, :]
        v = basis[off_v : off_v + size_v, :]
        form += u.T @ (p.f[i] * (cols[i] @ cols[n - 1 - i].T)) @ v
    return form


def fiber_form(
    b: BowDatum, p: PairingDatum, x, tol: float = la.DERIVED_TOL
) -> np.ndarray:
    """The induced bilinear form on the monad fiber at x.

    Computes the fiber basis, evaluates the direct sum of the section
    pairings on its P-coordinates, and checks that the result is symmetric
    (SO) or antisymmetric (Sp) within tol and nondegenerate.  The point
    must sit away from the spectra of all chain endomorphisms.
    """
    from .monad import assemble_monad

    monad = assemble_monad(b, x)
    form = form_on_basis(b, p, x.eta, monad.fiber(0), monad.block_index)

    sign = 1.0 if p.flavor == SO else -1.0
    asym = la.rel_residual(form, sign * form.T)
    if not asym < tol:
        kind = "symmetric" if p.flavor == SO else "antisymmetric"
        raise FormAsymmetry(f"fiber form is not {kind}: residual {asym:.3e}")
    if form.shape[0] > 0:
        s = la.svd(form, compute_uv=False)
        if s[-1] < tol:
            raise DegenerateForm(
                f"fiber form degenerate at {x}: smallest singular value {s[-1]:.3e}"
            )
    return form
