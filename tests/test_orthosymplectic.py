import numpy as np
import pytest

from bowforge import orthosymplectic
from bowforge.bowdata import BowDatum, validate_relations
from bowforge.errors import (
    DegenerateForm,
    FlavorChargeMismatch,
    FormAsymmetry,
    PoleAtEta,
)
from bowforge.generator import canonical_examples, generate_mirror, ginibre
from bowforge.monad import SurfacePoint, assemble_monad, fiber_at, random_points
from bowforge.orthosymplectic import (
    PairingDatum,
    expected_signs,
    fiber_form,
    form_on_basis,
    p_pairing_matrix,
    verify_pairing_relations,
)
from bowforge.topology import TopologicalData
from bowforge._linalg import SYLVESTER_GAP, cluster_eigenvalues, eigenvalues, rel_residual


@pytest.fixture(scope="module")
def canon():
    return {e.name: e for e in canonical_examples()}


@pytest.fixture(scope="module")
def so2(canon):
    ex = canon["so2-mirror"]
    return ex.datum, ex.pairing


@pytest.fixture(scope="module")
def sp1(canon):
    ex = canon["sp1-mirror"]
    return ex.datum, ex.pairing


def resolvent(beta, eta):
    d = beta.shape[0]
    return np.linalg.solve(eta * np.eye(d) - beta, np.eye(d, dtype=complex))


# -------------------------------------------------------------- identities

def test_expected_signs():
    assert expected_signs("SO", 3) == (1, 1, 1)
    assert expected_signs("Sp", 2) == (1, -1)
    assert expected_signs("Sp", 4) == (1, 1, -1, -1)
    with pytest.raises(FlavorChargeMismatch):
        expected_signs("Sp", 3)


def test_mirror_pairings_verify(so2, sp1):
    for datum, pairing in (so2, sp1):
        report = verify_pairing_relations(datum, pairing, tol=1e-8)
        assert report.passed, report.failures()


def test_identity_k_detects_asymmetric_beta():
    t = TopologicalData(
        n=2, k=1, ell=1.0, lam=(0.25, 0.75), m=(0, 0), nd=(0,), m0=4, z=(0.3 - 0.2j,)
    )
    datum, _ = generate_mirror(t, "SO", seed=3)
    naive = PairingDatum(
        flavor="SO",
        K=[np.eye(s, dtype=complex) for s in datum.dims.d],
        f=(1, 1),
    )
    report = verify_pairing_relations(datum, naive, tol=1e-9)
    check = {c.name: c for c in report.checks}["beta-adjoint[0]"]
    expected = rel_residual(datum.beta[0].T, datum.beta[2])
    assert check.residual == pytest.approx(expected)
    assert expected > 1e-3 and not check.passed


def test_rank_one_identity_names_for_n1():
    # n = 1: only the beta adjointness and the column identities apply
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=1, z=(1.0,))
    datum = BowDatum.assemble(
        t,
        beta=[np.zeros((1, 1)), np.zeros((1, 1))],
        A=[np.array([[1.0 + 0j]])],
        alpha=[np.zeros((1, 1))],
        gamma=[np.array([[1.0 + 0j]])],
        betaN_interior=[],
        Mxi=[np.array([[1.0 + 0j]])],
        Mpsi=[np.array([[-1.0 + 0j]])],
    )
    pairing = PairingDatum(flavor="SO", K=[np.eye(1), np.eye(1)], f=(1,))
    names = {c.name for c in verify_pairing_relations(datum, pairing).checks}
    assert names == {
        "sign-pattern",
        "K-invertible[0]", "K-invertible[1]",
        "beta-adjoint[0]", "beta-adjoint[1]",
        "A-adjoint[0]", "alpha-gamma[0]", "gamma-alpha[0]",
        "Mpsi-self-adjoint", "Mxi-self-adjoint",
    }


def test_flavor_charge_mismatch(canon):
    u2 = canon["u2-basic"].datum  # nd = (1,): not an SO topology
    pairing = PairingDatum(flavor="SO", K=[np.eye(s) for s in u2.dims.d], f=(1, 1))
    with pytest.raises(FlavorChargeMismatch):
        verify_pairing_relations(u2, pairing)


def test_transpose_convention_flag(so2):
    datum, pairing = so2
    flipped = PairingDatum(
        flavor=pairing.flavor,
        K=[k.T for k in pairing.K],
        f=pairing.f,
        transpose_convention=True,
    )
    assert verify_pairing_relations(datum, flipped, tol=1e-8).passed


# ------------------------------------------------------------ Gram matrices

def test_p_pairing_empty_resolvent():
    # d_i = 0 blocks: the Gram matrix collapses to [[f_i]]
    t = TopologicalData(
        n=2, k=1, ell=1.0, lam=(0.25, 0.75), m=(0, 0), nd=(0,), m0=0, z=(0.0,)
    )
    datum, pairing = generate_mirror(t, "SO", seed=1)
    gram = p_pairing_matrix(datum, pairing, 0, eta=2.0)
    np.testing.assert_allclose(gram, [[1.0]])


def test_p_pairing_scalar_example():
    t = TopologicalData(n=1, k=1, ell=1.0, lam=(0.5,), m=(0,), nd=(0,), m0=1, z=(1.0,))
    datum = BowDatum.assemble(
        t,
        beta=[np.zeros((1, 1)), np.zeros((1, 1))],
        A=[np.array([[2.0 + 0j]])],
        alpha=[np.zeros((1, 1))],
        gamma=[np.array([[1.0 + 0j]])],
        betaN_interior=[],
        Mxi=[np.array([[1.0 + 0j]])],
        Mpsi=[np.array([[-1.0 + 0j]])],
    )
    pairing = PairingDatum(flavor="SO", K=[np.eye(1), np.eye(1)], f=(1,))
    gram = p_pairing_matrix(datum, pairing, 0, eta=2.0)
    np.testing.assert_allclose(gram, [[0.25, 0.5], [0.5, 1.0]])


def test_p_pairing_rank_one(so2):
    datum, pairing = so2
    rng = np.random.default_rng(3)
    for _ in range(5):
        eta = complex(rng.uniform(2, 3), rng.uniform(1, 2))
        gram = p_pairing_matrix(datum, pairing, rng.integers(2), eta)
        s = np.linalg.svd(gram, compute_uv=False)
        assert s[0] > 0 and (len(s) == 1 or s[1] < 1e-12 * s[0])


def test_pole_detection(so2):
    datum, pairing = so2
    eta = complex(eigenvalues(datum.beta[0])[0])
    with pytest.raises(PoleAtEta):
        p_pairing_matrix(datum, pairing, 0, eta)


def test_gram_symmetry_bookkeeping(so2, sp1):
    # <A,B>_i = <B,A>_{n-i-1} for SO and the sign flips for Sp
    rng = np.random.default_rng(5)
    for (datum, pairing), sign in ((so2, 1.0), (sp1, -1.0)):
        n = datum.topo.n
        for _ in range(25):
            i = int(rng.integers(n))
            eta = complex(rng.uniform(2, 4), rng.uniform(2, 4))
            u = ginibre(rng, datum.dims.d[i] + 1, 1)
            v = ginibre(rng, datum.dims.d[n - i - 1] + 1, 1)
            lhs = (u.T @ p_pairing_matrix(datum, pairing, i, eta) @ v)[0, 0]
            rhs = (v.T @ p_pairing_matrix(datum, pairing, n - i - 1, eta) @ u)[0, 0]
            assert abs(lhs - sign * rhs) < 1e-9 * (1 + abs(lhs))


# ----------------------------------------------------------------- residues

def contour_residue_oracle(datum, pairing, i, eta_star, radius, s, t, samples=256):
    """Trapezoidal contour integral of s^T Gram_i(eta) t around eta_star."""
    total = 0.0 + 0.0j
    for m in range(samples):
        w = radius * np.exp(2j * np.pi * m / samples)
        gram = p_pairing_matrix(datum, pairing, i, eta_star + w)
        total += (s @ gram @ t) * w
    return total / samples


def spectral_projector(m, eigenvalue):
    """Oracle: spectral projector of a diagonalizable matrix at one eigenvalue
    cluster (eigenvalues within SYLVESTER_GAP of it), from its eigenvectors."""
    vals, vecs = np.linalg.eig(m)
    idx = np.abs(vals - complex(eigenvalue)) < SYLVESTER_GAP
    if not np.any(idx):
        raise ValueError(f"{eigenvalue} is not an eigenvalue (tol {SYLVESTER_GAP})")
    vinv = np.linalg.inv(vecs)
    return vecs[:, idx] @ vinv[idx, :]


def test_spectral_projector():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = v @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(v)
    proj = spectral_projector(m, 2.0)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    np.testing.assert_allclose(m @ proj, 2.0 * proj, atol=1e-10)
    with pytest.raises(ValueError):
        spectral_projector(m, 99.0)


def projected_residue(datum, pairing, i, eta_star, s, t):
    """Residue via spectral projectors and the K data.

    Both poles of the section pairing can sit at eta_star (the mirror
    factors of hyperbolic data share spectra), so the residue has a term
    from each resolvent:
      a^T P_i^T K_i (A_{n-i-1} b + alpha_{n-i-1} b')
      - (A_i a + alpha_i a')^T P_{i+1}^T K_{i+1} b.
    """
    n = datum.topo.n
    di, dm = datum.dims.d[i], datum.dims.d[n - i - 1]
    a, a1 = s[:di], s[di]
    b, b1 = t[:dm], t[dm]
    total = 0.0 + 0.0j
    if di and np.min(np.abs(eigenvalues(datum.beta[i]) - eta_star)) < 1e-8:
        proj = spectral_projector(datum.beta[i], eta_star)
        total += a @ proj.T @ pairing.k_matrix(i) @ (
            datum.A[n - i - 1] @ b + datum.alpha[n - i - 1][:, 0] * b1
        )
    dnext = datum.dims.d[i + 1]
    if dnext and np.min(np.abs(eigenvalues(datum.beta[i + 1]) - eta_star)) < 1e-8:
        proj = spectral_projector(datum.beta[i + 1], eta_star)
        lifted = datum.A[i] @ a + datum.alpha[i][:, 0] * a1
        total -= lifted @ proj.T @ pairing.k_matrix(i + 1) @ b
    return total


def test_residue_consistency_against_contour_oracle(so2, sp1):
    rng = np.random.default_rng(29)
    for datum, pairing in (so2, sp1):
        n = datum.topo.n
        for i in range(n):
            if datum.dims.d[i] == 0:
                continue
            spectrum = [complex(v) for v in eigenvalues(datum.beta[i])]
            for eta_star in cluster_eigenvalues(spectrum):
                all_vals = [
                    complex(v)
                    for bmat in datum.beta
                    for v in eigenvalues(bmat)
                ] + list(datum.topo.z)
                gaps = [abs(eta_star - v) for v in all_vals if abs(eta_star - v) > 1e-8]
                radius = 0.4 * min(gaps) if gaps else 0.5
                s = ginibre(rng, 1, datum.dims.d[i] + 1)[0]
                t = ginibre(rng, 1, datum.dims.d[n - i - 1] + 1)[0]
                oracle = contour_residue_oracle(datum, pairing, i, eta_star, radius, s, t)
                direct = projected_residue(datum, pairing, i, eta_star, s, t)
                assert abs(oracle - direct) < 1e-6 * (1 + abs(oracle)), (i, eta_star)


def test_rank_one_component_identity(so2, sp1):
    # ((eta-b_i)^-1)^T K_i A_{n-i-1} - A_i^T K_{i+1} (eta-b_{n-i-1})^-1
    #   = f_i ((eta-b_i)^-1)^T gamma_i^T gamma_{n-i-1} (eta-b_{n-i-1})^-1
    rng = np.random.default_rng(7)
    for datum, pairing in (so2, sp1):
        n = datum.topo.n
        for i in range(n):
            for _ in range(10):
                eta = complex(rng.uniform(2, 4), rng.uniform(2, 4))
                ri = resolvent(datum.beta[i], eta)
                rm = resolvent(datum.beta[n - i - 1], eta)
                lhs = ri.T @ pairing.k_matrix(i) @ datum.A[n - i - 1] - (
                    datum.A[i].T @ pairing.k_matrix(i + 1) @ rm
                )
                rhs = pairing.f[i] * (ri.T @ datum.gamma[i].T @ datum.gamma[n - i - 1] @ rm)
                assert rel_residual(lhs, rhs) < 1e-6


# --------------------------------------------------------------- fiber form

def test_fiber_form_so_symmetric_nondegenerate(so2):
    datum, pairing = so2
    for pt in random_points(datum, 8, seed=2):
        form = fiber_form(datum, pairing, pt, tol=1e-6)
        assert form.shape == (2, 2)
        assert np.abs(form - form.T).max() < 1e-6 * (1 + np.abs(form).max())
        assert np.linalg.svd(form, compute_uv=False)[-1] > 1e-6


def test_fiber_form_sp_antisymmetric(sp1):
    datum, pairing = sp1
    for pt in random_points(datum, 8, seed=3):
        form = fiber_form(datum, pairing, pt, tol=1e-6)
        assert np.abs(form + form.T).max() < 1e-6 * (1 + np.abs(form).max())
        assert np.linalg.svd(form, compute_uv=False)[-1] > 1e-6


def test_fiber_form_congruence_under_basis_change(so2):
    datum, pairing = so2
    pt = random_points(datum, 1, seed=11)[0]
    monad = assemble_monad(datum, pt)
    basis = fiber_at(datum, pt)
    g = ginibre(np.random.default_rng(13), basis.shape[1], basis.shape[1])
    form = form_on_basis(datum, pairing, pt.eta, basis, monad.block_index)
    transformed = form_on_basis(datum, pairing, pt.eta, basis @ g, monad.block_index)
    np.testing.assert_allclose(transformed, g.T @ form @ g, atol=1e-10)


@pytest.mark.parametrize("name", ["so2-mirror", "sp1-mirror"])
def test_form_on_basis_solves_each_column_once(monkeypatch, canon, name):
    # the reference sums the Gram matrices of p_pairing_matrix, which solves
    # the columns of i and of n - 1 - i for each i
    datum, pairing = canon[name].datum, canon[name].pairing
    n = datum.topo.n
    column = orthosymplectic._resolvent_column
    solved = []

    def counting(b, i, eta):
        solved.append(i)
        return column(b, i, eta)

    for pt in random_points(datum, 6, seed=23):
        monad = assemble_monad(datum, pt)
        basis, ix = monad.fiber(0), monad.block_index
        reference = np.zeros((basis.shape[1],) * 2, dtype=complex)
        for i in range(n):
            (off_u, size_u), (off_v, size_v) = ix.B[f"P{i}"], ix.B[f"P{n - 1 - i}"]
            u, v = basis[off_u : off_u + size_u], basis[off_v : off_v + size_v]
            reference += u.T @ p_pairing_matrix(datum, pairing, i, pt.eta) @ v
        solved.clear()
        monkeypatch.setattr(orthosymplectic, "_resolvent_column", counting)
        form = form_on_basis(datum, pairing, pt.eta, basis, ix)
        monkeypatch.undo()
        assert form.tobytes() == reference.tobytes()
        assert sorted(solved) == list(range(n))


def test_fiber_form_flags_wrong_symmetry(so2):
    datum, pairing = so2
    wrong = PairingDatum(flavor="Sp", K=pairing.K, f=pairing.f)  # SO data, Sp claim
    pt = random_points(datum, 1, seed=17)[0]
    with pytest.raises(FormAsymmetry):
        fiber_form(datum, wrong, pt, tol=1e-6)


def test_fiber_form_nan_is_asymmetric(monkeypatch, so2):
    # a NaN asymmetry residual is not below tol: the form is rejected as
    # asymmetric before its singular values are asked for
    datum, pairing = so2
    pt = random_points(datum, 1, seed=17)[0]
    monkeypatch.setattr(
        orthosymplectic, "form_on_basis", lambda *args: np.full((2, 2), np.nan, dtype=complex)
    )
    with pytest.raises(FormAsymmetry):
        fiber_form(datum, pairing, pt, tol=1e-6)


def test_fiber_form_degeneracy_threshold(so2):
    # tol doubles as the sigma_min floor; an absurdly large floor must trip
    datum, pairing = so2
    pt = random_points(datum, 1, seed=19)[0]
    with pytest.raises(DegenerateForm):
        fiber_form(datum, pairing, pt, tol=1e6)
