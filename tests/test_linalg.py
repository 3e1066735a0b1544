import ast
from pathlib import Path

import numpy as np
import pytest

from bowforge import _linalg as la
from bowforge.errors import RankIndeterminate


def test_rel_residual_scale_free():
    lhs = np.array([[2.0]])
    rhs = np.array([[1.0]])
    assert la.rel_residual(lhs, rhs) == pytest.approx(1.0 / 4.0)
    assert la.rel_residual(lhs, lhs) == 0.0
    assert la.rel_residual(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
    with pytest.raises(ValueError):
        la.rel_residual(np.zeros((1, 2)), np.zeros((2, 1)))


def test_null_space_edge_shapes():
    assert la.null_space(np.zeros((0, 3))).shape == (3, 3)  # no constraints
    assert la.null_space(np.zeros((3, 0))).shape == (0, 0)
    assert la.null_space(np.zeros((2, 2))).shape == (2, 2)
    basis = la.null_space(np.array([[1.0, 1.0]]))
    assert basis.shape == (2, 1)
    assert abs(basis[0, 0] + basis[1, 0]) < 1e-14


def test_null_space_survives_svd_nonconvergence(monkeypatch):
    # numpy's default SVD routine (gesdd) fails to converge on some monad
    # projections at m0 = 20; null_space then retries with gesvd
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    m = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    basis = la.null_space(m)
    assert basis.shape == (3, 1)
    assert np.linalg.norm(m @ basis) < 1e-14


def svd_rank(m):
    return la.rank_decision(np.linalg.svd(m, compute_uv=False), m.shape)


def test_svd_rank_and_straddle_detection():
    assert svd_rank(np.diag([1.0, 1e-3])) == 2
    assert svd_rank(np.diag([1.0, 0.0])) == 1
    # a singular value sitting right at the cutoff is indeterminate
    cutoff = la.rank_cutoff(1.0, (2, 2))
    m = np.diag([1.0, cutoff])
    with pytest.raises(RankIndeterminate):
        svd_rank(m)
    with pytest.raises(RankIndeterminate):
        la.null_space(m)
    # a rank decided elsewhere is taken as given
    assert la.null_space(m, rank=1).shape == (2, 1)


def test_rank_decision_straddle_and_scale():
    cutoff = la.rank_cutoff(1.0, (2, 2))
    s = np.array([1.0, cutoff])
    with pytest.raises(RankIndeterminate):
        la.rank_decision(s, (2, 2))
    # the cutoff scales with sigma_max: small values of a small matrix count
    s = np.array([1e-6, 1e-7])
    assert la.rank_decision(s, (2, 2)) == 2
    assert la.rank_decision(np.zeros(0), (0, 3)) == 0
    # ranked at a parent's scale, the same values are rounding noise
    assert la.rank_decision(s, (2, 2), sigma_max=1e9) == 0
    with pytest.raises(RankIndeterminate):
        la.rank_decision(s, (2, 2), sigma_max=1e-6 / cutoff)


def test_rank_decision_matches_straddle_mask():
    # reference: the straddle rule as a mask over every singular value
    rng = np.random.default_rng(3)
    shape = (6, 6)
    cut = la.rank_cutoff(1.0, shape)
    for _ in range(2000):
        tail = cut * 10.0 ** rng.uniform(-2.0, 2.0, size=5)
        s = np.sort(np.concatenate([[1.0], tail]))[::-1]
        straddling = (s > cut / la.STRADDLE_FACTOR) & (s < cut * la.STRADDLE_FACTOR)
        if np.any(straddling):
            with pytest.raises(RankIndeterminate):
                la.rank_decision(s, shape)
        else:
            assert la.rank_decision(s, shape) == np.count_nonzero(s > cut)


def test_complement_by_null_space_of_adjoint():
    m = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    comp = la.null_space(m.conj().T)  # orthogonal complement of the column span
    assert comp.shape == (3, 2)
    assert np.linalg.norm(m.conj().T @ comp) < 1e-12
    np.testing.assert_allclose(comp.conj().T @ comp, np.eye(2), atol=1e-12)


def test_charpoly_conventions():
    np.testing.assert_allclose(la.charpoly(np.zeros((0, 0))), [1.0])
    np.testing.assert_allclose(la.charpoly(np.diag([2.0, 3.0])), [1.0, -5.0, 6.0])
    with pytest.raises(ValueError):
        la.charpoly(np.zeros((1, 2)))


def test_cluster_eigenvalues():
    vals = [1.0, 1.0 + 1e-10, 5.0, 5.0 - 1e-9j]
    clusters = la.cluster_eigenvalues(vals)
    assert len(clusters) == 2
    assert min(abs(c - 1.0) for c in clusters) < 1e-9
    assert min(abs(c - 5.0) for c in clusters) < 1e-9


def test_divided_difference_single_root_is_identity():
    beta = np.array([[0.3, 1.0], [0.0, -0.2]], dtype=complex)
    S = la.divided_difference(la.poly_from_roots([0.7]), 2.0, beta)
    np.testing.assert_allclose(S, np.eye(2))


def test_divided_difference_matches_resolvent_formula():
    # away from eigenvalues: S = (p(eta) I - p(beta)) (eta I - beta)^{-1}
    rng = np.random.default_rng(1)
    roots = [0.3 + 0.1j, -0.5, 1.2 - 0.4j]
    beta = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    eta = 2.5 + 1.0j
    S = la.divided_difference(la.poly_from_roots(roots), eta, beta)
    p_eta = np.prod([eta - z for z in roots])
    direct = (p_eta * np.eye(4) - la.matrix_poly_at_roots(beta, roots)) @ np.linalg.inv(
        eta * np.eye(4) - beta
    )
    np.testing.assert_allclose(S, direct, atol=1e-10)


def test_divided_difference_defined_at_eigenvalues():
    # polynomial in beta and eta: no singularity when eta hits the spectrum
    beta = np.diag([0.5 + 0j, -1.0 + 0j])
    S = la.divided_difference(la.poly_from_roots([0.0, 1.0]), 0.5, beta)
    assert np.all(np.isfinite(S))
    # value against the scalar divided difference on each eigenvalue
    p = lambda t: t * (t - 1.0)
    np.testing.assert_allclose(S[1, 1], (p(0.5) - p(-1.0)) / (0.5 - (-1.0)))


def test_spectral_projector():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = v @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(v)
    proj = la.spectral_projector(m, 2.0)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    np.testing.assert_allclose(m @ proj, 2.0 * proj, atol=1e-10)
    with pytest.raises(ValueError):
        la.spectral_projector(m, 99.0)


def test_matrix_poly_at_roots_empty():
    out = la.matrix_poly_at_roots(np.array([[4.0]]), [])
    np.testing.assert_allclose(out, [[1.0]])


def test_thresholds_live_only_in_linalg():
    # a float literal this small is a tolerance, cutoff or coincidence
    # threshold; only _linalg may define one
    package = Path(la.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-5
            ):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert stray == []


def test_svd_is_called_only_in_linalg():
    # every SVD goes through la.svd, which retries with gesvd where gesdd
    # fails to converge; only _linalg may call numpy's or scipy's directly,
    # and np.linalg.cond, an SVD inside numpy, is la.cond
    package = Path(la.__file__).parent

    def dotted(node):
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        return node.id if isinstance(node, ast.Name) else ""

    calls = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and dotted(node.func) in (
                "np.linalg.svd", "np.linalg.cond", "scipy.linalg.svd"):
                calls.setdefault(path.name, []).append(node.lineno)
    assert set(calls) == {"_linalg.py"}
