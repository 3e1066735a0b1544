"""Shared topology factories and oracles for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from bowforge.topology import TopologicalData

FIXTURES = Path(__file__).parent / "fixtures"
# the files of FIXTURES that tests read as bow files, by name, so that no
# other JSON there (the verdict corpus) is taken for one: the canonical
# examples' bow files and one topology-only file
BOW_FIXTURES = ("u1-single-nut", "u1-charge", "u2-basic", "so2-mirror", "sp1-mirror")
FIXTURE_NAMES = (*BOW_FIXTURES, "u2-topology")


def suite_topology(n: int, k: int, m0: int) -> TopologicalData:
    """Acceptance-suite member: unit charge on the last holonomy level and
    the first NUT, which keeps every chain profile monotone."""
    z = tuple(0.7 * np.exp(2j * np.pi * j / k) + (0.1 - 0.05j) for j in range(k))
    lam = tuple((i + 1.0) / (n + 1) for i in range(n))
    return TopologicalData(
        n=n,
        k=k,
        ell=1.0,
        lam=lam,
        m=(0,) * (n - 1) + (1,),
        nd=(1,) + (0,) * (k - 1),
        m0=m0,
        z=z,
    )


def random_valid_topology(rng: np.random.Generator) -> TopologicalData:
    """Random charges at desk scale with all dimension entries nonnegative."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    nd = [int(v) for v in rng.integers(-2, 4, size=k)]
    m = [int(v) for v in rng.integers(-3, 4, size=n - 1)] if n > 1 else []
    m.append(sum(nd) - sum(m))
    up = sum((v * v + v) // 2 for v in nd)
    down = sum((v * v - v) // 2 for v in nd)
    lowest = min(
        [up - sum(m[:i]) for i in range(n + 1)]
        + [
            sum((v * v + v) // 2 for v in nd[:j]) + sum((v * v - v) // 2 for v in nd[j:])
            for j in range(k + 1)
        ]
    )
    m0 = max(0, -lowest) + int(rng.integers(0, 4))
    lam = np.sort(rng.uniform(0.0, 0.99, size=n))
    while n > 1 and np.min(np.diff(lam)) < 1e-6:
        lam = np.sort(rng.uniform(0.0, 0.99, size=n))
    z = []
    while len(z) < k:
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if all(abs(c - o) > 1e-3 for o in z):
            z.append(c)
    return TopologicalData(
        n=n, k=k, ell=1.0, lam=tuple(lam), m=tuple(m), nd=tuple(nd), m0=m0, z=tuple(z)
    )


def oracle_dimensions(t: TopologicalData) -> tuple[list[int], list[int]]:
    """Independent evaluation of the closed forms, using the alternate
    expression d_i = sum n_j(n_j-1)/2 + m0 + (m_{i+1} + ... + m_n)."""
    down = sum(v * (v - 1) // 2 for v in t.nd)
    d = [down + t.m0 + sum(t.m[i:]) for i in range(t.n + 1)]
    dn = []
    for j in range(t.k + 1):
        total = t.m0
        for i, v in enumerate(t.nd, start=1):
            total += v * (v + 1) // 2 if i <= j else v * (v - 1) // 2
        dn.append(total)
    return d, dn


def count_eigensolver_calls(monkeypatch, record):
    """Call record(a) on each eig(a) and eigvals(a), through np.linalg's
    bindings or the eigvals np.poly imported for itself, which patching
    np.linalg cannot reach."""
    import numpy.lib._polynomial_impl as polynomial_impl

    assert polynomial_impl.eigvals is np.linalg.eigvals

    def counting(solver):
        def call(a, *args, **kwargs):
            record(a)
            return solver(a, *args, **kwargs)

        return call

    eigvals = counting(np.linalg.eigvals)
    monkeypatch.setattr(np.linalg, "eig", counting(np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(polynomial_impl, "eigvals", eigvals)


def tangent_complex(b) -> tuple[np.ndarray, np.ndarray]:
    """The deformation complex gl -T-> T(data) -J-> T(relations) of a bow
    datum b, as two complex matrices on the row-major entries of its blocks.

    The data are beta_i (i = 0..n), A_i, alpha_i, gamma_i, the interior
    betaN_j (j = 1..k-1), Mxi_j and Mpsi_j (j = 1..k); betaN_0 is beta_n
    and betaN_k is beta_0.  T is the infinitesimal action of the gauge group
    prod_i GL(d_i) x prod_j GL(dn_j) over the interior NUT intervals
    (gauge_transform's g and g_p; the p chain's end intervals are gauged by
    g_n and g_0): beta_i -> [x_i, beta_i], A_i -> x_{i+1} A_i - A_i x_i,
    alpha_i -> x_{i+1} alpha_i, gamma_i -> -gamma_i x_i, betaN_j ->
    [y_j, betaN_j], Mxi_j -> y_j Mxi_j - Mxi_j y_{j-1}, Mpsi_j -> y_{j-1}
    Mpsi_j - Mpsi_j y_j.  J is the differential of the n Sylvester
    relations beta_{i+1} A_i - A_i beta_i - alpha_i gamma_i = 0 and the 2k
    NUT-chain relations betaN_j - Mxi_j Mpsi_j - z_j = 0 and betaN_{j-1} -
    Mpsi_j Mxi_j - z_j = 0, each term X dV Y of a relation's derivative in
    a block V written as kron(X, Y^T)."""
    n, k, d, dn = b.topo.n, b.topo.k, b.dims.d, b.dims.dn

    def node(j, end="beta", interior="betaN"):  # interval j of the p chain; its ends are beta_n, beta_0
        return (end, n) if j == 0 else (end, 0) if j == k else (interior, j)

    def gauge(j):
        return node(j, "x", "y")

    data = {("beta", i): b.beta[i] for i in range(n + 1)}
    for name, seq in (("A", b.A), ("alpha", b.alpha), ("gamma", b.gamma)):
        data.update({(name, i): m for i, m in enumerate(seq)})
    data.update({("betaN", j): b.betaN[j] for j in range(1, k)})
    data.update({("Mxi", j): b.Mxi[j - 1] for j in range(1, k + 1)})
    data.update({("Mpsi", j): b.Mpsi[j - 1] for j in range(1, k + 1)})
    groups = {("x", i): (d[i], d[i]) for i in range(n + 1)} | {("y", j): (dn[j], dn[j]) for j in range(1, k)}
    shapes = {key: m.shape for key, m in data.items()}
    relations = {("sylvester", i): (d[i + 1], d[i]) for i in range(n)}
    relations.update({("left", j): (dn[j], dn[j]) for j in range(1, k + 1)})
    relations.update({("right", j): (dn[j - 1], dn[j - 1]) for j in range(1, k + 1)})

    def eye(size):
        return np.eye(size, dtype=np.complex128)

    gauge_terms = []  # (data block, gauge block, X, Y): X dx Y
    for i in range(n + 1):
        beta = data["beta", i]
        gauge_terms += [(("beta", i), ("x", i), eye(d[i]), beta), (("beta", i), ("x", i), -beta, eye(d[i]))]
    for i in range(n):
        a = data["A", i]
        gauge_terms += [
            (("A", i), ("x", i + 1), eye(d[i + 1]), a), (("A", i), ("x", i), -a, eye(d[i])),
            (("alpha", i), ("x", i + 1), eye(d[i + 1]), data["alpha", i]),
            (("gamma", i), ("x", i), -data["gamma", i], eye(d[i])),
        ]
    for j in range(1, k):
        beta = data["betaN", j]
        gauge_terms += [(("betaN", j), ("y", j), eye(dn[j]), beta), (("betaN", j), ("y", j), -beta, eye(dn[j]))]
    for j in range(1, k + 1):
        mxi, mpsi = data["Mxi", j], data["Mpsi", j]
        gauge_terms += [
            (("Mxi", j), gauge(j), eye(dn[j]), mxi), (("Mxi", j), gauge(j - 1), -mxi, eye(dn[j - 1])),
            (("Mpsi", j), gauge(j - 1), eye(dn[j - 1]), mpsi), (("Mpsi", j), gauge(j), -mpsi, eye(dn[j])),
        ]
    relation_terms = []  # (relation, data block, X, Y): X dV Y
    for i in range(n):
        a, alpha, gamma = data["A", i], data["alpha", i], data["gamma", i]
        relation_terms += [
            (("sylvester", i), ("beta", i + 1), eye(d[i + 1]), a),
            (("sylvester", i), ("A", i), data["beta", i + 1], eye(d[i])),
            (("sylvester", i), ("A", i), -eye(d[i + 1]), data["beta", i]),
            (("sylvester", i), ("beta", i), -a, eye(d[i])),
            (("sylvester", i), ("alpha", i), -eye(d[i + 1]), gamma),
            (("sylvester", i), ("gamma", i), -alpha, eye(d[i])),
        ]
    for j in range(1, k + 1):
        mxi, mpsi = data["Mxi", j], data["Mpsi", j]
        relation_terms += [
            (("left", j), node(j), eye(dn[j]), eye(dn[j])),
            (("left", j), ("Mxi", j), -eye(dn[j]), mpsi),
            (("left", j), ("Mpsi", j), -mxi, eye(dn[j])),
            (("right", j), node(j - 1), eye(dn[j - 1]), eye(dn[j - 1])),
            (("right", j), ("Mpsi", j), -eye(dn[j - 1]), mxi),
            (("right", j), ("Mxi", j), -mpsi, eye(dn[j - 1])),
        ]
    return _linear_map(shapes, groups, gauge_terms), _linear_map(relations, shapes, relation_terms)


def _linear_map(rows: dict, cols: dict, terms: list) -> np.ndarray:
    """The matrix of dV -> sum of X dV Y into the row blocks, on row-major
    entries: each term (row block, column block, X, Y) adds kron(X, Y^T)."""

    def offsets(blocks):
        out, at = {}, 0
        for key, (r, c) in blocks.items():
            out[key], at = slice(at, at + r * c), at + r * c
        return out, at

    (row_at, m), (col_at, n) = offsets(rows), offsets(cols)
    out = np.zeros((m, n), dtype=np.complex128)
    for row, col, x, y in terms:
        out[row_at[row], col_at[col]] += np.kron(x, y.T)
    return out


def tangent_cohomology(b) -> tuple[int, int, int, int]:
    """(dim H^0, dim H^1, dim H^2, count) of b's tangent complex, each rank
    from one SVD and la.rank_decision; count = dim data - dim relations -
    dim gauge, which dim H^1 equals where H^0 = H^2 = 0."""
    from bowforge import _linalg as la

    def rank(m):
        return la.rank_decision(np.linalg.svd(m, compute_uv=False), m.shape) if m.size else 0

    t, j = tangent_complex(b)
    rank_t, rank_j = rank(t), rank(j)
    return t.shape[1] - rank_t, j.shape[1] - rank_j - rank_t, j.shape[0] - rank_j, j.shape[1] - j.shape[0] - t.shape[1]
