"""Shared topology factories and oracles for the test suite."""

from __future__ import annotations

import numpy as np

from bowforge.topology import TopologicalData


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
