"""The deformation complex of a bow datum (tests/_suites.tangent_complex):
gauge action, then the differential of the relations.  At a good point
H^0 = 0 (no infinitesimal stabilizer) and H^2 = 0 (the relations cut out a
smooth variety), and dim H^1 = dim data - dim relations - dim gauge, the
dimension of the moduli space there; it is even, the complex dimension of a
hyperkahler space."""

import numpy as np
import pytest

from bowforge.bowdata import FAMILIES, BowDatum
from bowforge.generator import canonical_examples, degenerate_example, generate, generate_mirror
from bowforge.topology import compute_dimensions

from _suites import random_valid_topology, suite_topology, tangent_cohomology, tangent_complex

CANON = {e.name: e.datum for e in canonical_examples()}


def datum(name):
    if name == "degenerate":
        return degenerate_example()[1]
    if isinstance(name, tuple):
        return generate(suite_topology(*name), seed=0)
    return CANON[name]


def label(v):
    return "suite-" + "-".join(map(str, v)) if isinstance(v, tuple) else str(v)


@pytest.mark.parametrize("name, h1", [
    ((1, 1, 1), 2), ((2, 1, 1), 6), ((2, 2, 1), 6), ((2, 2, 2), 10), ((3, 3, 3), 22),
    ("u1-single-nut", 0), ("u1-charge", 2), ("u2-basic", 6), ("sp1-mirror", 6), ("degenerate", 2),
], ids=label)
def test_tangent_complex_is_unobstructed_with_the_counted_dimension(name, h1):
    b = datum(name)
    t, j = tangent_complex(b)
    # the relations are gauge invariant: J T = 0 up to rounding
    assert np.linalg.norm(j @ t) <= 1e-14 * np.linalg.norm(j) * np.linalg.norm(t)
    assert tangent_cohomology(b) == (0, h1, 0, h1)
    assert h1 % 2 == 0


def test_so2_mirror_has_a_stabilizer_and_an_obstruction():
    # pinned as it reads: a one-dimensional infinitesimal stabilizer, an
    # obstruction space of the same dimension, and dim H^1 two above the
    # count.  Why this SO(2) datum is not a good point is open.
    assert tangent_cohomology(CANON["so2-mirror"]) == (1, 10, 1, 8)


@pytest.mark.parametrize("name, flavor, reads", [
    ("so2-mirror", "SO", (1, 10, 1, 8)), ("sp1-mirror", "Sp", (0, 6, 0, 6)),
])
@pytest.mark.parametrize("seed", range(6))
def test_mirror_data_read_as_their_canonical_example(name, flavor, reads, seed):
    # generate_mirror's data at every seed read as the canonical datum of
    # their topology: the stabilizer and the obstruction belong to every
    # SO(2) datum of this construction, not to one seed (reason still open),
    # and the Sp(1) data are good points of the counted dimension
    topo = next(e.topo for e in canonical_examples() if e.name == name)
    assert tangent_cohomology(generate_mirror(topo, flavor, seed)[0]) == reads


def closed_count(t) -> int:
    """dim data - dim relations - dim gauge from compute_dimensions alone:
    the squares of the d_i and the interior dn_j cancel against the gauge,
    d_{i+1} d_i against the Sylvester relations, and the NUT chain leaves
    -(dn_j - dn_{j-1})^2 = -n_j^2 per step."""
    d = compute_dimensions(t).d
    return sum(d[i] + d[i + 1] for i in range(t.n)) - sum(v * v for v in t.nd)


def counted(b) -> int:
    """The count of b's tangent complex, from its matrices' shapes."""
    t, j = tangent_complex(b)
    return j.shape[1] - j.shape[0] - t.shape[1]


@pytest.mark.parametrize("name", [
    *[(n, k, m0) for n in (1, 2, 3) for k in (1, 2, 3) for m0 in (0, 1, 2, 3)],
    *CANON, "degenerate"], ids=label)
def test_the_count_has_a_closed_form(name):
    b = datum(name)
    assert counted(b) == closed_count(b.topo)
    if isinstance(name, tuple):  # on the suite, count / 2 = n m0 + n - 1
        n, _, m0 = name
        assert closed_count(b.topo) == 2 * (n * m0 + n - 1)


def zero_datum(t) -> BowDatum:
    """The datum of t whose matrices are all zero: the shapes alone."""
    dims = compute_dimensions(t)
    return BowDatum.assemble(t, dims=dims, **{
        family.field: [np.zeros(family.shape(dims.d, dims.dn, i + family.first)) for i in range(family.length(t.n, t.k))]
        for family in FAMILIES})


def test_the_count_is_even():
    # d_0 + d_n = d_0 - d_n = sum m_i = sum n_j = sum n_j^2 mod 2
    rng = np.random.default_rng(7)
    topologies = [random_valid_topology(rng) for _ in range(200)]
    assert all(closed_count(t) % 2 == 0 for t in topologies)
    assert all(counted(zero_datum(t)) == closed_count(t) for t in topologies[:20])
