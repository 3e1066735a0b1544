"""The deformation complex of a bow datum (tests/_suites.tangent_complex):
gauge action, then the differential of the relations.  At a good point
H^0 = 0 (no infinitesimal stabilizer) and H^2 = 0 (the relations cut out a
smooth variety), and dim H^1 = dim data - dim relations - dim gauge, the
dimension of the moduli space there; it is even, the complex dimension of a
hyperkahler space."""

import numpy as np
import pytest

from bowforge.generator import canonical_examples, degenerate_example, generate

from _suites import suite_topology, tangent_cohomology, tangent_complex

CANON = {e.name: e.datum for e in canonical_examples()}


def datum(name):
    if name == "degenerate":
        return degenerate_example()[1]
    if isinstance(name, tuple):
        return generate(suite_topology(*name), seed=0)
    return CANON[name]


@pytest.mark.parametrize("name, h1", [
    ((1, 1, 1), 2), ((2, 1, 1), 6), ((2, 2, 1), 6), ((2, 2, 2), 10), ((3, 3, 3), 22),
    ("u1-single-nut", 0), ("u1-charge", 2), ("u2-basic", 6), ("sp1-mirror", 6), ("degenerate", 2),
], ids=lambda v: "suite-" + "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
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
