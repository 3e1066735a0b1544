"""Property tests: bow files mean exactly what they say, generated data come
back from a bow file bit for bit, and verdicts are gauge invariant.  All run
derandomized, so every run draws the same cases."""

import json
import math
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bowforge import bowfile, cli
from bowforge.bowdata import FAMILIES, check_exactness_all, gauge_transform, validate_relations
from bowforge.errors import NegativeDimension, StructuralError
from bowforge.generator import generate, ginibre
from bowforge.monad import ScanConfig, scan_local_freeness

from _suites import FIXTURE_NAMES, FIXTURES, suite_topology

FIXTURE_NAMES = sorted(FIXTURE_NAMES)  # the order the derandomized draws sample from


# ------------------------------------------------------------------ parsing

def scalar_leaves(doc, path=()):
    """Paths to every scalar (non-container) entry of a JSON document."""
    if isinstance(doc, dict):
        return [leaf for key in sorted(doc) for leaf in scalar_leaves(doc[key], path + (key,))]
    if isinstance(doc, list):
        return [leaf for i, v in enumerate(doc) for leaf in scalar_leaves(v, path + (i,))]
    return [path]


def leaves_by_field(name):
    """One leaf path per field pattern (array indices folded), per fixture."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    fields = {}
    for path in scalar_leaves(doc):
        fields.setdefault(tuple("[]" if isinstance(p, int) else p for p in path), path)
    return doc, sorted(fields.values(), key=repr)


FIELDS = {name: leaves_by_field(name) for name in FIXTURE_NAMES}


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def variants(value):
    """Near misses of a scalar: the same number in another JSON type, etc."""
    out = [None, True, False, [value], {"v": value}, str(value), 0, -1, 2**70, 0.5]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [value + 1, -value, float(value), math.nan, math.inf]
        if float(value).is_integer():
            out.append(int(value))
    return out


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def edit(name, path, value):
    """(path, value, text of fixture `name` with the entry at `path` set to value)."""
    edited = json.loads(json.dumps(FIELDS[name][0]))
    lookup(edited, path[:-1])[path[-1]] = value
    return path, value, json.dumps(edited)


@st.composite
def edited_fixtures(draw):
    name = draw(st.sampled_from(FIXTURE_NAMES))
    doc, leaves = FIELDS[name]
    path = draw(st.sampled_from(leaves))
    return edit(name, path, draw(st.sampled_from(variants(lookup(doc, path))) | json_values))


def means_exactly(written, value) -> bool:
    """The canonical entry `written` says what the edited entry `value` said:
    numbers by value (an integer field only from a JSON integer); bools,
    strings and nulls by type too."""
    number = (int, float)
    if isinstance(written, number) and isinstance(value, number):
        if isinstance(written, bool) or isinstance(value, bool):
            return written is value
        return written == value and (isinstance(value, int) or not isinstance(written, int))
    if isinstance(written, list) and isinstance(value, list):
        return len(written) == len(value) and all(map(means_exactly, written, value))
    if isinstance(written, dict) and isinstance(value, dict):
        return written.keys() == value.keys() and all(means_exactly(written[k], value[k]) for k in value)
    return type(written) is type(value) and written == value


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=edited_fixtures())
# values that parse used to coerce or choke on
@example(case=edit("u2-basic", ("version",), True))
@example(case=edit("u2-basic", ("version",), 1.0))
@example(case=edit("sp1-mirror", ("pairing", "flavor"), None))
@example(case=edit("sp1-mirror", ("pairing", "transpose_convention"), 1))
@example(case=edit("u2-basic", ("metadata", "name"), math.nan))
@example(case=edit("u1-single-nut", ("bow", "A", 0, "cols"), 2**70))
def test_bow_file_is_rejected_or_kept_exactly(case, tmp_path, capsys):
    path, value, raw = case
    try:
        parsed = bowfile.parse(raw)
    except (StructuralError, NegativeDimension) as exc:
        # a malformed file exits 2; charges that admit no bundle fail the
        # topology check, which `dims` reports with exit 1 too
        edited = tmp_path / "edited.json"
        edited.write_text(raw)
        assert cli.main(["validate", str(edited)]) == (1 if isinstance(exc, NegativeDimension) else 2)
        capsys.readouterr()
        return
    written = bowfile.serialize(parsed)
    assert means_exactly(lookup(json.loads(written), path), value)
    assert bowfile.serialize(bowfile.parse(written)) == written


# ---------------------------------------------------------- round trip

SUITE_KEYS = [(n, k, m0) for n in (1, 2, 3) for k in (1, 2, 3) for m0 in (0, 1, 2, 3)]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(key=st.sampled_from(SUITE_KEYS), seed=st.integers(0, 2**31 - 1))
def test_generated_datum_survives_a_bow_file_bitwise(key, seed):
    topo = suite_topology(*key)
    datum = generate(topo, seed)
    written = bowfile.serialize(bowfile.BowFile(topo, datum))
    back = bowfile.parse(written)
    assert bowfile.serialize(back) == written
    assert back.topo == topo
    for family in FAMILIES:
        for m, m_back in zip(getattr(datum, family.field), getattr(back.datum, family.field), strict=True):
            assert m_back.shape == m.shape
            assert m_back.tobytes() == np.asarray(m, dtype=np.complex128).tobytes()


# --------------------------------------------------------------- gauge

GAUGE_DATA = {
    name: bowfile.parse((FIXTURES / f"{name}.json").read_bytes()).datum
    for name in ("u2-basic", "u1-charge")
}


def verdicts(datum):
    scan = scan_local_freeness(datum, ScanConfig(n_random=4, seed=3))
    return (
        validate_relations(datum).verdict,
        [r.status for r in check_exactness_all(datum)],
        [(p.kind, p.status, p.fiber_rank, p.locally_free) for p in scan.points],
    )


GAUGE_VERDICTS = {name: verdicts(datum) for name, datum in GAUGE_DATA.items()}


def unitary(rng, size):
    q, _ = np.linalg.qr(ginibre(rng, size, size))
    return q


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(GAUGE_DATA)), seed=st.integers(0, 2**32 - 1))
def test_verdicts_are_gauge_invariant(name, seed):
    datum = GAUGE_DATA[name]
    rng = np.random.default_rng(seed)
    g = [unitary(rng, size) for size in datum.dims.d]
    g_p = [unitary(rng, size) for size in datum.dims.dn[1:-1]]
    assert verdicts(gauge_transform(datum, g, g_p)) == GAUGE_VERDICTS[name]
