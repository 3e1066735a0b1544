"""Canonical text serialization of bow data.

Canonical form: JSON with sorted keys, two-space indentation, floats
rendered with 17 significant digits, complex scalars as [re, im] pairs,
matrices as row-major nested arrays, and zero-size matrices as explicit
{"rows": r, "cols": c} records.  parse -> serialize is byte-identical on
canonical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bowdata import FAMILIES, BowDatum
from .errors import ParseError, ShapeMismatch
from .orthosymplectic import PairingDatum, check_pairing_shapes
from .topology import TopologicalData, compute_dimensions, validate_topology

FORMAT_BOWFILE = "bowforge.bowfile"
FORMAT_TOPOLOGY = "bowforge.topology"
FORMAT_BOWCOMPLEX = "bowforge.bowcomplex"
VERSION = 1


def _emit(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for pos, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            out.append(f"{pad}  {json.dumps(key)}: ")
            _emit(obj[key], indent + 1, out)
            out.append(",\n" if pos < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for pos, item in enumerate(obj):
            out.append(pad + "  ")
            _emit(item, indent + 1, out)
            out.append(",\n" if pos < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        out.append(f"{value:.16e}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def canonical_dumps(document) -> str:
    out: list = []
    _emit(document, 0, out)
    out.append("\n")
    return "".join(out)


def complex_to_doc(value: complex) -> list:
    value = complex(value)
    return [value.real, value.imag]


def real_from_doc(doc, path: str) -> float:
    """A finite JSON number; a bool or a string is not a number."""
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise ParseError(f"{path}: expected a number, got {doc!r}")
    try:
        value = float(doc)
    except OverflowError as exc:
        raise ParseError(f"{path}: expected a number, got {doc!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{path}: non-finite number {doc!r}")
    return value


def int_from_doc(doc, path: str) -> int:
    """A JSON integer; a bool, a real (even 1.0) or a string is not one."""
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise ParseError(f"{path}: expected an integer, got {doc!r}")
    return doc


def array_from_doc(doc, path: str, item_from_doc) -> tuple:
    """Parse each entry of a JSON array with item_from_doc(entry, entry_path)."""
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected an array, got {doc!r}")
    return tuple(item_from_doc(v, f"{path}[{i}]") for i, v in enumerate(doc))


def complex_from_doc(doc, path: str) -> complex:
    if not (isinstance(doc, list) and len(doc) == 2):
        raise ParseError(f"{path}: complex scalar must be a [re, im] pair, got {doc!r}")
    return complex(real_from_doc(doc[0], f"{path}[0]"), real_from_doc(doc[1], f"{path}[1]"))


def matrix_to_doc(m: np.ndarray):
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return {"rows": int(m.shape[0]), "cols": int(m.shape[1])}
    return [[complex_to_doc(v) for v in row] for row in m]


def matrix_from_doc(doc, path: str) -> np.ndarray:
    if isinstance(doc, dict):
        try:
            rows = int_from_doc(doc["rows"], f"{path}.rows")
            cols = int_from_doc(doc["cols"], f"{path}.cols")
        except KeyError as exc:
            raise ParseError(f"{path}: empty matrix record needs rows/cols") from exc
        if rows < 0 or cols < 0 or rows * cols != 0:
            raise ParseError(f"{path}: shape record {doc} must describe a zero-size matrix")
        try:
            return np.zeros((rows, cols), dtype=np.complex128)
        except ValueError as exc:  # a side too large to index
            raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise ParseError(f"{path}: matrix must be a nested array or a shape record")
    width = None
    data = []
    for r, row in enumerate(doc):
        if not isinstance(row, list):
            raise ParseError(f"{path}[{r}]: matrix row must be an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}[{r}]: ragged matrix rows ({len(row)} vs {width})")
        data.append([complex_from_doc(v, f"{path}[{r}][{c}]") for c, v in enumerate(row)])
    return np.array(data, dtype=np.complex128)


def topology_to_doc(t: TopologicalData) -> dict:
    return {
        "n": t.n,
        "k": t.k,
        "ell": float(t.ell),
        "lambda": [float(v) for v in t.lam],
        "m": [int(v) for v in t.m],
        "nd": [int(v) for v in t.nd],
        "m0": int(t.m0),
        "z": [complex_to_doc(v) for v in t.z],
    }


def topology_from_doc(doc) -> TopologicalData:
    if not isinstance(doc, dict):
        raise ParseError("topology: expected an object")
    try:
        return TopologicalData(
            n=int_from_doc(doc["n"], "topology.n"),
            k=int_from_doc(doc["k"], "topology.k"),
            ell=real_from_doc(doc["ell"], "topology.ell"),
            lam=array_from_doc(doc["lambda"], "topology.lambda", real_from_doc),
            m=array_from_doc(doc["m"], "topology.m", int_from_doc),
            nd=array_from_doc(doc["nd"], "topology.nd", int_from_doc),
            m0=int_from_doc(doc["m0"], "topology.m0"),
            z=array_from_doc(doc["z"], "topology.z", complex_from_doc),
        )
    except KeyError as exc:
        raise ParseError(f"topology: missing field {exc.args[0]!r}") from exc


def pairing_to_doc(p: PairingDatum) -> dict:
    return {
        "flavor": p.flavor,
        "K": [matrix_to_doc(k) for k in p.K],
        "f": [int(v) for v in p.f],
        "transpose_convention": bool(p.transpose_convention),
    }


def pairing_from_doc(doc) -> PairingDatum:
    if not isinstance(doc, dict):
        raise ParseError("pairing: expected an object")
    try:
        flavor, transpose = doc["flavor"], doc.get("transpose_convention", False)
        if not isinstance(flavor, str):
            raise ParseError(f"pairing.flavor: expected a string, got {flavor!r}")
        if not isinstance(transpose, bool):
            raise ParseError(f"pairing.transpose_convention: expected a boolean, got {transpose!r}")
        return PairingDatum(
            flavor=flavor,
            K=list(array_from_doc(doc["K"], "pairing.K", matrix_from_doc)),
            f=array_from_doc(doc["f"], "pairing.f", int_from_doc),
            transpose_convention=transpose,
        )
    except KeyError as exc:
        raise ParseError(f"pairing: missing field {exc.args[0]!r}") from exc


@dataclass
class BowFile:
    """On-disk bundle: topology, matrices, optional pairing and metadata."""

    topo: TopologicalData
    datum: BowDatum | None = None
    pairing: PairingDatum | None = None
    metadata: dict | None = None

    def require_datum(self) -> BowDatum:
        if self.datum is None:
            raise ParseError("file carries no bow matrices")
        return self.datum

    def to_document(self) -> dict:
        doc = {
            "format": FORMAT_BOWFILE if self.datum is not None else FORMAT_TOPOLOGY,
            "version": VERSION,
            "topology": topology_to_doc(self.topo),
            "metadata": self.metadata,
        }
        if self.datum is not None:
            doc["bow"] = {
                family.field: [matrix_to_doc(m) for m in getattr(self.datum, family.field)]
                for family in FAMILIES
            }
        doc["pairing"] = pairing_to_doc(self.pairing) if self.pairing else None
        return doc


def serialize(bf: BowFile) -> bytes:
    return canonical_dumps(bf.to_document()).encode("utf-8")


def _load_json(data) -> dict:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    return doc


def _header(data) -> tuple[dict, TopologicalData, dict | None]:
    """The document of a bow or topology file, its topology and its metadata,
    with the format marker, version, the topology's structure and metadata checked."""
    doc = _load_json(data)
    fmt = doc.get("format")
    if fmt not in (FORMAT_BOWFILE, FORMAT_TOPOLOGY):
        raise ParseError(f"unexpected format marker {fmt!r}")
    version = int_from_doc(doc.get("version"), "version")
    if version != VERSION:
        raise ParseError(f"unsupported version {version!r}")
    topo = topology_from_doc(doc.get("topology"))
    broken = [v.message for v in validate_topology(topo) if v.kind == "structural"]
    if broken:
        raise ParseError("topology: " + "; ".join(broken))
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ParseError("metadata: expected an object or null")
    try:
        canonical_dumps(metadata)  # what cannot be written back is not read
    except ValueError as exc:
        raise ParseError(f"metadata: {exc}") from exc
    return doc, topo, metadata


def parse_topology(data) -> TopologicalData:
    """The topology of a bow or topology file, its header checked as parse checks it."""
    return _header(data)[1]


def parse(data) -> BowFile:
    """Parse a bow (or topology-only) file; validates shapes on the way in."""
    doc, topo, metadata = _header(data)

    datum = None
    bow = doc.get("bow")
    if bow is not None:
        if not isinstance(bow, dict):
            raise ParseError("bow: expected an object")

        families = {}
        for family in FAMILIES:
            seq, count = bow.get(family.field), family.length(topo.n, topo.k)
            if not isinstance(seq, list) or len(seq) != count:
                raise ParseError(f"bow.{family.field}: expected {count} matrices")
            families[family.field] = [matrix_from_doc(m, f"bow.{family.field}[{i}]") for i, m in enumerate(seq)]
        try:
            datum = BowDatum.assemble(topo, **families)
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"bow: {exc}") from exc

    pairing = None
    if doc.get("pairing") is not None:
        pairing = pairing_from_doc(doc["pairing"])
        try:
            check_pairing_shapes(pairing, compute_dimensions(topo).d)
        except ShapeMismatch as exc:
            raise ShapeMismatch(f"pairing: {exc}") from exc
    return BowFile(topo=topo, datum=datum, pairing=pairing, metadata=metadata)
