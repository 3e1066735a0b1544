"""One SHA-256 per category of bowforge's outputs on fixed probes.

Run in a checkout, it imports the package from that checkout's `src/` (and
`suite_topology` from its `tests/`) and prints one line per category: its
name, the number of records and the digest of their bytes.  A change that
leaves every output byte-identical prints the same lines as its parent:

    OPENBLAS_NUM_THREADS=1 python tools/identity_probe.py [CATEGORY ...]

Run it in both checkouts (copy this file into one that lacks it) and diff
the output.  The default categories, all run when none is named:

  suite      the 720-datum suite, 36 topologies x seeds 0-19: every matrix,
             kept spectrum and cluster, relation and invariant residual
             (repr), exactness status, detail and witness bytes, and the
             attempts generate used
  canonical  the same record of the canonical examples and the degenerate
             datum, with each example's pairing residuals
  mirror     generate_mirror on the so2-mirror and sp1-mirror topologies,
             seeds 0-5: the datum record, the pairing residuals, and
             fiber_form at 20 random points (seed = the generation seed) and
             the structured points: the form's bytes or the error raised
  scan       45 data (the 36 suite topologies at seed 1, the canonical
             examples, the degenerate datum, suite_topology(3, 3, m0) at
             m0 = 3, 10, 20, seed 101), each also with A[0][0, 0] and
             Mxi[0][0, 0] shifted by 1e-3 where they exist: the scan reports
             at 20 random points (seed 1), and 3 random points (seed 2) plus
             the structured points through a stack of all, a stack of all
             that shares eta-only results, and a stack of one each:
             fiber_rank, locally_free with its witness and, below m0 = 20,
             the fiber basis
  cli        each bow command of tests/_verdicts.BOW_COMMANDS on the five bow
             fixtures, and dims and gen --seed 5 on u2-topology, in human
             and machine format, through cli.main in this process: the exit
             code or the name of the exception that escapes main, stdout,
             stderr and the bytes of the file written, the temporary
             directory's path masked

Opt-in categories, run only when named:

  ladder40   suite_topology(3, 3, 40), seed 101: the scan report at 20
             random points (seed 1), and the same points plus the
             structured ones through stacks of 8 consecutive points and
             stacks of one: fiber_rank and locally_free with its witness (a
             stack of all 268 points would hold about 1.5 GB)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from _suites import BOW_FIXTURES, FIXTURES, suite_topology  # noqa: E402
from _verdicts import BOW_COMMANDS  # noqa: E402
from bowforge import cli as bowforge_cli, generator  # noqa: E402
from bowforge.bowdata import with_perturbed_entry  # noqa: E402
from bowforge.monad import ScanConfig, random_points, scan_local_freeness, structured_points  # noqa: E402
from bowforge.orthosymplectic import fiber_form, verify_pairing_relations  # noqa: E402

SUITE = [(n, k, m0) for n in (1, 2, 3) for k in (1, 2, 3) for m0 in (0, 1, 2, 3)]


class Digest:
    def __init__(self):
        self.sha, self.records = hashlib.sha256(), 0

    def add(self, *parts) -> None:
        """One record: strings by repr, arrays by shape, dtype and bytes."""
        for part in parts:
            if isinstance(part, np.ndarray):
                part = f"{part.shape} {part.dtype} {np.ascontiguousarray(part).tobytes().hex()}"
            self.sha.update(f"{part!r}\x1f".encode())
        self.sha.update(b"\x1e")
        self.records += 1

    def outcome(self, label: str, compute) -> None:
        """Record what compute() returns, or the error it raises."""
        try:
            value = compute()
        except Exception as exc:  # an error is an outcome too
            self.add(label, "raised", type(exc).__name__, str(exc))
            return
        self.add(label, *(value if isinstance(value, tuple) else (value,)))


def datum_record(out: Digest, d) -> None:
    for name, m in d.all_matrices().items():
        out.add(name, m)
    out.outcome("eigenvalues", lambda: tuple(d.eigenvalues))
    out.outcome("clusters", lambda: (d.clusters, d.spectrum_clusters))
    out.outcome("relations", lambda: d.relation_residuals)
    out.outcome("invariants", lambda: d.invariant_residuals)
    out.outcome("exactness", lambda: tuple(
        part for r in d.exactness for part in (r.index, r.status, r.detail, *(
            x for w in r.witnesses for x in (w.side, w.eta, w.vector)))))


def pairing_record(out: Digest, d, pairing) -> None:
    out.outcome("pairing", lambda: tuple((c.name, c.residual) for c in verify_pairing_relations(d, pairing).checks))


def suite(out: Digest) -> None:
    attempt, counted = generator._attempt, [0]

    def counting(*args):
        counted[0] += 1
        return attempt(*args)

    generator._attempt = counting
    try:
        for key in SUITE:
            for seed in range(20):
                counted[0] = 0
                d = generator.generate(suite_topology(*key), seed)
                out.add(key, seed, counted[0])
                datum_record(out, d)
    finally:
        generator._attempt = attempt


def canonical(out: Digest) -> None:
    for e in generator.canonical_examples():
        out.add(e.name)
        datum_record(out, e.datum)
        if e.pairing is not None:
            pairing_record(out, e.datum, e.pairing)
    out.add("degenerate")
    datum_record(out, generator.degenerate_example()[1])


def mirror(out: Digest) -> None:
    examples = {e.name: e for e in generator.canonical_examples()}
    for name in ("so2-mirror", "sp1-mirror"):
        topo, flavor = examples[name].topo, examples[name].pairing.flavor
        for seed in range(6):
            out.add(name, seed)
            d, pairing = generator.generate_mirror(topo, flavor, seed)
            datum_record(out, d)
            pairing_record(out, d, pairing)
            for x in random_points(d, 20, seed) + structured_points(d):
                out.outcome(f"form {x}", lambda: fiber_form(d, pairing, x))


def scan_data() -> list:
    data = [generator.generate(suite_topology(*key), 1) for key in SUITE]
    data += [e.datum for e in generator.canonical_examples()] + [generator.degenerate_example()[1]]
    data += [generator.generate(suite_topology(3, 3, m0), 101) for m0 in (3, 10, 20)]
    shifted = []
    for d in data:
        shifted.append(d)
        mats = d.all_matrices()
        shifted += [with_perturbed_entry(d, name, (0, 0), 1e-3) for name in ("A[0]", "Mxi[0]")
                    if name in mats and mats[name].size]
    return shifted


def scan(out: Digest) -> None:
    for d in scan_data():
        out.add("datum", d.topo)
        for p in scan_local_freeness(d, ScanConfig(n_random=20, seed=1)).points:
            out.add(p.point, p.kind, p.fiber_rank, p.locally_free, p.status, p.reason)
        points = random_points(d, 3, seed=2) + structured_points(d)
        whole = d.monad_assembler(points)
        stacks = [(whole, j) for j in range(len(points))]
        stacks += [(replace(whole, shared={}), j) for j in range(len(points))]
        stacks += [(d.monad_assembler([x]), 0) for x in points]
        for stack, j in stacks:
            out.outcome("fiber_rank", lambda: stack.fiber_rank(j))
            out.outcome("locally_free", lambda: freeness(stack.locally_free(j)))
            if d.topo.m0 < 20:
                out.outcome("fiber", lambda: stack.fiber(j))


def ladder40(out: Digest) -> None:
    d = generator.generate(suite_topology(3, 3, 40), 101)
    config = ScanConfig(n_random=20, seed=1)
    for p in scan_local_freeness(d, config).points:
        out.add(p.point, p.kind, p.fiber_rank, p.locally_free, p.status, p.reason)
    points = random_points(d, config.n_random, config.seed) + structured_points(d)
    for size in (8, 1):
        for start in range(0, len(points), size):
            stack = d.monad_assembler(points[start : start + size])
            for j in range(len(stack)):
                out.outcome("fiber_rank", lambda: stack.fiber_rank(j))
                out.outcome("locally_free", lambda: freeness(stack.locally_free(j)))


CLI_OPTIONS = {  # each command's options beyond the file and format; {out} is the written file
    "gen": ["--seed", "5", "-o", "{out}"],
    "export-bow": ["-o", "{out}"],
    "scan": ["--n", "20"],
    "fiber": ["--xi", "1.0", "--eta", "2.1+0.4j"],
}


def cli(out: Digest) -> None:
    jobs = [(cmd, "u2-topology") for cmd in ("dims", "gen")]
    jobs += [(cmd, fixture) for fixture in sorted(BOW_FIXTURES) for cmd in BOW_COMMANDS]
    with tempfile.TemporaryDirectory() as tmp:
        written = Path(tmp) / "out.json"
        for fmt in ("human", "machine"):
            for cmd, fixture in jobs:
                options = [str(written) if o == "{out}" else o for o in CLI_OPTIONS.get(cmd, [])]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = bowforge_cli.main([cmd, str(FIXTURES / f"{fixture}.json"), "--format", fmt, *options])
                    except Exception as exc:  # an escaping exception is an outcome too
                        code = f"raised {type(exc).__name__}"
                data = written.read_bytes() if written.exists() else None
                written.unlink(missing_ok=True)
                out.add(cmd, fixture, fmt, code, stdout.getvalue().replace(tmp, "<tmp>"),
                        stderr.getvalue().replace(tmp, "<tmp>"), data)


def freeness(result) -> tuple:
    return (result.passed, result.quotient_dim) + (() if result.witness is None else (result.witness,))


CATEGORIES = {"suite": suite, "canonical": canonical, "mirror": mirror, "scan": scan, "cli": cli}
OPT_IN = {"ladder40": ladder40}


def main(names: list[str]) -> None:
    for name in names or CATEGORIES:
        out = Digest()
        {**CATEGORIES, **OPT_IN}[name](out)
        print(f"{name} {out.records} {out.sha.hexdigest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
