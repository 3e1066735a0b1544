"""The verdict corpus: bowforge's decisions on fixed data, as integers and
strings only, so that they do not depend on the BLAS's last bits.

`records(workdir)` computes the corpus that tests/fixtures/verdicts/verdicts.json
holds (tests/test_verdicts.py compares the two; tools/record_verdicts.py
writes the file):

  scan        per datum, per scan point (20 random points at seed 1, then
              the structured points): [kind, status, fiber rank,
              locally_free, quotient_dim, kind of reason], "-" where a
              value is undefined; locally_free is 1 or 0, and quotient_dim
              comes from locally_free on one stack of the same points
  points      the same row, kind "probe", at u2-basic's points xi = 1,
              eta = lambda + f 1e-13, lambda an eigenvalue of beta_0: at f
              = 0.5, 1 and 3 G's smallest value lies on the straddle band,
              at 0.3 and 6 off it, so the band's width is pinned too
  exactness   per datum, each step's exactness status
  cli         per CLI command on the five bow fixtures and u2-topology,
              run through cli.main in-process: its exit code, or the name
              of the exception that escapes main
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from bowforge import cli
from bowforge.bowdata import with_perturbed_entry
from bowforge.errors import RankIndeterminate
from bowforge.generator import canonical_examples, degenerate_example, generate
from bowforge.monad import ScanConfig, SurfacePoint, scan_local_freeness

from _suites import BOW_FIXTURES, FIXTURES, suite_topology

CORPUS = FIXTURES / "verdicts" / "verdicts.json"
BOW_COMMANDS = ("validate", "exactness", "invariants", "scan", "fiber", "pairing", "export-bow")
SHIFT = 1e-3  # the shift of the [0, 0] entry of a named matrix
ROWS = ("scan", "points")  # the sections of one row a point


def data() -> dict:
    """The corpus's data by label: the ladder suite_topology(3, 3, m0) at
    m0 = 3 and 10 (seed 101), u2-basic and so2-mirror each also with
    A[0][0, 0] and Mxi[0][0, 0] shifted, the degenerate datum, and the
    m0 = 10 rung with Mxi[0][0, 0] shifted, which fails validate_relations."""
    canon = {e.name: e.datum for e in canonical_examples()}
    out = {f"ladder-m0-{m0}": generate(suite_topology(3, 3, m0), seed=101) for m0 in (3, 10)}
    for name in ("u2-basic", "so2-mirror"):
        out[name] = canon[name]
        for shifted in ("A[0]", "Mxi[0]"):
            out[f"{name} {shifted}"] = with_perturbed_entry(canon[name], shifted, (0, 0), SHIFT)
    out["degenerate"] = degenerate_example()[1]
    out["ladder-m0-10 Mxi[0]"] = with_perturbed_entry(out["ladder-m0-10"], "Mxi[0]", (0, 0), SHIFT)
    return out


def reason_kind(reason: str) -> str:
    """The kind of an indeterminate point's reason."""
    if not reason:
        return "none"
    for kind, mark in (("straddle", "straddle cutoff"), ("zero product", "not contained in"), ("rank sum", "sum past")):
        if mark in reason:
            return kind
    return "other"


def scan_records(d) -> list:
    report = scan_local_freeness(d, ScanConfig(n_random=20, seed=1))
    stack = d.monad_assembler([p.point for p in report.points])
    rows = []
    for j, p in enumerate(report.points):
        try:
            quotient = stack.locally_free(j).quotient_dim
        except RankIndeterminate:
            quotient = "-"
        free = "-" if p.locally_free is None else int(p.locally_free)
        rank = "-" if p.fiber_rank is None else p.fiber_rank
        rows.append([p.kind, p.status, rank, free, quotient, reason_kind(p.reason)])
    return rows


def probe_records(d, points) -> list:
    """The rows of scan_records at `points`, evaluated as one stack."""
    stack, rows = d.monad_assembler(points), []
    for j in range(len(points)):
        try:
            rank, free = stack.fiber_rank(j), stack.locally_free(j)
        except RankIndeterminate as exc:
            rows.append(["probe", "indeterminate", "-", "-", "-", reason_kind(str(exc))])
        else:
            status = "ok" if free.passed else "fail"
            rows.append(["probe", status, rank, int(free.passed), free.quotient_dim, "none"])
    return rows


def band_points(d) -> list:
    lam = complex(d.eigenvalues[0][0])
    return [SurfacePoint.from_xi_eta(d.topo.z, 1.0, lam + f * 1e-13) for f in (0.3, 0.5, 1.0, 3.0, 6.0)]


def cli_commands(workdir: Path) -> dict:
    """argv by label: dims and gen on u2-topology, and each bow command on
    each bow fixture, in human and machine format."""
    jobs = [(cmd, "u2-topology") for cmd in ("dims", "gen")]
    jobs += [(cmd, fixture) for fixture in sorted(BOW_FIXTURES) for cmd in BOW_COMMANDS]
    extra = {
        "gen": ["--seed", "0", "-o", str(workdir / "gen.json")],
        "export-bow": ["-o", str(workdir / "export.json")],
        "scan": ["--n", "20"],
        "fiber": ["--xi", "1.0", "--eta", "2.1+0.4j"],
    }
    return {
        f"{cmd} {fixture} {fmt}": [cmd, str(FIXTURES / f"{fixture}.json"), "--format", fmt] + extra.get(cmd, [])
        for fmt in ("human", "machine")
        for cmd, fixture in jobs
    }


def exit_code(argv: list[str]):
    """cli.main's exit code, or the name of the exception that escapes it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as exc:  # an escaping exception is a verdict too
            return f"raised {type(exc).__name__}"


def records(workdir: Path) -> dict:
    corpus = data()
    return {
        "scan": {label: scan_records(d) for label, d in corpus.items()},
        "points": {"u2-basic near beta_0": probe_records(corpus["u2-basic"], band_points(corpus["u2-basic"]))},
        "exactness": {label: [r.status for r in d.exactness] for label, d in corpus.items()},
        "cli": {label: exit_code(argv) for label, argv in cli_commands(workdir).items()},
    }


def dumps(corpus: dict) -> str:
    """The corpus as JSON with one scan point, datum or command a line."""
    lines = ["{"]
    for s, (section, entries) in enumerate(corpus.items()):
        lines.append(f"  {json.dumps(section)}: {{")
        for e, (label, value) in enumerate(entries.items()):
            comma = "," if e < len(entries) - 1 else ""
            if section in ROWS:
                rows = ",\n".join(f"      {json.dumps(row)}" for row in value)
                lines.append(f"    {json.dumps(label)}: [\n{rows}\n    ]{comma}")
            else:
                lines.append(f"    {json.dumps(label)}: {json.dumps(value)}{comma}")
        lines.append("  }" + ("," if s < len(corpus) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def changes(recorded: dict, now: dict) -> list[str]:
    """One line per entry that differs between two corpora."""
    out = []
    for section in sorted(set(recorded) | set(now)):
        old, new = recorded.get(section, {}), now.get(section, {})
        for label in sorted(set(old) | set(new)):
            a, b = old.get(label), new.get(label)
            if section in ROWS and a is not None and b is not None and len(a) == len(b):
                out += [f"{section} {label} point {j}: {x} -> {y}" for j, (x, y) in enumerate(zip(a, b)) if x != y]
            elif a != b:
                out.append(f"{section} {label}: {a} -> {b}")
    return out
