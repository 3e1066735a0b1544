"""Command-line interface: thin wrappers over the library operations.

Exit codes: 0 all checks pass, 1 a validation check failed, 2 structural
or I/O error (unreadable file, shape mismatch, bad arguments, a closed or
failing standard output).

``entrypoint``, behind ``bowforge`` and ``python -m bowforge.cli``, ends the
process itself once ``main`` returns: it runs the ``atexit`` callbacks,
flushes standard output and error and calls ``os._exit``, so the interpreter
does not tear down the numpy and scipy module state.  An exception that escapes
``main`` ends the interpreter the normal way.
"""

from __future__ import annotations

import argparse
import atexit
import math
import os
import sys
from pathlib import Path

from . import bowfile
from ._linalg import DEFAULT_TOL, DERIVED_TOL
from .bowdata import (
    ValidationReport,
    check_chain_invariants,
    check_exactness_all,
    validate_relations,
)
from .errors import (
    BowforgeError,
    ParseError,
    RankIndeterminate,
    StructuralError,
    ValidationFailure,
)
from .orthosymplectic import verify_pairing_relations
from .topology import chern_summary, compute_dimensions, validate_topology

PASS_EXIT, FAIL_EXIT, ERROR_EXIT = 0, 1, 2


def _emit(document: dict, fmt: str) -> None:
    if sys.stdout is None:  # started with file descriptor 1 closed; print would drop it
        raise OSError("standard output is closed")
    if fmt == "machine":
        sys.stdout.write(bowfile.canonical_dumps(document))
        return
    _emit_human(document)


def _emit_human(document: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in document.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_human(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                parts = "  ".join(f"{k}={_short(v)}" for k, v in item.items())
                print(f"{pad}  - {parts}")
        else:
            print(f"{pad}{key}: {_short(value)}")


def _short(value):
    if isinstance(value, float):
        return f"{value:.3e}"
    if isinstance(value, list) and len(value) > 8:
        return f"[{len(value)} entries]"
    return value


def _verdict(failed: bool, indeterminate: bool) -> str:
    """Any failure fails; otherwise a call too close to make is indeterminate."""
    return "fail" if failed else "indeterminate" if indeterminate else "pass"


def _report_doc(report: ValidationReport) -> dict:
    return {
        "verdict": report.verdict,
        "tolerance": report.tol,
        "checks": [
            {"name": c.name, "residual": c.residual, "pass": c.passed}
            for c in report.checks
        ],
    }


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_bow(path: str):
    bf = bowfile.parse(_read(path))
    return bf, bf.require_datum()


def cmd_dims(args) -> int:
    topo = bowfile.parse_topology(_read(args.file))
    problems = validate_topology(topo)
    if problems:
        _emit({"verdict": "fail", "violations": [str(p) for p in problems]}, args.format)
        return FAIL_EXIT
    dims = compute_dimensions(topo)
    chern = chern_summary(topo)
    _emit(
        {
            "d": list(dims.d),
            "dn": list(dims.dn),
            "c1": list(chern.c1),
            "c2": chern.c2,
            "flag_degrees": list(chern.flag_degrees),
        },
        args.format,
    )
    return PASS_EXIT


def cmd_validate(args) -> int:
    _, datum = _load_bow(args.file)
    problems = validate_topology(datum.topo)
    report = validate_relations(datum, tol=args.tol)
    doc = _report_doc(report)
    doc["topology_violations"] = [str(p) for p in problems]
    _emit(doc, args.format)
    return PASS_EXIT if report.passed and not problems else FAIL_EXIT


def cmd_exactness(args) -> int:
    _, datum = _load_bow(args.file)
    results = check_exactness_all(datum)
    statuses = {r.status for r in results}
    doc = {
        "verdict": _verdict("fail" in statuses, "indeterminate" in statuses),
        "steps": [
            {
                "index": r.index,
                "status": r.status,
                "witness_etas": [
                    [complex(w.eta).real, complex(w.eta).imag] for w in r.witnesses
                ],
            }
            for r in results
        ],
    }
    _emit(doc, args.format)
    return PASS_EXIT if doc["verdict"] == "pass" else FAIL_EXIT


def cmd_invariants(args) -> int:
    _, datum = _load_bow(args.file)
    report = check_chain_invariants(datum, tol=max(args.tol, DERIVED_TOL))
    _emit(_report_doc(report), args.format)
    return PASS_EXIT if report.passed else FAIL_EXIT


def cmd_gen(args) -> int:
    from .generator import generate  # deferred: only gen needs it

    topo = bowfile.parse_topology(_read(args.file))
    datum = generate(topo, seed=args.seed)
    out = bowfile.BowFile(
        topo=topo, datum=datum, metadata={"seed": args.seed, "provenance": "bowforge gen"}
    )
    Path(args.output).write_bytes(bowfile.serialize(out))
    _emit({"written": args.output, "d": list(datum.dims.d), "dn": list(datum.dims.dn)}, args.format)
    return PASS_EXIT


def cmd_fiber(args) -> int:
    """Fiber rank and local freeness at one point.  A rank too close to call
    prints the document with both null and the reason, then exits 1."""
    from .monad import SurfacePoint, assemble_monad  # deferred: only fiber and scan need it

    _, datum = _load_bow(args.file)
    point = SurfacePoint.from_xi_eta(datum.topo.z, complex(args.xi), complex(args.eta))
    monad = assemble_monad(datum, point)
    doc = {
        "point": {
            "xi": bowfile.complex_to_doc(point.xi),
            "psi": bowfile.complex_to_doc(point.psi),
            "eta": bowfile.complex_to_doc(point.eta),
        },
        "rank": None,
        "locally_free": None,
        "expected_rank": datum.topo.n,
    }
    try:
        rank, free = monad.fiber_rank(0), monad.locally_free(0)
    except RankIndeterminate as exc:
        doc["reason"] = str(exc)
        _emit(doc, args.format)
        raise  # main reports it on stderr and exits 1
    doc["rank"], doc["locally_free"] = rank, free.passed
    _emit(doc, args.format)
    ok = free.passed and rank == datum.topo.n
    return PASS_EXIT if ok else FAIL_EXIT


def cmd_scan(args) -> int:
    from .monad import ScanConfig, scan_local_freeness  # deferred: only fiber and scan need it

    _, datum = _load_bow(args.file)
    report = scan_local_freeness(datum, ScanConfig(n_random=args.n, seed=args.seed))
    doc = {
        "points": len(report.points),
        "failures": len(report.failures),
        "indeterminate": len(report.indeterminate),
        "expected_rank": report.expected_rank,
        "ranks_all_expected": report.ranks_all_expected,
        "verdict": _verdict(
            bool(report.failures) or not report.ranks_all_expected, bool(report.indeterminate)
        ),
        "failed_points": [
            {
                "eta": bowfile.complex_to_doc(p.point.eta),
                "xi": bowfile.complex_to_doc(p.point.xi),
                "kind": p.kind,
            }
            for p in report.failures
        ],
    }
    _emit(doc, args.format)
    return PASS_EXIT if doc["verdict"] == "pass" else FAIL_EXIT


def cmd_pairing(args) -> int:
    bf, datum = _load_bow(args.file)
    if bf.pairing is None:
        raise ParseError("file carries no pairing data")
    report = verify_pairing_relations(datum, bf.pairing, tol=args.tol)
    _emit(_report_doc(report), args.format)
    return PASS_EXIT if report.passed else FAIL_EXIT


def cmd_export_bow(args) -> int:
    from .export import export_bow_complex  # deferred: only export-bow needs it

    _, datum = _load_bow(args.file)
    report = validate_relations(datum, tol=args.tol)
    if not report.passed:
        _emit(_report_doc(report), args.format)
        return FAIL_EXIT
    Path(args.output).write_text(bowfile.canonical_dumps(export_bow_complex(datum)))
    _emit({"written": args.output}, args.format)
    return PASS_EXIT


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bowforge", description="bow complexes and instanton monads"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, tol=False, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=func)
        p.add_argument("file")
        if tol:
            # argparse converts a string default, so a malformed BOWFORGE_TOL exits 2
            default = os.environ.get("BOWFORGE_TOL") or DEFAULT_TOL
            p.add_argument("--tol", type=_tolerance, default=default)
        p.add_argument("--format", choices=("human", "machine"), default="human")
        return p

    add("dims", cmd_dims, help="dimension vector and Chern summary of a topology")
    add("validate", cmd_validate, tol=True, help="check the defining matrix relations")
    add("exactness", cmd_exactness, help="pointwise exactness of each chain step")
    add("invariants", cmd_invariants, tol=True, help="derived chain invariants")
    p = add("gen", cmd_gen, help="generate a random datum for a topology")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p = add("fiber", cmd_fiber, help="fiber rank at a surface point")
    p.add_argument("--xi", required=True)
    p.add_argument("--eta", required=True)
    p = add("scan", cmd_scan, help="local-freeness scan over sampled points")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    add("pairing", cmd_pairing, tol=True, help="verify SO/Sp pairing identities")
    p = add("export-bow", cmd_export_bow, tol=True, help="emit the bow-complex document")
    p.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return ERROR_EXIT if exc.code not in (0, None) else PASS_EXIT
    try:
        return args.func(args)
    except (StructuralError, ValueError, OSError) as exc:
        code, line = ERROR_EXIT, f"error: {exc}"
    except RankIndeterminate as exc:
        code, line = FAIL_EXIT, f"indeterminate: {exc}"
    except ValidationFailure as exc:
        code, line = FAIL_EXIT, f"validation failure: {exc}"
    except BowforgeError as exc:
        code, line = ERROR_EXIT, f"error: {exc}"
    _diagnose(line)
    return code


def _diagnose(line: str) -> None:
    if sys.stderr is not None:  # None with descriptor 2 closed: print would write to stdout
        print(line, file=sys.stderr)


def entrypoint() -> None:
    """Run ``main`` on ``sys.argv`` and end the process with its exit code.

    The ``atexit`` callbacks run before the flush, in the interpreter's own
    order, so what they write is flushed too.  A final flush that fails (a
    reader gone, a full disk) is an I/O error and exits 2.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        _diagnose(f"error: {exc}")
        code = ERROR_EXIT
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
