"""Scan time and traced memory against the number of points a scan chunk holds.

Run in a checkout, it imports the package from that checkout's `src/` (and
`suite_topology` from its `tests/`), with one BLAS thread:

    python tools/chunk_sweep.py [--rounds 7] [--m0 3 10 20] [--points 10]

For each m0 it generates suite_topology(3, 3, m0) at seed 101 and scans it
(ScanConfig(n_random=20, seed=1)) with monad.CHUNK_BYTES set to 1 ... --points
points a chunk, and to the points a chunk that CHUNK_BYTES gives.  The scans
of one m0 run in rounds, each round every size once, its order rotated from
round to round, so that a drift of the machine's speed spreads over all
sizes.  Per size it prints the median scan time with its quartiles, then,
from one more scan under tracemalloc, the largest traced peak of a chunk
(from just before its assembly to the next chunk's) and that peak per point
as a share of BlockIndex.point_bytes.  All in one process: copy the file into
a checkout that lacks it to compare two trees.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from _suites import suite_topology  # noqa: E402
from bowforge import monad  # noqa: E402
from bowforge.generator import generate  # noqa: E402

CONFIG = monad.ScanConfig(n_random=20, seed=1)


def scan_ms(d, size: int, point_bytes: int) -> float:
    monad.CHUNK_BYTES = size * point_bytes
    start = time.perf_counter()
    monad.scan_local_freeness(d, CONFIG)
    return 1e3 * (time.perf_counter() - start)


def traced_chunks(d, size: int, point_bytes: int) -> list[tuple[int, int]]:
    """(points, traced peak in bytes) of each chunk of one scan."""
    chunks = []  # [points, traced memory at its start, peak until the next chunk]
    assembler = monad.monad_assembler

    def close():
        if chunks:
            chunks[-1][2] = tracemalloc.get_traced_memory()[1]

    def measuring_assembler(b):
        assemble = assembler(b)

        def measuring(points):
            close()
            tracemalloc.reset_peak()
            chunks.append([len(points), tracemalloc.get_traced_memory()[0], None])
            return assemble(points)

        return measuring

    monad.monad_assembler, monad.CHUNK_BYTES = measuring_assembler, size * point_bytes
    tracemalloc.start()
    try:
        monad.scan_local_freeness(replace(d), CONFIG)  # a new datum builds its assembler under the patch
        close()
    finally:
        tracemalloc.stop()
        monad.monad_assembler = assembler
    return [(k, peak - start) for k, start, peak in chunks]


def sweep(m0: int, rounds: int, most: int) -> None:
    d = generate(suite_topology(3, 3, m0), seed=101)
    chunk_bytes, point_bytes = monad.CHUNK_BYTES, monad.block_layout(d.dims.d).point_bytes
    points = CONFIG.n_random + len(monad.structured_points(d))
    default = max(1, chunk_bytes // point_bytes)
    sizes = sorted(set(range(1, most + 1)) | {min(default, points)})
    print(f"m0 = {m0}: {points} points, point_bytes {point_bytes}, "
          f"CHUNK_BYTES {chunk_bytes} -> {default} points a chunk", flush=True)
    scan_ms(d, default, point_bytes)  # the datum's kept spectra and assembler, built once
    times = {size: [] for size in sizes}
    for r in range(rounds):
        for size in sizes[r % len(sizes):] + sizes[: r % len(sizes)]:
            times[size].append(scan_ms(d, size, point_bytes))
    print("  points/chunk  median ms  [q1 - q3]           peak/chunk MB  peak/point / point_bytes")
    for size in sizes:
        q1, median, q3 = np.percentile(times[size], [25, 50, 75])
        chunks = traced_chunks(d, size, point_bytes)
        peak, share = max(peak for _, peak in chunks), max(peak / (k * point_bytes) for k, peak in chunks)
        mark = "  <- CHUNK_BYTES" if size == min(default, points) else ""
        print(f"  {size:12d}  {median:9.2f}  [{q1:7.2f} - {q3:7.2f}]  {peak / 1e6:13.3f}  "
              f"{share:.3f}{mark}", flush=True)
    monad.CHUNK_BYTES = chunk_bytes


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7, help="timed scans per size (default 7)")
    parser.add_argument("--m0", type=int, nargs="+", default=[3, 10, 20], help="ladder rungs (default 3 10 20)")
    parser.add_argument("--points", type=int, default=10, help="sizes 1 .. this many points a chunk (default 10)")
    args = parser.parse_args(argv)
    for m0 in args.m0:
        sweep(m0, args.rounds, args.points)


if __name__ == "__main__":
    main(sys.argv[1:])
