"""Smoke tests of the scripts in tools/: each runs in a subprocess of its own,
as it is run by hand, exits 0 and prints lines of its documented shape.  The
digests and timings themselves depend on the BLAS and the machine, so only
their form is checked."""

import os
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_tool(name, *args):
    out = subprocess.run(
        [sys.executable, str(TOOLS / name), *args],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_identity_probe_prints_one_digest_line_per_category():
    lines = run_tool("identity_probe.py", "canonical")
    assert len(lines) == 1
    assert re.fullmatch(r"canonical [1-9]\d* [0-9a-f]{64}", lines[0]), lines


def test_chunk_sweep_prints_one_row_per_chunk_size():
    lines = run_tool("chunk_sweep.py", "--rounds", "1", "--m0", "3", "--points", "2")
    header = re.fullmatch(r"m0 = 3: (\d+) points, point_bytes \d+, CHUNK_BYTES \d+ -> (\d+) points a chunk", lines[0])
    assert header, lines
    assert lines[1].split() == "points/chunk median ms [q1 - q3] peak/chunk MB peak/point / point_bytes".split()
    number = r"\d+\.\d+"
    row = re.compile(rf" +(\d+) +{number} +\[ *{number} - +{number}\] +{number} +{number}(  <- CHUNK_BYTES)?")
    rows = [row.fullmatch(line) for line in lines[2:]]
    assert all(rows), lines
    chunk = min(int(header[1]), int(header[2]))  # the points a chunk that CHUNK_BYTES gives, at most all
    assert [int(r[1]) for r in rows] == sorted({1, 2, chunk})
    assert [int(r[1]) for r in rows if r[2]] == [chunk]
