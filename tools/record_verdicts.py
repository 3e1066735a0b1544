"""Re-record the verdict corpus, tests/fixtures/verdicts/verdicts.json.

Run in a checkout, it imports the package from that checkout's `src/` and
the corpus from `tests/_verdicts.py`, computes every record and writes the
file, then prints one line per entry that changed:

    python tools/record_verdicts.py

tests/test_verdicts.py recomputes the same records and fails on any
difference.  A re-record changes what that test checks, so every changed
entry needs its cause stated beside the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _verdicts import CORPUS, changes, dumps, records  # noqa: E402


def main() -> None:
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        new = records(Path(workdir))
    CORPUS.write_text(dumps(new))
    for line in changes(old, new):
        print(line)


if __name__ == "__main__":
    main()
