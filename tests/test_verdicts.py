"""The verdict corpus (tests/_verdicts.py): every decision it records, per
scan point, datum and CLI command, is the one tests/fixtures/verdicts/verdicts.json
holds.  A change of verdict fails here with each changed entry listed;
tools/record_verdicts.py re-records the file."""

import json

from _verdicts import CORPUS, changes, dumps, records


def test_verdicts_are_the_recorded_ones(tmp_path):
    recorded = json.loads(CORPUS.read_text())
    now = records(tmp_path)
    changed = changes(recorded, now)
    assert not changed, "verdicts changed (re-record with tools/record_verdicts.py):\n" + "\n".join(changed)


def test_corpus_holds_integers_and_strings_only():
    def leaves(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in leaves(v)]
        if isinstance(value, list):
            return [x for v in value for x in leaves(v)]
        return [value]

    text = CORPUS.read_text()
    corpus = json.loads(text)
    assert all(type(x) in (int, str) for x in leaves(corpus))
    assert dumps(corpus) == text
