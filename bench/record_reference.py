#!/usr/bin/env python3
"""Rewrite the cli-cold section of bench/reference.json from the current code.

Usage: python3 bench/record_reference.py

Runs every cli-cold command once and records its verdict line (exit code,
document verdict, hash of the normalised standard output).  A command that
crashes with a traceback is recorded as a known defect, together with the
exit code and verdict of its human-format twin, which the fixed command is
expected to reproduce.  The suite-verify and scan-ladder sections are
expectations written by hand and are kept as they are.
"""

import json
import random

import run


def main():
    reference = json.loads(run.REFERENCE.read_text())
    workload = run.CliCold(seed=0, tiny=False, reference={})
    workload.setup()
    try:
        rng = random.Random("record-reference")
        verdicts = {}
        for cmd in workload.commands:
            job = cmd + (rng.randrange(2**31),)
            verdict, _, _ = workload.run(job, None)
            verdicts[workload.key(job)[0]] = verdict
    finally:
        workload.close()
    section = {}
    for key, verdict in sorted(verdicts.items()):
        section[key] = {"verdict": verdict}
        if " traceback=" in verdict:
            twin = verdicts[key.rsplit(" ", 1)[0] + " human"]
            exit_code, doc = twin.split()[:2]
            section[key]["fixed"] = {
                "exit": int(exit_code.split("=")[1]),
                "verdict": doc.split("=")[1],
            }
    reference["cli-cold"] = section
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
