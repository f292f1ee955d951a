"""Every recorded CLI output, replayed in one process.

`perfbench/reference.json` holds the exit code and the SHA-256 of standard
output of every argv variant the benchmark's ``cli`` batch can draw, that is
every variant of every slot of ``perfbench/workloads.cli_slots("full")``.
This test replays each distinct variant once through ``cli.main``, as a
batch does, and compares.  It only reads the benchmark's files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["full"]["cli"]


def test_every_recorded_cli_output_is_reproduced(tmp_path):
    files = workloads.cli_files("full")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    calls = {}
    for slot in workloads.cli_slots("full"):
        for argv in slot:
            calls.setdefault(workloads.call_key(argv), argv)
    assert set(calls) == set(REFERENCE["calls"]) | set(REFERENCE["known"])

    wrong = []
    for key, argv in calls.items():
        result = workloads.cli_call([str(tmp_path / a) if a in files else a for a in argv])
        if key in REFERENCE["known"]:
            # recorded as a failure; the fixed call must reproduce its bunch and trace
            problem = workloads.check_known_failure(result, REFERENCE["known"][key])
        else:
            code, out, _ = result
            problem = None if [code, workloads.sha256(out)] == REFERENCE["calls"][key] \
                else f"exit {code}, stdout {workloads.sha256(out)[:12]}"
        if problem is not None:
            wrong.append(f"{key}: {problem}")
    assert not wrong, "\n".join(wrong)
