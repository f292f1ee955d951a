"""Record reference.json: the outputs that the benchmark's checks compare
against, computed by the package at the current commit.

Run from the repository root, only at a commit whose outputs are the
reference:

    python3 perfbench/record.py

It runs every CLI call the batch can contain (every variant of every slot),
so the reference covers all workload seeds.  Each call except the known
densify failure must exit 0.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import layerlat as ll  # noqa: E402
import workloads as w  # noqa: E402


def record(scale: str, workdir: Path) -> dict:
    fin = w.FINITE[scale]
    densify = w.densify_digest(*ll.densify_driver(ll.Chain(ll.fixtures.s3()), *fin["densify"]))

    el = w.ELEMENTS[scale]
    zb = ll.Chain(ll.fixtures.zb())
    placement = ll.cantor_map(zb, el["cantor"]).to_csv()
    small = ll.cantor_map(zb, el["sup_prefix"])
    sup = {str(d): [str(ll.sup_extend(zb, small, a, b, d)) for a, b in w.sup_queries()]
           for d in el["depths"]}

    files = w.cli_files(scale)
    inputs = Path(tempfile.mkdtemp(prefix="record-", dir=workdir))
    for name, text in files.items():
        (inputs / name).write_text(text)
    calls, known, bad = {}, {}, []
    for slot in w.cli_slots(scale):
        for argv in slot:
            key = w.call_key(argv)
            code, out, err = w.cli_call([str(inputs / a) if a in files else a for a in argv])
            if tuple(argv) == w.KNOWN_FAILURE:
                prefix, rounds = int(argv[3]), int(argv[5])
                bunch, trace = ll.densify_driver(ll.Chain(ll.fixtures.s3()), prefix, rounds)
                known[key] = {
                    "exit": code, "stdout": w.sha256(out), "stderr": err.strip(),
                    "bunch": w.sha256(json.dumps(json.loads(ll.serialize_bunch(bunch)),
                                                 sort_keys=True)),
                    "insertions": [[r.case_tag, r.inserted_layer] for r in trace]}
            else:
                calls[key] = [code, w.sha256(out)]
                if code != 0:
                    bad.append(f"{key}: exit {code}: {err.strip()}")
    shutil.rmtree(inputs)
    if bad:
        raise SystemExit("calls that must succeed failed:\n" + "\n".join(bad))
    return {"finite": {"densify": densify},
            "elements": {"placement": w.sha256(placement), "sup": sup},
            "cli": {"calls": calls, "known": known}}


def main() -> None:
    workdir = BENCH / "out"
    workdir.mkdir(exist_ok=True)
    ref = {scale: record(scale, workdir) for scale in ("full", "tiny")}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
