"""layerlat benchmark: one workload, closed loop, one process at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite --seed 1 --seconds 20 --trace 0

With --trace 0 it runs rounds of the workload's operations in one fresh
interpreter for --seconds (at least five rounds), then set-up-only
interpreters, and reports the end-to-end metrics of BENCHMARK.json.  With
--trace 1 it runs one plain and one traced round of every workload and the
per-call probe, and reports the per-layer metrics.
Every operation's output is checked; the last line of standard output is one
JSON object {correct, attempted, failed, metrics}, and the exit code is 1
when an output check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("finite", "elements", "cli")
CLI_SUBCOMMANDS = ("validate", "type", "bounded", "eval", "table", "decompose",
                   "embed-check", "fill-gap", "densify", "enumerate", "standardize", "laws")
REF_S = 0.002  # the time of one speed loop at the reference speed
MIN_SETUPS = 15
BUDGET_S = 150  # stop starting workers past this, to end well within 180 s


class WorkerFailed(Exception):
    pass


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def meta(root: Path) -> dict:
    """Python version, git revision and dirty flag (None outside a git
    work tree), a digest of src/, and the CPUs this process may use."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args: str) -> str | None:
        try:
            r = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                               text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if revision else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "revision": revision,
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest(), "nproc": len(os.sched_getaffinity(0))}


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
        self.env.pop("LAYERLAT_SAMPLES", None)
        self.workdir = BENCH / "out"
        self.workdir.mkdir(exist_ok=True)
        self.extra: dict = {}  # written to the result file only

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def worker(self, mode: str, *extra: str, workload: str | None = None) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
               "--workload", workload or a.workload, "--seed", str(a.seed), "--scale", a.scale,
               "--reference", str(a.reference), "--workdir", str(self.workdir), *extra]
        try:
            r = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                               text=True, timeout=max(10.0, 175 - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} worker timed out") from None
        if r.returncode != 0 or not r.stdout.strip():
            raise WorkerFailed(f"{mode} worker exited {r.returncode}:\n{r.stderr[-4000:]}")
        return json.loads(r.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def at_reference_speed(run: dict) -> list[float]:
    """Each operation's time at the reference speed, in seconds.

    The speed of a shared machine swings by up to 80% from one tenth of a
    second to the next and drifts over minutes (see README.md), so raw times
    measure the neighbours as much as the program.  The worker times the
    speed loop before and after every operation.  An operation's time summed
    over the rounds, divided by the summed time of the speed loops on either
    side of it, is its cost in speed loops, whatever the machine's speed; at
    the reference speed a speed loop takes REF_S seconds."""
    n = len(run["labels"])
    return [REF_S * sum(r[i] for r in run["rounds"])
            / sum((s[i] + s[i + 1]) / 2 for s in run["speeds"]) for i in range(n)]


def plain(runner: Runner) -> tuple[dict, dict, list]:
    a = runner.args
    run = runner.worker("run", "--seconds", f"{a.seconds:g}",
                        "--budget", f"{BUDGET_S - runner.elapsed():.1f}")
    setup_runs = [run]
    while len(setup_runs) < MIN_SETUPS and runner.elapsed() < BUDGET_S:
        setup_runs.append(runner.worker("setup"))
    setups = [REF_S * r["setup_s"] / statistics.mean(r["setup_speeds"]) for r in setup_runs]
    rounds = run["rounds"]
    ops = at_reference_speed(run)
    metrics = {
        "wall_ref_s": sum(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["rss_mb"],
        "ok_ratio": run["ok"] / run["attempted"],
        "call_p50_ref_ms": statistics.median(ops) * 1000,
        "call_p95_ref_ms": percentile(ops, 95) * 1000,
    }
    per_op = f"{len(ops)} operations, {len(rounds)} rounds, at reference speed"
    above = sum(t * 1000 > metrics["call_p95_ref_ms"] for t in ops)
    samples = {"wall_ref_s": per_op, "setup_s": f"median of {len(setups)} set-ups",
               "peak_rss_mb": f"one process, {len(rounds)} rounds",
               "ok_ratio": f"{run['attempted']} operations",
               "call_p50_ref_ms": per_op, "call_p95_ref_ms": f"{per_op}, {above} above"}
    raw = [sum(r[i] for r in rounds) / len(rounds) for i in range(len(ops))]
    runner.extra.update(labels=run["labels"], rounds=rounds, speeds=run["speeds"], setups=setups,
                        raw_setups=[r["setup_s"] for r in setup_runs], raw_wall_s=sum(raw),
                        raw_call_p50_ms=statistics.median(raw) * 1000)
    return metrics, samples, [run]


def merge_layers(per_workload: dict[str, dict]) -> dict:
    """Per-layer metrics of the whole mix: counts and times add up over the
    workloads, sizes take the largest, ratios are taken of the sums."""
    ls = list(per_workload.values())
    out = {k: sum(l[k] for l in ls) for k in ls[0]}
    for k in ("ogroup.hom_fn.cache_size", "ogroup.member_fn.cache_size",
              "densify.final_layers", "standardize.max_den_bits"):
        out[k] = max(l[k] for l in ls)
    searched = out["oracle.check_flea_axioms.searched"]
    out["oracle.accept_ratio"] = out["oracle.tables_returned"] / searched if searched else 0.0
    inserted = out["densify.insertions"]
    out["densify.chain_builds_per_insertion"] = (out["densify.chain_builds"] / inserted
                                                 if inserted else 0.0)
    return out


def wall(run: dict) -> float:
    return sum(run["rounds"][0])


def traced(runner: Runner) -> tuple[dict, dict, list]:
    """One plain and one traced round of every workload, then the probe.

    Every layer is exercised by some workload but none by all of them, so
    the per-layer metrics cover the three-workload mix; the per-workload
    breakdown goes to the result file and the spans files."""
    a = runner.args
    plains, traces = {}, {}
    for w in WORKLOADS:
        plains[w] = runner.worker("run", "--rounds", "1", workload=w)
        spans = runner.workdir / f"spans-{w}-seed{a.seed}.json"
        traces[w] = runner.worker("run", "--rounds", "1", "--traced", "--spans", str(spans),
                                  workload=w)
    probe = runner.worker("probe")["layers"]
    by_workload = {w: t["layers"] for w, t in traces.items()}
    metrics = merge_layers(by_workload)
    metrics.update(probe)
    metrics["trace.overhead_ratio"] = wall(traces[a.workload]) / wall(plains[a.workload])
    cli_calls = list(zip(plains["cli"]["groups"], at_reference_speed(plains["cli"])))
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.p50_ms"] = statistics.median(s * 1000 for g, s in cli_calls if g == sub)
    samples = {k: "traced round of each workload" for k in metrics}
    samples.update({k: "probe" for k in probe})
    samples["trace.overhead_ratio"] = f"one traced and one plain round of {a.workload}"
    for sub in CLI_SUBCOMMANDS:
        n = sum(1 for g, _ in cli_calls if g == sub)
        samples[f"cli.{sub}.p50_ms"] = f"{n} calls in a plain cli round"
    runner.extra["layers_by_workload"] = by_workload
    runner.extra["overhead_by_workload"] = {w: wall(traces[w]) / wall(plains[w]) for w in WORKLOADS}
    return metrics, samples, list(plains.values()) + list(traces.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test only")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "layerlat" / "__init__.py").is_file():
        fail(f"no src/layerlat under {root}; run from the root of a checkout", 2)
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    info = meta(root)
    runner = Runner(args, root)
    try:
        metrics, samples, runs = (traced if args.trace else plain)(runner)
    except WorkerFailed as e:
        fail(str(e), 1)

    failures = [f for p in runs for f in p["failures"]]
    attempted = sum(p["attempted"] for p in runs)
    ok = sum(p["ok"] for p in runs)
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail(f"metrics not measured: {missing}", 1)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print("meta " + json.dumps(info, sort_keys=True))
    width = max(len(n) for n in units)
    for name, unit in units.items():
        print(f"  {name:{width}s} {metrics[name]:>14.6g} {unit:6s} {samples[name]}")
    print(f"  fail_ratio {(attempted - ok) / attempted:.6g} = {attempted - ok} of {attempted} "
          f"operations ({len(failures)} output-check failures, "
          f"{attempted - ok - len(failures)} known failures)")
    if not args.trace:
        x = runner.extra
        print(f"  raw, as measured: wall {x['raw_wall_s']:.6g} s and call p50 "
              f"{x['raw_call_p50_ms']:.6g} ms (mean over rounds), set-up "
              f"{statistics.median(x['raw_setups']):.6g} s (median)")
        print("  unmeasured: queueing and waiting (one process, one thread, closed loop)")
    else:
        print("  unmeasured from outside: time inside ogroup primitives and in the "
              "transition closures Chain.__init__ captures (no public boundary to wrap); "
              "Chain.compare/mul/negate get counts, not time")
    for f in failures[:20]:
        print(f"perfbench: output check failed: {f}", file=sys.stderr)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    record = dict(result, **runner.extra, meta=info, samples=samples, failures=failures,
                  workload=args.workload, seed=args.seed, trace=args.trace, scale=args.scale)
    out = runner.workdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
