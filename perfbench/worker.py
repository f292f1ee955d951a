"""One measurement in a fresh interpreter; run.py starts it and reads the
JSON object it prints as its last line.

Modes:
  run    set up the workload, then run every operation in rounds (with the
         tracer installed when --traced is given) until --seconds have
         passed and at least MIN_ROUNDS are done, or --rounds are done;
         check each output
  setup  set up the workload only
  probe  per-call costs that no workload isolates: Chain construction over
         skeleton length L, and Chain.compare/mul/residuum in microseconds

The clock for set-up starts before ``import layerlat``, so ``setup_s`` covers
the package import in a fresh interpreter plus input generation.  The speed
loop is timed just before and just after set-up, and before and after every
operation; run.py uses these times to report at the reference speed.

Every round starts as a fresh interpreter would: the package's
``functools`` caches are emptied, the workload forgets what the last round
computed, and the garbage left by the last round is collected.  The inputs
are then frozen out of the garbage collector, so that a collection during an
operation walks what the operation allocated, as in a CLI process, and not
the benchmark's own data.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_ROUNDS = 5


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_package(root: Path) -> None:
    """Import layerlat from the checkout's src/ and nowhere else."""
    import layerlat
    src = (root / "src").resolve()
    if Path(layerlat.__file__).resolve().parent.parent != src:
        raise SystemExit(f"layerlat imported from {layerlat.__file__}, not from {src}")


def build(args, ref: dict):
    import workloads
    if args.workload == "finite":
        return workloads.build_finite(args.seed, args.scale, ref)
    if args.workload == "elements":
        return workloads.build_elements(args.seed, args.scale, ref)
    return workloads.build_cli(args.seed, args.scale, ref, args.workdir)


def clear_caches() -> None:
    """Empty every functools cache of the package (ogroup's lru_caches)."""
    for name, module in list(sys.modules.items()):
        if name == "layerlat" or name.startswith("layerlat."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def speed_loop() -> int:
    """A fixed piece of pure-Python work that does not use the package but
    looks like it: closures called through a dict with tuple keys, and some
    Fraction arithmetic.  It takes about 2 ms.  Timed between operations, it
    tells how fast the machine is running this process at that moment."""
    steps = {(i, f"u{i}"): (lambda x, a=i % 7: (3 * x + a) % 1009) for i in range(400)}
    acc = 0
    for _ in range(6):
        for (i, _), f in steps.items():
            acc = f(acc) + i
    q = Fraction(1, 3)
    for i in range(1, 200):
        q = (q * Fraction(i % 11 + 1, i % 13 + 1) + 1) % 97
    return acc + q.denominator


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_round(wl, tracer, known: str) -> tuple[list[float], list[float], int, list[str]]:
    """Run every operation once.  The speed loop runs before the first
    operation and after each one, so each operation has one on each side."""
    times, failures = [], []
    speeds = [timed(speed_loop)]
    ok = 0
    for op in wl.ops:
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as e:  # an operation that raises is a failed operation
            result, error = None, f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
        if error is None:
            try:
                error = op.check(result)
            except Exception as e:  # a check that cannot read the output
                error = f"check raised {type(e).__name__}: {e}"
        del result
        times.append(seconds)
        speeds.append(timed(speed_loop))
        if error is None:
            ok += 1
        elif error != known:
            failures.append(f"{op.label}: {error}")
    return times, speeds, ok, failures


def run_rounds(args, ref: dict, t0: float, speed_before: float) -> dict:
    import workloads
    from tracer import Tracer

    wl = build(args, ref)
    setup_s = time.perf_counter() - t0
    setup_speeds = [speed_before, timed(speed_loop)]
    labels = [op.label for op in wl.ops]
    groups = [op.group for op in wl.ops]
    tracer = Tracer() if args.traced else None
    rounds, speeds, failures = [], [], []
    ok = 0
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            wl.reset()
            clear_caches()
            gc.collect()
            gc.freeze()
            started = time.perf_counter()
            try:
                times, round_speeds, round_ok, round_failures = run_round(wl, tracer,
                                                                          workloads.KNOWN)
            finally:
                gc.unfreeze()
            rounds.append(times)
            speeds.append(round_speeds)
            ok += round_ok
            failures += round_failures
            last = time.perf_counter() - started
            if len(rounds) >= args.rounds or time.perf_counter() - t0 + last > args.budget:
                break
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
    finally:
        wl.close()
    out = {"setup_s": setup_s, "setup_speeds": setup_speeds, "labels": labels, "groups": groups,
           "rounds": rounds, "speeds": speeds, "rss_mb": rss_mb(),
           "attempted": len(rounds) * len(labels), "ok": ok, "failures": failures}
    if tracer:
        out["layers"] = tracer.metrics()
        if args.spans:
            args.spans.write_text(json.dumps(tracer.span_records()))
    return out


def timed_us(fn, x, y, reps: int) -> float:
    """Median over five runs of the microseconds per call of fn(x, y)."""
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            fn(x, y)
        runs.append((time.perf_counter() - start) / reps * 1e6)
    return statistics.median(runs)


def run_probe() -> dict:
    import layerlat as ll
    import layerlat.fixtures

    out = {}
    chain = None
    for L in (64, 128, 256, 512):
        bunch = ll.fixtures.finite_bunch(2 * L - 1)
        chain = None  # release the previous chain before timing the next
        start = time.perf_counter()
        chain = ll.Chain(bunch)
        out[f"chain.init_s.L{L}"] = time.perf_counter() - start
    pairs = {
        "L2": (ll.Chain(ll.fixtures.lz2()), "t:1", "u:2", 20_000),
        "L512": (chain, "t:e", f"{chain.bunch.skeleton[-1]}:e", 1_000),
    }
    for tag, (c, lo, hi, reps) in pairs.items():
        x, y = ll.parse_element(c, lo), ll.parse_element(c, hi)
        out[f"chain.compare_us.{tag}"] = timed_us(c.compare, x, y, reps)
        out[f"chain.mul_us.{tag}"] = timed_us(c.mul, x, y, reps)
        out[f"chain.residuum_us.{tag}"] = timed_us(c.residuum, x, y, reps)
    return {"layers": out}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("run", "setup", "probe"), required=True)
    parser.add_argument("--workload", choices=("finite", "elements", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=10 ** 6, help="stop after this many")
    parser.add_argument("--budget", type=float, default=150.0,
                        help="start no round that would end later than this many seconds after start")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))

    if args.mode == "probe":
        load_package(root)
        print(json.dumps(run_probe()))
        return
    ref = json.loads(args.reference.read_text())[args.scale]
    speed_loop()  # the first run in a fresh interpreter is slower
    before = timed(speed_loop)
    t0 = time.perf_counter()
    load_package(root)
    if args.mode == "setup":
        wl = build(args, ref)
        setup_s = time.perf_counter() - t0
        after = timed(speed_loop)
        wl.close()
        print(json.dumps({"setup_s": setup_s, "setup_speeds": [before, after]}))
        return
    print(json.dumps(run_rounds(args, ref, t0, before)))


if __name__ == "__main__":
    main()
