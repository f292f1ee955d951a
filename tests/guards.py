"""The scale guards: fresh `layerlat` processes, pinned by sha256 and run
under timeouts, that keep the paper's constructions fixed at scale (the
table-to-bunch round trip, odd densification, the rational placement).
`python tests/guards.py` builds each input in-process into a temporary
directory, runs each call there with PYTHONPATH=src, and prints its wall
time beside its timeout.  It names each failure's row, file and digests,
and then exits 1.  pytest does not collect this file."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

from layerlat import Chain, densify_driver, fixtures, serialize_bunch, table_of_chain  # noqa: E402
from layerlat import ogroup as og  # noqa: E402
from layerlat.bunch import Bunch  # noqa: E402
from layerlat.embed import identity_embedding, serialize_embedding_spec  # noqa: E402
from layerlat.oracle import format_table_csv  # noqa: E402


def spec(b) -> str:
    return serialize_embedding_spec(identity_embedding(b), b) + "\n"


def table(n: int) -> str:
    return format_table_csv(table_of_chain(Chain(fixtures.finite_bunch(n)))[0])


def r4(seed: int):
    return fixtures.random_bunch(random.Random(seed), max_layers=4)


def alternating(n: int) -> Bunch:
    """n layers t, u1, ..., u{n-1}: Int and Lex(Int, Int) in turn, class I
    above t with the whole group as subgroup, stepped by inject_first and
    project_first, so the transition from t to the top folds n - 1 steps."""
    lex = og.Lex(og.INT, og.INT)
    sk = ("t",) + tuple(f"u{i}" for i in range(1, n))
    groups = {u: lex if i % 2 else og.INT for i, u in enumerate(sk)}
    steps = {(a, b): og.inject_first(lex) if groups[a] == og.INT else og.project_first(lex)
             for a, b in zip(sk, sk[1:])}
    return Bunch(sk, {u: "I" if i else "O" for i, u in enumerate(sk)}, groups,
                 {u: og.whole(groups[u]) for u in sk[1:]}, steps)


CROSSED = {"skeleton_map": {"t": "u", "u": "t"}, "layer_maps": {"t": "id", "u": "id"}}

# file name -> (builder of its text, or of a bunch as `layerlat` reads it; sha256 of the text)
INPUTS = {
    "s3.json": (fixtures.s3, "c400924ef98420e273eacb2a6fd941925b279f757145d1dc9b6c33cf48ac9ad5"),
    "zb.json": (fixtures.zb, "0bc2220980a693b69d928a0be3413b4b453dac91b83ace5b6b79e773021f379f"),
    "lz2.json": (fixtures.lz2, "04f58e5c7b883052d661e98e46f4b1a277dc2a18e9901b55083dfc8b3289fecd"),
    "t321.csv": (lambda: table(321), "630d058ce2a01f6620c00b57712f25b30032f06cb74cbfd299afa20aa2f50f31"),
    "t641.csv": (lambda: table(641), "005a723f7629a0e66038eba0fd02778ca25be76030a9cce3c4a46ce93578412e"),
    "t640.csv": (lambda: table(640), "3e0973554bea111a281c707fe1108a2e73f03b52a6bfb682f81c53a37df7a108"),
    "f97.json": (lambda: fixtures.finite_bunch(97), "126a998e7f62cd02d7e5737d8ebe4f7eabe9d0e993ba225b6a962b6a8cc90ab1"),
    "f161.json": (lambda: fixtures.finite_bunch(161), "6a3e18beac2ccd516757730f55eca7580d4aaa5c08130b7b42dfda6407c4ece2"),
    "f641.json": (lambda: fixtures.finite_bunch(641), "01770fac7a565f07fa88ef0fd164c54f7a1d4ea7138bb6f05cb3b83ef0427de2"),
    "lz4.json": (lambda: densify_driver(Chain(fixtures.lz()), 4, 4)[0], "6b3dbd6cbfcddb859392af6859c306fa0d4f80d8f5672fb57d6288255d9c3127"),
    "id161.json": (lambda: spec(fixtures.finite_bunch(161)), "232b332bac92f2ab11511b3123bf680455cfde7b11250cf1b5e106a3a7eceff5"),
    "crossed.json": (lambda: json.dumps(CROSSED, indent=2) + "\n", "0662e5dd7852e375dca128491d3eda258c0b4c1062cac65e76a423bd2af83f78"),
    "r48.json": (lambda: r4(48), "701082524eda717729fd7cbef5d5c986ce53d92234939af015e651c19c76ee94"),
    "idr48.json": (lambda: spec(r4(48)), "cbd06720c9d13baa0dfc883676ad0546e6cc1fb560b6494f9420debe39c56c9d"),
    "r9.json": (lambda: r4(9), "b399a6ccf037cecafd5c0ec52de9b2f62ff52c41841d60494021693994696236"),
    "idr9.json": (lambda: spec(r4(9)), "7a91a64236d3020d1ebc8d5b2e4a2a5dec964492c7d635e219ee48141f1ef0f3"),
    "idlz2.json": (lambda: spec(fixtures.lz2()), "c9023a62a9fe4bdddfaa2ed890845a76baa6c9d6c4a7328140818186884e4424"),
    "idzb.json": (lambda: spec(fixtures.zb()), "c9023a62a9fe4bdddfaa2ed890845a76baa6c9d6c4a7328140818186884e4424"),
    "alt10000.json": (lambda: alternating(10_000), "36c5fe446b52b3a0051ef784b7a0e515d1ef80bdbe91db0c46e527480a6b6e64"),
}

# Hashes zb's placed values of a 30,000-point prefix as hex "num/den;".
# Placement midpoints of dyadic neighbours read Fraction's _numerator and
# _denominator slots (`standardize` is the one module that does); the
# 3.10-3.13 CI matrix guards that those slots are still there.
PLACEMENT = ("import hashlib; from layerlat import Chain, cantor_map, fixtures; "
             "p = cantor_map(Chain(fixtures.zb()), 30000); "
             "print(hashlib.sha256(''.join('%x/%x;' % (q.numerator, q.denominator) "
             "for _, q in p.placed()).encode()).hexdigest())")


class Call(NamedTuple):
    """``python -m layerlat.cli *args.split()``, or ``python -c PLACEMENT``
    when ``args`` is None, whose stdout is then its own digest; ``file``
    names the output."""

    file: str
    args: str | None
    pin: str
    timeout: float = 10
    code: int = 0

    def row(self) -> str:
        return f"{self.file} ({f'layerlat {self.args}' if self.args else 'placement snippet'})"


CALLS = [
    Call("d11.json", "densify s3.json --prefix 3 --rounds 11", "83f1d9b852b858c06f3e753fa16776c69af3f7020014165f06b5443dc05c9b10", timeout=20),
    Call("std400.csv", "standardize zb.json --prefix 400 --depth 600", "89137f159a9b154ad70f86819c9f7e38b749d7c3a38ac238a2fdf5eb3fccf131"),
    Call("std4000.csv", "standardize zb.json --prefix 4000", "efc780eccdfdeb98bc7b0c498a50bc26a02c91b1ca6dca889b2e43eef9639f9e"),
    Call("cantor30000.txt", None, "b1eb1540f51030ed0f15879230b708c1c1cc33faec9c83687f4990e076b78cfe"),
    Call("dec321.json", "decompose t321.csv", "0004c827d3419825fcb178e5fd1c32f652534a16778351c0bf15d56d0ba525d8"),
    Call("dec641.json", "decompose t641.csv", "01770fac7a565f07fa88ef0fd164c54f7a1d4ea7138bb6f05cb3b83ef0427de2"),
    Call("dec640.json", "decompose t640.csv", "827c57a82782016e2d1bf6c4a84452e9f745aab554fd59770e422d9d8c7891d6"),
    Call("e13.csv", "enumerate --size 13 --bound 13", "54c4b7a315b68bbcbed50bff5130c018c0e6c906da358ee85f00ab8c74c3b2d7"),
    Call("e641.csv", "enumerate --size 641 --bound 641", "005a723f7629a0e66038eba0fd02778ca25be76030a9cce3c4a46ce93578412e"),
    Call("val161.txt", "validate f161.json", "af62e39a62e2c4e278b8cd4c1a37b936a3a2cfdf2d2b594568242536650d605a"),
    Call("vallz4.txt", "validate lz4.json", "7626a260d546dc081b4247e862543806c64b695acfae62bbeb9d38ab03f69b30"),
    Call("type641.txt", "type f641.json", "e7f4a4517ed06c6f978e27cedd3d6c0f111593eba83d578a7d95e6fdad4b39b3"),
    Call("bounded641.txt", "bounded f641.json", "e5c0a656b5e3ea0bb808af834b83572e8dd15e8c70d7913996b19ad559e54a85"),
    Call("res641.txt", "eval f641.json --op res --lhs u7:e --rhs u300:d:e", "621a8e20ce37fedf934b8de9eb55d77b83a4d9431f249eb5846c7fb1acb9d0da"),
    Call("lawslz2.txt", "--seed 1 laws lz2.json --law-samples 100000", "10515608d93b13e9e061c4ef76ea07512540aac9fe998adedf75030e194e96d2"),
    Call("laws97.txt", "--seed 1 laws f97.json --law-samples 20000", "3e52c5c58193147d78e3e8739aa8517d6ebb42279453608533a79a3ff9beb400"),
    Call("emb161.txt", "--samples 400 embed-check f161.json f161.json id161.json", "51b2f6c048e654b51dc9266132d5ea75022428b7493f11d4ab40dbb6e473cce9"),
    Call("cross.txt", "--samples 400 embed-check s3.json s3.json crossed.json", "7d6293f146b9a1e6583b935e51f2824a4f13973e7a700201f51e015e861032c6", code=1),
    Call("lawsr48.txt", "--seed 1 laws r48.json --law-samples 100000", "10515608d93b13e9e061c4ef76ea07512540aac9fe998adedf75030e194e96d2"),
    Call("embr48.txt", "--samples 400 embed-check r48.json r48.json idr48.json", "2308e278dc0de79935db339afe029668bbb23e23276194ad6d84a06aaf5c918a"),
    Call("lawsr9.txt", "--seed 1 laws r9.json --law-samples 100000", "10515608d93b13e9e061c4ef76ea07512540aac9fe998adedf75030e194e96d2"),
    Call("embr9.txt", "--samples 400 embed-check r9.json r9.json idr9.json", "b2da1ecf0bbc49afe2da38baff3b2f9e7f659230d51a3f2bd65331cb999076e3"),
    # 80,200 product pairs each, over lifted, tabled and class-I layer blocks
    Call("emblz2.txt", "--samples 400 embed-check lz2.json lz2.json idlz2.json", "3bf55e1b218366b564c5bb7ca6efb4aeafbc604fe8ce4cc1207b7e48e4d6a13f"),
    Call("embzb.txt", "--samples 400 embed-check zb.json zb.json idzb.json", "f79fcac36f554ce61b243925f18a7fdb71738221c5f0905aff6b9b6c36d61cde"),
    # no sampled clause at --samples 0, and the transition term is one stage, inject_first
    Call("alt.txt", "--samples 0 eval alt10000.json --op cmp --lhs t:1 --rhs u9999:(0,0)", "e1e063eb0197bdf5b4e66acaf9b17de776d318552be2a8bf2e8d0b92b818f7e8", timeout=5),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_inputs(workdir: Path) -> list[str]:
    """Write every input file into ``workdir``; one message per wrong digest."""
    failures = []
    for name, (build, pin) in INPUTS.items():
        built = build()
        data = (built if isinstance(built, str) else serialize_bunch(built) + "\n").encode()
        (workdir / name).write_bytes(data)
        if sha256(data) != pin:
            failures.append(f"FAIL input {name}: sha256 expected {pin}, got {sha256(data)}")
    return failures


def run_call(call: Call, workdir: Path) -> tuple[float, str | None]:
    """Run ``call`` in ``workdir``: its wall time, and None or a failure."""
    argv = ["-m", "layerlat.cli", *call.args.split()] if call.args else ["-c", PLACEMENT]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=workdir, capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=call.timeout)
    except subprocess.TimeoutExpired:
        return call.timeout, f"FAIL {call.row()}: no exit within {call.timeout:g} s"
    wall = time.perf_counter() - start
    if proc.returncode != call.code:
        err = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return wall, (f"FAIL {call.row()}: exit code expected {call.code}, "
                      f"got {proc.returncode}" + "".join(f": {line}" for line in err))
    got = sha256(proc.stdout) if call.args else proc.stdout.decode().strip()
    if got != call.pin:
        return wall, f"FAIL {call.row()}: sha256 expected {call.pin}, got {got}"
    return wall, None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="layerlat-guards-") as tmp:
        failures = build_inputs(Path(tmp))
        for failure in failures:
            print(failure)
        for call in CALLS:
            wall, failure = run_call(call, Path(tmp))
            print(f"{wall:6.2f} s of {call.timeout:>2g} s  {call.row()}", flush=True)
            if failure:
                print(failure)
                failures.append(failure)
    print(f"{len(failures)} of {len(INPUTS) + len(CALLS)} scale guards failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
