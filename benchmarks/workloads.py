"""The four benchmark workloads: what each sets up, runs and checks.

Every op is one in-process ``sigmac.cli.main(argv)`` call.  A workload has
a set-up (the artifacts its ops read, built with the CLI), an endless,
seeded sequence of ops, and a check per op that runs outside the timed
region and uses the oracles in ``oracles.py``, never sigmac itself.

Op sizes are stratified.  Rounds per simulate op take five levels, from
0.6 to 1.4 times a base count, and identity sweeps take nine grids.  Each
size sequence runs through all of its levels in a shuffled order before it
repeats, so every seed's op pool holds the same mix of sizes; the seed
picks the order, the codes, the error patterns and the bounds grids.  The
quantiles then do not move with how many large sizes one seed happened to
draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import oracles
from sigmac import cli

Check = Callable[[int, str], Optional[str]]


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check
    out: Optional[Path] = None
    rounds: int = 0


@dataclass
class Workload:
    name: str
    setup: Callable[[Path, int], dict[str, Path]]
    ops: Callable[[random.Random, dict[str, Path], Path], Iterator[Op]]
    expected_layers: tuple[str, ...]
    absent_layers: tuple[str, ...]
    dominant_module: str
    pool: int


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI call; a traceback counts as exit 70."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 70
    return code, out.getvalue(), err.getvalue()


def fingerprint(op: Op, stdout: str) -> str:
    data = op.out.read_bytes() if op.out is not None else stdout.encode()
    return hashlib.sha256(data).hexdigest()


def child_seed(rng: random.Random) -> str:
    return str(rng.getrandbits(31))


def stratified(rng: random.Random, values) -> Iterator:
    """Endless draws that run through all `values`, shuffled anew each time."""
    values = list(values)
    while True:
        order = values[:]
        rng.shuffle(order)
        yield from order


def levels(base: int) -> list[int]:
    """Five op sizes around `base` (see the module docstring)."""
    return sorted({max(1, round(base * f)) for f in (0.6, 0.8, 1.0, 1.2, 1.4)})


def check_artifact(path: Path) -> Optional[str]:
    """The envelope's d_min must equal the brute force; codes built for a
    budget t (random, rs-augment) must also reach 2t + 1."""
    env = json.loads(path.read_text())
    matrix = env.get("matrix") or env.get("extended") or env.get("composed")
    d = oracles.d_min(matrix["rows"])
    if d != env["d_min"]:
        return f"{path.name}: envelope d_min {env['d_min']} != brute force {d}"
    if env["kind"] != "kronecker" and d < 2 * env["design_t"] + 1:
        return f"{path.name}: d_min {d} < {2 * env['design_t'] + 1}"
    return None


# -- construct-random -------------------------------------------------------

# The planned length for n=10, t=1 is k=10, where 47% of 150 seeds accepted
# their first draw.  op_s.p50 then sits on the step between the cost of one
# draw and of two, and jumps from seed to seed.  At k=11, 78% accept the
# first draw, so the median lies inside the one-draw costs and the rejected
# draws make the tail.

def construct_random_ops(n: int, k: int):
    def ops(rng, artifacts, work):
        out = work / "construct.json"

        def check(code, stdout):
            if code != 0:
                return f"exit {code}"
            env = json.loads(out.read_text())
            matrix = env["matrix"]
            if (matrix["q"], matrix["n"], matrix["k"], env["design_t"]) != (3, n, k, 1):
                return f"envelope is not a q=3, n={n}, k={k}, t=1 code"
            return check_artifact(out)

        while True:
            yield Op("construct", ["construct", "--method", "random", "--q", "3",
                                   "--n", str(n), "--k", str(k), "--t", "1",
                                   "--seed", child_seed(rng), "--out", str(out)],
                     check, out=out)
    return ops


def no_setup(work: Path, seed: int) -> dict[str, Path]:
    return {}


# -- simulate-generic and simulate-structured ------------------------------

_SIM_LINE = re.compile(r"simulate: rounds=(\d+) t=(\d+) mode=(\S+) failures=(\d+)")


def simulate_op(name: str, path: Path, mode: str, rounds: int, seed: str) -> Op:
    def check(code, stdout):
        match = _SIM_LINE.search(stdout)
        if code != 0 or match is None:
            return f"{name}: exit {code}, output {stdout.strip()!r}"
        if int(match.group(1)) != rounds or match.group(3) != mode:
            return f"{name}: ran {match.group(1)} rounds in mode {match.group(3)}"
        if int(match.group(4)) != 0:
            return f"{name}: {match.group(4)} failed rounds"
        return None

    return Op(f"simulate {name} {mode}",
              ["simulate", "--in", str(path), "--rounds", str(rounds),
               "--seed", seed, "--error-mode", mode],
              check, rounds=rounds)


RANDOM_MODE = "random-positions-random-values"
WORST_MODE = "worst-case-from-witness"


def build(work: Path, name: str, argv: list[str]) -> Path:
    path = work / f"{name}.json"
    code, stdout, stderr = run_cli(["construct", *argv, "--out", str(path)])
    if code != 0:
        raise RuntimeError(f"set-up construct {name} exited {code}: {stderr.strip()}")
    return path


def generic_setup(n: int, k: int, codes: int):
    def setup(work, seed):
        rng = random.Random(f"generic-{seed}")
        return {f"code{i}": build(work, f"code{i}",
                                  ["--method", "random", "--q", "3", "--n", str(n),
                                   "--t", "1", "--k", str(k), "--seed", child_seed(rng)])
                for i in range(codes)}
    return setup


def generic_ops(rounds: int):
    def ops(rng, artifacts, work):
        names = sorted(artifacts)
        sizes = {name: stratified(rng, levels(rounds)) for name in names}
        index = 0
        while True:
            name = names[index % len(names)]
            index += 1
            yield simulate_op(name, artifacts[name], RANDOM_MODE, next(sizes[name]),
                              child_seed(rng))
    return ops


KRONECKER = ["--method", "kronecker", "--q", "3", "--epsilon", "1/16",
             "--p", "3", "--s", "2", "--inner-t", "1"]


def structured_setup(work, seed):
    rng = random.Random(f"structured-{seed}")
    return {
        "rs5": build(work, "rs5", ["--method", "rs-augment", "--n", "5", "--t", "2"]),
        "rs8": build(work, "rs8", ["--method", "rs-augment", "--n", "8", "--t", "2"]),
        "kron-rep": build(work, "kron-rep",
                          [*KRONECKER, "--r", "1", "--outer", "repetition", "--c1", "6",
                           "--seed", child_seed(rng)]),
        "kron-search": build(work, "kron-search",
                             [*KRONECKER, "--r", "3", "--seed", child_seed(rng)]),
    }


# (artifact, mode, base rounds): at the base count every kind costs about
# 40 ms, so the kinds share one broad band of op times, and worst-case ops
# carry about a seventh of all rounds.  Worst-case mode on rs8 would
# re-run its 3^8 verifier every round and swamp the decoders.
STRUCTURED_ROTATION = (
    ("rs5", RANDOM_MODE, 130),
    ("rs8", RANDOM_MODE, 80),
    ("kron-rep", RANDOM_MODE, 167),
    ("kron-search", RANDOM_MODE, 127),
    ("rs5", WORST_MODE, 58),
    ("kron-search", WORST_MODE, 25),
)


def structured_ops(scale: float):
    def ops(rng, artifacts, work):
        sizes = [stratified(rng, levels(max(1, round(rounds * scale))))
                 for _, _, rounds in STRUCTURED_ROTATION]
        index = 0
        while True:
            kind = index % len(STRUCTURED_ROTATION)
            name, mode, _ = STRUCTURED_ROTATION[kind]
            index += 1
            yield simulate_op(name, artifacts[name], mode, next(sizes[kind]), child_seed(rng))
    return ops


# -- tables -----------------------------------------------------------------

_SWEEP_LINE = re.compile(r"identity sweep: (\d+) checks, (\d+) failures")
BOUNDS_Q = (2, 3, 4, 5, 7)


def tables_ops(table_q: int, table_ns: tuple[int, ...], sweep_q: int, sweep_n: int,
               bounds_n: int):
    """Rotation table, sweep, bounds-t, sweep, bounds-tau.

    Bounds ops are the fastest, the sweeps in between and the tables the
    slowest, so p50 lands among the sweeps and p90 among the tables.  Tables
    cycle through the row counts in table_ns; sweeps run through nine grids,
    qmax from sweep_q - 2 to sweep_q and three nmax up to sweep_n.
    The triangle cache persists across ops, as for a library caller.
    """
    def ops(rng, artifacts, work):
        table_out = work / "table.csv"
        bounds_out = work / "bounds.json"
        verified: dict[int, str] = {}

        def table(nmax):
            def check(code, stdout):
                if code != 0:
                    return f"table exit {code}"
                digest = hashlib.sha256(table_out.read_bytes()).hexdigest()
                if nmax not in verified:
                    problem = oracles.table_mismatch(table_out, range(2, table_q + 1), nmax)
                    if problem:
                        return f"table: {problem}"
                    verified[nmax] = digest
                return None if digest == verified[nmax] else "table differs from verified one"
            return Op("pascal table", ["pascal", "--table", "--qmax", str(table_q),
                                       "--nmax", str(nmax), "--out", str(table_out)],
                      check, out=table_out)

        def sweep(qmax, nmax):
            def check(code, stdout):
                match = _SWEEP_LINE.search(stdout)
                if code != 0 or match is None:
                    return f"sweep exit {code}"
                expected = oracles.sweep_check_count(qmax, nmax)
                if (int(match.group(1)), int(match.group(2))) != (expected, 0):
                    return f"sweep q<={qmax} n<={nmax}: {match.group(0)}, expected {expected} checks"
                return None
            return Op("pascal sweep", ["pascal", "--identity-sweep", "--qmax", str(qmax),
                                       "--nmax", str(nmax)], check)

        def bounds(mode_args):
            ns = sorted(rng.sample(range(64, 1 << 24), bounds_n))

            def check(code, stdout):
                if code != 0:
                    return f"bounds exit {code}"
                reports = json.loads(bounds_out.read_text())["reports"]
                grid = [(n, q) for n in ns for q in BOUNDS_Q]
                if [(r["n"], r["q"]) for r in reports] != grid:
                    return "bounds grid differs from the request"
                for r in reports:
                    values = (r["converse_binary_k"], r["achievable_random_k"],
                              r["explicit_rs_k"], r["kronecker_k"])
                    # explicit_rs_k is inf where the RS family has no length.
                    if not all(v > 0 for v in values):
                        return f"bounds n={r['n']} q={r['q']}: length not positive"
                return None
            return Op(f"bounds {mode_args[0]}",
                      ["bounds", "--n", ",".join(map(str, ns)),
                       "--q", ",".join(map(str, BOUNDS_Q)), *mode_args,
                       "--format", "json", "--out", str(bounds_out)],
                      check, out=bounds_out)

        tables = [table(nmax) for nmax in table_ns]
        low = sweep_n * 7 // 10
        grids = stratified(rng, [(qmax, nmax) for qmax in range(max(2, sweep_q - 2), sweep_q + 1)
                                 for nmax in (low, (low + sweep_n) // 2, sweep_n)])
        index = 0
        while True:
            yield tables[index % len(tables)]
            index += 1
            yield sweep(*next(grids))
            yield bounds(["--t", "1"])
            yield sweep(*next(grids))
            yield bounds(["--tau", "0.05"])
    return ops


# -- registry ---------------------------------------------------------------

CORE_VERIFY = "core.min_distinguishing_weight"
TABLE_LAYERS = ("pascal.row", "pascal.check_convolution_identity", "pascal.check_dominance",
                "pascal.check_central_bounds", "pascal.check_multinomial_bound",
                "bounds.bound_table")
STRUCTURED_LAYERS = ("linear.rs_decode", "constructions.rs_augmented_decode",
                     "linear.integer_lift_decode", "constructions.kronecker_decode")


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The workloads by name; ``tiny`` shrinks every size for the smoke test."""
    return {w.name: w for w in (
        Workload(
            "construct-random",
            no_setup, construct_random_ops(6, 7) if tiny else construct_random_ops(10, 11),
            expected_layers=(CORE_VERIFY, "constructions.construct_random", "cli.main"),
            absent_layers=("core.decode_min_distance", *STRUCTURED_LAYERS, *TABLE_LAYERS),
            dominant_module="core", pool=4 if tiny else 200),
        Workload(
            "simulate-generic",
            generic_setup(8, 12, 2) if tiny else generic_setup(12, 16, 5),
            generic_ops(10),
            expected_layers=("core.decode_min_distance", "core.simulate_round",
                             CORE_VERIFY, "cli.main"),
            absent_layers=("core.adversarial_witness", *STRUCTURED_LAYERS, *TABLE_LAYERS),
            dominant_module="core", pool=6 if tiny else 100),
        Workload(
            "simulate-structured",
            structured_setup, structured_ops(0.1 if tiny else 1.0),
            expected_layers=("core.adversarial_witness", CORE_VERIFY, "core.simulate_round",
                             *STRUCTURED_LAYERS, "constructions.from_json",
                             "constructions.find_inner_matrix", "linear.build_outer_code",
                             "linear.min_distance", "cli.main"),
            absent_layers=("core.decode_min_distance", *TABLE_LAYERS),
            dominant_module="linear", pool=12 if tiny else 150),
        Workload(
            "tables",
            no_setup,
            tables_ops(4, (20, 30, 40), 4, 10, 8) if tiny
            else tables_ops(7, (200, 120, 140, 160, 180), 8, 40, 32),
            expected_layers=(*TABLE_LAYERS, "cli.main"),
            absent_layers=(CORE_VERIFY, "core.decode_min_distance", *STRUCTURED_LAYERS),
            dominant_module="pascal", pool=5 if tiny else 90),
    )}
