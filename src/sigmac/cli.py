"""Command-line front end: construct, verify, simulate, and tabulate.

Exit codes follow the scriptable contract: 0 on success, 1 when a checked
property fails (a construction or simulation found a real violation), 2 on
usage errors.  All randomness flows from one explicit --seed through
counter-based child seeds, never from the clock, so identical invocations
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bounds as bounds_mod
from . import constructions as cons
from . import core, pascal
from .errors import CapacityError, ConstructionFailure, SigmacError

DEFAULT_SEED = 271828  # fixed constant; never wall-clock

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# simulate encodes and decodes this many rounds at a time, which bounds its
# memory whatever --rounds is.
SIMULATE_CHUNK = 256


@contextlib.contextmanager
def _output(out: Optional[str]):
    """The --out file, opened for writing, or standard output."""
    if out:
        with open(out, "w") as stream:
            yield stream
    else:
        yield sys.stdout


def _write_output(text: str, out: Optional[str]) -> None:
    with _output(out) as stream:
        stream.write(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmac",
        description="Signature codes for the noisy integer-adder multiple access channel",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pascal = sub.add_parser("pascal", help="triangle rows, identity sweeps, CSV tables")
    p_pascal.add_argument("--q", type=int, help="alphabet size (>= 2)")
    p_pascal.add_argument("--n", type=int, help="row index (>= 0)")
    p_pascal.add_argument("--row", action="store_true", help="print row n of the q-ary triangle")
    p_pascal.add_argument("--identity-sweep", action="store_true",
                          help="check every identity and bound over the grid")
    p_pascal.add_argument("--table", action="store_true",
                          help="emit CSV q,n,k,coefficient over the grid")
    # None when not given, so that a mode which ignores them can say so.
    p_pascal.add_argument("--qmax", type=int)
    p_pascal.add_argument("--nmax", type=int)
    p_pascal.add_argument("--out")

    p_con = sub.add_parser("construct", help="build a code and write its JSON artifact")
    p_con.add_argument("--method", required=True,
                       choices=["trivial", "rs-augment", "random", "kronecker"])
    p_con.add_argument("--q", type=int, default=2)
    p_con.add_argument("--n", type=int)
    p_con.add_argument("--k", type=int, help="length override for the random method")
    p_con.add_argument("--t", type=int, default=1)
    p_con.add_argument("--tau", type=_parse_fraction,
                       help="linear error fraction for the random method "
                            "(t becomes floor(tau * k))")
    p_con.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_con.add_argument("--max-attempts", type=int, default=100)
    p_con.add_argument("--epsilon", type=_parse_fraction,
                       help="total slack for the kronecker method, e.g. 1/16")
    p_con.add_argument("--p", type=int, help="inner matrix rows (kronecker)")
    p_con.add_argument("--s", type=int, help="inner matrix columns (kronecker)")
    p_con.add_argument("--r", type=int, help="outer code dimension (kronecker)")
    p_con.add_argument("--outer", default="search", choices=["search", "repetition"])
    p_con.add_argument("--c1", type=int, help="outer length multiplier override")
    p_con.add_argument("--inner-t", type=int,
                       help="override the planned inner error tolerance")
    p_con.add_argument("--limit-z", type=int, help="3^n verification budget")
    p_con.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="round-trip an artifact under adversarial errors")
    p_sim.add_argument("--in", dest="artifact", required=True)
    p_sim.add_argument("--rounds", type=int, default=100)
    p_sim.add_argument("--t", type=int, help="error budget override")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--error-mode", default=core.RANDOM_ERRORS,
                       choices=[core.RANDOM_ERRORS, core.WORST_CASE_ERRORS])
    p_sim.add_argument("--limit-z", type=int)
    p_sim.add_argument("--limit-u", type=int)

    p_bounds = sub.add_parser("bounds", help="tabulate converse/achievability lengths")
    p_bounds.add_argument("--n", required=True, help="comma-separated sizes, e.g. 1024,16384")
    p_bounds.add_argument("--q", default="2", help="comma-separated alphabet sizes")
    group = p_bounds.add_mutually_exclusive_group()
    group.add_argument("--t", type=int, help="constant error budget")
    group.add_argument("--tau", type=_parse_fraction, help="linear error fraction")
    p_bounds.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p_bounds.add_argument("--out")
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process.

    Parsing does not change a parser, so one serves every call; it is kept
    apart from build_parser(), whose callers may add arguments to theirs.
    """
    return build_parser()


def cmd_pascal(args: argparse.Namespace) -> int:
    if args.row + args.identity_sweep + args.table != 1:
        print("pascal: choose exactly one of --row, --identity-sweep, --table",
              file=sys.stderr)
        return EXIT_USAGE
    if args.row:
        if args.qmax is not None or args.nmax is not None:
            print("pascal: --row takes --q and --n, not --qmax or --nmax", file=sys.stderr)
            return EXIT_USAGE
        if args.q is None or args.n is None or args.q < 2 or args.n < 0:
            print("pascal --row needs --q >= 2 and --n >= 0", file=sys.stderr)
            return EXIT_USAGE
        _write_output(" ".join(map(str, pascal.row(args.q, args.n))) + "\n", args.out)
        return EXIT_OK
    mode = "--table" if args.table else "--identity-sweep"
    if args.n is not None:
        print(f"pascal: {mode} takes --nmax, not --n", file=sys.stderr)
        return EXIT_USAGE
    if args.identity_sweep and args.q is not None:
        print("pascal: --identity-sweep takes --qmax, not --q", file=sys.stderr)
        return EXIT_USAGE
    qmax = 4 if args.qmax is None else args.qmax
    nmax = 8 if args.nmax is None else args.nmax
    q_values = [args.q] if args.q is not None else range(2, qmax + 1)
    if not q_values or nmax < 0:
        print("pascal: need --qmax >= 2 and --nmax >= 0", file=sys.stderr)
        return EXIT_USAGE
    if min(q_values) < 2:
        print("pascal: q must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.table:
        # One row's lines at a time: the whole table runs to megabytes.
        with _output(args.out) as stream:
            stream.write("q,n,k,coefficient\n")
            for q in q_values:
                for n in range(nmax + 1):
                    prefix = f"{q},{n},"
                    stream.write("".join([f"{prefix}{k},{c}\n"
                                          for k, c in enumerate(pascal.row(q, n))]))
        return EXIT_OK
    failures = checks = 0
    for q in q_values:
        for n in range(nmax + 1):
            for j in range(n + 1):
                conv = pascal.check_convolution_identity(q, n, j)
                dom = pascal.check_dominance(q, n, j)
                checks += 2
                if not conv.holds:
                    failures += 1
                    print(f"FAIL convolution q={q} n={n} j={j}: "
                          f"{conv.lhs} != {conv.rhs}", file=sys.stderr)
                if not dom.holds or dom.equal != (j == 0):
                    failures += 1
                    print(f"FAIL dominance q={q} n={n} j={j}", file=sys.stderr)
            if n >= 1 and (n * (q - 1)) % 2 == 0:
                cb = pascal.check_central_bounds(q, n)
                checks += 1
                if not (cb.power_bound and cb.sqrt_bound):
                    failures += 1
                    print(f"FAIL central bounds q={q} n={n}", file=sys.stderr)
    for length in range(1, 5):
        for parts in itertools.product(range(1, 6), repeat=length):
            checks += 1
            if not pascal.check_multinomial_bound(list(parts)):
                failures += 1
                print(f"FAIL multinomial bound {parts}", file=sys.stderr)
    print(f"identity sweep: {checks} checks, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        if args.method != "kronecker" and args.n is None:
            raise ValueError("--n is required")
        if args.method == "trivial":
            code = cons.PlainCode(cons.construct_trivial(args.n), 0, {"kind": "trivial"})
        elif args.method == "rs-augment":
            code = cons.rs_augment(cons.construct_trivial(args.n), args.t)
        elif args.method == "random":
            t, k = args.t, args.k
            if args.tau is not None:
                if k is None:
                    k = cons.plan_random_length(args.n, args.q, bounds_mod.LinearTau(args.tau))
                t = math.floor(args.tau * k)
            code = cons.construct_random(args.n, args.q, t, args.seed,
                                         max_attempts=args.max_attempts,
                                         k_override=k, limit=args.limit_z)
        else:  # kronecker
            if args.epsilon is None or not (args.p and args.s and args.r):
                raise ValueError("kronecker needs --epsilon, --p, --s, --r")
            code = cons.build_kronecker(args.q, args.epsilon, args.p, args.s,
                                        args.r, seed=args.seed,
                                        outer_kind=args.outer,
                                        t_inner=args.inner_t, c1=args.c1)
    except ConstructionFailure as exc:
        print(f"construction failed after {exc.attempts} attempts: {exc}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    except CapacityError as exc:
        print(f"construct: {exc}; raise --limit-z to override", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, SigmacError) as exc:
        print(f"construct: {exc}", file=sys.stderr)
        return EXIT_USAGE
    matrix, envelope = code.matrix, {**code.to_json(), "seed": args.seed}
    # A random envelope carries d_min from the walk that accepted its matrix.
    if "d_min" not in envelope:
        try:
            envelope["d_min"] = core.min_distinguishing_weight(matrix, args.limit_z).d_min
        except CapacityError:
            envelope["d_min"] = None
    _write_output(core.dumps_canonical(envelope), args.out)
    print(f"{args.method}: wrote {args.out} "
          f"(k={matrix.k}, n={matrix.n}, q={matrix.q}, d_min={envelope['d_min']})")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        code = cons.load_artifact(json.loads(Path(args.artifact).read_text()))
    except (OSError, ValueError, CapacityError) as exc:
        print(f"simulate: cannot load artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    matrix = code.matrix
    t = code.design_t if args.t is None else args.t
    try:
        code.decoder(t, args.limit_u)  # checks the 2^n budget before any round
    except CapacityError as exc:
        print(f"simulate: {exc}; raise --limit-u to override", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= t <= matrix.k or args.rounds < 0:
        print(f"simulate: need 0 <= t <= k = {matrix.k} and --rounds >= 0",
              file=sys.stderr)
        return EXIT_USAGE
    witness = None
    if args.error_mode == core.WORST_CASE_ERRORS:
        try:
            witness = core.adversarial_witness(matrix, t, args.limit_z)
        except CapacityError as exc:
            print(f"simulate: {exc}; raise --limit-z to override", file=sys.stderr)
            return EXIT_USAGE
        if witness is not None and args.t is None:
            print(f"simulate: the matrix does not tolerate the artifact's design_t = {t}",
                  file=sys.stderr)
            return EXIT_USAGE
    import numpy as np

    decode_batch = functools.partial(code.decode_batch, t=t, limit_u=args.limit_u)
    failures = 0
    for start in range(0, args.rounds, SIMULATE_CHUNK):
        indices = range(start, min(start + SIMULATE_CHUNK, args.rounds))
        # Each round's activity vector and errors come from its own seeds.
        us = []
        for index in indices:
            u_rng = random.Random(core.derive_seed(args.seed, "activity", index))
            us.append([u_rng.randint(0, 1) for _ in range(matrix.n)])
        records = core.simulate_round(
            matrix, np.array(us, dtype=np.int64), t, args.error_mode,
            seed=[core.derive_seed(args.seed, "round", index) for index in indices],
            decode_batch=decode_batch, witness=witness,
        )
        for index, record in zip(indices, records):
            if not record.success:
                failures += 1
                if failures <= 10:
                    print(f"round {index}: transmitted={record.transmitted} "
                          f"decoded={record.decoded} errors={record.errors} "
                          f"{record.note}", file=sys.stderr)
    print(f"simulate: rounds={args.rounds} t={t} mode={args.error_mode} "
          f"failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_bounds(args: argparse.Namespace) -> int:
    try:
        n_values = _parse_int_list(args.n)
        q_values = _parse_int_list(args.q)
        if not n_values or not q_values:
            raise ValueError("empty range")
        if any(n < 2 for n in n_values) or any(q < 2 for q in q_values):
            raise ValueError("need n >= 2 and q >= 2")
        if args.tau is not None:
            mode: bounds_mod.TMode = bounds_mod.LinearTau(args.tau)
        else:
            mode = bounds_mod.ConstantT(args.t if args.t is not None else 0)
        reports = bounds_mod.bound_table(n_values, q_values, mode)
    except ValueError as exc:
        print(f"bounds: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "csv":
        _write_output(bounds_mod.bound_table_csv(reports), args.out)
    elif args.format == "json":
        _write_output(core.dumps_canonical(
            {"reports": [r.to_json() for r in reports]}), args.out)
    else:
        lines = ["note: asymptotic O(.) terms are omitted; "
                 "small-n comparisons are indicative only"]
        for r in reports:
            thr = r.nonexistence_threshold
            lines.append(
                f"n={r.n} q={r.q} {r.mode}={r.param}: "
                f"converse_k={r.converse_binary_k:.6f} "
                f"random_k={r.achievable_random_k:.6f} "
                f"explicit_rs_k={r.explicit_rs_k:.6f} "
                f"kronecker_k={r.kronecker_k:.6f} "
                f"threshold={thr.numerator}/{thr.denominator}"
                + (" [inconsistent-at-this-scale]" if r.inconsistent_at_scale else "")
            )
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handler = {
        "pascal": cmd_pascal,
        "construct": cmd_construct,
        "simulate": cmd_simulate,
        "bounds": cmd_bounds,
    }[args.subcommand]
    try:
        return handler(args)
    except SigmacError as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        # Inputs are read and checked inside the handlers, so what reaches
        # here is a failed write of the output.
        target = exc.filename if exc.filename is not None else "output"
        print(f"{args.subcommand}: cannot write {target}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
