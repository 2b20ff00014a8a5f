"""Command-line front end: construct, verify, simulate, and tabulate.

Exit codes follow the scriptable contract: 0 on success, 1 when a checked
property fails (a construction or simulation found a real violation), 2 on
usage errors.  The handlers raise every failure, and main alone turns it
into its exit code and one stderr line:

- a refused command, an argparse error, or a ValueError, OverflowError or
  MemoryError from an input out of range: 2;
- a CapacityError: 2, with the --limit-z or --limit-u that would lift it;
- a ConstructionFailure: 1, "construction failed after N attempts: ...";
- any other SigmacError: 1;
- an --out that cannot be written: 2.

No input ends in a traceback.  Checks that run and fail are not refusals:
each failed identity check or simulate round prints its own line, and the
command exits 1.  All randomness flows from one explicit --seed
through counter-based child seeds, never from the clock, so identical
invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import random
import re
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


class _Refusal(Exception):
    """A refused command; its message is the whole stderr line, and it exits 2."""


class _Parser(argparse.ArgumentParser):
    """Errors are refusals of one line, without the usage; -1/3 and -1e5 are values, as -5 is."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _Refusal(f"{self.prog}: error: {message}")


@contextlib.contextmanager
def _output(out: Optional[str]):
    """The --out file, opened for writing, or standard output; a failed write leaves no file."""
    if not out:
        yield sys.stdout
        return
    stream = open(out, "w")
    try:
        with stream:
            yield stream
    except BaseException:
        Path(out).unlink(missing_ok=True)
        raise


def _write_output(text: str, out: Optional[str]) -> None:
    with _output(out) as stream:
        stream.write(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _at_least(low: Optional[int], many: bool = False):
    """An argparse type: an integer >= low (any if low is None), or with many, a nonempty
    comma-separated list; a refusal quotes at most 20 characters of the text, and its length."""
    def integer(text: str):
        try:
            values = [int(part) for part in text.split(",") if part] if many else [int(text)]
        except ValueError:  # not an integer, or one past Python's digit limit
            values = []
        if not values or low is not None and min(values) < low:
            shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"
            floor = "" if low is None else f" >= {low}"
            raise argparse.ArgumentTypeError(f"need integers{floor}, got {shown}")
        return values if many else values[0]
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigmac",
        description="Signature codes for the noisy integer-adder multiple access channel",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pascal = sub.add_parser("pascal", help="triangle rows, identity sweeps, CSV tables")
    mode = p_pascal.add_mutually_exclusive_group(required=True)
    mode.add_argument("--row", action="store_true", help="print row n of the q-ary triangle")
    mode.add_argument("--identity-sweep", action="store_true",
                      help="check every identity and bound over the grid")
    mode.add_argument("--table", action="store_true",
                      help="emit CSV q,n,k,coefficient over the grid")
    p_pascal.add_argument("--q", type=_at_least(2), help="alphabet size (>= 2)")
    p_pascal.add_argument("--n", type=_at_least(0), help="row index (>= 0)")
    p_pascal.add_argument("--qmax", type=_at_least(2))
    p_pascal.add_argument("--nmax", type=_at_least(0))
    p_pascal.add_argument("--out")

    p_con = sub.add_parser("construct", help="build a code and write its JSON artifact")
    p_con.add_argument("--method", required=True,
                       choices=["trivial", "rs-augment", "random", "kronecker"])
    p_con.add_argument("--q", type=_at_least(2))
    p_con.add_argument("--n", type=_at_least(1))
    p_con.add_argument("--k", type=_at_least(1), help="length override")
    p_con.add_argument("--t", type=_at_least(0))
    p_con.add_argument("--tau", type=_parse_fraction,
                       help="linear error fraction (t becomes floor(tau * k))")
    p_con.add_argument("--seed", type=_at_least(None), default=DEFAULT_SEED)
    p_con.add_argument("--max-attempts", type=_at_least(1))
    p_con.add_argument("--epsilon", type=_parse_fraction, help="total slack, e.g. 1/16")
    p_con.add_argument("--p", type=_at_least(1), help="inner matrix rows")
    p_con.add_argument("--s", type=_at_least(1), help="inner matrix columns")
    p_con.add_argument("--r", type=_at_least(1), help="outer code dimension")
    p_con.add_argument("--outer", choices=["search", "repetition"])
    p_con.add_argument("--c1", type=_at_least(1), help="outer length multiplier override")
    p_con.add_argument("--inner-t", type=_at_least(0),
                       help="override the planned inner error tolerance")
    p_con.add_argument("--limit-z", type=_at_least(0), help="3^n verification budget")
    p_con.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="round-trip an artifact under adversarial errors")
    p_sim.add_argument("--in", dest="artifact", required=True)
    p_sim.add_argument("--rounds", type=_at_least(0), default=100)
    p_sim.add_argument("--t", type=_at_least(0), help="error budget override")
    p_sim.add_argument("--seed", type=_at_least(None), default=DEFAULT_SEED)
    p_sim.add_argument("--error-mode", default=core.RANDOM_ERRORS,
                       choices=[core.RANDOM_ERRORS, core.WORST_CASE_ERRORS])
    p_sim.add_argument("--limit-z", type=_at_least(0))
    p_sim.add_argument("--limit-u", type=_at_least(0))

    p_bounds = sub.add_parser("bounds", help="tabulate converse/achievability lengths")
    p_bounds.add_argument("--n", required=True, type=_at_least(2, many=True),
                          help="comma-separated sizes, e.g. 1024,16384")
    p_bounds.add_argument("--q", default="2", type=_at_least(2, many=True),
                          help="comma-separated alphabet sizes")
    group = p_bounds.add_mutually_exclusive_group()
    group.add_argument("--t", type=_at_least(0), help="constant error budget")
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


# For each mode of a subcommand, named by its selecting option and value, the
# options it reads: (required, optional).  Argparse requires --method, --in and
# construct's --out.  An option some mode does not read is None when not given.
MODES = {
    ("pascal", "--row"): ("--q --n", "--out"),
    ("pascal", "--table"): ("", "--q --qmax --nmax --out"),
    ("pascal", "--identity-sweep"): ("", "--qmax --nmax"),
    ("construct", "--method trivial"): ("--n", "--seed --limit-z"),
    ("construct", "--method rs-augment"): ("--n", "--t --seed --limit-z"),
    ("construct", "--method random"): ("--n", "--q --k --t --tau --max-attempts --seed --limit-z"),
    ("construct", "--method kronecker"): ("--epsilon --p --s --r",
                                          "--q --outer --c1 --inner-t --seed --limit-z"),
    ("simulate", f"--error-mode {core.RANDOM_ERRORS}"): ("", "--rounds --t --seed --limit-u"),
    ("simulate", f"--error-mode {core.WORST_CASE_ERRORS}"): (
        "", "--rounds --t --seed --limit-u --limit-z"),
}


def _check_options(args: argparse.Namespace) -> None:
    """Refuse an option the chosen mode does not read, or a required one left out."""
    values = {f"--{dest.replace('_', '-')}": value for dest, value in vars(args).items()}
    modes = {mode: reads for (sub, mode), reads in MODES.items() if sub == args.subcommand}
    for mode, (required, optional) in modes.items():
        selector, _, selected = mode.partition(" ")
        if values[selector] == (selected or True):
            for option in dict.fromkeys(" ".join(itertools.chain(*modes.values())).split()):
                if values[option] is not None and option not in f"{required} {optional}".split():
                    raise _Refusal(f"{args.subcommand}: {mode} does not take {option}")
                if values[option] is None and option in required.split():
                    raise _Refusal(f"{args.subcommand}: {mode} needs {option}")


def cmd_pascal(args: argparse.Namespace) -> int:
    if args.row:
        _write_output(" ".join(map(str, pascal.row(args.q, args.n))) + "\n", args.out)
        return EXIT_OK
    if args.q is not None and args.qmax is not None:
        raise _Refusal("pascal: --qmax is read only without --q")
    nmax = 8 if args.nmax is None else args.nmax
    q_values = [args.q] if args.q is not None else range(2, (args.qmax or 4) + 1)
    if args.table:
        # One row's lines at a time: the whole table runs to megabytes.
        with _output(args.out) as stream:
            # Row 1 of a q too large to build fails here, before the header.
            for q in q_values:
                pascal.row(q, min(nmax, 1))
            stream.write("q,n,k,coefficient\n")
            for q in q_values:
                for n in range(nmax + 1):
                    # A row is a palindrome: its first half, in decimal, mirrored.
                    row = pascal.row(q, n)
                    digits = list(map(str, row[:(len(row) + 1) // 2]))
                    digits.extend(reversed(digits[:len(row) // 2]))
                    prefix = f"{q},{n},"
                    stream.write("".join([f"{prefix}{k},{c}\n" for k, c in enumerate(digits)]))
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
    if args.t is not None and args.tau is not None:
        raise _Refusal("construct: --tau sets t to floor(tau * k); drop --t")
    if args.c1 is not None and args.outer != "repetition":
        raise _Refusal("construct: --c1 is read only with --outer repetition")
    q = 2 if args.q is None else args.q
    t = 1 if args.t is None else args.t
    if args.method == "trivial":
        code = cons.PlainCode(cons.construct_trivial(args.n), 0, {"kind": "trivial"})
    elif args.method == "rs-augment":
        code = cons.rs_augment(cons.construct_trivial(args.n), t)
    elif args.method == "random":
        k = args.k
        if args.tau is not None:
            # Planned even under --k: planning refuses a tau at the threshold.
            planned = cons.plan_random_length(args.n, q, bounds_mod.LinearTau(args.tau))
            k = planned if k is None else k
            t = math.floor(args.tau * k)
        code = cons.construct_random(
            args.n, q, t, args.seed,
            max_attempts=100 if args.max_attempts is None else args.max_attempts,
            k_override=k, limit=args.limit_z)
    else:  # kronecker
        code = cons.build_kronecker(q, args.epsilon, args.p, args.s,
                                    args.r, seed=args.seed,
                                    outer_kind=args.outer or "search",
                                    t_inner=args.inner_t, c1=args.c1)
    matrix, envelope = code.matrix, {**code.to_json(), "seed": args.seed}
    # A random envelope carries d_min from the walk that accepted its matrix;
    # any other is walked here, and d_min is null when --limit-z is too low.
    if "d_min" not in envelope:
        envelope["d_min"] = None
        with contextlib.suppress(CapacityError):
            envelope["d_min"] = core.min_distinguishing_weight(matrix, args.limit_z).d_min
    _write_output(core.dumps_canonical(envelope), args.out)
    print(f"{args.method}: wrote {args.out} "
          f"(k={matrix.k}, n={matrix.n}, q={matrix.q}, d_min={json.dumps(envelope['d_min'])})")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        code = cons.load_artifact(json.loads(Path(args.artifact).read_text()))
    except (OSError, ValueError, CapacityError) as exc:
        raise _Refusal(f"simulate: cannot load artifact: {exc}") from exc
    matrix = code.matrix
    t = code.design_t if args.t is None else args.t
    code.decode_batch([], t, args.limit_u)  # checks the 2^n budget before any round
    if not 0 <= t <= matrix.k:
        raise _Refusal(f"simulate: need 0 <= t <= k = {matrix.k}")
    witness = None
    if args.error_mode == core.WORST_CASE_ERRORS:
        witness = core.adversarial_witness(matrix, t, args.limit_z)
        if witness is not None and args.t is None:
            raise _Refusal(f"simulate: the matrix does not tolerate the artifact's design_t = {t}")
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
    if args.tau is not None:
        mode: bounds_mod.TMode = bounds_mod.LinearTau(args.tau)
    else:
        mode = bounds_mod.ConstantT(args.t if args.t is not None else 0)
    reports = bounds_mod.bound_table(args.n, args.q, mode)
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
    """Run one subcommand; the only place a failure becomes an exit code and a line."""
    subcommand = None
    try:
        args = _main_parser().parse_args(argv)
        subcommand = args.subcommand
        _check_options(args)
        return {
            "pascal": cmd_pascal,
            "construct": cmd_construct,
            "simulate": cmd_simulate,
            "bounds": cmd_bounds,
        }[subcommand](args)
    except SystemExit as exc:  # --help, printed to stdout
        return exc.code
    except _Refusal as exc:
        code, line = EXIT_USAGE, str(exc)
    except CapacityError as exc:
        code, line = EXIT_USAGE, f"{subcommand}: {exc}; raise --limit-{exc.budget} to override"
    except ConstructionFailure as exc:
        code, line = EXIT_CHECK_FAILED, f"construction failed after {exc.attempts_text} attempts: {exc}"
    except (ValueError, OverflowError, MemoryError) as exc:  # an input out of range
        code, line = EXIT_USAGE, f"{subcommand}: {str(exc) or 'out of memory'}"
    except SigmacError as exc:
        code, line = EXIT_CHECK_FAILED, f"{subcommand}: {exc}"
    except OSError as exc:
        # Inputs are read and checked inside the handlers, so what reaches
        # here is a failed write of the output.
        target = exc.filename if exc.filename is not None else "output"
        code, line = EXIT_USAGE, f"{subcommand}: cannot write {target}: {exc.strerror or exc}"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
