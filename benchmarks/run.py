"""sigmac benchmark: four CLI workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Each op is one in-process ``sigmac.cli.main`` call.  The seed fixes a pool
of ops, which a single client (closed loop) in one thread runs pass after
pass; an op's cost is the best of its repetitions, in seconds scaled by a
reference loop (see ScaledClock).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it runs half the time
untraced and half with span recorders installed around every public function
of cli, core, constructions, linear, pascal and bounds, and reports the
per-layer metrics.  Every op's output is checked outside the timed region;
a failed check makes the exit code nonzero.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TINY_SETUP_REPEATS = 2
WORKLOAD_NAMES = ("construct-random", "simulate-generic", "simulate-structured", "tables")
# Seconds one reference_loop() call is taken to last; see ScaledClock.
REFERENCE_S = 0.0024
# Recent reference_loop() timings whose median sets the machine's speed.
REFERENCE_WINDOW = 5


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def mix(self, x: int) -> int:
        return (self.a * x + self.b) % 1009


def reference_loop() -> int:
    """Fixed pure-Python work, the same in every version of sigmac.

    A tight integer loop, then a little of many features: method calls,
    f-strings, sorting, dicts, generators, big integers, exceptions and
    tuples.  The tight loop alone missed part of the machine's speed changes,
    which hit code with a large footprint harder.
    """
    data = list(range(64))
    acc = 0
    for i in range(10_000):
        j = i & 63
        acc += data[j] * 3 - (acc & 7)
        data[j] = acc & 1023
    for point in [_Point(i, i * i % 17) for i in range(300)]:
        acc += point.mix(acc & 255)
    words = sorted((f"{i:x}-{acc % (i + 1)}" for i in range(300)), key=len)
    acc += sum(v for v in {w: len(w) for w in words}.values() if v & 1)
    acc += sum(x * x for x in range(400)) + (3 ** 120 * 7 ** 60) % 1_000_003
    for i in range(200):
        try:
            if i % 7 == 0:
                raise ValueError(i)
        except ValueError:
            acc += 1
    rows = tuple(tuple((i * j) % 3 for j in range(10)) for i in range(40))
    return acc + sum(sum(column) for column in zip(*rows))


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class ScaledClock:
    """Turns wall seconds into seconds at the reference speed.

    The machines this runs on are shared, and the same code runs up to a
    third slower for stretches of seconds to minutes.  The reference loop is
    timed after each piece of work, and the work's wall time is scaled by
    REFERENCE_S over the median of the last REFERENCE_WINDOW timings.  The
    median keeps one stalled timing from shrinking a scaled time, which the
    best of an op's repetitions would then pick.  The loop does not depend on
    sigmac, so a change to sigmac moves the scaled time as it moves the wall
    time, while the machine's speed cancels out.
    """

    def __init__(self):
        self.references = [reference_seconds() for _ in range(REFERENCE_WINDOW)]

    def scale(self, wall: float) -> float:
        self.references.append(reference_seconds())
        return wall * REFERENCE_S / statistics.median(self.references[-REFERENCE_WINDOW:])


def import_sigmac() -> float:
    """Import sigmac (and mpmath, which it imports) afresh; return the seconds.

    Earlier imports are dropped from sys.modules first, so each call pays the
    whole import again.  Callers must not hold on to modules from an earlier
    call.
    """
    for name in [n for n in sys.modules if n.split(".")[0] in ("sigmac", "mpmath")]:
        del sys.modules[name]
    start = time.perf_counter()
    import sigmac.cli

    elapsed = time.perf_counter() - start
    if Path(sigmac.cli.__file__).resolve().parent != SRC / "sigmac":
        sys.exit(f"benchmark: imported sigmac from {sigmac.cli.__file__}, not {SRC}")
    return elapsed


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": _commit(), "seed": seed}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantiles(times: list[float]) -> tuple[float, float]:
    """(p50, p90); p90 is only trustworthy with 100 or more samples."""
    if len(times) == 1:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


class Run:
    """A fixed pool of ops, timed pass after pass until a deadline, with checks.

    Each op's cost is the fastest of its repetitions.  The passes spread the
    repetitions of one op over the whole run, so the best of them is the
    op's cost in the machine's fastest stretch; quantiles over the pool are
    quantiles of that cost over the seeded inputs.
    """

    def __init__(self, pool, tracer=None):
        self.pool = pool
        self.tracer = tracer
        self.times: list[float] = []
        self.wall: list[float] = []
        self.kinds: list[str] = []
        self.best: list[Optional[float]] = [None] * len(pool)
        self.digests: dict[int, str] = {}
        self.passes = 0
        self.warm_s = 0.0
        self.sim_time = 0.0
        self.rounds = 0
        self.failures: list[str] = []
        self.first: dict[str, tuple] = {}

    def measure(self, seconds: float) -> None:
        """Run passes over the pool until their timed time adds up to
        `seconds`; checks are extra.  Every repetition of an op must give the
        same output as its first run."""
        from workloads import fingerprint, run_cli

        self.warm_up()
        busy = 0.0
        clock = self.clock = ScaledClock()
        while busy < seconds:
            for index, op in enumerate(self.pool):
                if self.tracer is not None:
                    self.tracer.current_op = len(self.times)
                start = time.perf_counter()
                code, stdout, stderr = run_cli(op.argv)
                wall = time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.current_op = -1
                elapsed = clock.scale(wall)
                busy += wall
                self.wall.append(wall)
                self.times.append(elapsed)
                self.kinds.append(op.kind)
                best = self.best[index]
                self.best[index] = elapsed if best is None else min(best, elapsed)
                if op.rounds:
                    self.rounds += op.rounds
                    self.sim_time += elapsed
                problem = op.check(code, stdout)
                if problem:
                    self.failures.append(f"{op.kind}: {problem} {stderr.strip()[:200]}")
                else:
                    digest = fingerprint(op, stdout)
                    if self.digests.setdefault(index, digest) != digest:
                        self.failures.append(f"{op.kind}: output differs between repetitions")
                    self.first.setdefault(op.kind, (op, digest))
                if busy >= seconds:
                    break
            self.passes += 1

    def warm_up(self) -> None:
        """Run the first op of each kind once before the timed ops, so that
        none of them pays for first-call costs such as filling the triangle
        cache.  Their time is kept in warm_s, which counts in set-up."""
        from workloads import run_cli

        clock = ScaledClock()
        wall = 0.0
        seen = set()
        for op in self.pool:
            if op.kind in seen:
                continue
            seen.add(op.kind)
            start = time.perf_counter()
            code, stdout, stderr = run_cli(op.argv)
            wall += time.perf_counter() - start
            problem = op.check(code, stdout)
            if problem:
                self.failures.append(f"{op.kind}: {problem} {stderr.strip()[:200]}")
        self.warm_s = clock.scale(wall)

    def costs(self) -> list[float]:
        """The fastest time of each op that ran."""
        return [t for t in self.best if t is not None]

    def recheck_determinism(self) -> None:
        """Re-run the first op of each kind; its output must be byte-identical."""
        from workloads import fingerprint, run_cli

        for kind, (op, digest) in self.first.items():
            code, stdout, _ = run_cli(op.argv)
            if code != 0 or fingerprint(op, stdout) != digest:
                self.failures.append(f"{kind}: re-run output differs from the first run")


def set_up(workload, work: Path, seed: int, repeats: int):
    """Run the set-up `repeats` times; artifacts must be byte-identical."""
    from workloads import check_artifact

    times, builds = [], []
    clock = ScaledClock()
    for rep in range(repeats):
        folder = work / f"setup{rep}"
        folder.mkdir(parents=True)
        start = time.perf_counter()
        artifacts = workload.setup(folder, seed)
        times.append(clock.scale(time.perf_counter() - start))
        builds.append(artifacts)
    problems = [problem for path in builds[0].values()
                if (problem := check_artifact(path))]
    for artifacts in builds[1:]:
        for name, path in artifacts.items():
            if path.read_bytes() != builds[0][name].read_bytes():
                problems.append(f"set-up artifact {name} differs between repeats")
    return builds[0], times, problems


def print_metric(name: str, value: float, unit: str) -> None:
    print(f"metric {name} {value:.6g} {unit}")


def run_workload(args, import_times: list[float]) -> int:
    import layers
    import workloads

    workload = workloads.workloads(args.tiny)[args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        artifacts, setup_times, failures = set_up(workload, work, args.seed,
                                                  len(import_times))
        ops = workload.ops(random.Random(f"{args.workload}-ops-{args.seed}"), artifacts, work)
        pool = [next(ops) for _ in range(workload.pool)]
        plain = Run(pool)
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain.measure(seconds)
        traced = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced_artifacts, _, problems = set_up(workload, work / "traced", args.seed, 1)
                failures += problems
                for name, path in traced_artifacts.items():
                    if path.read_bytes() != artifacts[name].read_bytes():
                        failures.append(f"traced set-up artifact {name} differs")
                traced = Run(pool, tracer)
                traced.measure(seconds)
            finally:
                tracer.uninstall()
            tracer.write(HERE / "results" / f"spans-{args.workload}.npz")
        plain.recheck_determinism()
        runs = [plain] + ([traced] if traced else [])
        for run in runs:
            failures += run.failures
        attempted = sum(len(run.times) for run in runs)
        costs = plain.costs()
        p50, p90 = quantiles(costs)
        print(f"workload {args.workload} seed {args.seed} pool {len(pool)} "
              f"timed-ops {len(plain.times)} passes {plain.passes} "
              f"setup_repeats {len(setup_times)}")
        print("setup import_s " + " ".join(f"{t:.4f}" for t in import_times)
              + " build_s " + " ".join(f"{t:.4f}" for t in setup_times)
              + f" warm_up_s {plain.warm_s:.4f}")
        end_to_end = {
            "setup_s": (statistics.median(map(sum, zip(import_times, setup_times)))
                        + plain.warm_s, "s"),
            "op_s.p50": (p50, "s"),
            "op_s.p90": (p90, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"unscaled wall op_s.p50 {statistics.median(plain.wall):.6g} s over all timed ops; "
              f"reference loop median {statistics.median(plain.clock.references):.6g} s")
        for name, (value, unit) in end_to_end.items():
            print_metric(name, value, unit)
        print_metric("failed_share", len(failures) / attempted, "ratio")
        if plain.rounds:
            print_metric("rounds_per_s", plain.rounds / plain.sim_time, "1/s")
        for kind in sorted(set(op.kind for op in pool)):
            times = [t for t, op in zip(plain.best, pool) if op.kind == kind and t is not None]
            if times:
                print(f"op-kind {kind!r} ops {len(times)} p50 {statistics.median(times):.6g} s")
        if len(costs) < 100:
            print(f"note: op_s.p90 has fewer than 10 samples beyond it ({len(costs)} ops)")
        metrics = end_to_end
        if traced is not None:
            metrics, layer_failures = layers.report(workload, tracer, traced, plain)
            failures += layer_failures
        for failure in failures[:20]:
            print(f"FAILED {failure}", file=sys.stderr)
        result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
                  "metrics": {name: {"value": value, "unit": unit}
                              for name, (value, unit) in metrics.items()}}
        record = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(exist_ok=True)
        record.write_text(json.dumps({"env": env, **result}, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result, sort_keys=True))
        return 0 if not failures else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        try:
            results[name] = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            results[name] = None
    combined = {"correct": all(r and r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values() if r),
                "failed": sum(r["failed"] for r in results.values() if r),
                "metrics": {f"{name}/{metric}": value
                            for name, r in results.items() if r
                            for metric, value in r["metrics"].items()}}
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] and all(results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (smoke test only)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "sigmac" / "__init__.py").is_file():
        sys.exit(f"benchmark: no sigmac sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    repeats = TINY_SETUP_REPEATS if args.tiny else SETUP_REPEATS
    clock = ScaledClock()
    return run_workload(args, [clock.scale(import_sigmac()) for _ in range(repeats)])


if __name__ == "__main__":
    sys.exit(main())
