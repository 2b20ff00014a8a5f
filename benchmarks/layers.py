"""Per-layer metrics of a traced run, and the checks on what the trace saw.

Each metric is a statistic of one span name (see spans.py).  calls, busy_s,
self_s and errors come from the spans; patterns, attempts, escalations and
checked are counts taken from return values; the rest are ratios of those.
``module.<m>.self_s`` sums the self time of every span in module m.
"""

from __future__ import annotations

import statistics

# (span name, statistic, unit, better)
LAYER_METRICS = (
    ("core.min_distinguishing_weight", "calls", "count", "lower"),
    ("core.min_distinguishing_weight", "busy_s", "s", "lower"),
    ("core.min_distinguishing_weight", "patterns", "count", "lower"),
    ("core.min_distinguishing_weight", "ns_per_pattern", "ns", "lower"),
    ("core.min_distinguishing_weight", "calls_per_op", "count", "lower"),
    ("constructions.construct_random", "calls", "count", "lower"),
    ("constructions.construct_random", "self_s", "s", "lower"),
    ("constructions.construct_random", "attempts", "count", "lower"),
    ("constructions.construct_random", "accept_ratio", "ratio", "higher"),
    ("constructions.construct_random", "escalations", "count", "lower"),
    ("core.decode_min_distance", "calls", "count", "lower"),
    ("core.decode_min_distance", "busy_s", "s", "lower"),
    ("core.decode_min_distance", "errors", "count", "lower"),
    ("core.adversarial_witness", "calls", "count", "lower"),
    ("core.adversarial_witness", "self_s", "s", "lower"),
    ("core.simulate_round", "calls", "count", "lower"),
    ("core.simulate_round", "self_s", "s", "lower"),
    ("linear.rs_decode", "calls", "count", "lower"),
    ("linear.rs_decode", "busy_s", "s", "lower"),
    ("linear.rs_decode", "errors", "count", "lower"),
    ("constructions.rs_augmented_decode", "calls", "count", "lower"),
    ("constructions.rs_augmented_decode", "self_s", "s", "lower"),
    ("constructions.rs_augmented_decode", "errors", "count", "lower"),
    ("linear.integer_lift_decode", "calls", "count", "lower"),
    ("linear.integer_lift_decode", "busy_s", "s", "lower"),
    ("constructions.kronecker_decode", "calls", "count", "lower"),
    ("constructions.kronecker_decode", "self_s", "s", "lower"),
    ("constructions.kronecker_decode", "errors", "count", "lower"),
    ("constructions.from_json", "calls", "count", "lower"),
    ("constructions.from_json", "busy_s", "s", "lower"),
    ("constructions.find_inner_matrix", "calls", "count", "lower"),
    ("constructions.find_inner_matrix", "busy_s", "s", "lower"),
    ("constructions.find_inner_matrix", "checked", "count", "lower"),
    ("linear.build_outer_code", "calls", "count", "lower"),
    ("linear.build_outer_code", "self_s", "s", "lower"),
    ("linear.min_distance", "calls", "count", "lower"),
    ("linear.min_distance", "busy_s", "s", "lower"),
    ("pascal.row", "calls", "count", "lower"),
    ("pascal.row", "busy_s", "s", "lower"),
    ("pascal.check_convolution_identity", "busy_s", "s", "lower"),
    ("pascal.check_dominance", "busy_s", "s", "lower"),
    ("pascal.check_central_bounds", "busy_s", "s", "lower"),
    ("pascal.check_multinomial_bound", "busy_s", "s", "lower"),
    ("bounds.bound_table", "calls", "count", "lower"),
    ("bounds.bound_table", "busy_s", "s", "lower"),
    ("cli.main", "calls", "count", "lower"),
    ("cli.main", "self_s", "s", "lower"),
    *((f"module.{m}", "self_s", "s", "lower")
      for m in ("cli", "core", "constructions", "linear", "pascal", "bounds")),
    ("trace", "overhead_ratio", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _value(stats: dict, statistic: str, traced_ops: int) -> float:
    if statistic == "ns_per_pattern":
        return _ratio(stats.get("busy_s", 0.0), stats.get("patterns", 0)) * 1e9
    if statistic == "calls_per_op":
        return _ratio(stats.get("op_calls", 0), traced_ops)
    if statistic == "accept_ratio":
        return _ratio(stats.get("accepted", 0), stats.get("attempts", 0))
    return stats.get(statistic, 0)


def module_self(summary: dict) -> dict[str, float]:
    """Self time per module (the span name's first part)."""
    totals: dict[str, float] = {}
    for name, stats in summary.items():
        module = name.split(".")[0]
        totals[module] = totals.get(module, 0.0) + stats["self_s"]
    return totals


def report(workload, tracer, traced, plain):
    """Print the layer metrics and module shares; return (metrics, failures)."""
    summary = tracer.summary()
    summary.update({f"module.{m}": {"self_s": t} for m, t in module_self(summary).items()})
    overhead = statistics.median(traced.times) / statistics.median(plain.times)
    metrics = {}
    for name, statistic, unit, _ in LAYER_METRICS:
        if name == "trace":
            value = overhead
        else:
            value = _value(summary.get(name, {}), statistic, len(traced.times))
        metrics[f"{name}.{statistic}"] = (value, unit)
        print(f"metric {name}.{statistic} {value:.6g} {unit}")

    failures = []
    for name in workload.expected_layers:
        if summary.get(name, {}).get("calls", 0) == 0:
            failures.append(f"trace: layer {name} recorded no calls on {workload.name}")
    for name in workload.absent_layers:
        calls = summary.get(name, {}).get("calls", 0)
        print(f"predicted-absent {name} calls {calls} "
              f"{'holds' if calls == 0 else 'refuted'}")

    total = sum(traced.wall)  # span times are wall time, not scaled
    shares = {m: t / total for m, t in module_self(tracer.summary(ops_only=True)).items()}
    shares["(outside sigmac)"] = 1.0 - sum(shares.values())
    for module, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"layer-share {module} {share:.3f}")
    dominant = max((m for m in shares if not m.startswith("(")), key=shares.get)
    verdict = "holds" if dominant == workload.dominant_module else "refuted"
    print(f"dominant-layer {dominant} predicted {workload.dominant_module} {verdict}")
    return metrics, failures
