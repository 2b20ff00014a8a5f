"""What the benchmark harness reads of sigmac still exists.

The harness in `benchmarks/` wraps sigmac's public functions and a few
named methods, and reads counters off their return values.  Its own smoke
test runs every workload and takes tens of seconds; this test checks the
same names and result fields directly, importing the harness read-only.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from sigmac import constructions, core

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def harness():
    """The harness's spans and workloads modules, imported without writing bytecode."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCHMARKS))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag


def public_functions(spans) -> set[str]:
    """Span names of the module-level functions the tracer wraps."""
    names = set()
    for short in spans.MODULES:
        module = importlib.import_module(f"sigmac.{short}")
        names.update(f"{short}.{attr}" for attr, obj in vars(module).items()
                     if not attr.startswith("_") and inspect.isfunction(obj)
                     and obj.__module__ == module.__name__)
    return names


def test_every_layer_a_workload_names_is_traced(harness):
    spans, workloads = harness
    traced = public_functions(spans) | {name for *_, name in spans.METHODS}
    for tiny in (False, True):
        for workload in workloads.workloads(tiny).values():
            for layer in (*workload.expected_layers, *workload.absent_layers):
                assert layer in traced, (workload.name, layer)
            assert workload.dominant_module in spans.MODULES


def test_every_traced_method_is_defined_on_its_class(harness):
    spans, _ = harness
    for short, cls_name, method, _ in spans.METHODS:
        cls = getattr(importlib.import_module(f"sigmac.{short}"), cls_name)
        assert method in cls.__dict__, (cls_name, method)


# A small real call for each span whose result the tracer reads counters from.
SMALL_CALLS = {
    "core.min_distinguishing_weight":
        lambda: core.min_distinguishing_weight(constructions.construct_trivial(3)),
    "constructions.construct_random":
        lambda: constructions.construct_random(4, 3, 0, seed=2, k_override=3),
    "constructions.find_inner_matrix": lambda: constructions.find_inner_matrix(2, 2, 2, 0),
}


def test_every_result_counter_reads_a_real_result(harness):
    spans, _ = harness
    assert set(spans.RESULT_COUNTS) == set(SMALL_CALLS)
    for name, extract in spans.RESULT_COUNTS.items():
        counts = extract(SMALL_CALLS[name]())
        assert counts and all(isinstance(v, (int, float)) for v in counts.values()), name
