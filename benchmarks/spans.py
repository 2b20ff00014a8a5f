"""Span recorder that wraps sigmac's public functions from outside the package.

Every public module-level function of the six layer modules, plus the few
methods named in METHODS, is replaced by a wrapper that records one span per
call: name, start, end, parent span and op index.  Wrappers are bound
at every place the original is bound, that is in the defining module and in
every sigmac module that imported it with ``from ... import``; ``install``
checks afterwards that no module still holds an original.

Spans stay in memory in flat arrays and are written out once, at the end of
the run.  Counts are taken at the same boundary from the return value
(patterns walked, attempts, candidates checked) or from the exception raised.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("cli", "core", "constructions", "linear", "pascal", "bounds")

# (module, class, method, span name); the two from_json loaders share one
# span name: both are the re-verifying artifact loader of one layer.
METHODS = (
    ("constructions", "AugmentedCode", "from_json", "constructions.from_json"),
    ("constructions", "KroneckerCode", "from_json", "constructions.from_json"),
    ("linear", "BinaryLinearCode", "min_distance", "linear.min_distance"),
)


def _verify_counts(result):
    return {"patterns": result.z_count_checked}


def _random_counts(result):
    return {"attempts": result.attempts, "escalations": result.escalations,
            "accepted": 1}


def _inner_counts(result):
    return {"checked": result.checked}


# Counters read from a successful call's return value, by span name.
RESULT_COUNTS = {
    "core.min_distinguishing_weight": _verify_counts,
    "constructions.construct_random": _random_counts,
    "constructions.find_inner_matrix": _inner_counts,
}


class Tracer:
    """Flat in-memory span store plus the install/uninstall of wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")          # -1 during set-up
        self.nested = array("b")      # inside a span of the same name
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def _wrap(self, func, name: str):
        nid = self._id(name)
        extract = RESULT_COUNTS.get(name)
        perf = time.perf_counter
        stack, depth, counts = self._stack, self._depth, self.counts

        def span(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.nested.append(1 if depth[nid] else 0)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(index)
            depth[nid] += 1
            self.start.append(perf())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self.end[index] = perf()
                self.failed[index] = 1
                if extract is _random_counts:  # a failed search still made attempts
                    counts[name]["attempts"] += getattr(exc, "attempts", 0)
                raise
            else:
                self.end[index] = perf()
                if extract is not None:
                    for key, value in extract(result).items():
                        counts[name][key] += value
                return result
            finally:
                stack.pop()
                depth[nid] -= 1

        span.__wrapped__ = func
        span.__name__ = getattr(func, "__name__", name)
        return span

    def install(self) -> None:
        """Wrap every target and rebind it wherever sigmac binds the original."""
        modules = {m: importlib.import_module(f"sigmac.{m}") for m in MODULES}
        replacements = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    replacements[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for short, cls_name, meth, name in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
        package = [m for key, m in sys.modules.items()
                   if key == "sigmac" or key.startswith("sigmac.")]
        for module in package:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for module in package:
            for attr, obj in vars(module).items():
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    raise RuntimeError(f"trace: {module.__name__}.{attr} is still unwrapped")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, ops_only: bool = False) -> dict[str, dict[str, float]]:
        """Per span name: calls, op_calls, errors, busy_s, self_s and counts.

        busy_s sums the outermost spans of a name; self_s subtracts from each
        span the time covered by its direct children.  With ops_only, spans
        recorded during set-up are left out.
        """
        a = self.arrays()
        if ops_only:
            keep = a["op"] >= 0
            remap = np.cumsum(keep) - 1
            parent = a["parent"]
            a = {key: value[keep] for key, value in a.items()}
            a["parent"] = np.where(parent[keep] >= 0, remap[np.maximum(parent[keep], 0)], -1)
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], duration[has_parent])
        self_time = duration - child
        ids = a["name_id"]
        outer = a["nested"] == 0
        in_op = a["op"] >= 0
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = {
                "calls": int(mask.sum()),
                "op_calls": int((mask & in_op).sum()),
                "errors": int(a["failed"][mask].sum()),
                "busy_s": float(duration[mask & outer].sum()),
                "self_s": float(self_time[mask].sum()),
                **self.counts.get(name, {}),
            }
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
