"""Span tracer that wraps mplab's public functions from outside the package.

A traced run installs one wrapper per layer function, at every binding a
caller looks the function up through: the defining module, every other
mplab module that imported it by name (``extensions`` imports ``act``,
``critic_update`` and ``actor_update``; ``trainer`` imports ``forward_raw``),
and the class dictionary for methods. Each call records one span
``(name id, start ns, end ns, parent span id)`` into an in-memory list;
``uninstall`` puts every original binding back.

Self time is a span's duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WRAPPED_MARK = "__perfbench_original__"

# Span name -> where the function is defined: (module, attribute) for plain
# functions, (module, class, method) for methods. Scenario methods are
# wrapped on every scenario class that defines them.
LAYER_FUNCTIONS = {
    "world.step": ("world", "step"),
    "scenarios.reset": ("scenarios", "Scenario", "reset"),
    "scenarios.observe": ("scenarios", "*", "observe"),
    "scenarios.rewards": ("scenarios", "*", "rewards"),
    "nets.forward_raw": ("nets", "forward_raw"),
    "nets.forward_cached": ("nets", "forward_cached"),
    "nets.backward": ("nets", "backward"),
    "nets.adam_step": ("nets", "adam_step"),
    "nets.soft_update": ("nets", "soft_update"),
    "nets.save_checkpoint": ("nets", "save_checkpoint"),
    "replay.push": ("replay", "ReplayBuffer", "push"),
    "replay.sample": ("replay", "ReplayBuffer", "sample"),
    "trainer.act": ("trainer", "act"),
    "trainer.update_round": ("trainer", "update_round"),
    "trainer.target_actions": ("trainer", "target_actions"),
    "trainer.critic_target": ("trainer", "critic_target"),
    "trainer.critic_update": ("trainer", "critic_update"),
    "trainer.actor_update": ("trainer", "actor_update"),
    "extensions.ensemble_update": ("extensions", "ensemble_update"),
    "extensions.ensemble_target_actions": ("extensions",
                                           "ensemble_target_actions"),
    "baselines.sample_and_logprob": ("baselines", "sample_and_logprob"),
    "baselines.reinforce_update": ("baselines", "reinforce_update"),
    "baselines.independent_ac_update": ("baselines", "independent_ac_update"),
    "analysis.rollout_episode": ("analysis", "rollout_episode"),
    "analysis.evaluate": ("analysis", "evaluate"),
}

ROOT_SPAN = "entry"


def _is_skipped_update(result) -> bool:
    # ensemble_update returns (nan, nan) when the sub-policy buffer cannot
    # fill a batch yet.
    return result[0] != result[0]


# Extra counts taken at a span boundary: span name -> (count name, test on
# the call's return value).
RESULT_COUNTS = {
    "extensions.ensemble_update": ("extensions.ensemble_update.skipped",
                                   _is_skipped_update),
}


def mplab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mplab" or name.startswith("mplab."))]


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, Callable]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[tuple[str, Callable]] = None) -> Callable:
        name_id = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name_id, start, end, parent)
            if on_result is not None and on_result[1](result):
                counts[on_result[0]] += 1
            return result

        setattr(traced, WRAPPED_MARK, fn)
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every layer function at every binding callers look up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for where in LAYER_FUNCTIONS.values():
            importlib.import_module(f"mplab.{where[0]}")
        modules = mplab_modules()
        for span_name, where in LAYER_FUNCTIONS.items():
            module = sys.modules[f"mplab.{where[0]}"]
            on_result = RESULT_COUNTS.get(span_name)
            if len(where) == 2:
                original = getattr(module, where[1])
                wrapper = self.wrap(span_name, original, on_result)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper, original)
                continue
            _, cls_name, method = where
            if cls_name == "*":
                base = module.Scenario
                owners = [c for c in vars(module).values()
                          if isinstance(c, type) and issubclass(c, base)
                          and method in vars(c)]
            else:
                owners = [getattr(module, cls_name)]
            for cls in owners:
                original = vars(cls)[method]
                self._patch(cls, method,
                            self.wrap(span_name, original, on_result), original)

    def _patch(self, owner, attr: str, wrapper: Callable,
               original: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        if any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        return {"name_id": table[:, 0], "start_ns": table[:, 1],
                "end_ns": table[:, 2], "parent": table[:, 3]}

    def save(self, path: Path) -> None:
        """Write every recorded span to a compressed npz file."""
        np.savez_compressed(path, run_id=np.asarray(self.run_id),
                            names=np.asarray(self.names), **self.arrays())


def leftover_wrappers() -> list[str]:
    """Bindings in loaded mplab modules or their classes that still hold a
    tracer wrapper."""
    found = []
    for m in mplab_modules():
        for attr, value in vars(m).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{m.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, WRAPPED_MARK):
                        found.append(f"{m.__name__}.{attr}.{meth}")
    return found


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Per-span duration minus the union of its children's intervals,
    clipped to the span. Span ids are assigned in start order, so the
    children of a span appear in start order too."""
    starts, ends = start.tolist(), end.tolist()
    covered = [0] * len(starts)
    reach = list(starts)       # end of the covered prefix of each span
    for i, p in enumerate(parent.tolist()):
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return (end - start) - np.asarray(covered, dtype=np.int64)


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds, p50/p99 in µs."""
    a = tracer.arrays()
    dur = a["end_ns"] - a["start_ns"]
    own = self_times(a["start_ns"], a["end_ns"], a["parent"])
    out: dict[str, dict[str, float]] = {}
    for name_id, name in enumerate(tracer.names):
        sel = a["name_id"] == name_id
        d = dur[sel]
        out[name] = {
            "calls": int(sel.sum()),
            "s": float(d.sum()) / 1e9,
            "self_s": float(own[sel].sum()) / 1e9,
            "p50_us": float(np.percentile(d, 50)) / 1e3 if d.size else 0.0,
            "p99_us": float(np.percentile(d, 99)) / 1e3 if d.size else 0.0,
        }
    return out
