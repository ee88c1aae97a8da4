"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workload

sys.path.insert(0, str(workload.SRC))

# Shortest runs that still reach every span the workload lists: train_pp
# needs a full batch in the buffer (1100 steps) for one update round, and
# train_ens_ka needs one sub-policy buffer to hold a batch.
SHORT_EPISODES = {"eval_pp": 4, "train_pp": 48, "train_ens_ka": 160,
                  "train_onpolicy": 4}


def test_self_time_subtracts_covered_child_intervals():
    # root [0,100] -> a [10,40] -> c [15,25]
    #              -> b [50,90] -> d [55,60], e [58,70] (overlapping)
    start = np.array([0, 10, 15, 50, 55, 58])
    end = np.array([100, 40, 25, 90, 60, 70])
    parent = np.array([-1, 0, 1, 0, 3, 3])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [30, 20, 10, 25, 5, 12]


def test_nested_wrappers_record_parent_links_and_counts():
    tracer = tracing.Tracer("unit")
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_id"]]
    assert names == ["outer", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 0]
    stats = tracing.summarize(tracer)
    assert stats["inner"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] <= stats["outer"]["s"]
    assert stats["outer"]["s"] >= stats["inner"]["s"]


def _bindings() -> dict:
    out = {}
    for m in tracing.mplab_modules():
        for attr, value in vars(m).items():
            out[(m.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == m.__name__:
                for meth, fn in vars(value).items():
                    out[(m.__name__, attr, meth)] = fn
    return out


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_short_traced_run_covers_spans_and_unwraps(name, tmp_path):
    wl = workload.WORKLOADS[name]
    episodes = SHORT_EPISODES[name]
    plain = workload.measure(wl, 0, trace=False, episodes=episodes)
    before = _bindings()
    traced = workload.measure(wl, 0, trace=True, episodes=episodes,
                              out_dir=tmp_path)

    missing = [s for s in wl.spans
               if traced["layers"].get(s, {}).get("calls", 0) < 1]
    assert not missing, f"spans without calls on {name}: {missing}"
    assert traced["failed"] == 0 and plain["failed"] == 0
    assert not traced["problems"] + traced["harness_problems"]
    assert traced["digest"] == plain["digest"]

    assert tracing.leftover_wrappers() == []
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"bindings not restored: {changed}"


def test_stripped_checkout_fails_without_result(tmp_path):
    root = workload.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(workload.HERE, tmp_path / workload.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_pp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_per_layer_metrics_resolve(tmp_path):
    spec = json.loads((workload.ROOT / "BENCHMARK.json").read_text())
    wl = workload.WORKLOADS["eval_pp"]
    traced = workload.measure(wl, 0, trace=True, episodes=2, out_dir=tmp_path)
    for m in spec["per_layer"]:
        value = run.layer_value(m["name"], [traced], [traced])
        assert np.isfinite(value), m["name"]
    assert Path(tmp_path / "spans-eval_pp.npz").is_file()


def test_every_per_layer_metric_names_what_it_should_move():
    spec = json.loads((workload.ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((workload.HERE / "rationale.json").read_text())
    mapped = {m for row in notes["should_move"] for m in row["metrics"]}
    assert {m["name"] for m in spec["per_layer"]} == mapped
    assert set(notes["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(workload.WORKLOADS) == set(notes["workloads"])
