"""Repeat-run check and reference recorder for the mplab benchmark.

    python3 perfbench/record.py --seeds 0-9
    python3 perfbench/record.py --seeds 0-9 --workloads train_pp --write

Runs ``run.py`` once per workload and seed with ``--trace 0``, one after
the other, and prints for every end-to-end metric the median, the
quartiles and the quartile spread as a share of the median, next to the
metric's bound in ``BENCHMARK.json``. With ``--write`` it also runs one
traced run per workload (at the first seed) and stores in
``reference.json`` the output digest of every seed run, the end-to-end
medians and quartiles, and the traced per-layer values, as the baseline
of the current revision.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    return json.loads(lines[-1]), record


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Repeat runs over seeds.")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        digests = {}
        for seed in seeds:
            result, record = run_once(name, seed, spec["run_seconds"], 0)
            ok &= result["correct"]
            digests[str(seed)] = record["digest"]
            for metric, mv in result["metrics"].items():
                values[metric].append(mv["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + ("" if result["correct"] else "  NOT CORRECT"), flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            q = quartiles(values[m["name"]])
            summary[m["name"]] = q
            flag = "" if q["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:18s} median {q['median']:.6g} {m['unit']}  "
                  f"spread {q['spread']:.4f} (bound {m['bound']}){flag}")
        if args.write:
            result, record = run_once(name, seeds[0], spec["run_seconds"], 1)
            ok &= result["correct"]
            reference.setdefault("digests", {}).setdefault(name, {}).update(digests)
            reference.setdefault("baseline", {})[name] = {
                "seeds": args.seeds,
                "end_to_end": summary,
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            }
            reference["git"] = record["git"]
            reference["env"] = record["env"]
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                                 + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
