"""mplab benchmark: one workload at one seed, sampled for a fixed time.

    python3 perfbench/run.py --workload train_pp --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Every sample is a fresh process (``workload.py``) with the BLAS thread
variables pinned to 1, started one at a time: the workloads are closed,
single-caller batch jobs. Samples are taken until ``--seconds`` would be
exceeded (at least three; with ``--trace 1`` at least two untraced and two
traced, alternating). With ``--trace 0`` the result holds the end-to-end
metrics of ``BENCHMARK.json`` as medians over the samples; with
``--trace 1`` it holds the per-layer metrics as medians over the traced
samples, plus ``trace_overhead`` against the untraced ones.

Output: a readable report, one ``record {...}`` line (samples, environment
fingerprint, git state, output digest and whether it matches the reference
in ``reference.json``), and as the last line the result object
``{"correct", "attempted", "failed", "metrics"}``. Exit code 2 when the
checkout holds no mplab sources or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import EXIT_NO_PROGRAM, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0
MIN_UNTRACED = 3
MIN_EACH_TRACED = 2
SETUP_SAMPLES = 5
STATS = ("calls", "s", "self_s", "p50_us", "p99_us")


class NoProgram(RuntimeError):
    """The checkout holds no importable mplab sources."""


def git_state() -> dict:
    """Revision and dirty flag of the checkout, or nulls outside a git tree.
    The ceiling keeps git from searching directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                                  capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    if rev is None:
        return {"rev": None, "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"rev": rev, "dirty": None if status is None else bool(status)}


def run_sample(name: str, seed: int, traced: bool, timeout: float,
               episodes: int, setup_only: bool = False) -> dict:
    """One workload process; a crash or timeout fails all its episodes."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
        episodes = 0
    env = dict(os.environ, **PINNED_ENV)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"traced": traced, "episodes": episodes, "failed": episodes,
                "error": f"sample timed out after {timeout:.0f} s"}
    process_s = time.monotonic() - launched
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": traced, "episodes": episodes, "failed": episodes,
                "process_s": process_s,
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    record = json.loads(lines[-1])
    record["process_s"] = process_s
    return record


def take_samples(name: str, seed: int, seconds: float, trace: bool,
                 episodes: int) -> tuple[list[dict], list[dict]]:
    """(workload samples, set-up-only samples) taken within ``seconds``.
    Untraced runs put SETUP_SAMPLES set-up-only processes before each
    workload sample: set-up time is short and noisy, so it gets its own
    larger sample."""
    start = time.monotonic()
    samples: list[dict] = []
    setups: list[dict] = []
    longest = 0.0
    while True:
        n_traced = sum(1 for s in samples if s["traced"])
        n_plain = len(samples) - n_traced
        enough = (n_plain >= MIN_EACH_TRACED and n_traced >= MIN_EACH_TRACED
                  if trace else n_plain >= MIN_UNTRACED)
        elapsed = time.monotonic() - start
        if enough and elapsed + longest > seconds:
            break
        if samples and elapsed + 1.5 * longest > RUN_LIMIT_S:
            break
        traced = trace and n_traced < n_plain
        t0 = time.monotonic()
        if not trace:
            setups += [run_sample(name, seed, False, RUN_LIMIT_S - elapsed,
                                  0, setup_only=True)
                       for _ in range(SETUP_SAMPLES)]
        sample = run_sample(name, seed, traced, RUN_LIMIT_S - elapsed,
                            episodes)
        samples.append(sample)
        longest = max(longest, time.monotonic() - t0)
    return samples, setups


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_value(metric: str, traced: list[dict], plain: list[dict]) -> float:
    if metric == "trace_overhead":
        base = _median(s["entry_s"] for s in plain)
        return _median(s["entry_s"] for s in traced) / base - 1.0 if base else 0.0
    if traced and metric in traced[0]["computed"]:
        return _median(s["computed"][metric] for s in traced)
    span, stat = metric.rsplit(".", 1)
    if stat not in STATS:
        raise ValueError(f"per-layer metric {metric!r} has no source")
    return _median(s["layers"].get(span, {}).get(stat, 0.0) for s in traced)


def summarize(name: str, seed: int, trace: bool, samples: list[dict],
              setups: list[dict], spec: dict,
              reference: dict) -> tuple[dict, dict]:
    """(result object, record) for one workload's samples."""
    attempted = sum(s["episodes"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    problems = []
    for s in samples + setups:
        problems += [p for p in [s.get("error")] if p]
        problems += s.get("problems", []) + s.get("harness_problems", [])
        if s.get("threads_after_warmup", 1) != 1:
            problems.append(f"{s['threads_after_warmup']} threads in a "
                            "pinned sample after the warm-up matmul")
    digests = sorted({s["digest"] for s in samples if "digest" in s})
    if len(digests) > 1:
        problems.append(f"samples disagree on the output digest: {digests}")
    ok = [s for s in samples if "entry_s" in s]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"] and "layers" in s]

    metrics: dict[str, dict] = {}
    if trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer_value(m["name"], traced, plain),
                                  "unit": m["unit"]}
    else:
        values = {
            "env_steps_per_s": _median(s["env_steps_per_s"] for s in plain),
            "setup_s": _median(s["setup_s"] for s in plain + setups
                               if "setup_s" in s),
            "peak_rss_mb": _median(s["peak_rss_mb"] for s in plain),
            "ok_ratio": 1.0 - failed / attempted,
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    want = reference.get("digests", {}).get(name, {}).get(str(seed))
    digest = digests[0] if len(digests) == 1 else None
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "git": git_state(),
        "env": ok[0]["env"] if ok else None,
        "digest": digest,
        "reference_digest": want,
        "digest_matches_reference": None if want is None or digest is None
        else digest == want,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "samples": [{k: s.get(k) for k in
                     ("traced", "setup_s", "entry_s", "env_steps_per_s",
                      "peak_rss_mb", "process_s", "failed")}
                    for s in samples],
        "setup_samples_s": [s.get("setup_s") for s in setups],
    }
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def report(name: str, result: dict, record: dict) -> None:
    samples = record["samples"]
    print(f"== {name} seed {record['seed']} trace {record['trace']}: "
          f"{len(samples)} samples")
    for metric, mv in result["metrics"].items():
        print(f"  {metric:44s} {mv['value']:14.6g} {mv['unit']}")
    print(f"  {'fail_ratio':44s} {record['fail_ratio']:14.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']} "
          "episodes)")
    match = record["digest_matches_reference"]
    print(f"  digest {record['digest']} reference "
          f"{'none for this seed' if match is None else 'match' if match else 'MISMATCH'}")
    for p in record["problems"]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run one mplab benchmark workload (see module docstring).")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mplab").is_dir():
        print(f"no mplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "mplab"), quiet=1)
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            samples, setups = take_samples(name, args.seed, args.seconds,
                                           bool(args.trace),
                                           WORKLOADS[name].episodes)
        except NoProgram as exc:
            print(f"cannot run the program: {exc}", file=sys.stderr)
            return 2
        result, record = summarize(name, args.seed, bool(args.trace),
                                   samples, setups, spec, reference)
        report(name, result, record)
        print("record " + json.dumps(record))
        if args.workload != "all":
            print(json.dumps(result))
            return 0
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v
                                    for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
