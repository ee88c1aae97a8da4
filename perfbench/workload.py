"""One measured workload run, in a process of its own.

``run.py`` starts this file once per sample with the BLAS thread variables
pinned to 1. It imports mplab from the checkout's ``src``, builds the
workload's inputs from the seed, times the workload's public entry call,
checks the outputs, and prints one JSON record as its last stdout line.
With ``--trace 1`` the layer functions are wrapped (see ``tracing``) for
the whole run, one checkpoint is saved at the end, and the record carries
per-span statistics and the computed work counts. With ``--setup-only``
it stops at the entry call and reports only the set-up time, so a run can
take many cheap set-up samples.

    python3 perfbench/workload.py --workload train_pp --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
EXIT_NO_PROGRAM = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
MIB = float(1 << 20)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _param_arrays(nets) -> list[np.ndarray]:
    return [a for net in nets for a in net.weights + net.biases]


class Workload:
    """A seeded input set plus the public entry call it times."""

    name: str
    episodes: int
    horizon = 25
    # Spans a traced run of this workload must record at least once.
    spans: tuple[str, ...]

    def setup(self, seed: int, episodes: int) -> SimpleNamespace:
        raise NotImplementedError

    def run(self, ctx: SimpleNamespace):
        raise NotImplementedError

    def check(self, ctx, out) -> tuple[int, list[str]]:
        """(failed episodes, problems) for the entry call's output."""
        raise NotImplementedError

    def traced_check(self, ctx, out, layers: dict) -> list[str]:
        """Checks that need the traced call counts."""
        steps = layers.get("world.step", {}).get("calls", 0)
        want = ctx.episodes * self.horizon
        if steps != want:
            return [f"world.step ran {steps} times, expected {want}"]
        return []

    def digest_parts(self, ctx, out) -> list[bytes]:
        raise NotImplementedError

    def save(self, ctx, out, path: str) -> str:
        raise NotImplementedError

    def buffers(self, ctx, out) -> list:
        return []

    def update_round_flop(self, ctx) -> float:
        return 0.0


class EvalPredatorPrey(Workload):
    name = "eval_pp"
    episodes = 500
    spans = ("world.step", "scenarios.reset", "scenarios.observe",
             "scenarios.rewards", "nets.forward_raw",
             "analysis.rollout_episode", "analysis.evaluate")

    def setup(self, seed, episodes):
        from mplab.scenarios import make_scenario
        from mplab.trainer import TrainConfig, make_trainer, policies_from_trainer

        scenario = make_scenario("predator_prey", variant="pp1")
        trainer = make_trainer(scenario, TrainConfig(episodes=episodes, seed=seed))
        return SimpleNamespace(scenario=scenario, trainer=trainer,
                               policies=policies_from_trainer(trainer),
                               rng=np.random.default_rng(seed),
                               episodes=episodes)

    def run(self, ctx):
        from mplab.analysis import evaluate

        return evaluate(ctx.scenario, ctx.policies, ctx.episodes, ctx.rng)

    def check(self, ctx, report):
        problems = []
        if report.episodes != ctx.episodes:
            problems.append(f"report covers {report.episodes} episodes")
        if not all(np.isfinite(v) for v in report.metrics.values()):
            problems.append("non-finite evaluation metric")
        if not 0.0 <= report.normalized_score <= 1.0:
            problems.append(f"normalized_score {report.normalized_score} "
                            "outside [0, 1]")
        return (ctx.episodes if problems else 0), problems

    def digest_parts(self, ctx, report):
        nets = [ag.actor for ag in ctx.trainer.agents]
        return [json.dumps(report.to_dict(), sort_keys=True).encode()] + [
            a.tobytes() for a in _param_arrays(nets)]

    def save(self, ctx, report, path):
        from mplab.trainer import save_trainer

        return save_trainer(ctx.trainer, path)


class TrainingWorkload(Workload):
    """A training entry call returning ``(state, per-episode return rows)``."""

    def nets(self, state) -> list:
        """Every network of the final state."""
        raise NotImplementedError

    def state_problems(self, ctx, state) -> list[str]:
        """Run-level checks on the final state (step and update counts)."""
        raise NotImplementedError

    def returns(self, ctx, metrics: list[dict]) -> np.ndarray:
        return np.array([[row[f"return_{i}"]
                          for i in range(ctx.scenario.n_agents)]
                         for row in metrics], dtype=np.float64)

    def check(self, ctx, out):
        """A missing or non-finite return row fails its episode; a failed
        run-level check fails every episode."""
        state, metrics = out
        problems = self.state_problems(ctx, state)
        if not all(np.isfinite(a).all() for a in _param_arrays(self.nets(state))):
            problems.append("non-finite final parameters")
        rows = self.returns(ctx, metrics)
        if rows.shape[0] != ctx.episodes:
            problems.append(f"{rows.shape[0]} return rows for "
                            f"{ctx.episodes} episodes")
        if problems:
            return ctx.episodes, problems
        return int((~np.isfinite(rows).all(axis=1)).sum()), problems

    def digest_parts(self, ctx, out):
        state, metrics = out
        return [self.returns(ctx, metrics).tobytes()] + [
            a.tobytes() for a in _param_arrays(self.nets(state))]


class TrainPredatorPrey(TrainingWorkload):
    name = "train_pp"
    episodes = 200
    spans = ("world.step", "scenarios.reset", "scenarios.observe",
             "scenarios.rewards", "nets.forward_raw", "nets.forward_cached",
             "nets.backward", "nets.adam_step", "nets.soft_update",
             "nets.save_checkpoint", "replay.push", "replay.sample",
             "trainer.act", "trainer.update_round", "trainer.target_actions",
             "trainer.critic_target", "trainer.critic_update",
             "trainer.actor_update")

    def setup(self, seed, episodes):
        from mplab.scenarios import make_scenario
        from mplab.trainer import TrainConfig, make_trainer

        scenario = make_scenario("predator_prey", variant="pp1")
        config = TrainConfig(episodes=episodes, seed=seed, modes="maddpg")
        return SimpleNamespace(scenario=scenario, config=config,
                               trainer=make_trainer(scenario, config),
                               episodes=episodes)

    def run(self, ctx):
        from mplab.trainer import train

        return train(ctx.scenario, ctx.config, trainer=ctx.trainer)

    def expected_rounds(self, ctx) -> int:
        """Multiples of update_every in [batch_size, env_steps]."""
        cfg = ctx.config
        steps = ctx.episodes * self.horizon
        return max(0, steps // cfg.update_every
                   - (cfg.batch_size - 1) // cfg.update_every)

    def nets(self, trainer):
        return [net for ag in trainer.agents
                for net in (ag.actor, ag.critic, ag.target_actor,
                            ag.target_critic)]

    def state_problems(self, ctx, trainer):
        problems = []
        want_steps = ctx.episodes * self.horizon
        if trainer.env_steps != want_steps:
            problems.append(f"env_steps {trainer.env_steps} != {want_steps}")
        rounds = self.expected_rounds(ctx)
        for i, ag in enumerate(trainer.agents):
            if ag.critic_opt.step_count != rounds or \
                    ag.actor_opt.step_count != rounds:
                problems.append(f"agent {i} took {ag.critic_opt.step_count} "
                                f"update steps, expected {rounds}")
        return problems

    def traced_check(self, ctx, out, layers):
        problems = super().traced_check(ctx, out, layers)
        calls = layers.get("trainer.update_round", {}).get("calls", 0)
        if calls != self.expected_rounds(ctx):
            problems.append(f"update_round ran {calls} times, expected "
                            f"{self.expected_rounds(ctx)}")
        return problems

    def save(self, ctx, out, path):
        from mplab.trainer import save_trainer

        return save_trainer(out[0], path)

    def buffers(self, ctx, out):
        return [out[0].buffer]

    def update_round_flop(self, ctx):
        """Matmul FLOPs of one update round as ``trainer.update_round`` runs
        it with the default bootstrap target. Per agent i: every target
        actor forward (target_actions), the target critic forward, critic
        forward + parameter/input backward (3 passes), and in the actor
        step the actor forward + backward (3 passes) plus a critic forward
        and an input-only backward (2 passes). One pass over a dense layer
        of a batch of B rows costs 2 * B * d_in * d_out."""
        batch = ctx.config.batch_size

        def passes(net) -> float:
            return 2.0 * batch * sum(a * b for a, b in
                                     zip(net.dims[:-1], net.dims[1:]))

        agents = ctx.trainer.agents
        targets = sum(passes(ag.target_actor) for ag in agents)
        return sum(targets + 6 * passes(ag.critic) + 3 * passes(ag.actor)
                   for ag in agents)


class TrainEnsembleKeepAway(TrainingWorkload):
    name = "train_ens_ka"
    episodes = 400
    k = 3
    spans = ("world.step", "scenarios.reset", "scenarios.observe",
             "scenarios.rewards", "nets.forward_raw", "nets.forward_cached",
             "nets.backward", "nets.adam_step", "nets.soft_update",
             "nets.save_checkpoint", "replay.push", "replay.sample",
             "trainer.act", "trainer.critic_target", "trainer.critic_update",
             "trainer.actor_update", "extensions.ensemble_update",
             "extensions.ensemble_target_actions")

    def setup(self, seed, episodes):
        from mplab.scenarios import make_scenario
        from mplab.trainer import TrainConfig

        # train_ensemble builds its own state, so ensemble construction is
        # inside the timed entry call.
        return SimpleNamespace(scenario=make_scenario("keep_away"),
                               config=TrainConfig(episodes=episodes, seed=seed),
                               episodes=episodes)

    def run(self, ctx):
        from mplab.extensions import train_ensemble

        return train_ensemble(ctx.scenario, ctx.config, k=self.k,
                              tie_teams=True)

    def attempts(self, ctx) -> int:
        rounds = ctx.episodes * self.horizon // ctx.config.update_every
        return rounds * ctx.scenario.n_agents * self.k

    def nets(self, ens):
        nets = [net for row in ens.actors + ens.target_actors for net in row]
        return nets + [net for ag in ens.trainer.agents
                       for net in (ag.critic, ag.target_critic)]

    def state_problems(self, ctx, ens):
        problems = []
        want_steps = ctx.episodes * self.horizon
        if ens.trainer.env_steps != want_steps:
            problems.append(f"env_steps {ens.trainer.env_steps} != {want_steps}")
        pushes = sum(buf.size for row in ens.buffers for buf in row)
        if pushes != want_steps * ctx.scenario.n_agents:
            problems.append(f"{pushes} sub-policy buffer records, expected "
                            f"{want_steps * ctx.scenario.n_agents}")
        for i, ag in enumerate(ens.trainer.agents):
            actor_steps = sum(o.step_count for o in ens.actor_opts[i])
            if actor_steps != ag.critic_opt.step_count:
                problems.append(f"agent {i}: {actor_steps} sub-policy steps "
                                f"vs {ag.critic_opt.step_count} critic steps")
        return problems

    def traced_check(self, ctx, out, layers):
        problems = super().traced_check(ctx, out, layers)
        calls = layers.get("extensions.ensemble_update", {}).get("calls", 0)
        if calls != self.attempts(ctx):
            problems.append(f"ensemble_update ran {calls} times, expected "
                            f"{self.attempts(ctx)}")
        return problems

    def save(self, ctx, out, path):
        from mplab.extensions import save_ensemble

        return save_ensemble(out[0], path)

    def buffers(self, ctx, out):
        return [buf for row in out[0].buffers for buf in row]


class TrainOnPolicyCoopComm(TrainingWorkload):
    name = "train_onpolicy"
    episodes = 1000
    algos = ("reinforce", "iac")
    spans = ("world.step", "scenarios.reset", "scenarios.observe",
             "scenarios.rewards", "nets.forward_raw", "nets.forward_cached",
             "nets.backward", "nets.adam_step", "nets.save_checkpoint",
             "baselines.sample_and_logprob", "baselines.reinforce_update",
             "baselines.independent_ac_update")

    def setup(self, seed, episodes):
        from mplab.scenarios import make_scenario
        from mplab.trainer import TrainConfig

        # train_baseline builds its own state, so policy construction is
        # inside the timed entry call.
        return SimpleNamespace(scenario=make_scenario("coop_comm"),
                               config=TrainConfig(episodes=episodes, seed=seed),
                               episodes=episodes)

    def run(self, ctx):
        from mplab.baselines import train_baseline

        return train_baseline(ctx.scenario, ctx.config, self.algos)

    def nets(self, state):
        return [p.net for p in state.policies] + [
            v for v in state.value_nets if v is not None]

    def state_problems(self, ctx, state):
        # BaselineState keeps no step counter; traced runs check
        # world.step.calls instead.
        problems = []
        if state.episodes_done != ctx.episodes:
            problems.append(f"episodes_done {state.episodes_done}")
        opts = state.policy_opts + [o for o in state.value_opts if o is not None]
        if any(o.step_count != ctx.episodes for o in opts):
            problems.append("an optimizer did not step once per episode")
        return problems

    def save(self, ctx, out, path):
        from mplab.baselines import save_baseline

        return save_baseline(out[0], path)


WORKLOADS = {wl.name: wl for wl in (EvalPredatorPrey(), TrainPredatorPrey(),
                                    TrainEnsembleKeepAway(),
                                    TrainOnPolicyCoopComm())}


# ---------------------------------------------------------------------------
# Computed work counts
# ---------------------------------------------------------------------------

def contact_pairs(scenario) -> int:
    """Entity pairs ``world.step`` evaluates a contact force for: both
    collidable and at least one movable."""
    ents = scenario.entities
    idx = [k for k, e in enumerate(ents) if e.collidable]
    return sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx))
               if ents[idx[a]].movable or ents[idx[b]].movable)


def _buffer_arrays(buf) -> list[np.ndarray]:
    return [v for v in vars(buf).values()
            if isinstance(v, np.ndarray) and v.ndim >= 1]


UPDATE_SPANS = ("trainer.update_round", "extensions.ensemble_update",
                "nets.soft_update", "baselines.reinforce_update",
                "baselines.independent_ac_update")


def computed_counts(wl: Workload, ctx, out, layers: dict, tracer,
                    entry_s: float) -> dict[str, float]:
    def calls(span: str) -> int:
        return layers.get(span, {}).get("calls", 0)

    bufs = wl.buffers(ctx, out)
    row_bytes = max((sum(a.nbytes // a.shape[0] for a in _buffer_arrays(b))
                     for b in bufs), default=0)
    batch = getattr(getattr(ctx, "config", None), "batch_size", 0)
    gflop = calls("trainer.update_round") * wl.update_round_flop(ctx) / 1e9
    round_s = layers.get("trainer.update_round", {}).get("s", 0.0)
    attempts = calls("extensions.ensemble_update")
    skipped = tracer.counts["extensions.ensemble_update.skipped"]

    # Update work that blocks the episode loop: spans directly under the
    # entry span (soft updates inside an update round are not counted twice).
    a = tracer.arrays()
    root = np.flatnonzero(a["name_id"] == tracer.names.index(tracing.ROOT_SPAN))
    update_ids = [tracer.names.index(n) for n in UPDATE_SPANS
                  if n in tracer.names]
    top = (a["parent"] == root[0]) & np.isin(a["name_id"], update_ids)
    update_s = float((a["end_ns"][top] - a["start_ns"][top]).sum()) / 1e9

    return {
        "world.contact_pairs": contact_pairs(ctx.scenario),
        "replay.sample.mb": calls("replay.sample") * batch * row_bytes / MIB,
        "replay.alloc_mb": sum(x.nbytes for b in bufs
                               for x in _buffer_arrays(b)) / MIB,
        "trainer.update_round.gflop": gflop,
        "trainer.update_round.gflops": gflop / round_s if round_s else 0.0,
        "trainer.update_share": update_s / entry_s if entry_s else 0.0,
        "extensions.ensemble_update.skipped": skipped,
        "extensions.ensemble_update.useful_ratio":
            (attempts - skipped) / attempts if attempts else 0.0,
    }


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------

def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def measure(wl: Workload, seed: int, trace: bool,
            launched: float | None = None, episodes: int | None = None,
            out_dir: Path = OUT_DIR) -> dict:
    """Build the workload's inputs, time its entry call, check the output.

    ``launched`` is the ``time.monotonic()`` reading taken by the parent just
    before it started this process; set-up time runs from there to the
    entry call.
    """
    episodes = episodes or wl.episodes
    run_id = f"{wl.name}-s{seed}-p{os.getpid()}"
    tracer = tracing.Tracer(run_id) if trace else None
    record: dict = {"workload": wl.name, "seed": seed, "traced": trace,
                    "episodes": episodes, "env_steps": episodes * wl.horizon,
                    "problems": [], "harness_problems": []}
    if tracer:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.install()
    try:
        ctx = wl.setup(seed, episodes)
        t0 = time.monotonic()
        if launched is not None:
            record["setup_s"] = t0 - launched
        out = None
        try:
            if tracer:
                out = tracer.span(tracing.ROOT_SPAN, wl.run, ctx)
            else:
                out = wl.run(ctx)
        except Exception:  # the run aborted: every episode counts as failed
            record["problems"].append(traceback.format_exc())
        entry_s = time.monotonic() - t0
        if out is not None and tracer:
            ckpt = wl.save(ctx, out, str(out_dir / f"ckpt-{wl.name}.npz"))
            record["ckpt_bytes"] = os.path.getsize(ckpt)
    finally:
        if tracer:
            tracer.uninstall()
    record["entry_s"] = entry_s
    record["env_steps_per_s"] = record["env_steps"] / entry_s
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if out is None:
        record["failed"] = episodes
        return record
    failed, problems = wl.check(ctx, out)
    record["digest"] = digest(wl.digest_parts(ctx, out))
    if tracer:
        layers = tracing.summarize(tracer)
        problems += wl.traced_check(ctx, out, layers)
        if problems and not failed:
            failed = episodes
        missing = [s for s in wl.spans
                   if layers.get(s, {}).get("calls", 0) < 1]
        if missing:
            record["harness_problems"].append(f"spans never called: {missing}")
        leftover = tracing.leftover_wrappers()
        if leftover:
            record["harness_problems"].append(f"wrappers left: {leftover}")
        record["layers"] = layers
        record["computed"] = computed_counts(wl, ctx, out, layers, tracer,
                                             layers[tracing.ROOT_SPAN]["s"])
        record["computed"]["nets.save_checkpoint.bytes"] = record["ckpt_bytes"]
        tracer.save(out_dir / f"spans-{wl.name}.npz")
    record["failed"] = failed
    record["problems"] += problems
    return record


# ---------------------------------------------------------------------------
# Process entry
# ---------------------------------------------------------------------------

def own_thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the entry call and report set-up time")
    args = parser.parse_args(argv)
    if args.setup_only and args.launched is None:
        parser.error("--setup-only needs --launched")

    if not (SRC / "mplab" / "__init__.py").is_file():
        print(f"no mplab sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    warm = np.ones((64, 64))
    warm = warm @ warm
    threads = own_thread_count()
    import mplab

    if Path(mplab.__file__).resolve().parent != SRC / "mplab":
        print(f"mplab imported from {mplab.__file__}, not {SRC}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed, wl.episodes)
        record = {"setup_s": time.monotonic() - args.launched}
    else:
        record = measure(wl, args.seed, bool(args.trace),
                         launched=args.launched)
        record["env"] = fingerprint()
    record["threads_after_warmup"] = threads
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
