"""The benchmark's seeded workloads and the checks on their outputs.

A run repeats passes until its time is up. A pass is a set-up (generate
the corpus and the expert demos in memory; `ingest-infer` also trains and
saves the checkpoint its rollouts use) followed by one round:

1. prep: `codegaze synth`, `ingest` and `augment` through `cli.main`, in a
   directory of their own;
2. train (`train-*` only): a one-epoch `training.train` from scratch;
3. eval and rollouts: `training.evaluate` on the held-out split, EVALS
   times a round, each followed by an equal share of the greedy
   `training.predict` rollouts on a fixed list of snippets, with the
   workload's further preps spread between them. Spreading the repeats
   over the round keeps one slow stretch of the host from landing on all
   of them.

Every pass of a seed does identical work, so a run's metrics are medians
(and latency percentiles) over its passes. Once a run has its minimum of
passes it gets a deadline: an operation that, at its median time so far,
would end after it is not started, and the pass stops there, so the last
pass may be partial. The set-up is repeated with
each round rather than done once up front, so that its samples, like the
others, spread over the whole run. Operations are timed with a
`hostclock.HostClock`, and the metrics use its normalized seconds.

Every operation is attempted under `Ledger.attempt`: an exception, or a
failed output check, counts as one failed operation and the run goes on.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field

from codegaze import cli, gaze, synth, training
from codegaze.features import FeatureSpec
from codegaze.policy import BCConfig

import hostclock

N_CLASSES = 3
AUG_M = 4
AUG_SIGMA = 1.0
MAX_STEPS = 256
EVALS = 4  # evaluations per round
FEATURES = FeatureSpec(mode="onehot_pos")


@dataclass(frozen=True)
class Spec:
    """A workload's inputs; why each was chosen is in BENCHMARK.json."""
    name: str
    n_snippets: int
    lines: tuple[int, int]
    expert: str              # "linear" or "skimmer"
    train_in_round: bool
    rollouts: int            # snippets rolled out per round
    preps: int               # preps per round
    setup_train: int = 0     # trajectories the set-up checkpoint is trained on


WORKLOADS = {spec.name: spec for spec in (
    Spec("train-linear", n_snippets=200, lines=(3, 5), expert="linear",
         train_in_round=True, rollouts=50, preps=3),
    Spec("train-skim-long", n_snippets=100, lines=(12, 16), expert="skimmer",
         train_in_round=True, rollouts=100, preps=3),
    Spec("ingest-infer", n_snippets=300, lines=(3, 5), expert="linear",
         train_in_round=False, rollouts=100, preps=3, setup_train=64),
)}


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, what: str, fn, *args):
        """Run one operation; on any exception count a failure and return None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # the benchmark keeps running past a failed op
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {type(e).__name__}: {e}")
            return None


@dataclass
class Inputs:
    snippets: dict
    demos: dict
    train: list
    held: list
    rollout_ids: list
    ckpt_path: str | None = None


def _steps(snippets: dict, trajectories: list) -> int:
    """Encoder plus decoder steps of one teacher-forced pass."""
    return sum(len(snippets[t.snippet_id].tokens) + len(t.steps) + 1 for t in trajectories)


@dataclass
class Samples:
    """Time spans of a run's operations, with the counts that turn them into rates."""
    setup: list = field(default_factory=list)
    prep: list = field(default_factory=list)
    epoch: list = field(default_factory=list)
    train_steps: int = 0
    train_loss: list = field(default_factory=list)
    eval: list = field(default_factory=list)
    eval_steps: int = 0
    rollout: list = field(default_factory=list)
    rollout_snippets: list = field(default_factory=list)  # snippet id of each rollout
    rollout_steps: list = field(default_factory=list)  # decoder steps of each rollout,
                                                       # counting the one that chose stop

    SPANS = ("setup", "prep", "epoch", "eval", "rollout")


class Run:
    """One workload at one seed: its passes, samples and failures."""

    def __init__(self, spec: Spec, seed: int, workdir: str, clock: hostclock.HostClock):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.ledger = Ledger()
        self.samples = Samples()
        self.ckpt_bytes: bytes | None = None  # first checkpoint, for the rerun check
        self.rollout_steps: dict = {}         # snippet id -> first rollout's steps
        self.rounds = 0
        self.deadline: float | None = None    # on the perf_counter clock

    def generator(self) -> synth.GeneratorConfig:
        return synth.GeneratorConfig(seed=self.seed, n_snippets=self.spec.n_snippets,
                                     n_classes=N_CLASSES, lines_min=self.spec.lines[0],
                                     lines_max=self.spec.lines[1])

    def config(self) -> dict:
        """The workload's generator and training parameters, for provenance."""
        gen = asdict(self.generator())
        del gen["keyword_pool"], gen["ident_pool"]
        return {"generator": gen, "bc_config": asdict(BCConfig(epochs=1)),
                "features": asdict(FEATURES), "expert": self.spec.expert,
                "augment": {"m": AUG_M, "sigma_tokens": AUG_SIGMA},
                "max_steps": MAX_STEPS, "rollouts_per_round": self.spec.rollouts,
                "evals_per_round": EVALS, "preps_per_round": self.spec.preps,
                "setup_train_trajectories": self.spec.setup_train}

    def pass_(self) -> bool:
        """One set-up and, if it succeeded, one round; False if the deadline cut it."""
        if not self._fits("setup"):
            return False
        inputs, span = self.clock.timed(self.setup)
        self.samples.setup.append(span)
        return inputs is None or self.round(inputs)

    def _fits(self, name: str) -> bool:
        """Whether one more `name` operation, at its median time so far, ends by the deadline."""
        if self.deadline is None:
            return True
        spans = getattr(self.samples, name)
        typical = statistics.median(end - start for start, end in spans) if spans else 0.0
        return time.perf_counter() + typical <= self.deadline

    # -- set-up -------------------------------------------------------------

    def setup(self) -> Inputs | None:
        inputs = self.ledger.attempt("generate corpus", self._generate)
        if inputs is not None and self.spec.setup_train:
            inputs.ckpt_path = os.path.join(self.workdir, "setup-ckpt.json")
            sub = inputs.train[:self.spec.setup_train]
            if self._train(sub, inputs, inputs.ckpt_path) is None:
                return None
        return inputs

    def _generate(self) -> Inputs:
        gen = self.generator()
        snippets = {synth.snippet_id(i): synth.gen_snippet(gen, i)
                    for i in range(gen.n_snippets)}
        salient = gen.keyword_set()
        demos = {sid: (synth.linear_reader(sn) if self.spec.expert == "linear"
                       else synth.keyword_skimmer(sn, salient))
                 for sid, sn in snippets.items()}
        train_ids, held_ids = training.split_by_id(sorted(snippets))
        return Inputs(snippets=snippets, demos=demos,
                      train=[demos[sid] for sid in train_ids],
                      held=[demos[sid] for sid in held_ids],
                      rollout_ids=sorted(snippets)[:self.spec.rollouts])

    def _train(self, trajectories: list, inputs: Inputs, ckpt_path: str):
        """One-epoch training, saved and checked against the first checkpoint."""
        def op():
            snippets = {t.snippet_id: inputs.snippets[t.snippet_id] for t in trajectories}
            ckpt, span = self.clock.timed(training.train, trajectories, snippets,
                                          BCConfig(epochs=1), FEATURES)
            loss = ckpt.epoch_log[-1]["mean_loss"]
            expect(math.isfinite(loss), f"train_loss {loss} is not finite")
            training.save_checkpoint(ckpt, ckpt_path)
            with open(ckpt_path, "rb") as f:
                data = f.read()
            if self.ckpt_bytes is None:
                self.ckpt_bytes = data
            expect(data == self.ckpt_bytes, "same-seed trainings saved different checkpoints")
            self.samples.epoch.append(span)
            self.samples.train_loss.append(loss)
            self.samples.train_steps = _steps(inputs.snippets, trajectories)
            return ckpt
        return self.ledger.attempt("train", op)

    # -- one round ------------------------------------------------------------

    def round(self, inputs: Inputs) -> bool:
        """One round; False if the deadline cut it short."""
        rdir = os.path.join(self.workdir, f"round{self.rounds}")
        self.rounds += 1
        os.makedirs(rdir)
        try:
            if not self._fits("prep"):
                return False
            self._prep(inputs, os.path.join(rdir, "prep0"))
            later_preps = {EVALS * k // self.spec.preps: k for k in range(1, self.spec.preps)}
            if not self.spec.train_in_round:
                ckpt = self.ledger.attempt("load checkpoint", training.load_checkpoint,
                                           inputs.ckpt_path)
            elif self._fits("epoch"):
                ckpt = self._train(inputs.train, inputs, os.path.join(rdir, "ckpt.json"))
            else:
                return False
            if ckpt is None:
                return True
            ids = inputs.rollout_ids
            for i in range(EVALS):
                if i in later_preps:
                    if not self._fits("prep"):
                        return False
                    self._prep(inputs, os.path.join(rdir, f"prep{later_preps[i]}"))
                if not self._fits("eval"):
                    return False
                self._eval(ckpt, inputs)
                for sid in ids[i * len(ids) // EVALS:(i + 1) * len(ids) // EVALS]:
                    if not self._fits("rollout"):
                        return False
                    self.ledger.attempt(f"rollout {sid}", self._rollout, ckpt,
                                        inputs.snippets[sid])
            return True
        finally:
            shutil.rmtree(rdir, ignore_errors=True)

    def _prep(self, inputs: Inputs, pdir: str) -> None:
        os.makedirs(pdir)
        p = {name: os.path.join(pdir, name) for name in
             ("corpus", "labels.csv", "demos.jsonl", "gaze", "layout.json",
              "traj.jsonl", "aug.jsonl")}
        lo, hi = self.spec.lines

        def pipeline():
            ok = self.ledger.attempt("cli synth", _cli, [
                "synth", "--seed", str(self.seed), "--n-snippets", str(self.spec.n_snippets),
                "--n-classes", str(N_CLASSES), "--lines-min", str(lo), "--lines-max", str(hi),
                "--expert", self.spec.expert,
                "--corpus-dir", p["corpus"], "--labels", p["labels.csv"],
                "--out", p["demos.jsonl"], "--gaze-dir", p["gaze"],
                "--layout", p["layout.json"]])
            ok = ok and self.ledger.attempt("cli ingest", _cli, [
                "ingest", "--corpus-dir", p["corpus"], "--gaze-dir", p["gaze"],
                "--layout", p["layout.json"], "--out", p["traj.jsonl"]])
            return ok and self.ledger.attempt("cli augment", _cli, [
                "augment", "--corpus-dir", p["corpus"], "--trajectories", p["traj.jsonl"],
                "--out", p["aug.jsonl"], "--m", str(AUG_M),
                "--sigma-tokens", str(AUG_SIGMA), "--seed", str(self.seed)])

        ok, span = self.clock.timed(pipeline)
        if not ok:
            return
        self.samples.prep.append(span)
        self.ledger.attempt("ingested equal expert", _check_ingested,
                            p["traj.jsonl"], inputs.demos)
        self.ledger.attempt("augment weights", _check_augmented,
                            p["traj.jsonl"], p["aug.jsonl"])

    def _eval(self, ckpt, inputs: Inputs) -> None:
        def op():
            metrics, span = self.clock.timed(training.evaluate, ckpt, inputs.held,
                                             inputs.snippets)
            expect(math.isfinite(metrics.mean_loss), "eval loss is not finite")
            expect(0.0 <= metrics.action_accuracy <= 1.0, "eval accuracy out of range")
            self.samples.eval.append(span)
            self.samples.eval_steps = _steps(inputs.snippets, inputs.held)
        self.ledger.attempt("evaluate", op)

    def _rollout(self, ckpt, snippet) -> None:
        (steps, _), span = self.clock.timed(training.predict, ckpt, snippet, MAX_STEPS)
        n = len(snippet.tokens)
        expect(len(steps) <= MAX_STEPS, f"{len(steps)} steps exceed max_steps")
        expect(all(0 <= s < n for s in steps), f"step out of range for {n} tokens")
        first = self.rollout_steps.setdefault(snippet.id, steps)
        expect(steps == first, "rollout differs from the same snippet's first rollout")
        self.samples.rollout.append(span)
        self.samples.rollout_snippets.append(snippet.id)
        self.samples.rollout_steps.append(len(steps) + 1 if len(steps) < MAX_STEPS
                                          else MAX_STEPS)

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        """Measured and normalized seconds of every timed operation."""
        out = {name: [self.clock.seconds(span) for span in getattr(self.samples, name)]
               for name in Samples.SPANS}
        out["reference_s"] = self.clock.secs
        out["train_loss"] = self.samples.train_loss
        return out

    def end_to_end(self, peak_rss_mb: float) -> dict:
        """Every end-to-end metric of the run, from normalized seconds."""
        s = self.samples
        norm = {name: [self.clock.seconds(span)[1] for span in getattr(s, name)]
                for name in Samples.SPANS}
        epoch = _median(norm["epoch"])
        by_snippet: dict = {}
        for sid, secs in zip(s.rollout_snippets, norm["rollout"]):
            by_snippet.setdefault(sid, []).append(secs * 1e3)
        # Latency of each snippet is its median over the run, so that the
        # percentiles rank snippets, not the host's brief stalls.
        rollout_ms = [statistics.median(ms) for ms in by_snippet.values()]
        ledger = self.ledger
        return {
            "setup_s": (_median(norm["setup"]), "s"),
            "prep_s": (_median(norm["prep"]), "s"),
            "epoch_s": (epoch, "s"),
            "train_tok_per_s": (_ratio(s.train_steps, epoch), "1/s"),
            "train_loss": (_median(s.train_loss), "nats"),
            "eval_tok_per_s": (_ratio(s.eval_steps, _median(norm["eval"])), "1/s"),
            "rollout_ms.p50": (_quantile(rollout_ms, 50), "ms"),
            "rollout_ms.p90": (_quantile(rollout_ms, 90), "ms"),
            "rollout_steps_per_s": (_median([n / t for n, t in zip(s.rollout_steps,
                                                                   norm["rollout"])]), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1.0 - ledger.failed / max(ledger.attempted, 1), "fraction"),
        }


def _cli(argv: list[str]) -> bool:
    code = cli.main(argv)
    expect(code == 0, f"codegaze {argv[0]} exited with {code}")
    return True


def _check_ingested(traj_path: str, demos: dict) -> None:
    ingested = gaze.read_trajectories_jsonl(traj_path)
    expect(len(ingested) == len(demos), f"{len(ingested)} ingested for {len(demos)} demos")
    for traj in ingested:
        expert = demos[traj.snippet_id]
        expect(traj.steps == expert.steps, f"{traj.snippet_id}: ingested steps differ from expert")


def _check_augmented(traj_path: str, aug_path: str) -> None:
    originals = gaze.read_trajectories_jsonl(traj_path)
    augmented = gaze.read_trajectories_jsonl(aug_path)
    group = AUG_M + 1
    expect(len(augmented) == group * len(originals),
           f"{len(augmented)} augmented for {len(originals)} trajectories")
    for i, traj in enumerate(originals):
        copies = augmented[i * group:(i + 1) * group]
        expect(all(c.snippet_id == traj.snippet_id for c in copies),
               f"{traj.snippet_id}: augmented copies out of order")
        total = math.fsum(c.weight for c in copies)
        expect(abs(total - 1.0) <= 1e-12, f"{traj.snippet_id}: weights sum to {total!r}")


def _median(values: list):
    return statistics.median(values) if values else None


def _quantile(values: list, q: int):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(count: int, seconds):
    return count / seconds if seconds else None
