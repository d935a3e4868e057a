"""Command-line pipeline: synth / tokenize / ingest / augment / train / eval /
rollout / gradcheck.

Configuration is a flat JSON file (``--config``) whose keys mirror the
command-line flags; flags win over file values, unknown keys are rejected.
Exit codes: 0 success, 1 usage or config error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import reduce
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import policy, synth, training
from .features import FeatureSpec
from .gaze import (EmptyTrajectoryError, LayoutSpec, StepRangeError, augment,
                   build_trajectory, load_layout, read_fixations_csv,
                   read_trajectories_jsonl, write_trajectories_jsonl)
from .lexer import LabelKind, LexError, TaskLabel, attach_labels, load_corpus, load_labels
from .training import CheckpointError


class UsageError(ValueError):
    pass


DEFAULTS = {
    "corpus_dir": None, "labels": None, "gaze_dir": None, "layout": None,
    "trajectories": None, "checkpoint": None, "metrics_out": None, "out": None,
    "snippet": None, "split": "all",
    "seed": 0, "w_att": 1.0, "w_aux": 0.0,
    "d_emb": 32, "d_hidden": 48, "d_attn": 64,
    "lr": 5e-3, "grad_clip": 5.0, "epochs": 50, "batch": 8,
    "task_mode": "none", "n_classes": 0,
    "feature_mode": "onehot_pos", "ngram_n": 3, "ngram_buckets": 64,
    "embed_path": "", "min_count": 1,
    "min_dur_ms": 50.0, "radius_px": 30.0, "sigma_tokens": 1.0, "m": 4,
    "n_snippets": 200, "lines_min": 3, "lines_max": 5, "bug_rate": 0.0,
    "expert": "linear", "salient": None, "bug_window": 2,
    "max_steps": 256, "tab_width": 4, "keywords": None,
}


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                file_cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise UsageError(f"config {args.config}: invalid JSON: {e}") from e
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"config {args.config}: unknown keys {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if not cfg[k]]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")


def _keyword_set(cfg: dict) -> set[str]:
    if cfg["keywords"]:
        return set(cfg["keywords"].split(","))
    return set(synth.DEFAULT_KEYWORD_POOL)


def _load_corpus(cfg: dict) -> dict:
    _require(cfg, "corpus_dir")
    corpus = load_corpus(cfg["corpus_dir"], _keyword_set(cfg), tab_width=cfg["tab_width"])
    if cfg["labels"]:
        prefer = LabelKind.BUG if cfg["task_mode"] == "localize" else LabelKind.CLASS
        attach_labels(corpus, load_labels(cfg["labels"]), prefer=prefer)
    return corpus


def _feature_spec(cfg: dict) -> FeatureSpec:
    return FeatureSpec(mode=cfg["feature_mode"], ngram_n=cfg["ngram_n"],
                       buckets=cfg["ngram_buckets"], path=cfg["embed_path"])


def _bc_config(cfg: dict) -> policy.BCConfig:
    return policy.BCConfig(
        w_att=cfg["w_att"], w_aux=cfg["w_aux"], d_emb=cfg["d_emb"],
        d_hidden=cfg["d_hidden"], d_attn=cfg["d_attn"], lr=cfg["lr"],
        grad_clip=cfg["grad_clip"], epochs=cfg["epochs"], batch=cfg["batch"],
        seed=cfg["seed"], task_mode=cfg["task_mode"], n_classes=cfg["n_classes"])


def _split_trajectories(trajectories, split: str):
    ids = sorted({t.snippet_id for t in trajectories})
    train_ids, held_ids = training.split_by_id(ids)
    if split == "train":
        keep = set(train_ids)
    elif split == "held":
        keep = set(held_ids)
    elif split == "all":
        keep = set(ids)
    else:
        raise UsageError(f"unknown split {split!r} (expected train, held, or all)")
    return [t for t in trajectories if t.snippet_id in keep]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_tokenize(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "out")
    corpus = _load_corpus(cfg)
    with open(cfg["out"], "w", encoding="utf-8") as f:
        for sid in sorted(corpus):
            snippet = corpus[sid]
            obj = {"id": sid, "n_lines": snippet.n_lines, "tokens": [
                {"text": t.text, "kind": t.kind.value, "line": t.line,
                 "col_start": t.col_start, "col_end": t.col_end}
                for t in snippet.tokens]}
            f.write(json.dumps(obj, sort_keys=True) + "\n")
    return 0


def cmd_ingest(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "gaze_dir", "layout", "out")
    corpus = _load_corpus(cfg)
    layout = load_layout(cfg["layout"])
    trajectories = []
    for path in sorted(Path(cfg["gaze_dir"]).glob("*.csv")):
        sid = path.stem
        if sid not in corpus:
            raise KeyError(f"gaze file {path}: no snippet {sid!r} in corpus")
        fixations = read_fixations_csv(path)
        trajectories.append(build_trajectory(
            fixations, layout, corpus[sid],
            min_dur_ms=cfg["min_dur_ms"], radius_px=cfg["radius_px"]))
    if not trajectories:
        raise EmptyTrajectoryError(f"no fixation files found in {cfg['gaze_dir']}")
    write_trajectories_jsonl(trajectories, cfg["out"])
    return 0


def cmd_augment(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "trajectories", "out")
    corpus = _load_corpus(cfg)
    expanded = []
    for i, traj in enumerate(read_trajectories_jsonl(cfg["trajectories"])):
        if traj.snippet_id not in corpus:
            raise KeyError(f"trajectory references unknown snippet {traj.snippet_id!r}")
        expanded.extend(augment(traj, corpus[traj.snippet_id],
                                cfg["sigma_tokens"], cfg["m"], cfg["seed"] + i))
    write_trajectories_jsonl(expanded, cfg["out"])
    return 0


def cmd_synth(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "labels", "out")
    gen = synth.GeneratorConfig(
        seed=cfg["seed"], n_snippets=cfg["n_snippets"], n_classes=max(cfg["n_classes"], 2),
        lines_min=cfg["lines_min"], lines_max=cfg["lines_max"], bug_rate=cfg["bug_rate"])
    synth.write_corpus(gen, cfg["corpus_dir"], cfg["labels"])

    salient = set(cfg["salient"].split(",")) if cfg["salient"] else gen.keyword_set()
    demos = []
    for index in range(gen.n_snippets):
        snippet = synth.gen_snippet(gen, index)
        if cfg["expert"] == "linear":
            demos.append(synth.linear_reader(snippet))
        elif cfg["expert"] == "skimmer":
            demos.append(synth.keyword_skimmer(snippet, salient))
        elif cfg["expert"] == "bug_seeker":
            demos.append(synth.bug_seeker(snippet, cfg["bug_window"]))
        else:
            raise UsageError(f"unknown expert {cfg['expert']!r}")
    write_trajectories_jsonl(demos, cfg["out"])

    if cfg["gaze_dir"]:
        layout = LayoutSpec()
        gaze_dir = Path(cfg["gaze_dir"])
        gaze_dir.mkdir(parents=True, exist_ok=True)
        for index, traj in enumerate(demos):
            snippet = synth.gen_snippet(gen, index)
            fixations = synth.fixations_for_trajectory(traj, snippet, layout)
            with open(gaze_dir / f"{traj.snippet_id}.csv", "w", encoding="utf-8") as f:
                f.write("t_ms,x_px,y_px,dur_ms\n")
                for fx in fixations:
                    f.write(f"{fx.t_ms},{fx.x_px},{fx.y_px},{fx.dur_ms}\n")
        if cfg["layout"]:
            with open(cfg["layout"], "w", encoding="utf-8") as f:
                json.dump(dataclasses.asdict(layout), f, sort_keys=True)
                f.write("\n")
    return 0


def cmd_train(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "trajectories", "checkpoint")
    corpus = _load_corpus(cfg)
    trajectories = read_trajectories_jsonl(cfg["trajectories"])
    train_trajs = _split_trajectories(trajectories, "train")
    if not train_trajs:
        raise EmptyTrajectoryError("no trajectories in the training split")
    train_ids = {t.snippet_id for t in train_trajs}
    train_snippets = {sid: sn for sid, sn in corpus.items() if sid in train_ids}
    _backfill_tasks(train_trajs, train_snippets, cfg["task_mode"])
    ckpt = training.train(train_trajs, train_snippets, _bc_config(cfg),
                          _feature_spec(cfg), min_count=cfg["min_count"])
    training.save_checkpoint(ckpt, cfg["checkpoint"])
    if cfg["metrics_out"]:
        with open(cfg["metrics_out"], "w", encoding="utf-8") as f:
            for entry in ckpt.epoch_log:
                f.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


def _backfill_tasks(trajectories, corpus, task_mode: str) -> None:
    """Give label-less trajectories their snippet's task label."""
    for traj in trajectories:
        if traj.task is None and traj.snippet_id in corpus:
            snippet = corpus[traj.snippet_id]
            if snippet.task is not None:
                traj.task = TaskLabel(snippet.task.kind, snippet.task.value)


def cmd_eval(cfg: dict) -> int:
    _require(cfg, "checkpoint", "corpus_dir", "trajectories")
    ckpt = training.load_checkpoint(cfg["checkpoint"])
    cfg = dict(cfg, task_mode=ckpt.config.task_mode)
    corpus = _load_corpus(cfg)
    trajectories = _split_trajectories(
        read_trajectories_jsonl(cfg["trajectories"]), cfg["split"])
    _backfill_tasks(trajectories, corpus, ckpt.config.task_mode)
    metrics = training.evaluate(ckpt, trajectories, corpus)
    print(json.dumps({"action_accuracy": metrics.action_accuracy,
                      "task_accuracy": metrics.task_accuracy,
                      "mean_loss": metrics.mean_loss}, sort_keys=True))
    return 0


def cmd_rollout(cfg: dict) -> int:
    _require(cfg, "checkpoint", "corpus_dir", "snippet")
    ckpt = training.load_checkpoint(cfg["checkpoint"])
    cfg = dict(cfg, task_mode=ckpt.config.task_mode)
    corpus = _load_corpus(cfg)
    if cfg["snippet"] not in corpus:
        raise KeyError(f"snippet {cfg['snippet']!r} not found in corpus")
    steps, task_out = training.predict(ckpt, corpus[cfg["snippet"]],
                                       max_steps=cfg["max_steps"])
    print(json.dumps({"snippet_id": cfg["snippet"], "steps": steps,
                      "task_output": task_out}, sort_keys=True))
    return 0


def gradcheck_problem(seed: int = 0):
    """Full-policy gradient-check instance: one lockstep group of two
    trajectories (n=12 tokens with K=5 steps, n=9 with K=3) and 3 classes,
    so the check covers the padding of the shorter one.

    The probe point uses parameters ~6x the training init scale and amplified
    features: at the training init, many true gradient entries sit below the
    float64 roundoff of central differences at eps=1e-5, which would make any
    implementation look wrong. Backward-rule correctness is independent of the
    probe point.
    """
    rng = np.random.default_rng(seed)
    shapes, labels, d_feat = [(12, 5), (9, 3)], [1, 2], 20
    bc = policy.BCConfig(w_att=1.0, w_aux=1.0, d_emb=8, d_hidden=8, d_attn=8,
                         seed=seed, task_mode="classify", n_classes=3)
    features = [rng.standard_normal((n, d_feat)) * 4.0 for n, _ in shapes]
    steps = [[int(s) for s in rng.integers(0, n, size=k)] for n, k in shapes]
    params = policy.init_params(d_feat, bc)
    for p in params.values():
        p.value = p.value * 6.0

    def loss_fn(p):
        outputs = policy.forward_teacher(features, steps, p, bc.task_mode)
        return reduce(ad.add, [
            policy.bc_loss(logits, s, task_logits, label, bc.w_att, bc.w_aux)
            for (logits, task_logits), s, label in zip(outputs, steps, labels)])

    return loss_fn, params


def cmd_gradcheck(cfg: dict) -> int:
    loss_fn, params = gradcheck_problem(cfg["seed"])
    err = ad.grad_check(loss_fn, params, eps=1e-5)
    print(json.dumps({"max_relative_error": err, "threshold": 1e-4}))
    return 0 if err <= 1e-4 else 2


# ---------------------------------------------------------------------------

COMMANDS = {
    "tokenize": cmd_tokenize, "ingest": cmd_ingest, "augment": cmd_augment,
    "synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
    "rollout": cmd_rollout, "gradcheck": cmd_gradcheck,
}

_FLAG_TYPES = {
    "seed": int, "d_emb": int, "d_hidden": int, "d_attn": int, "epochs": int,
    "batch": int, "n_classes": int, "ngram_n": int, "ngram_buckets": int,
    "min_count": int, "m": int, "n_snippets": int, "lines_min": int,
    "lines_max": int, "bug_window": int, "max_steps": int, "tab_width": int,
    "w_att": float, "w_aux": float, "lr": float, "grad_clip": float,
    "min_dur_ms": float, "radius_px": float, "sigma_tokens": float,
    "bug_rate": float,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codegaze")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for key in DEFAULTS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=_FLAG_TYPES.get(key, str), default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except (UsageError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (LexError, EmptyTrajectoryError, StepRangeError, CheckpointError,
            policy.EmptySequenceError, FileNotFoundError, KeyError) as e:
        # str() of a KeyError quotes its message; a FileNotFoundError's
        # first argument is only the errno, so it prints whole.
        msg = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
