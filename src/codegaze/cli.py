"""Command-line pipeline: synth / tokenize / ingest / augment / train / eval /
rollout / gradcheck.

Configuration is a flat JSON file (``--config``) whose keys mirror the
command-line flags; flags win over file values, which are type-checked.
Exit codes: 0 success; 1 usage or config error, including a ``--config``
file that cannot be opened or read and a float option that is NaN; 2 data
error, that is a `lexer.DataError` or an OSError: an input file that
cannot be opened, is not UTF-8 text or is malformed, an output file that
cannot be written, or an unknown snippet id. Each command checks the files
it will write before it reads any input (see `_check_outputs`). `train`
and `eval` give a trajectory without a label of the head's kind its
snippet's label (see `_backfill_tasks`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import autodiff as ad
from . import policy, synth, training
from .features import FeatureSpec
from .gaze import (EmptyTrajectoryError, LayoutSpec, augment, build_trajectory, load_layout,
                   read_fixations_csv, read_trajectories_jsonl, write_fixations_csv,
                   write_trajectories_jsonl)
from .lexer import (DataError, LabelKind, TaskLabel, attach_labels, check_json_object,
                    load_corpus, load_labels, lookup_snippet, write_jsonl)


class UsageError(ValueError):
    pass


# Options that no config dataclass owns.
OTHER_OPTIONS = {
    "corpus_dir": None, "labels": None, "gaze_dir": None, "layout": None,
    "trajectories": None, "checkpoint": None, "metrics_out": None, "out": None,
    "snippet": None, "split": "all",
    "feature_mode": "onehot_pos", "ngram_n": 3, "ngram_buckets": 64,
    "embed_path": "", "min_count": 1,
    "min_dur_ms": 50.0, "radius_px": 30.0, "sigma_tokens": 1.0, "m": 4,
    "expert": "linear", "salient": None, "bug_window": 2,
    "max_steps": 256, "tab_width": 4, "keywords": None,
}


def _field_defaults(cls) -> dict:
    """Default of each field of `cls` that has a plain (not factory) default."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


# BCConfig's default wins where it shares a field name with GeneratorConfig.
# An option's type is its default's, str for a None default.
DEFAULTS = {**_field_defaults(synth.GeneratorConfig), **_field_defaults(policy.BCConfig),
            **OTHER_OPTIONS}
OPTION_TYPES = {key: str if val is None else type(val) for key, val in DEFAULTS.items()}


def _from_cfg(cls, cfg: dict):
    """`cls` built from the options named like its fields."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls) if f.name in cfg})


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                file_cfg = json.load(f)
            check_json_object(file_cfg, OPTION_TYPES, "config")
        except OSError as e:
            raise UsageError(f"config {args.config}: {e.strerror}") from e
        except json.JSONDecodeError as e:
            raise UsageError(f"config {args.config}: invalid JSON: {e}") from e
        except ValueError as e:
            raise UsageError(f"config {args.config}: {e}") from e
        cfg.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, val in cfg.items():
        if isinstance(val, float) and math.isnan(val):
            raise UsageError(f"option {key!r} must be a number, not NaN")
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if not cfg[k]]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join(missing)}")


def _check_outputs(cfg: dict, *keys: str) -> None:
    """Opens each file option in `keys` that is set for appending, and closes
    it, so that an output that cannot be written fails before the work.
    Appending leaves an existing file as it is; a file this creates stays,
    empty, if the work fails later."""
    for key in keys:
        if cfg[key]:
            open(cfg[key], "a", encoding="utf-8").close()


def _keyword_set(cfg: dict) -> set[str]:
    if cfg["keywords"]:
        return set(cfg["keywords"].split(","))
    return set(synth.DEFAULT_KEYWORD_POOL)


def _load_corpus(cfg: dict) -> dict:
    _require(cfg, "corpus_dir")
    corpus = load_corpus(cfg["corpus_dir"], _keyword_set(cfg), tab_width=cfg["tab_width"])
    if cfg["labels"]:
        # The none head has no label kind; it keeps class, as ingest's output does.
        prefer = policy.TASK_KINDS.get(cfg["task_mode"], LabelKind.CLASS)
        attach_labels(corpus, load_labels(cfg["labels"]), prefer=prefer)
    return corpus


def _feature_spec(cfg: dict) -> FeatureSpec:
    return FeatureSpec(mode=cfg["feature_mode"], ngram_n=cfg["ngram_n"],
                       buckets=cfg["ngram_buckets"], path=cfg["embed_path"])


def _split_trajectories(trajectories, split: str):
    ids = sorted({t.snippet_id for t in trajectories})
    train_ids, held_ids = training.split_by_id(ids)
    splits = {"train": train_ids, "held": held_ids, "all": ids}
    if split not in splits:
        raise UsageError(f"unknown split {split!r} (expected train, held, or all)")
    keep = set(splits[split])
    return [t for t in trajectories if t.snippet_id in keep]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_tokenize(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "out")
    _check_outputs(cfg, "out")
    corpus = _load_corpus(cfg)
    write_jsonl(cfg["out"], ({"id": sid, "n_lines": corpus[sid].n_lines, "tokens": [
        {"text": t.text, "kind": t.kind.value, "line": t.line,
         "col_start": t.col_start, "col_end": t.col_end} for t in corpus[sid].tokens]}
        for sid in sorted(corpus)))
    return 0


def cmd_ingest(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "gaze_dir", "layout", "out")
    _check_outputs(cfg, "out")
    layout = load_layout(cfg["layout"])
    corpus = _load_corpus(dict(cfg, tab_width=layout.tab_width))
    trajectories = []
    for path in sorted(Path(cfg["gaze_dir"]).glob("*.csv")):
        snippet = lookup_snippet(corpus, path.stem,
                                 f"gaze file {path}: no snippet {path.stem!r} in corpus")
        trajectories.append(build_trajectory(
            read_fixations_csv(path), layout, snippet,
            min_dur_ms=cfg["min_dur_ms"], radius_px=cfg["radius_px"]))
    if not trajectories:
        raise EmptyTrajectoryError(f"no fixation files found in {cfg['gaze_dir']}")
    write_trajectories_jsonl(trajectories, cfg["out"])
    return 0


def cmd_augment(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "trajectories", "out")
    _check_outputs(cfg, "out")
    corpus = _load_corpus(cfg)
    expanded = []
    for i, traj in enumerate(read_trajectories_jsonl(cfg["trajectories"])):
        snippet = lookup_snippet(corpus, traj.snippet_id,
                                 f"trajectory references unknown snippet {traj.snippet_id!r}")
        expanded.extend(augment(traj, snippet, cfg["sigma_tokens"], cfg["m"], cfg["seed"] + i))
    write_trajectories_jsonl(expanded, cfg["out"])
    return 0


def _expert(cfg: dict, gen: synth.GeneratorConfig):
    """The scripted reader `--expert` names, as a function of a snippet."""
    salient = set(cfg["salient"].split(",")) if cfg["salient"] else gen.keyword_set()
    if cfg["expert"] == "linear":
        return synth.linear_reader
    if cfg["expert"] == "skimmer":
        return lambda snippet: synth.keyword_skimmer(snippet, salient)
    if cfg["expert"] == "bug_seeker":
        return lambda snippet: synth.bug_seeker(snippet, cfg["bug_window"])
    raise UsageError(f"unknown expert {cfg['expert']!r}")


def cmd_synth(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "labels", "out")
    gen = _from_cfg(synth.GeneratorConfig, dict(cfg, n_classes=max(cfg["n_classes"], 2)))
    expert = _expert(cfg, gen)
    layout = LayoutSpec(tab_width=cfg["tab_width"])
    corpus_dir = Path(cfg["corpus_dir"])
    corpus_dir.mkdir(parents=True, exist_ok=True)
    gaze_dir = Path(cfg["gaze_dir"]) if cfg["gaze_dir"] else None
    if gaze_dir:
        gaze_dir.mkdir(parents=True, exist_ok=True)
        _check_outputs(cfg, "layout")
    _check_outputs(cfg, "labels", "out")

    # Each snippet is generated and lexed once, and only its labels and its
    # demo outlive the loop.
    rows, demos = [], []
    for index in range(gen.n_snippets):
        source, cls, bug_index = synth.gen_source(gen, index)
        synth.write_source(corpus_dir, index, source)
        rows += synth.label_rows(index, cls, bug_index)
        snippet = synth.lex_snippet(gen, index, source, cls, bug_index)
        demos.append(expert(snippet))
        if gaze_dir:
            write_fixations_csv(synth.fixations_for_trajectory(demos[-1], snippet, layout),
                                gaze_dir / f"{snippet.id}.csv")
    synth.write_labels(cfg["labels"], rows)
    write_trajectories_jsonl(demos, cfg["out"])
    if gaze_dir and cfg["layout"]:
        write_jsonl(cfg["layout"], [dataclasses.asdict(layout)])
    return 0


def cmd_train(cfg: dict) -> int:
    _require(cfg, "corpus_dir", "trajectories", "checkpoint")
    _check_outputs(cfg, "checkpoint", "metrics_out")
    corpus = _load_corpus(cfg)
    trajectories = read_trajectories_jsonl(cfg["trajectories"])
    train_trajs = _split_trajectories(trajectories, "train")
    if not train_trajs:
        raise EmptyTrajectoryError("no trajectories in the training split")
    train_ids = {t.snippet_id for t in train_trajs}
    train_snippets = {sid: sn for sid, sn in corpus.items() if sid in train_ids}
    _backfill_tasks(train_trajs, train_snippets, cfg["task_mode"])
    ckpt = training.train(train_trajs, train_snippets, _from_cfg(policy.BCConfig, cfg),
                          _feature_spec(cfg), min_count=cfg["min_count"])
    training.save_checkpoint(ckpt, cfg["checkpoint"])
    if cfg["metrics_out"]:
        write_jsonl(cfg["metrics_out"], ckpt.epoch_log)
    return 0


def _backfill_tasks(trajectories, corpus, task_mode: str) -> None:
    """Give each trajectory that has no label of the head's kind its
    snippet's label, which `_load_corpus` picks of that kind where it can."""
    for traj in trajectories:
        if policy.task_value(traj.task, task_mode) is None and traj.snippet_id in corpus:
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
    _backfill_tasks(trajectories, corpus, cfg["task_mode"])
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
    snippet = lookup_snippet(corpus, cfg["snippet"],
                             f"snippet {cfg['snippet']!r} not found in corpus")
    steps, task_out = training.predict(ckpt, snippet, max_steps=cfg["max_steps"])
    print(json.dumps({"snippet_id": cfg["snippet"], "steps": steps,
                      "task_output": task_out}, sort_keys=True))
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    loss_fn, params = policy.gradcheck_problem(cfg["seed"])
    err = ad.grad_check(loss_fn, params, eps=1e-5)
    print(json.dumps({"max_relative_error": err, "threshold": 1e-4}))
    return 0 if err <= 1e-4 else 2


# ---------------------------------------------------------------------------

COMMANDS = {
    "tokenize": cmd_tokenize, "ingest": cmd_ingest, "augment": cmd_augment,
    "synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
    "rollout": cmd_rollout, "gradcheck": cmd_gradcheck,
}

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it.

    Every subcommand takes the same options, so they share one set of
    argparse actions.
    """
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", default=None)
    for key in DEFAULTS:
        options.add_argument(f"--{key.replace('_', '-')}", dest=key,
                             type=OPTION_TYPES[key], default=None)
    parser = argparse.ArgumentParser(prog="codegaze")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[options])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
