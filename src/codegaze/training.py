"""Behavioral-cloning training loop, evaluation metrics, and checkpoints.

Each minibatch is cut, in order, into lockstep groups whose padded size
stays within ROW_BUDGET rows; a group's loss is one tape node (see
`policy.forward_teacher`) and one backward pass, and the gradients of a
batch's groups add up to one Adam step. Evaluation runs the same forward
on the checkpoint's arrays, taking no gradient and building no tape, and
`predict` rolls out on them the same way. Only the snippets the
trajectories reference are featurized.
Everything is seeded, so (data, config, seed) fully determine the
checkpoint bytes. Checkpoint floats are serialized as shortest-round-trip
decimal strings, which preserves all 64 bits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import policy
from .features import (EmbeddingTableError, FeatureSpec, Vocab, build_vocab, featurize,
                       load_embedding_table)
from .gaze import EmptyTrajectoryError, Trajectory
from .lexer import DataError, Snippet, check_json_object, field_types, lookup_snippet, read_text

FORMAT_VERSION = 1
FLOAT_ENCODING = "shortest-roundtrip-decimal"

# Bound on a lockstep group's padded size, max(n, K+1) x group size: the
# working set of its graph grows with it (see `lockstep_groups`).
ROW_BUDGET = 256


class CheckpointError(DataError):
    """Raised on malformed or incompatible checkpoint files."""


@dataclass
class Metrics:
    action_accuracy: float
    task_accuracy: float | None
    mean_loss: float


@dataclass
class Checkpoint:
    config: policy.BCConfig
    vocab: Vocab
    feature_spec: FeatureSpec
    params: dict[str, np.ndarray]
    epoch_log: list[dict] = field(default_factory=list)


def split_by_id(ids: list[str]) -> tuple[list[str], list[str]]:
    """Deterministic 80/20 train/held-out split by snippet id hash."""
    train, held = [], []
    for sid in ids:
        h = int(hashlib.sha1(sid.encode("utf-8")).hexdigest(), 16)
        (held if h % 5 == 0 else train).append(sid)
    return train, held


def _feature_cache(ids, snippets: dict[str, Snippet], spec: FeatureSpec, vocab: Vocab,
                   d_in: int | None = None) -> dict[str, np.ndarray]:
    """Features of the snippets `ids` names, by snippet id. Given `d_in`,
    the row count of a checkpoint's W_in, an external table must be that wide."""
    table = load_embedding_table(spec.path) if spec.mode == "external" else None
    if table is not None and d_in is not None and spec.dim(vocab, table) != d_in:
        raise EmbeddingTableError(f"embedding table {spec.path}: width {spec.dim(vocab, table)}, "
                                  f"but the checkpoint's W_in has {d_in} rows")
    return {sid: featurize(snippets[sid], spec, vocab, table) for sid in dict.fromkeys(ids)}


def lockstep_groups(trajectories: list[Trajectory], feats: dict[str, np.ndarray],
                    batch: int) -> list[list[list[Trajectory]]]:
    """Each batch of `batch` trajectories, cut in order into lockstep groups.

    A group takes consecutive trajectories while max(n, K+1) x its size
    stays within ROW_BUDGET; a longer trajectory forms a group alone.
    """
    batches = []
    for start in range(0, len(trajectories), batch):
        groups, longest = [[]], 0
        for traj in trajectories[start:start + batch]:
            rows = max(feats[traj.snippet_id].shape[0], len(traj.steps) + 1)
            longest = max(longest, rows)
            if groups[-1] and longest * (len(groups[-1]) + 1) > ROW_BUDGET:
                groups.append([])
                longest = rows
            groups[-1].append(traj)
        batches.append(groups)
    return batches


def _run_group(group, feats, cfg, params, train_mode):
    """Forward pass of one lockstep group, and its backward in train mode.

    Returns the group's loss and (targets, hits, task hit or None) per
    trajectory as plain numbers, so the group's node is freed on return.
    """
    labels = [policy.task_value(traj.task, cfg.task_mode) for traj in group]
    loss, outputs = policy.forward_teacher(
        [feats[t.snippet_id] for t in group], [t.steps for t in group], params, cfg,
        labels, [t.weight for t in group])
    if train_mode:
        ad.backward(loss)
    stats = []
    for traj, label, (logits, task_logits) in zip(group, labels, outputs):
        targets = list(traj.steps) + [logits.shape[1] - 1]
        hits = int(np.count_nonzero(np.argmax(logits, axis=1) == targets))
        task_hit = None
        if task_logits is not None and label is not None:
            task_hit = int(np.argmax(task_logits)) == label
        stats.append((len(targets), hits, task_hit))
    return float(loss.value), stats


def _run_pass(trajectories, feats, cfg, params, train_mode, adam_state=None):
    """One pass over the trajectory list in the given order; returns Metrics.

    Each lockstep group is one forward pass (and, in train mode, one
    backward pass); train mode takes one Adam step per batch of cfg.batch
    trajectories. `params` holds Vars in train mode and plain arrays
    otherwise.
    """
    total_loss = 0.0
    total_weight = 0.0
    hits = 0
    targets_seen = 0
    task_hits = 0
    task_seen = 0
    for groups in lockstep_groups(trajectories, feats, cfg.batch):
        if train_mode:
            ad.zero_grads(params)
        for group in groups:
            loss, stats = _run_group(group, feats, cfg, params, train_mode)
            total_loss += loss
            for traj, (n_targets, n_hits, task_hit) in zip(group, stats):
                total_weight += traj.weight
                hits += n_hits
                targets_seen += n_targets
                if task_hit is not None:
                    task_seen += 1
                    task_hits += task_hit
        if train_mode:
            ad.adam_step(params, ad.collect_grads(params), adam_state)
    task_acc = task_hits / task_seen if task_seen else None
    return Metrics(action_accuracy=hits / targets_seen,
                   task_accuracy=task_acc,
                   mean_loss=total_loss / total_weight)


def _check_trajectories(trajectories: list[Trajectory], snippets: dict[str, Snippet],
                        cfg: policy.BCConfig) -> None:
    if sum(traj.weight for traj in trajectories) == 0:
        raise EmptyTrajectoryError("the trajectory weights sum to 0, leaving no loss to average")
    for traj in trajectories:
        snippet = lookup_snippet(snippets, traj.snippet_id,
                                 f"trajectory references unknown snippet {traj.snippet_id!r}")
        policy.check_trajectory(traj.steps, len(snippet.tokens),
                                policy.task_value(traj.task, cfg.task_mode), cfg,
                                f"trajectory for snippet {traj.snippet_id!r}")


def train(trajectories: list[Trajectory], snippets: dict[str, Snippet],
          cfg: policy.BCConfig, feature_spec: FeatureSpec | None = None,
          min_count: int = 1) -> Checkpoint:
    """Fit the policy to weighted expert trajectories; vocab comes from `snippets`.

    A task head with w_aux > 0 needs a trajectory with a label of its kind.
    """
    if not trajectories:
        raise EmptyTrajectoryError("empty dataset")
    _check_trajectories(trajectories, snippets, cfg)
    kind = policy.TASK_KINDS.get(cfg.task_mode)
    if cfg.w_aux > 0 and kind is not None and all(
            policy.task_value(traj.task, cfg.task_mode) is None for traj in trajectories):
        raise DataError(f"no trajectory has a {kind.value} label for the {cfg.task_mode} head "
                        f"to train on (w_aux {cfg.w_aux})")
    if feature_spec is None:
        feature_spec = FeatureSpec(mode="onehot_pos")
    vocab = build_vocab(list(snippets.values()), min_count=min_count)
    feats = _feature_cache((t.snippet_id for t in trajectories), snippets, feature_spec, vocab)
    d_feat = next(iter(feats.values())).shape[1]

    params = policy.init_params(d_feat, cfg)
    adam_state = ad.adam_init(params, lr=cfg.lr, clip=cfg.grad_clip)
    rng = np.random.default_rng(cfg.seed)
    epoch_log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(trajectories))
        shuffled = [trajectories[i] for i in order]
        metrics = _run_pass(shuffled, feats, cfg, params, True, adam_state)
        epoch_log.append({"epoch": epoch, "mean_loss": metrics.mean_loss,
                          "action_accuracy": metrics.action_accuracy,
                          "task_accuracy": metrics.task_accuracy})
    return Checkpoint(config=cfg, vocab=vocab, feature_spec=feature_spec,
                      params={k: v.value for k, v in params.items()},
                      epoch_log=epoch_log)


def evaluate(ckpt: Checkpoint, trajectories: list[Trajectory],
             snippets: dict[str, Snippet]) -> Metrics:
    """Teacher-forced metrics on a dataset; never mutates the checkpoint."""
    if not trajectories:
        raise EmptyTrajectoryError("cannot evaluate on an empty trajectory set")
    _check_trajectories(trajectories, snippets, ckpt.config)
    feats = _feature_cache((t.snippet_id for t in trajectories), snippets, ckpt.feature_spec,
                           ckpt.vocab, ckpt.params["W_in"].shape[0])
    return _run_pass(trajectories, feats, ckpt.config, ckpt.params, False)


def predict(ckpt: Checkpoint, snippet: Snippet, max_steps: int = 256):
    """Greedy rollout of a checkpointed policy on one snippet."""
    features = _feature_cache([snippet.id], {snippet.id: snippet}, ckpt.feature_spec,
                              ckpt.vocab, ckpt.params["W_in"].shape[0])[snippet.id]
    return policy.rollout(features, ckpt.params, max_steps, ckpt.config.task_mode)


# ---------------------------------------------------------------------------
# Persistence

def save_checkpoint(ckpt: Checkpoint, path: str | os.PathLike) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "float_encoding": FLOAT_ENCODING,
        "config": asdict(ckpt.config),
        "vocab": {"min_count": ckpt.vocab.min_count, "ids": ckpt.vocab.ids},
        "feature_spec": asdict(ckpt.feature_spec),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in ckpt.params.items()
        },
        "epoch_log": ckpt.epoch_log,
    }
    with open(path, "w", encoding="utf-8") as f:  # streamed: the whole text is never held
        json.dump(obj, f, sort_keys=True)
        f.write("\n")


def _dataclass_from_obj(cls, obj, what: str):
    check_json_object(obj, field_types(cls), what)
    try:
        return cls(**obj)
    except TypeError as e:  # a missing required field
        raise ValueError(str(e)) from e


def _vocab_from_obj(obj) -> Vocab:
    check_json_object(obj, {"ids": dict, "min_count": int}, "vocab")
    if set(obj) != {"ids", "min_count"}:
        raise ValueError("vocab must have ids and min_count")
    ids = obj["ids"]
    check_json_object(ids, dict.fromkeys(ids, int), "vocab ids")
    if sorted(ids.values()) != list(range(len(ids))):
        raise ValueError(f"vocab ids must number the {len(ids)} tokens from 0")
    return Vocab(**obj)


def _params_from_obj(obj, cfg: policy.BCConfig, spec: FeatureSpec,
                     vocab: Vocab) -> dict[str, np.ndarray]:
    """The parameter arrays, which must have the shapes `policy.param_shapes`
    gives for the checkpoint's config and feature width."""
    check_json_object(obj, dict.fromkeys(obj, dict) if isinstance(obj, dict) else {}, "params")
    params = {}
    for name, entry in obj.items():
        check_json_object(entry, {"shape": list, "data": list}, f"parameter {name!r}")
        shape = entry.get("shape", [None])
        if "data" not in entry or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"parameter {name!r} needs data and a shape of non-negative ints")
        try:
            data = np.array(entry["data"], dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise ValueError(f"parameter {name!r}: {e}") from e
        if data.ndim != 1 or data.size != math.prod(shape):
            raise ValueError(f"parameter {name!r} has {data.size} values for shape {shape}")
        params[name] = data.reshape(shape)
    expected = policy.param_shapes(0, cfg)
    missing, unknown = sorted(set(expected) - set(params)), sorted(set(params) - set(expected))
    if missing or unknown:
        raise ValueError(f"missing parameters {missing}, unknown parameters {unknown}")
    if spec.mode == "external":  # the table's width is known only from its file
        d_feat = (params["W_in"].shape or (0,))[0]
    else:
        d_feat = spec.dim(vocab)
    for name, shape in policy.param_shapes(d_feat, cfg).items():
        if params[name].shape != shape:
            raise ValueError(f"parameter {name!r} has shape {list(params[name].shape)}, "
                             f"expected {list(shape)}")
    return params


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    try:
        obj = json.loads(read_text(path, CheckpointError))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint {path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise CheckpointError(f"checkpoint {path}: must be a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: format_version {obj.get('format_version')} "
            f"not supported (expected {FORMAT_VERSION})")

    def section(name: str, parse):
        if name not in obj:
            raise CheckpointError(f"checkpoint {path}: missing {name}")
        try:
            return parse(obj[name])
        except ValueError as e:
            raise CheckpointError(f"checkpoint {path}: invalid {name}: {e}") from e

    cfg = section("config", lambda o: _dataclass_from_obj(policy.BCConfig, o, "config"))
    spec = section("feature_spec", lambda o: _dataclass_from_obj(FeatureSpec, o, "feature_spec"))
    vocab = section("vocab", _vocab_from_obj)
    params = section("params", lambda o: _params_from_obj(o, cfg, spec, vocab))
    return Checkpoint(config=cfg, vocab=vocab, feature_spec=spec, params=params,
                      epoch_log=obj.get("epoch_log", []))
