"""Behavioral-cloning training loop, evaluation metrics, and checkpoints.

Each minibatch is cut, in order, into lockstep groups whose padded size
stays within ROW_BUDGET rows; a group is one teacher-forced graph (see
`policy.forward_teacher`) and one backward pass, and the gradients of a
batch's groups add up to one Adam step. Evaluation builds the same graphs
without a backward pass, and `predict` rolls out on the checkpoint's
arrays without building one. Only the snippets the trajectories reference
are featurized.
Everything is seeded, so (data, config, seed) fully determine the
checkpoint bytes. Checkpoint floats are serialized as shortest-round-trip
decimal strings, which preserves all 64 bits.
"""

from __future__ import annotations

import hashlib
import json
import os
import typing
from dataclasses import asdict, dataclass, field, fields
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import policy
from .autodiff import Var
from .features import FeatureSpec, Vocab, build_vocab, featurize, load_embedding_table
from .gaze import Trajectory, check_steps
from .lexer import LabelKind, Snippet

FORMAT_VERSION = 1
FLOAT_ENCODING = "shortest-roundtrip-decimal"

# Bound on a lockstep group's padded size, max(n, K+1) x group size: the
# working set of its graph grows with it (see `lockstep_groups`).
ROW_BUDGET = 256


class CheckpointError(ValueError):
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


def _task_value(traj: Trajectory, task_mode: str) -> int | None:
    if traj.task is None:
        return None
    if task_mode == policy.TASK_CLASSIFY and traj.task.kind is LabelKind.CLASS:
        return traj.task.value
    if task_mode == policy.TASK_LOCALIZE and traj.task.kind is LabelKind.BUG:
        return traj.task.value
    return None


def _feature_cache(trajectories: list[Trajectory], snippets: dict[str, Snippet],
                   spec: FeatureSpec, vocab: Vocab) -> dict[str, np.ndarray]:
    """Features of the snippets the trajectories reference, by snippet id."""
    table = load_embedding_table(spec.path) if spec.mode == "external" else None
    ids = dict.fromkeys(traj.snippet_id for traj in trajectories)
    return {sid: featurize(snippets[sid], spec, vocab, table) for sid in ids}


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

    Returns (loss, targets, hits, task hit or None) per trajectory as plain
    numbers, so the group's graph is freed on return.
    """
    outputs = policy.forward_teacher([feats[t.snippet_id] for t in group],
                                     [t.steps for t in group], params, cfg.task_mode)
    losses, stats = [], []
    for traj, (logits, task_logits) in zip(group, outputs):
        label = _task_value(traj, cfg.task_mode)
        losses.append(policy.bc_loss(logits, traj.steps, task_logits, label,
                                     cfg.w_att, cfg.w_aux, traj.weight))
        targets = list(traj.steps) + [logits.value.shape[1] - 1]
        hits = int(np.count_nonzero(np.argmax(logits.value, axis=1) == targets))
        task_hit = None
        if task_logits is not None and label is not None:
            task_hit = int(np.argmax(task_logits.value)) == label
        stats.append((float(losses[-1].value), len(targets), hits, task_hit))
    if train_mode:
        ad.backward(reduce(ad.add, losses))
    return stats


def _run_pass(trajectories, feats, cfg, params, train_mode, adam_state=None):
    """One pass over the trajectory list in the given order; returns Metrics.

    Each lockstep group is one forward pass (and, in train mode, one
    backward pass); train mode takes one Adam step per batch of cfg.batch
    trajectories.
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
            for traj, (loss, n_targets, n_hits, task_hit) in zip(
                    group, _run_group(group, feats, cfg, params, train_mode)):
                total_loss += loss
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


def _check_trajectories(trajectories: list[Trajectory], snippets: dict[str, Snippet]) -> None:
    for traj in trajectories:
        if traj.snippet_id not in snippets:
            raise KeyError(f"trajectory references unknown snippet {traj.snippet_id!r}")
        check_steps(traj, snippets[traj.snippet_id])


def train(trajectories: list[Trajectory], snippets: dict[str, Snippet],
          cfg: policy.BCConfig, feature_spec: FeatureSpec | None = None,
          min_count: int = 1) -> Checkpoint:
    """Fit the policy to weighted expert trajectories; vocab comes from `snippets`."""
    if not trajectories:
        raise ValueError("empty dataset")
    _check_trajectories(trajectories, snippets)
    if feature_spec is None:
        feature_spec = FeatureSpec(mode="onehot_pos")
    vocab = build_vocab(list(snippets.values()), min_count=min_count)
    feats = _feature_cache(trajectories, snippets, feature_spec, vocab)
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
        raise ValueError("cannot evaluate on an empty trajectory set")
    _check_trajectories(trajectories, snippets)
    feats = _feature_cache(trajectories, snippets, ckpt.feature_spec, ckpt.vocab)
    # Wrapping without a copy is safe: nothing here runs backward or Adam.
    params = {k: Var(v) for k, v in ckpt.params.items()}
    return _run_pass(trajectories, feats, ckpt.config, params, False)


def predict(ckpt: Checkpoint, snippet: Snippet, max_steps: int = 256):
    """Greedy rollout of a checkpointed policy on one snippet."""
    features = featurize(snippet, ckpt.feature_spec, ckpt.vocab)
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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True)
        f.write("\n")


def check_json_object(obj, types: dict[str, type], what: str) -> None:
    """Raises ValueError unless `obj` is a dict from keys of `types` to values
    of their types; an int passes for a float, a bool or a float not for an int."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    for key, value in obj.items():
        want = types[key]
        if type(value) is not want and not (want is float and type(value) is int):
            raise ValueError(f"{what} key {key!r} must be {want.__name__}, "
                             f"not {type(value).__name__}")


def _dataclass_from_obj(cls, obj, what: str, path):
    hints = typing.get_type_hints(cls)
    try:
        check_json_object(obj, {f.name: hints[f.name] for f in fields(cls)}, what)
        return cls(**obj)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint {path}: invalid {what}: {e}") from e


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise CheckpointError(f"checkpoint {path}: invalid JSON: {e}") from e
    if obj.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: format_version {obj.get('format_version')} "
            f"not supported (expected {FORMAT_VERSION})")
    params = {}
    for name, entry in obj["params"].items():
        shape = tuple(entry["shape"])
        data = np.array(entry["data"], dtype=np.float64)
        expected = int(np.prod(shape)) if shape else 1
        if data.size != expected:
            raise CheckpointError(
                f"checkpoint {path}: parameter {name!r} has {data.size} values "
                f"for shape {list(shape)}")
        params[name] = data.reshape(shape)
    vocab = Vocab(ids=dict(obj["vocab"]["ids"]), min_count=obj["vocab"]["min_count"])
    cfg = _dataclass_from_obj(policy.BCConfig, obj["config"], "config", path)
    spec = _dataclass_from_obj(FeatureSpec, obj["feature_spec"], "feature_spec", path)
    return Checkpoint(config=cfg, vocab=vocab, feature_spec=spec, params=params,
                      epoch_log=obj.get("epoch_log", []))
