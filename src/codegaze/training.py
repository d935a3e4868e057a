"""Behavioral-cloning training loop, evaluation metrics, and checkpoints.

Trajectories of different lengths are processed sequentially within a
minibatch with summed gradients (one Adam step per batch). Each
trajectory's teacher-forced graph is a handful of fused tape nodes (see
`policy`); evaluation builds the same graph without a backward pass, and
`predict` rolls out on the checkpoint's arrays without building one.
Everything is seeded, so (data, config, seed) fully determine the
checkpoint bytes. Checkpoint floats are serialized as shortest-round-trip
decimal strings, which preserves all 64 bits.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import policy
from .autodiff import Var
from .features import FeatureSpec, Vocab, assign_vocab_ids, build_vocab, featurize, load_embedding_table
from .gaze import Trajectory, check_steps
from .lexer import LabelKind, Snippet

FORMAT_VERSION = 1
FLOAT_ENCODING = "shortest-roundtrip-decimal"


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


def _feature_cache(snippets: dict[str, Snippet], spec: FeatureSpec,
                   vocab: Vocab) -> dict[str, np.ndarray]:
    table = load_embedding_table(spec.path) if spec.mode == "external" else None
    cache = {}
    for sid, snippet in snippets.items():
        assign_vocab_ids(snippet, vocab)
        cache[sid] = featurize(snippet, spec, vocab, table)
    return cache


def _run_pass(trajectories, feats, cfg, params, train_mode, adam_state=None):
    """One pass over the trajectory list; returns (Metrics, per-epoch stats).

    In train mode the list is processed in the given order with one Adam
    step per batch of cfg.batch trajectories.
    """
    total_loss = 0.0
    total_weight = 0.0
    hits = 0
    targets_seen = 0
    task_hits = 0
    task_seen = 0

    def flush(batch_count):
        if batch_count:
            ad.adam_step(params, ad.collect_grads(params), adam_state)
            ad.zero_grads(params)

    in_batch = 0
    if train_mode:
        ad.zero_grads(params)
    for traj in trajectories:
        features = feats[traj.snippet_id]
        logits, task_logits = policy.forward_teacher(
            features, traj.steps, params, cfg.task_mode)
        label = _task_value(traj, cfg.task_mode)
        loss = policy.bc_loss(logits, traj.steps, task_logits, label,
                              cfg.w_att, cfg.w_aux, traj.weight)
        if train_mode:
            ad.backward(loss)
            in_batch += 1
            if in_batch == cfg.batch:
                flush(in_batch)
                in_batch = 0
        total_loss += float(loss.value)
        total_weight += traj.weight
        targets = list(traj.steps) + [features.shape[0]]
        hits += int(np.count_nonzero(np.argmax(logits.value, axis=1) == targets))
        targets_seen += len(targets)
        if task_logits is not None and label is not None:
            task_seen += 1
            if int(np.argmax(task_logits.value)) == label:
                task_hits += 1
    if train_mode:
        flush(in_batch)
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
    feats = _feature_cache(snippets, feature_spec, vocab)
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
    feats = _feature_cache(snippets, ckpt.feature_spec, ckpt.vocab)
    # Wrapping without a copy is safe: nothing here runs backward or Adam.
    params = {k: Var(v) for k, v in ckpt.params.items()}
    return _run_pass(trajectories, feats, ckpt.config, params, False)


def predict(ckpt: Checkpoint, snippet: Snippet, max_steps: int = 256):
    """Greedy rollout of a checkpointed policy on one snippet."""
    feats = _feature_cache({snippet.id: snippet}, ckpt.feature_spec, ckpt.vocab)
    return policy.rollout(feats[snippet.id], ckpt.params, max_steps, ckpt.config.task_mode)


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


def _dataclass_from_obj(cls, obj: dict, what: str, path):
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise CheckpointError(f"checkpoint {path}: unknown {what} keys {unknown}")
    try:
        return cls(**obj)
    except ValueError as e:
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
