"""Behavioral-cloning training loop, evaluation metrics, and checkpoints.

Each minibatch is cut, in order, into lockstep groups whose padded size
stays within ROW_BUDGET rows; a group's loss is one tape node (see
`policy.forward_teacher`) and one backward pass, and the gradients of a
batch's groups add up to one Adam step. The budget takes a whole batch
of eight 12-16-line snippets (up to 128 tokens each) as one group, and
leaves a full read of a long file in a group of its own. Evaluation runs
the same forward on the checkpoint's arrays, taking no gradient and
building no tape, so it keeps only the GRU states, and, taking no Adam
step, cuts its groups by ROW_BUDGET alone rather than per batch: fewer
groups, so fewer sequential GRU steps. `predict` rolls out on the
checkpoint's arrays the same way. Only the
snippets the trajectories reference are featurized, and the one-hot
modes keep one token id per token (`features.TokenIds`), so the feature
cache grows with the tokens, not with tokens x vocabulary.
Everything is seeded, so (data, config, seed) fully determine the
checkpoint bytes. Checkpoint floats are serialized as shortest-round-trip
decimal strings, which preserves all 64 bits. A checkpoint is canonical
JSON (sorted keys), written a piece at a time through json's C encoder:
each section, and the parameters one at a time, so saving holds one
parameter's list and text besides the checkpoint itself. Loading rejects
a parameter that is not finite. A trained or loaded checkpoint keeps its
parameters in one buffer that holds just them, each a view of its segment
(`autodiff.pack`), rather than in one allocation each; a trained one's are
copied out of Adam's store, which also holds the moments and scratch.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import policy
from .features import (EmbeddingTableError, Features, FeatureSpec, Vocab, build_vocab, featurize,
                       load_embedding_table)
from .gaze import EmptyTrajectoryError, Trajectory
from .lexer import DataError, Snippet, check_json_object, field_types, lookup_snippet, read_text

FORMAT_VERSION = 1
FLOAT_ENCODING = "shortest-roundtrip-decimal"

# Bound on a lockstep group's padded size, max(n, K+1) x group size: the
# working set of its graph grows with it (see `lockstep_groups`). At the
# default network sizes a padded row holds about 4.2 KB at the peak of
# forward plus backward (the encoder run's input row, states and gates, its
# state's gradient, and its BPTT gate gradients): 3.2 MB for a group of
# eight 73-97-token skims (776 rows), about 4.3 MB for a full group,
# besides the pointer's tanh block (`policy.POINTER_BLOCK`). Evaluation's
# groups are cut by this budget alone, and its states-only forward holds
# about 0.8 KB per padded row (the encoder's and decoder's states), so
# about 0.8 MB for a full group, besides one trajectory's tanh block.
ROW_BUDGET = 1024


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
                   d_in: int | None = None) -> dict[str, Features]:
    """Features of the snippets `ids` names, by snippet id. Given `d_in`,
    the row count of a checkpoint's W_in, an external table must be that wide."""
    table = load_embedding_table(spec.path) if spec.mode == "external" else None
    if table is not None and d_in is not None and spec.dim(vocab, table) != d_in:
        raise EmbeddingTableError(f"embedding table {spec.path}: width {spec.dim(vocab, table)}, "
                                  f"but the checkpoint's W_in has {d_in} rows")
    return {sid: featurize(snippets[sid], spec, vocab, table) for sid in dict.fromkeys(ids)}


def lockstep_groups(trajectories: list[Trajectory], feats: dict[str, Features],
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

    Returns (targets, hits, task hit or None, weighted loss) per trajectory
    as plain numbers, each taken as soon as the trajectory is scored, so
    the group's node is freed on return.
    """
    labels = [policy.task_value(traj.task, cfg.task_mode) for traj in group]

    def tally(b, logits, task_logits, loss):
        targets = list(group[b].steps) + [logits.shape[1] - 1]
        hits = int(np.count_nonzero(np.argmax(logits, axis=1) == targets))
        task_hit = None
        if task_logits is not None and labels[b] is not None:
            task_hit = int(np.argmax(task_logits)) == labels[b]
        return len(targets), hits, task_hit, float(loss)

    loss, stats = policy.forward_teacher(
        [feats[t.snippet_id] for t in group], [t.steps for t in group], params, cfg,
        labels, [t.weight for t in group], tally)
    if train_mode:
        ad.backward(loss)
    return stats


def _run_pass(trajectories, feats, cfg, params, train_mode, adam_state=None):
    """One pass over the trajectory list in the given order; returns Metrics.

    Each lockstep group is one forward pass (and, in train mode, one
    backward pass); train mode takes one Adam step per batch of cfg.batch
    trajectories, while evaluation cuts its groups by ROW_BUDGET alone.
    `params` holds Vars in train mode and plain arrays otherwise.
    """
    stats = []
    batch = cfg.batch if train_mode else len(trajectories)
    for groups in lockstep_groups(trajectories, feats, batch):
        if train_mode:
            ad.zero_grads(params)
        for group in groups:
            stats += _run_group(group, feats, cfg, params, train_mode)
        if train_mode:
            ad.adam_step(params, ad.collect_grads(params), adam_state)
    # The weighted losses are added up within training's groups, then the
    # groups' sums in order, in both modes, so evaluation's own grouping
    # leaves mean_loss unchanged to the last bit.
    total_loss = total_weight = 0.0
    summed = zip(trajectories, stats)
    for groups in lockstep_groups(trajectories, feats, cfg.batch):
        for group in groups:
            group_loss = 0.0
            for traj, stat in itertools.islice(summed, len(group)):
                group_loss += stat[3]
                total_weight += traj.weight
            total_loss += group_loss
    task_hits = [s[2] for s in stats if s[2] is not None]
    return Metrics(action_accuracy=sum(s[1] for s in stats) / sum(s[0] for s in stats),
                   task_accuracy=sum(task_hits) / len(task_hits) if task_hits else None,
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
                      params=ad.pack({k: v.value for k, v in params.items()})[1],
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
    """Writes the checkpoint as `json.dump(..., sort_keys=True)` of the whole
    object would, plus a newline, byte for byte.

    Every piece goes through `json.dumps`, which runs json's C encoder
    (`json.dump` streams through its pure-Python one): each top-level
    section but `params` in one call, and `params` one parameter at a time.
    So the whole text is never held, and of the parameters only one's list
    and text are.
    """
    sections = {
        "format_version": FORMAT_VERSION,
        "float_encoding": FLOAT_ENCODING,
        "config": asdict(ckpt.config),
        "vocab": {"min_count": ckpt.vocab.min_count, "ids": ckpt.vocab.ids},
        "feature_spec": asdict(ckpt.feature_spec),
        "params": None,  # written below, one parameter at a time
        "epoch_log": ckpt.epoch_log,
    }
    with open(path, "w", encoding="utf-8") as f:
        for i, key in enumerate(sorted(sections)):
            f.write((", " if i else "{") + json.dumps(key) + ": ")
            if key != "params":
                f.write(json.dumps(sections[key], sort_keys=True))
                continue
            f.write("{")
            for j, name in enumerate(sorted(ckpt.params)):
                arr = ckpt.params[name]
                entry = {"data": arr.reshape(-1).tolist(), "shape": list(arr.shape)}
                f.write((", " if j else "") + json.dumps(name) + ": "
                        + json.dumps(entry, sort_keys=True))
            f.write("}")
        f.write("}\n")


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
    """The parameter arrays, which must be finite and have the shapes
    `policy.param_shapes` gives for the checkpoint's config and feature width,
    as views of one buffer in that order (`autodiff.pack`), as `train`
    returns them."""
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
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise ValueError(f"parameter {name!r} has the non-finite value {data[bad[0]]} "
                             f"at index {bad[0]}")
        params[name] = data.reshape(shape)
    expected = policy.param_shapes(0, cfg)
    missing, unknown = sorted(set(expected) - set(params)), sorted(set(params) - set(expected))
    if missing or unknown:
        raise ValueError(f"missing parameters {missing}, unknown parameters {unknown}")
    if spec.mode == "external":  # the table's width is known only from its file
        d_feat = (params["W_in"].shape or (0,))[0]
    else:
        d_feat = spec.dim(vocab)
    shapes = policy.param_shapes(d_feat, cfg)
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ValueError(f"parameter {name!r} has shape {list(params[name].shape)}, "
                             f"expected {list(shape)}")
    return ad.pack({name: params[name] for name in shapes})[1]


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
