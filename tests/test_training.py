import hashlib
import io
import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from codegaze import policy, synth, training
from codegaze.features import FeatureSpec, build_vocab, featurize
from codegaze.gaze import EmptyTrajectoryError, StepRangeError
from codegaze.lexer import LabelKind, TaskLabel
from codegaze.policy import BCConfig
from codegaze.training import CheckpointError


def tiny_dataset(n=24, seed=5, bug_rate=0.0):
    cfg = synth.GeneratorConfig(seed=seed, n_snippets=n, n_classes=2,
                                lines_min=2, lines_max=3, bug_rate=bug_rate)
    snippets = {synth.snippet_id(i): synth.gen_snippet(cfg, i) for i in range(n)}
    demos = [synth.linear_reader(s) for s in snippets.values()]
    return snippets, demos


TINY_NET = dict(d_emb=8, d_hidden=8, d_attn=8)


def test_zero_epochs_keeps_seeded_init():
    snippets, demos = tiny_dataset()
    cfg = BCConfig(epochs=0, seed=3, **TINY_NET)
    ckpt = training.train(demos, snippets, cfg)
    d_feat = next(iter(ckpt.params.values())).shape[0]
    fresh = policy.init_params(d_feat, cfg)
    for name, arr in ckpt.params.items():
        assert (arr == fresh[name].value).all()


def test_training_is_deterministic(tmp_path):
    snippets, demos = tiny_dataset()
    cfg = BCConfig(epochs=2, seed=1, **TINY_NET)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    training.save_checkpoint(training.train(demos, snippets, cfg), p1)
    training.save_checkpoint(training.train(demos, snippets, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loss_decreases_over_epochs():
    snippets, demos = tiny_dataset()
    cfg = BCConfig(epochs=8, seed=0, **TINY_NET)
    ckpt = training.train(demos, snippets, cfg)
    assert ckpt.epoch_log[-1]["mean_loss"] < ckpt.epoch_log[0]["mean_loss"]


def test_train_validates_inputs():
    snippets, demos = tiny_dataset()
    with pytest.raises(ValueError):
        training.train([], snippets, BCConfig(**TINY_NET))
    from codegaze.gaze import Trajectory
    bad = demos + [Trajectory("nope", [0])]
    with pytest.raises(KeyError):
        training.train(bad, snippets, BCConfig(**TINY_NET))


def test_zero_total_weight_is_rejected():
    # A split of a file with weight elsewhere can still carry none.
    from dataclasses import replace
    from codegaze.gaze import EmptyTrajectoryError
    snippets, demos = tiny_dataset()
    weightless = [replace(t, weight=0.0) for t in demos]
    with pytest.raises(EmptyTrajectoryError, match="weights sum to 0"):
        training.train(weightless, snippets, BCConfig(**TINY_NET))
    ckpt = training.train(demos, snippets, BCConfig(epochs=0, **TINY_NET))
    with pytest.raises(EmptyTrajectoryError, match="weights sum to 0"):
        training.evaluate(ckpt, weightless, snippets)


def test_evaluate_requires_data_and_is_pure():
    snippets, demos = tiny_dataset()
    ckpt = training.train(demos, snippets, BCConfig(epochs=1, **TINY_NET))
    with pytest.raises(EmptyTrajectoryError, match="empty trajectory set"):
        training.evaluate(ckpt, [], snippets)
    before = {k: v.copy() for k, v in ckpt.params.items()}
    m1 = training.evaluate(ckpt, demos, snippets)
    m2 = training.evaluate(ckpt, demos, snippets)
    assert m1 == m2
    for name in before:
        assert (ckpt.params[name] == before[name]).all()
    assert 0.0 <= m1.action_accuracy <= 1.0
    assert m1.mean_loss >= 0.0


def test_out_of_range_class_label_is_one_error_on_every_path():
    from dataclasses import replace
    snippets, demos = tiny_dataset()
    cfg = BCConfig(epochs=0, task_mode="classify", n_classes=3, w_aux=1.0, **TINY_NET)
    ckpt = training.train(demos, snippets, cfg)
    bad = replace(demos[0], task=TaskLabel(LabelKind.CLASS, 3))
    message = "task label 3 out of range for 3 classes"
    with pytest.raises(StepRangeError, match=message):
        training.train([bad], snippets, cfg)
    with pytest.raises(StepRangeError, match=message):
        training.evaluate(ckpt, [bad], snippets)
    feats = featurize(snippets[bad.snippet_id], ckpt.feature_spec, ckpt.vocab)
    with pytest.raises(StepRangeError, match=message):
        policy.forward_teacher([feats], [bad.steps], ckpt.params, cfg, [3])


def test_untrained_policy_near_chance():
    snippets, demos = tiny_dataset()
    ckpt = training.train(demos, snippets, BCConfig(epochs=0, **TINY_NET))
    m = training.evaluate(ckpt, demos, snippets)
    chance = float(np.mean([1.0 / (len(snippets[t.snippet_id].tokens) + 1)
                            for t in demos]))
    assert m.action_accuracy <= 3 * chance
    assert m.action_accuracy >= chance / 3


def test_batch_loss_linear_in_sample_weights():
    from dataclasses import replace
    snippets, demos = tiny_dataset()
    ckpt = training.train(demos, snippets, BCConfig(epochs=0, **TINY_NET))
    m1 = training.evaluate(ckpt, demos, snippets)
    doubled = [replace(t, weight=2.0 * t.weight) for t in demos]
    m2 = training.evaluate(ckpt, doubled, snippets)
    total1 = m1.mean_loss * sum(t.weight for t in demos)
    total2 = m2.mean_loss * sum(t.weight for t in doubled)
    assert total2 == pytest.approx(2.0 * total1, rel=1e-12)


def test_split_by_id_deterministic_and_near_80_20():
    ids = [synth.snippet_id(i) for i in range(500)]
    train_ids, held_ids = training.split_by_id(ids)
    assert (train_ids, held_ids) == training.split_by_id(ids)
    assert set(train_ids).isdisjoint(held_ids)
    assert len(train_ids) + len(held_ids) == 500
    assert 0.10 <= len(held_ids) / 500 <= 0.30


def test_checkpoint_roundtrip_bytes(tmp_path):
    snippets, demos = tiny_dataset()
    ckpt = training.train(demos, snippets, BCConfig(epochs=1, **TINY_NET))
    p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
    training.save_checkpoint(ckpt, p1)
    training.save_checkpoint(training.load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corrupted_shape(tmp_path):
    snippets, demos = tiny_dataset()
    ckpt = training.train(demos, snippets, BCConfig(epochs=0, **TINY_NET))
    path = tmp_path / "c.json"
    training.save_checkpoint(ckpt, path)
    obj = json.loads(path.read_text())
    name = next(iter(obj["params"]))
    obj["params"][name]["shape"][0] += 1
    path.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError, match=name):
        training.load_checkpoint(path)


def test_checkpoint_rejects_version_bump(tmp_path):
    snippets, demos = tiny_dataset()
    ckpt = training.train(demos, snippets, BCConfig(epochs=0, **TINY_NET))
    path = tmp_path / "c.json"
    training.save_checkpoint(ckpt, path)
    obj = json.loads(path.read_text())
    obj["format_version"] = 2
    path.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError, match="format_version"):
        training.load_checkpoint(path)


def test_checkpoint_floats_lossless(tmp_path):
    snippets, demos = tiny_dataset()
    ckpt = training.train(demos, snippets, BCConfig(epochs=1, **TINY_NET))
    path = tmp_path / "c.json"
    training.save_checkpoint(ckpt, path)
    back = training.load_checkpoint(path)
    for name, arr in ckpt.params.items():
        assert (back.params[name] == arr).all()


def test_parameters_share_one_buffer(tmp_path):
    # Trained and loaded ones alike, in a buffer that holds just them, not
    # Adam's moments and scratch.
    ckpt = classify_checkpoint()
    path = tmp_path / "c.json"
    training.save_checkpoint(ckpt, path)
    back = training.load_checkpoint(path)
    for params in (ckpt.params, back.params):
        base = params["W_in"].base
        assert base is not None and all(arr.base is base for arr in params.values())
        assert base.size == sum(a.size for a in params.values())
    for name, arr in ckpt.params.items():
        assert back.params[name].tobytes() == arr.tobytes()


def classify_checkpoint():
    """A seeded 0-epoch checkpoint with a classify head, so W_task is written,
    and a hand-written epoch log: no training arithmetic, so its bytes are
    the same on any CPU."""
    snippets, demos = tiny_dataset()
    cfg = BCConfig(epochs=0, seed=3, task_mode="classify", n_classes=2, w_aux=1.0,
                   **TINY_NET)
    ckpt = training.train(demos, snippets, cfg)
    ckpt.epoch_log = [{"epoch": 0, "mean_loss": 2.5, "action_accuracy": 0.1,
                       "task_accuracy": None}]
    return ckpt


def test_checkpoint_bytes_match_golden_hash(tmp_path):
    # recorded from `json.dump(obj, f, sort_keys=True)` plus a newline, the
    # writer before checkpoints were encoded one parameter at a time
    ckpt = classify_checkpoint()
    assert "W_task" in ckpt.params
    path = tmp_path / "c.json"
    training.save_checkpoint(ckpt, path)
    data = path.read_bytes()
    assert len(data) == 29977
    assert hashlib.sha256(data).hexdigest() == (
        "d43703f89b685d0a548c6d58596ec1df506d4b3447f5ecbad740d0be9c939fd2")


def test_checkpoint_text_is_the_whole_object_dumped(tmp_path):
    ckpt = classify_checkpoint()
    edge = [-0.0, 5e-324, 1e16, 1e-7, float("nan"), float("inf"), -float("inf"), 0.1]
    ckpt.params["W1"].flat[:len(edge)] = edge
    ckpt.vocab.ids.update({"naïve→日本": len(ckpt.vocab), 'a"b\\c': len(ckpt.vocab) + 1})
    ckpt.feature_spec.path = 'tables/ü "x" \\ y.txt'
    ckpt.epoch_log.append({"epoch": 1, "mean_loss": 1e-300, "action_accuracy": 1.0,
                           "task_accuracy": None})
    obj = {
        "format_version": training.FORMAT_VERSION,
        "float_encoding": training.FLOAT_ENCODING,
        "config": asdict(ckpt.config),
        "vocab": {"min_count": ckpt.vocab.min_count, "ids": ckpt.vocab.ids},
        "feature_spec": asdict(ckpt.feature_spec),
        "params": {name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
                   for name, arr in ckpt.params.items()},
        "epoch_log": ckpt.epoch_log,
    }
    path = tmp_path / "c.json"
    training.save_checkpoint(ckpt, path)
    streamed = io.StringIO()
    json.dump(obj, streamed, sort_keys=True)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(obj, sort_keys=True) + "\n" == streamed.getvalue() + "\n"
    assert "-0.0, 5e-324, 1e+16, 1e-07, NaN, Infinity, -Infinity, 0.1" in text


@pytest.fixture(scope="module")
def ingest_infer():
    """The benchmark's ingest-infer set-up: a checkpoint trained for one
    epoch at the default network sizes on 64 linear reads of 3-5-line
    snippets, the held-out split's linear reads, and the snippets."""
    gen = synth.GeneratorConfig(seed=41, n_snippets=300, n_classes=3, lines_min=3, lines_max=5)
    snippets = {synth.snippet_id(i): synth.gen_snippet(gen, i) for i in range(300)}
    train_ids, held_ids = training.split_by_id(sorted(snippets))
    demos = [synth.linear_reader(snippets[sid]) for sid in train_ids[:64]]
    ckpt = training.train(demos, {t.snippet_id: snippets[t.snippet_id] for t in demos},
                          BCConfig(epochs=1), FeatureSpec(mode="onehot_pos"))
    return ckpt, [synth.linear_reader(snippets[sid]) for sid in held_ids], snippets


def test_saving_holds_less_than_the_checkpoint(tmp_path, ingest_infer):
    ckpt = ingest_infer[0]
    path = tmp_path / "c.json"
    tracemalloc.start()
    try:
        training.save_checkpoint(ckpt, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 600_000
    assert peak < path.stat().st_size


def test_evaluation_keeps_only_the_gru_states(ingest_infer):
    # Evaluation takes no gradient, so its forward keeps only the GRU
    # states: not the runs' gathered inputs, gate inputs or gates, nor the
    # group's keys and queries, nor more than one read's logits. The 47
    # held-out reads run in two groups cut by the row budget alone (32 reads
    # of 1,024 padded rows, then 15), and the peak is 1.44 MB: the big
    # group's states (0.8 MB) and one 32-step read's tanh block (0.52 MB).
    # In groups of 8 it was 1.31 MB, and 2.02 MB when the runs kept what a
    # backward reads.
    ckpt, held, snippets = ingest_infer
    assert len(held) == 47
    tracemalloc.start()
    try:
        training.evaluate(ckpt, held, snippets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6e6


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_with_a_non_finite_parameter_is_rejected(tmp_path, value):
    ckpt = classify_checkpoint()
    ckpt.params["v"][2] = value  # saving writes it as it is
    path = tmp_path / "c.json"
    training.save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError,
                       match=f"invalid params: parameter 'v' has the non-finite value "
                             f"{value} at index 2"):
        training.load_checkpoint(path)


def test_localize_training_on_tiny_corpus():
    snippets, _ = tiny_dataset(bug_rate=1.0, seed=6)
    demos = [synth.bug_seeker(s, 1) for s in snippets.values()]
    cfg = BCConfig(epochs=40, w_att=1.0, w_aux=1.0, task_mode="localize", **TINY_NET)
    ckpt = training.train(demos, snippets, cfg)
    m = training.evaluate(ckpt, demos, snippets)
    assert m.task_accuracy is not None
    assert m.task_accuracy >= 0.5  # BUGTOK is lexically distinct, learns fast


def test_lockstep_groups_keep_order_and_row_budget(monkeypatch):
    from dataclasses import replace
    snippets, demos = tiny_dataset(n=30)
    feats = {sid: np.zeros((len(sn.tokens), 1)) for sid, sn in snippets.items()}
    demos[3] = replace(demos[3], steps=demos[3].steps * 4)  # longer than the budget
    monkeypatch.setattr(training, "ROW_BUDGET", 40)
    batches = training.lockstep_groups(demos, feats, 8)
    assert len(batches) == 4
    for i, groups in enumerate(batches):
        assert [t for g in groups for t in g] == demos[8 * i:8 * (i + 1)]
        for g in groups:
            rows = max(max(feats[t.snippet_id].shape[0], len(t.steps) + 1) for t in g)
            assert rows * len(g) <= 40 or g == [demos[3]]
    sizes = [len(g) for groups in batches for g in groups]
    assert max(sizes) > 1 and len(sizes) > len(batches)  # the budget cut some batches
    assert [demos[3]] in batches[0]


def test_a_batch_of_long_skims_is_one_group():
    gen = synth.GeneratorConfig(seed=41, n_snippets=16, lines_min=12, lines_max=16)
    snippets = {synth.snippet_id(i): synth.gen_snippet(gen, i) for i in range(16)}
    demos = [synth.keyword_skimmer(sn, gen.keyword_set()) for sn in snippets.values()]
    vocab = build_vocab(list(snippets.values()))
    feats = training._feature_cache([t.snippet_id for t in demos], snippets,
                                    FeatureSpec(mode="onehot_pos"), vocab)
    assert all(73 <= f.shape[0] <= 97 for f in feats.values())
    assert training.lockstep_groups(demos, feats, 8) == [[demos[:8]], [demos[8:]]]


def test_a_full_read_of_a_long_snippet_is_a_group_alone():
    from dataclasses import replace
    gen = synth.GeneratorConfig(seed=3, lines_min=120, lines_max=120)
    long = replace(synth.gen_snippet(gen, 0), id="long")
    snippets, demos = tiny_dataset(n=6)
    snippets[long.id] = long
    full = synth.linear_reader(long)
    assert len(full.steps) == 721
    batch = demos[:3] + [full] + demos[3:6]
    feats = {sid: np.zeros((len(sn.tokens), 1)) for sid, sn in snippets.items()}
    assert training.lockstep_groups(batch, feats, 8) == [[demos[:3], [full], demos[3:6]]]


def mixed_reads(task_mode):
    """Snippets and reads of every size evaluation groups: linear reads of
    3-5-line snippets, skims of 12-16-line ones, the 721-step full read of a
    120-line snippet and the read of a 1-token snippet, with weights other
    than 1 and labels for the head (bugs for localize, classes otherwise);
    and a checkpoint trained for one epoch on the short reads."""
    from codegaze.lexer import tokenize
    bugs = 1.0 if task_mode == "localize" else 0.0
    snippets = {}
    for name, lines, n in (("short", 3, 5), ("skim", 12, 16), ("full", 120, 120)):
        gen = synth.GeneratorConfig(seed=3, n_snippets=8, n_classes=3, lines_min=lines,
                                    lines_max=n, bug_rate=bugs)
        for i in range(gen.n_snippets if name != "full" else 1):
            snippets[f"{name}{i}"] = replace(synth.gen_snippet(gen, i), id=f"{name}{i}")
    one = tokenize("x", snippet_id="one")
    one.task = TaskLabel(LabelKind.BUG if bugs else LabelKind.CLASS, 0)
    snippets["one"] = one
    keywords = synth.GeneratorConfig().keyword_set()
    reads = {sid: (synth.keyword_skimmer(sn, keywords) if sid.startswith("skim")
                   else synth.linear_reader(sn)) for sid, sn in snippets.items()}
    order = ["short0", "short1", "skim0", "short2", "full0", "one", "short3", "skim1", "skim2",
             "short4", "skim3", "short5", "one", "skim4", "short6", "short7", "skim5"]
    held = [replace(reads[sid], weight=(0.5, 1.0, 2.5)[i % 3]) for i, sid in enumerate(order)]
    assert len(held[4].steps) == 721
    cfg = BCConfig(epochs=1, task_mode=task_mode, n_classes=3,
                   w_aux=0.0 if task_mode == "none" else 1.0)
    train = [reads[f"short{i}"] for i in range(8)]
    return training.train(train, snippets, cfg, FeatureSpec(mode="onehot_pos")), held, snippets


@pytest.mark.parametrize("task_mode", ["none", "classify", "localize"])
def test_evaluation_does_not_depend_on_the_row_budget(task_mode, monkeypatch):
    # Evaluation groups by the row budget alone. At the default budget the
    # short reads, skims and 1-token reads share groups and the full read
    # is a group alone; at 40 rows nearly every read is. Every key, query
    # and projection block is formed per trajectory or has at least 2 rows,
    # so the logits differ only where a group of one steps its GRUs with a
    # 1-row product (gemv) instead of a gemm: the accuracies are equal. The
    # mean loss agrees to 1e-12 relative, not exactly: besides those
    # groups, the budget also moves the training groups its losses are
    # added up in, and its last bit moves (here for none and classify).
    ckpt, held, snippets = mixed_reads(task_mode)
    groups = []
    forward = policy.forward_teacher
    monkeypatch.setattr(policy, "forward_teacher",
                        lambda features, *args: groups.append(len(features))
                        or forward(features, *args))
    default = training.evaluate(ckpt, held, snippets)
    wide, groups[:] = list(groups), []
    monkeypatch.setattr(training, "ROW_BUDGET", 40)
    narrow = training.evaluate(ckpt, held, snippets)
    assert sum(wide) == sum(groups) == len(held)
    assert len(wide) < len(groups) and 1 in wide and max(wide) > 2
    assert narrow.action_accuracy == default.action_accuracy
    assert narrow.task_accuracy == default.task_accuracy
    assert (default.task_accuracy is None) == (task_mode == "none")
    assert narrow.mean_loss == pytest.approx(default.mean_loss, rel=1e-12)


def test_evaluation_groups_by_the_row_budget_alone(monkeypatch):
    # Training cuts its groups at every batch of cfg.batch trajectories (one
    # Adam step each); evaluation takes no step, so only the row budget cuts.
    snippets, demos = tiny_dataset(n=20)
    groups = []
    forward = policy.forward_teacher
    monkeypatch.setattr(policy, "forward_teacher",
                        lambda features, *args: groups.append(len(features))
                        or forward(features, *args))
    ckpt = training.train(demos, snippets, BCConfig(epochs=1, batch=4, **TINY_NET))
    assert groups == [4] * 5
    groups.clear()
    training.evaluate(ckpt, demos, snippets)
    assert groups == [20]
    groups.clear()
    monkeypatch.setattr(training, "ROW_BUDGET", 40)
    training.evaluate(ckpt, demos, snippets)
    feats = training._feature_cache([t.snippet_id for t in demos], snippets,
                                    ckpt.feature_spec, ckpt.vocab)
    assert groups == [len(g) for g in training.lockstep_groups(demos, feats, len(demos))[0]]
    assert len(groups) > 5


def test_evaluation_adds_its_losses_up_in_training_groups(monkeypatch):
    # Cutting evaluation's forward passes as training cuts its groups gives
    # the same Metrics to the bit: the weighted losses are added up in
    # training's groups whatever evaluation's own are. (Added up in
    # evaluation's one group instead, this mean loss moves by 1 ulp.)
    snippets, demos = tiny_dataset(n=16)
    demos = [replace(t, weight=(0.3, 1.0, 2.7)[i % 3]) for i, t in enumerate(demos)]
    ckpt = training.train(demos, snippets, BCConfig(epochs=1, batch=4, **TINY_NET))
    wide = training.evaluate(ckpt, demos, snippets)
    cut = training.lockstep_groups
    monkeypatch.setattr(training, "lockstep_groups", lambda trajs, feats, batch: cut(trajs, feats, 4))
    assert training.evaluate(ckpt, demos, snippets) == wide


def test_one_adam_step_per_batch(monkeypatch):
    snippets, demos = tiny_dataset(n=21)
    calls = []
    real_step = training.ad.adam_step
    monkeypatch.setattr(training.ad, "adam_step",
                        lambda *args: calls.append(1) or real_step(*args))
    monkeypatch.setattr(training, "ROW_BUDGET", 40)  # several groups per batch
    training.train(demos, snippets, BCConfig(epochs=2, batch=4, **TINY_NET))
    assert len(calls) == 2 * -(-len(demos) // 4)


def test_evaluate_featurizes_only_referenced_snippets(monkeypatch):
    import copy
    snippets, demos = tiny_dataset()
    ckpt = training.train(demos[:12], snippets, BCConfig(epochs=1, **TINY_NET))
    held = demos[12:17]
    referenced = {t.snippet_id: snippets[t.snippet_id] for t in held}
    before = copy.deepcopy(snippets)
    featurized = []
    real_featurize = training.featurize

    def spy(snippet, *args):
        featurized.append(snippet.id)
        return real_featurize(snippet, *args)

    monkeypatch.setattr(training, "featurize", spy)
    assert training.evaluate(ckpt, held, snippets) == training.evaluate(ckpt, held, referenced)
    assert sorted(featurized) == sorted(2 * list(referenced))
    assert snippets == before  # the caller's snippets are not written to


def test_training_on_no_trajectories_is_a_data_error():
    snippets, _ = tiny_dataset()
    with pytest.raises(EmptyTrajectoryError, match="empty dataset"):
        training.train([], snippets, BCConfig(**TINY_NET))
