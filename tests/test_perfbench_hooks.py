"""The benchmark's trace hooks (`perfbench/spans.py`) must find every library
name they wrap, so that renaming or deleting one fails here instead of
silently breaking `perfbench/run.py --trace 1`."""

from pathlib import Path

import numpy as np
import pytest

from codegaze import autodiff, synth, training
from codegaze.autodiff import Var
from codegaze.features import FeatureSpec
from codegaze.policy import BCConfig

import tape_oracle as oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def lookup(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_trace_hooks_resolve_and_count(spans):
    for owner, attr, _, _ in spans.SPAN_SITES:
        assert callable(lookup(owner, attr)), attr
    for op in spans.TAPE_OPS:
        assert callable(getattr(autodiff, op)), op
    gen = synth.GeneratorConfig(seed=5, n_snippets=6, n_classes=2, lines_min=2, lines_max=3)
    snippets = {synth.snippet_id(i): synth.gen_snippet(gen, i) for i in range(6)}
    demos = [synth.linear_reader(s) for s in snippets.values()]
    cfg = BCConfig(epochs=1, d_emb=4, d_hidden=4, d_attn=4, seed=2)  # its rollout runs 5 steps
    originals = [lookup(owner, attr) for owner, attr, _, _ in spans.SPAN_SITES]
    with spans.Tracer("hooks") as tracer:
        ckpt = training.train(demos, snippets, cfg, FeatureSpec(mode="onehot"))
        training.evaluate(ckpt, demos, snippets)
        rolled = training.predict(ckpt, snippets[demos[0].snippet_id], max_steps=5)
    assert [lookup(owner, attr) for owner, attr, _, _ in spans.SPAN_SITES] == originals

    # Every GRU step is one `policy.gru_step` call, whatever the number of
    # rows it steps. Training and evaluation each run the six demos as one
    # lockstep group: as many encoder steps as the longest snippet has
    # tokens, and as many decoder steps as the longest demo has steps, plus
    # one. The rollout encodes its snippet's tokens and steps the decoder
    # once per input it is fed, none of them repeated: the tape oracle,
    # which decodes every step, feeds those inputs bit for bit, as one-hot
    # rows copy W_in's rows exactly.
    feats = training._feature_cache((t.snippet_id for t in demos), snippets,
                                    ckpt.feature_spec, ckpt.vocab)
    assert [len(groups) for groups in training.lockstep_groups(demos, feats, cfg.batch)] == [1]
    assert cfg.epochs == 1
    n_tokens = [len(snippets[t.snippet_id].tokens) for t in demos]
    params = {k: Var(v) for k, v in ckpt.params.items()}
    F = feats[demos[0].snippet_id]
    onehot = np.zeros(F.shape)
    onehot[np.arange(F.shape[0]), F.ids] = 1.0
    inputs = []
    assert oracle.rollout(onehot, params, 5, inputs=inputs, cell=oracle.fused_gru_step) == rolled
    assert len({(a, d.tobytes()) for a, d in inputs}) == len(inputs)
    assert tracer.counts["policy.gru_enc_calls"] == 2 * max(n_tokens) + n_tokens[0]
    assert tracer.counts["policy.gru_dec_calls"] == (
        2 * (max(len(t.steps) for t in demos) + 1) + len(inputs))
    self_times, _ = tracer.self_times()
    assert self_times["policy.gru_enc"] > 0 and self_times["policy.gru_dec"] > 0
    traced = {span[0] for span in tracer.spans}
    assert {"training.train", "training.evaluate", "training.predict", "policy.encode",
            "policy.gru_enc", "policy.gru_dec", "policy.pointer", "autodiff.backward",
            "autodiff.adam_step"} <= traced
