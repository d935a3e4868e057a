"""The benchmark's trace hooks (`perfbench/spans.py`) must find every library
name they wrap, so that renaming or deleting one fails here instead of
silently breaking `perfbench/run.py --trace 1`."""

from pathlib import Path

import pytest

from codegaze import autodiff, synth, training
from codegaze.policy import BCConfig

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
    originals = [lookup(owner, attr) for owner, attr, _, _ in spans.SPAN_SITES]
    with spans.Tracer("hooks") as tracer:
        ckpt = training.train(demos, snippets, BCConfig(epochs=1, d_emb=4, d_hidden=4, d_attn=4))
        training.evaluate(ckpt, demos, snippets)
        training.predict(ckpt, snippets[demos[0].snippet_id], max_steps=5)
    assert [lookup(owner, attr) for owner, attr, _, _ in spans.SPAN_SITES] == originals
    assert tracer.counts["policy.gru_enc_calls"] > 0
    assert tracer.counts["policy.gru_dec_calls"] > 0
    traced = {span[0] for span in tracer.spans}
    assert {"training.train", "training.evaluate", "training.predict", "policy.encode",
            "policy.gru_enc", "policy.gru_dec", "policy.pointer", "autodiff.backward",
            "autodiff.adam_step"} <= traced
