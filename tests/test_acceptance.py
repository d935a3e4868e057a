"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The imitation runs
(criteria 3-5) train real models and are marked `slow`; `-m "not slow"`
skips them.
"""

import math
import time

import numpy as np
import pytest

from codegaze import autodiff as ad
from codegaze import cli, policy, synth, training
from codegaze.autodiff import Var
from codegaze.features import FeatureSpec
from codegaze.gaze import Fixation, LayoutSpec, augment, map_fixation
from codegaze.policy import BCConfig


def report(criterion, description, ok):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion}: {description}"


def brute_force_map(fix, layout, snippet, radius_px):
    """Independent oracle: scan every box for containment, then nearest center."""
    best = None
    best_d = math.inf
    for i, tok in enumerate(snippet.tokens):
        x0 = layout.origin_x_px + tok.col_start * layout.char_width_px
        x1 = layout.origin_x_px + tok.col_end * layout.char_width_px
        y0 = layout.origin_y_px + tok.line * layout.line_height_px
        y1 = y0 + layout.line_height_px
        if x0 <= fix.x_px < x1 and y0 <= fix.y_px < y1:
            return i
        d = math.hypot(fix.x_px - (x0 + x1) / 2, fix.y_px - (y0 + y1) / 2)
        if d < best_d:
            best_d = d
            best = i
    return best if best_d <= radius_px else None


@pytest.fixture(scope="module")
def corpus():
    cfg = synth.GeneratorConfig(seed=7, n_snippets=200, n_classes=3)
    snippets = {synth.snippet_id(i): synth.gen_snippet(cfg, i) for i in range(200)}
    train_ids, held_ids = training.split_by_id(sorted(snippets))
    return cfg, snippets, train_ids, held_ids


@pytest.fixture(scope="module")
def bugged_corpus():
    cfg = synth.GeneratorConfig(seed=11, n_snippets=200, n_classes=3, bug_rate=1.0)
    snippets = {synth.snippet_id(i): synth.gen_snippet(cfg, i) for i in range(200)}
    train_ids, held_ids = training.split_by_id(sorted(snippets))
    return cfg, snippets, train_ids, held_ids


def fit_and_score(snippets, demos, train_ids, held_ids, bc):
    train_trajs = [demos[sid] for sid in train_ids]
    ckpt = training.train(train_trajs, {sid: snippets[sid] for sid in train_ids},
                          bc, FeatureSpec(mode="onehot_pos"))
    held = training.evaluate(ckpt, [demos[sid] for sid in held_ids], snippets)
    return ckpt, held


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    loss_fn, params = policy.gradcheck_problem(seed=0)
    err = ad.grad_check(loss_fn, params, eps=1e-5)
    elapsed = time.time() - t0
    report(1, f"full-policy grad check max rel err {err:.2e} <= 1e-4 "
              f"in {elapsed:.1f}s (< 30s)", err <= 1e-4 and elapsed < 30)


def test_criterion_2_fixation_mapping_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2)
    layout = LayoutSpec()
    gen = synth.GeneratorConfig(seed=21, n_snippets=20, n_classes=2)
    mismatches = 0
    for index in range(20):
        snippet = synth.gen_snippet(gen, index)
        for _ in range(1000):
            fix = Fixation(0, rng.uniform(-100, 800), rng.uniform(-100, 300), 100)
            radius = rng.uniform(0, 80)
            if map_fixation(fix, layout, snippet, radius) != \
                    brute_force_map(fix, layout, snippet, radius):
                mismatches += 1
    elapsed = time.time() - t0
    report(2, f"map_fixation vs brute-force oracle: {mismatches} mismatches "
              f"on 20x1000 fixations in {elapsed:.1f}s (< 10s)",
           mismatches == 0 and elapsed < 10)


@pytest.mark.slow
def test_criterion_3_linear_reader_imitation(corpus):
    gen, snippets, train_ids, held_ids = corpus
    demos = {sid: synth.linear_reader(snippets[sid]) for sid in snippets}
    t0 = time.time()
    _, held = fit_and_score(snippets, demos, train_ids, held_ids,
                            BCConfig(w_att=1.0, w_aux=0.0, epochs=50, seed=0))
    elapsed = time.time() - t0
    report(3, f"linear-reader held-out action accuracy {held.action_accuracy:.3f} "
              f">= 0.95 in {elapsed:.0f}s (< 300s)",
           held.action_accuracy >= 0.95 and elapsed < 300)


@pytest.mark.slow
def test_criterion_4_keyword_skimmer_imitation(corpus):
    gen, snippets, train_ids, held_ids = corpus
    salient = gen.keyword_set()
    demos = {sid: synth.keyword_skimmer(snippets[sid], salient) for sid in snippets}
    t0 = time.time()
    _, held = fit_and_score(snippets, demos, train_ids, held_ids,
                            BCConfig(w_att=1.0, w_aux=0.0, epochs=50, seed=0))
    elapsed = time.time() - t0
    chance = float(np.mean([1.0 / (len(snippets[sid].tokens) + 1)
                            for sid in held_ids]))
    ok = (held.action_accuracy >= 0.80
          and held.action_accuracy >= 5 * chance
          and elapsed < 300)
    report(4, f"skimmer held-out action accuracy {held.action_accuracy:.3f} "
              f">= 0.80 and >= 5x chance ({chance:.3f}) in {elapsed:.0f}s", ok)


@pytest.mark.slow
def test_criterion_5_auxiliary_task_effect(bugged_corpus):
    gen, snippets, train_ids, held_ids = bugged_corpus
    demos = {sid: synth.bug_seeker(snippets[sid], 2) for sid in snippets}
    _, with_aux = fit_and_score(
        snippets, demos, train_ids, held_ids,
        BCConfig(w_att=1.0, w_aux=1.0, epochs=50, seed=0, task_mode="localize"))
    _, ablated = fit_and_score(
        snippets, demos, train_ids, held_ids,
        BCConfig(w_att=1.0, w_aux=0.0, epochs=50, seed=0, task_mode="localize"))
    chance = float(np.mean([1.0 / len(snippets[sid].tokens) for sid in held_ids]))
    ok = with_aux.task_accuracy >= 0.80 and ablated.task_accuracy <= 2 * chance
    report(5, f"localization accuracy {with_aux.task_accuracy:.3f} >= 0.80 with "
              f"aux loss; {ablated.task_accuracy:.3f} <= 2x chance ({chance:.3f}) "
              f"without", ok)


def test_criterion_6_augmentation_contract(corpus):
    gen, snippets, _, _ = corpus
    snippet = snippets[synth.snippet_id(0)]
    traj = synth.linear_reader(snippet)
    sigma = 1.0
    window = math.ceil(2 * sigma)
    out1 = augment(traj, snippet, sigma, 4, seed=6)
    out2 = augment(traj, snippet, sigma, 4, seed=6)
    ok = len(out1) == 5
    ok = ok and abs(sum(t.weight for t in out1) - 1.0) < 1e-12
    ok = ok and out1[0].steps == traj.steps
    for copy in out1[1:]:
        for s in copy.steps:
            ok = ok and any(abs(s - orig) <= window
                            and snippet.tokens[s].line == snippet.tokens[orig].line
                            for orig in traj.steps)
    ok = ok and [(t.steps, t.weight) for t in out1] == [(t.steps, t.weight) for t in out2]
    report(6, "augment(m=4): 5 trajectories, weights sum to 1 within 1e-12, "
              "perturbations stay on-line within the kernel window, "
              "bitwise reproducible", ok)


def test_criterion_7_end_to_end_determinism(tmp_path):
    def pipeline(root):
        root.mkdir()
        base = ["--corpus-dir", str(root / "corpus"), "--labels", str(root / "labels.csv")]
        assert cli.main(["synth", "--seed", "7", "--n-snippets", "20",
                         "--lines-min", "2", "--lines-max", "3",
                         "--gaze-dir", str(root / "gaze"),
                         "--layout", str(root / "layout.json"),
                         "--out", str(root / "demos.jsonl")] + base) == 0
        assert cli.main(["ingest", "--gaze-dir", str(root / "gaze"),
                         "--layout", str(root / "layout.json"),
                         "--out", str(root / "traj.jsonl")] + base) == 0
        assert cli.main(["train", "--trajectories", str(root / "traj.jsonl"),
                         "--checkpoint", str(root / "ckpt.json"),
                         "--metrics-out", str(root / "metrics.jsonl"),
                         "--epochs", "2", "--d-emb", "8", "--d-hidden", "8",
                         "--d-attn", "8", "--seed", "0"] + base) == 0
        return {name: (root / name).read_bytes()
                for name in ("traj.jsonl", "ckpt.json", "metrics.jsonl")}

    a = pipeline(tmp_path / "run1")
    b = pipeline(tmp_path / "run2")
    report(7, "synth -> ingest -> train twice: trajectories, checkpoint, and "
              "metrics files byte-identical", a == b)


def test_criterion_8_analytic_loss_values():
    ln2 = float(policy.bc_loss([Var(np.zeros(2))], [], None, None, 1.0, 0.0).value)
    ln4 = float(policy.bc_loss([Var(np.zeros(4)), Var(np.zeros(4))], [1],
                               None, None, 1.0, 0.0).value)
    ok = abs(ln2 - math.log(2)) < 1e-12 and abs(ln4 - math.log(4)) < 1e-12
    report(8, f"bc_loss analytic values: {ln2:.12f} = ln 2, {ln4:.12f} = ln 4 "
              f"within 1e-12", ok)
