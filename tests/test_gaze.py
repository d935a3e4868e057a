import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegaze import synth
from codegaze.gaze import (EmptyTrajectoryError, Fixation, LayoutSpec, StepRangeError,
                           Trajectory, augment, build_trajectory, map_fixation,
                           merge_consecutive, read_fixations_csv,
                           read_trajectories_jsonl, token_box, write_trajectories_jsonl)
from codegaze.lexer import tokenize

LAYOUT = LayoutSpec(origin_x_px=20, origin_y_px=20, char_width_px=9,
                    line_height_px=18, tab_width=4)


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
        d = math.sqrt((fix.x_px - (x0 + x1) / 2) ** 2 + (fix.y_px - (y0 + y1) / 2) ** 2)
        if d < best_d:
            best_d = d
            best = i
    return best if best_d <= radius_px else None


def sample_snippet():
    return tokenize("for i = 0 ; i < n\n  acc = acc + i ;", {"for"})


def center_fix(snippet, idx, dur=100.0):
    x0, y0, x1, y1 = token_box(LAYOUT, snippet.tokens[idx])
    return Fixation(0, (x0 + x1) / 2, (y0 + y1) / 2, dur)


def test_containment_wins():
    sn = sample_snippet()
    assert map_fixation(center_fix(sn, 5), LAYOUT, sn, 0.0) == 5


def test_whitespace_falls_back_to_nearest():
    sn = sample_snippet()
    # between token 1 and 2 on line 0
    fix = Fixation(0, 20 + 5.5 * 9, 20 + 9, 100)
    got = map_fixation(fix, LAYOUT, sn, 1e6)
    assert got == brute_force_map(fix, LAYOUT, sn, 1e6)


def test_far_fixation_maps_to_none():
    sn = sample_snippet()
    fix = Fixation(0, 1e6, 1e6, 100)
    assert map_fixation(fix, LAYOUT, sn, 10.0) is None


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    sn = sample_snippet()
    for _ in range(500):
        fix = Fixation(0, rng.uniform(-50, 400), rng.uniform(-50, 150), 100)
        radius = rng.uniform(0, 60)
        assert map_fixation(fix, LAYOUT, sn, radius) == brute_force_map(fix, LAYOUT, sn, radius)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        map_fixation(Fixation(0, 0, 0, 1), LAYOUT, sample_snippet(), -1.0)


def test_build_trajectory_merges_repeats():
    sn = sample_snippet()
    fixes = [center_fix(sn, i) for i in (3, 3, 7, 7, 7, 2)]
    traj = build_trajectory(fixes, LAYOUT, sn, min_dur_ms=50, radius_px=5)
    assert traj.steps == [3, 7, 2]
    assert traj.weight == 1.0


def test_build_trajectory_filters_short_fixations():
    sn = sample_snippet()
    fixes = [center_fix(sn, 3, dur=10.0)]
    with pytest.raises(EmptyTrajectoryError, match=sn.id or "snippet"):
        build_trajectory(fixes, LAYOUT, sn, min_dur_ms=50, radius_px=5)


def test_merge_across_dropped_fixations():
    sn = sample_snippet()
    fixes = [center_fix(sn, 3), Fixation(0, 1e6, 1e6, 100), center_fix(sn, 3)]
    traj = build_trajectory(fixes, LAYOUT, sn, min_dur_ms=50, radius_px=5)
    assert traj.steps == [3]


def test_no_consecutive_duplicates_property():
    rng = np.random.default_rng(5)
    sn = sample_snippet()
    for _ in range(30):
        fixes = [center_fix(sn, int(rng.integers(0, len(sn.tokens))))
                 for _ in range(int(rng.integers(1, 20)))]
        traj = build_trajectory(fixes, LAYOUT, sn, min_dur_ms=50, radius_px=5)
        assert all(a != b for a, b in zip(traj.steps, traj.steps[1:]))


# ---------------------------------------------------------------------------
# Augmentation

def test_augment_m_zero_is_identity():
    sn = sample_snippet()
    traj = Trajectory(sn.id, [0, 3, 5], weight=0.7)
    out = augment(traj, sn, sigma_tokens=1.0, m=0, seed=1)
    assert len(out) == 1
    assert out[0].steps == [0, 3, 5]
    assert out[0].weight == 1.0


def test_augment_weights_sum_to_one():
    sn = sample_snippet()
    traj = Trajectory(sn.id, [0, 3, 5])
    out = augment(traj, sn, sigma_tokens=1.0, m=3, seed=2)
    assert len(out) == 4
    assert abs(sum(t.weight for t in out) - 1.0) < 1e-12
    assert out[0].weight == 0.5


def test_augment_sigma_limit_reproduces_original():
    sn = sample_snippet()
    traj = Trajectory(sn.id, [1, 4, 6])
    for copy in augment(traj, sn, sigma_tokens=1e-6, m=5, seed=3):
        assert copy.steps == [1, 4, 6]


def test_augment_stays_on_line_within_window():
    sn = sample_snippet()
    sigma = 1.5
    window = math.ceil(2 * sigma)
    traj = Trajectory(sn.id, [2, 9])
    for copy in augment(traj, sn, sigma, m=20, seed=4)[1:]:
        for s in copy.steps:
            assert any(abs(s - orig) <= window
                       and sn.tokens[s].line == sn.tokens[orig].line
                       for orig in traj.steps)


def test_augment_reproducible():
    sn = sample_snippet()
    traj = Trajectory(sn.id, [0, 3, 5])
    a = augment(traj, sn, 1.0, 4, seed=9)
    b = augment(traj, sn, 1.0, 4, seed=9)
    assert [(t.steps, t.weight) for t in a] == [(t.steps, t.weight) for t in b]


def test_augment_rejects_bad_sigma():
    sn = sample_snippet()
    with pytest.raises(ValueError):
        augment(Trajectory(sn.id, [0]), sn, sigma_tokens=0.0, m=2, seed=0)


def test_augment_rejects_out_of_range_steps():
    sn = sample_snippet()
    for bad in (len(sn.tokens), -1):
        with pytest.raises(StepRangeError, match="out of range"):
            augment(Trajectory(sn.id, [0, bad]), sn, sigma_tokens=1.0, m=2, seed=0)


def reference_augment(traj, snippet, sigma, m, seed):
    """Per-step `rng.choice` and a product of probabilities, for short trajectories."""
    rng = np.random.default_rng(seed)
    window = math.ceil(2 * sigma)
    n = len(snippet.tokens)
    copies, joints = [], []
    for _ in range(m):
        steps, joint = [], 1.0
        for s in traj.steps:
            line = snippet.tokens[s].line
            cands = [i for i in range(max(0, s - window), min(n, s + window + 1))
                     if snippet.tokens[i].line == line]
            d = np.array([i - s for i in cands], dtype=np.float64)
            w = np.exp(-(d * d) / (2.0 * sigma ** 2))
            p = w / w.sum()
            k = rng.choice(len(cands), p=p)
            steps.append(cands[k])
            joint *= float(p[k])
        copies.append(merge_consecutive(steps))
        joints.append(joint)
    return copies, [0.5 * j / sum(joints) for j in joints]


def test_augment_matches_choice_reference():
    gen = synth.GeneratorConfig(seed=5, n_snippets=40)
    for index in range(40):
        sn = synth.gen_snippet(gen, index)
        traj = synth.linear_reader(sn)
        for sigma in (0.5, 1.0, 2.5):
            out = augment(traj, sn, sigma, 4, seed=index)
            copies, weights = reference_augment(traj, sn, sigma, 4, seed=index)
            assert [t.steps for t in out[1:]] == copies
            assert [t.weight for t in out[1:]] == pytest.approx(weights, rel=1e-12, abs=1e-300)


@pytest.fixture(scope="module")
def long_snippet():
    # 120 lines of 721 tokens: a full read's joint probability underflows a float
    return synth.gen_snippet(synth.GeneratorConfig(seed=3, lines_min=120, lines_max=120), 0)


def test_augment_full_read_of_long_snippet(long_snippet):
    traj = synth.linear_reader(long_snippet)
    out = augment(traj, long_snippet, 1.0, 4, seed=0)
    assert len(traj.steps) == 721
    assert abs(sum(t.weight for t in out) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(length=st.integers(1, 2000), seed=st.integers(0, 2 ** 32 - 1),
       sigma=st.floats(0.2, 4.0), m=st.integers(1, 8))
def test_augment_weights_sum_to_one_at_any_length(long_snippet, length, seed, sigma, m):
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, len(long_snippet.tokens), size=length).tolist()
    out = augment(Trajectory(long_snippet.id, steps), long_snippet, sigma, m, seed)
    assert len(out) == m + 1
    assert abs(math.fsum(t.weight for t in out) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# IO round trips

def test_fixation_csv_roundtrip(tmp_path):
    path = tmp_path / "gaze.csv"
    path.write_text("t_ms,x_px,y_px,dur_ms\n100,30.5,40,120\n0,10,20,80\n", encoding="utf-8")
    fixes = read_fixations_csv(path)
    assert [f.t_ms for f in fixes] == [0, 100]  # sorted by onset


def test_fixation_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_fixations_csv(path)


def test_trajectory_jsonl_roundtrip(tmp_path):
    from codegaze.lexer import LabelKind, TaskLabel
    trajs = [Trajectory("s1", [0, 2, 1], 0.5, TaskLabel(LabelKind.BUG, 2)),
             Trajectory("s2", [3], 1.0, None)]
    path = tmp_path / "t.jsonl"
    write_trajectories_jsonl(trajs, path)
    back = read_trajectories_jsonl(path)
    assert [(t.snippet_id, t.steps, t.weight) for t in back] == \
           [(t.snippet_id, t.steps, t.weight) for t in trajs]
    assert back[0].task.kind is LabelKind.BUG and back[0].task.value == 2
    assert back[1].task is None
