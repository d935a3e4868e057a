import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegaze import gaze, synth
from codegaze.gaze import (EmptyTrajectoryError, Fixation, GazeFileError, LayoutSpec,
                           StepRangeError, Trajectory, augment, build_trajectory, load_layout,
                           map_fixation, map_fixations, merge_consecutive, read_fixations_csv,
                           read_trajectories_jsonl, token_box, write_fixations_csv,
                           write_trajectories_jsonl)
from codegaze.lexer import Snippet, finite_floats, read_csv_rows, tokenize

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


def scan_map(fix, layout, snippet, radius_px):
    """The per-fixation scan `map_fixations` replaced: boxes in token order,
    the first containing box wins, else the nearest centre by math.hypot."""
    best_idx = None
    best_dist = math.inf
    for i, tok in enumerate(snippet.tokens):
        x0 = layout.origin_x_px + tok.col_start * layout.char_width_px
        x1 = layout.origin_x_px + tok.col_end * layout.char_width_px
        y0 = layout.origin_y_px + tok.line * layout.line_height_px
        y1 = y0 + layout.line_height_px
        if x0 <= fix.x_px < x1 and y0 <= fix.y_px < y1:
            return i
        d = math.hypot(fix.x_px - (x0 + x1) / 2.0, fix.y_px - (y0 + y1) / 2.0)
        if d < best_dist:
            best_dist = d
            best_idx = i
    if best_idx is not None and best_dist <= radius_px:
        return best_idx
    return None


def scan_nearest_distance(fix, layout, snippet):
    return min(math.hypot(fix.x_px - (x0 + x1) / 2.0, fix.y_px - (y0 + y1) / 2.0)
               for x0, y0, x1, y1 in (token_box(layout, t) for t in snippet.tokens))


def parity_snippets():
    gen = synth.GeneratorConfig(seed=8, n_snippets=6, lines_min=2, lines_max=9)
    return [sample_snippet(), tokenize("a\tb   c\n\n  dd = e  # note\nf", tab_width=8)] + \
        [synth.gen_snippet(gen, i) for i in range(6)]


def assert_scan_parity(fixes, snippet, radius_px, layout=LAYOUT):
    got = map_fixations(fixes, layout, snippet, radius_px)
    assert got == [scan_map(f, layout, snippet, radius_px) for f in fixes]


def test_map_fixations_matches_scan_on_random_fixations():
    rng = np.random.default_rng(12)
    layout = LayoutSpec(origin_x_px=13.25, origin_y_px=7.5, char_width_px=8.4,
                        line_height_px=17.3)
    for sn in parity_snippets():
        for lay in (LAYOUT, layout):
            fixes = [Fixation(0, x, y, 100) for x, y in
                     zip(rng.uniform(-60, 500, 400), rng.uniform(-60, 250, 400))]
            for radius in (0.0, 7.5, 40.0, math.inf):
                assert_scan_parity(fixes, sn, radius, lay)


def test_map_fixations_matches_scan_at_exactly_the_radius():
    # radius = the scan's own nearest distance: the last bit decides, and
    # np.hypot differs from math.hypot in it for some points
    rng = np.random.default_rng(13)
    for sn in parity_snippets():
        for x, y in zip(rng.uniform(-60, 500, 300), rng.uniform(-60, 250, 300)):
            fix = Fixation(0, x, y, 100)
            radius = scan_nearest_distance(fix, LAYOUT, sn)
            for r in (radius, np.nextafter(radius, 0.0)):
                assert map_fixation(fix, LAYOUT, sn, r) == scan_map(fix, LAYOUT, sn, r)
    # a 5-12-13 triangle to the first token's centre (33.5, 29)
    sn = sample_snippet()
    fix = Fixation(0, 38.5, 17.0, 100)
    assert map_fixation(fix, LAYOUT, sn, 13.0) == 0 == scan_map(fix, LAYOUT, sn, 13.0)
    assert map_fixation(fix, LAYOUT, sn, 12.999) is None


def test_map_fixations_matches_scan_on_box_edges():
    for sn in parity_snippets():
        fixes = []
        for tok in sn.tokens:
            x0, y0, x1, y1 = token_box(LAYOUT, tok)
            for x in (x0, x1, np.nextafter(x0, -math.inf), np.nextafter(x1, -math.inf)):
                for y in (y0, y1, (y0 + y1) / 2, np.nextafter(y1, -math.inf)):
                    fixes.append(Fixation(0, float(x), float(y), 100))
        for radius in (0.0, 4.5, 30.0):
            assert_scan_parity(fixes, sn, radius)


def test_map_fixations_matches_scan_between_equidistant_centres():
    for sn in parity_snippets():
        centres = [((x0 + x1) / 2, (y0 + y1) / 2)
                   for x0, y0, x1, y1 in (token_box(LAYOUT, t) for t in sn.tokens)]
        fixes = [Fixation(0, (a[0] + b[0]) / 2, (a[1] + b[1]) / 2 - dy, 100)
                 for i, a in enumerate(centres) for b in centres[i + 1:]
                 for dy in (0.0, 9.0, 30.0)]
        for radius in (0.0, 9.0, math.inf):
            assert_scan_parity(fixes, sn, radius)


def test_map_fixations_non_finite_points_map_to_none():
    sn = sample_snippet()
    fixes = [Fixation(0, math.nan, 29.0, 100), Fixation(0, math.inf, 29.0, 100),
             Fixation(0, 24.5, -math.inf, 100), Fixation(0, 24.5, 29.0, 100)]
    assert map_fixations(fixes, LAYOUT, sn, math.inf) == [None, None, None, 0]
    assert_scan_parity(fixes, sn, math.inf)


def test_map_fixations_of_nothing():
    sn = sample_snippet()
    assert map_fixations([], LAYOUT, sn, 30.0) == []
    empty = tokenize("")
    fixes = [Fixation(0, 24.5, 29.0, 100), Fixation(0, math.nan, 0.0, 100)]
    assert map_fixations(fixes, LAYOUT, empty, math.inf) == [None, None]
    assert_scan_parity(fixes, empty, math.inf)


def test_map_fixations_blocks_agree(monkeypatch):
    rng = np.random.default_rng(14)
    sn = parity_snippets()[-1]
    fixes = [Fixation(0, x, y, 100) for x, y in
             zip(rng.uniform(-60, 500, 500), rng.uniform(-60, 250, 500))]
    whole = map_fixations(fixes, LAYOUT, sn, 25.0)
    monkeypatch.setattr(gaze, "MAP_BLOCK_CELLS", 3 * len(sn.tokens) + 1)
    assert map_fixations(fixes, LAYOUT, sn, 25.0) == whole


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


def test_augment_tiny_sigma_keeps_every_step():
    # 2 sigma^2 underflows to 0: the step itself still weighs 1, every other
    # candidate 0, so no weight is NaN.
    sn = sample_snippet()
    traj = Trajectory(sn.id, [1, 4, 6])
    out = augment(traj, sn, sigma_tokens=1e-200, m=3, seed=3)
    assert [copy.steps for copy in out] == [[1, 4, 6]] * 4
    assert [copy.weight for copy in out] == [0.5] + [1 / 6] * 3


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


def loop_augment(traj, snippet, sigma_tokens, m, seed):
    """`augment` as it was with one table row per distinct step built in a
    loop and one draw per copy; returns (copies, weights) of the m copies."""
    rng = np.random.default_rng(seed)
    n = len(snippet.tokens)
    # no candidate lies n or more tokens away, so a wider window adds only padding
    window = min(math.ceil(2.0 * sigma_tokens), n)
    distinct = sorted(set(traj.steps))
    width = 2 * window + 1
    cands = np.zeros((len(distinct), width), dtype=np.int64)
    log_p = np.zeros((len(distinct), width))
    cdf = np.full((len(distinct), width), np.inf)
    for row, s in enumerate(distinct):
        line = snippet.tokens[s].line
        cs = [i for i in range(max(0, s - window), min(n, s + window + 1))
              if snippet.tokens[i].line == line]
        d = np.array([i - s for i in cs], dtype=np.float64)
        w = np.exp(-(d * d) / (2.0 * sigma_tokens ** 2))
        p = w / w.sum()
        c = p.cumsum()
        cands[row, :len(cs)] = cs
        with np.errstate(divide="ignore"):
            log_p[row, :len(cs)] = np.log(p)
        cdf[row, :len(cs)] = c / c[-1]
    rows = np.searchsorted(distinct, traj.steps)
    copies = []
    log_joints = np.empty(m)
    for i in range(m):
        u = rng.random(len(rows))
        k = np.count_nonzero(cdf[rows] <= u[:, None], axis=1)
        copies.append(merge_consecutive(cands[rows, k].tolist()))
        log_joints[i] = log_p[rows, k].sum()
    joints = np.exp(log_joints - log_joints.max())
    return copies, (0.5 * joints / joints.sum()).tolist()


def test_augment_matches_loop_reference_exactly():
    gen = synth.GeneratorConfig(seed=6, n_snippets=8, lines_min=2, lines_max=12)
    # long lines give rows of 8+ candidates, which numpy sums pairwise
    wide = tokenize("\n".join(" ".join(f"v{i}_{j}" for j in range(40)) for i in range(3)))
    shuffled = sample_snippet()
    shuffled = Snippet("shuffled", [shuffled.tokens[i] for i in
                                    np.random.default_rng(0).permutation(len(shuffled.tokens))], 2)
    cases = [(synth.gen_snippet(gen, i), None) for i in range(8)] + [(wide, 60), (shuffled, 30)]
    rng = np.random.default_rng(15)
    for sn, length in cases:
        trajs = [synth.linear_reader(sn)] if length is None else []
        trajs.append(Trajectory(sn.id, rng.integers(0, len(sn.tokens), length or 25).tolist()))
        for traj in trajs:
            for sigma in (0.3, 1.0, 2.5, 4.5):
                for m in range(1, 7):
                    seed = int(rng.integers(0, 2 ** 31))
                    out = augment(traj, sn, sigma, m, seed)
                    copies, weights = loop_augment(traj, sn, sigma, m, seed)
                    assert [t.steps for t in out[1:]] == copies
                    assert [t.weight for t in out[1:]] == weights


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


def test_augment_of_one_long_line_runs_in_bounded_memory():
    # A huge sigma on one 3,000-token line: one table over every step would
    # be 3,000 x 5,999 floats, so the run is a subprocess under a 1 GiB
    # address-space limit, where such a table fails with a MemoryError
    # instead of taking the host's memory.
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from codegaze.gaze import Trajectory, augment\n"
            "from codegaze.lexer import tokenize\n"
            "sn = tokenize(' '.join(f't{i}' for i in range(3000)))\n"
            "out = augment(Trajectory(sn.id, list(range(3000))), sn, 1e6, 4, 0)\n"
            "print(len(out), max(len(t.steps) for t in out))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gaze.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["5", "3000"]  # the original and m copies


@pytest.mark.parametrize("cells", [1, 7, 60, 500])
def test_augment_in_chunks_equals_one_chunk(monkeypatch, cells):
    gen = synth.GeneratorConfig(seed=8, n_snippets=4, lines_min=3, lines_max=9)
    wide = tokenize("\n".join(" ".join(f"v{i}_{j}" for j in range(40)) for i in range(3)))
    rng = np.random.default_rng(16)
    cases = [(synth.gen_snippet(gen, i), None) for i in range(4)] + [(wide, None), (wide, 90)]
    for sn, length in cases:
        steps = (synth.linear_reader(sn).steps if length is None
                 else rng.integers(0, len(sn.tokens), length).tolist())
        traj = Trajectory(sn.id, steps)
        for sigma in (0.6, 2.5, 1e6):
            monkeypatch.setattr(gaze, "AUGMENT_BLOCK_CELLS", 1 << 30)
            whole = augment(traj, sn, sigma, 5, seed=3)
            monkeypatch.setattr(gaze, "AUGMENT_BLOCK_CELLS", cells)
            chunked = augment(traj, sn, sigma, 5, seed=3)
            assert [(t.steps, t.weight) for t in chunked] == [(t.steps, t.weight) for t in whole]


def test_augment_keeps_a_benchmark_sized_trajectory_in_one_chunk(monkeypatch):
    # perfbench's ingest-infer augments full reads of 300 3-5-line snippets
    # with sigma 1 (and the train workloads 12-16-line ones)
    tables = []
    real_table = gaze._candidate_table
    monkeypatch.setattr(gaze, "_candidate_table",
                        lambda *args: tables.append(1) or real_table(*args))
    for lines, n in (((3, 5), 300), ((12, 16), 100)):
        gen = synth.GeneratorConfig(seed=1, n_snippets=n, lines_min=lines[0], lines_max=lines[1])
        for i in range(n):
            sn = synth.gen_snippet(gen, i)
            augment(synth.linear_reader(sn), sn, 1.0, 4, seed=i)
    assert len(tables) == 400


def mixed_file(seed=17):
    """Trajectories of one augment input: 3-5-line linear reads, 12-16-line
    skims, random walks on a snippet of three 40-token lines and on one whose
    tokens are shuffled, interleaved, with some snippets read twice."""
    short = synth.GeneratorConfig(seed=seed, n_snippets=5, lines_min=3, lines_max=5)
    long = synth.GeneratorConfig(seed=seed, n_snippets=3, lines_min=12, lines_max=16)
    wide = tokenize("\n".join(" ".join(f"v{i}_{j}" for j in range(40)) for i in range(3)),
                    snippet_id="wide")
    shuffled = sample_snippet()
    shuffled = Snippet("shuffled", [shuffled.tokens[i] for i in
                                    np.random.default_rng(0).permutation(len(shuffled.tokens))], 2)
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(5):
        sn = synth.gen_snippet(short, i)
        pairs.append((synth.linear_reader(sn), sn))
    for i in range(3):
        sn = synth.gen_snippet(long, i)
        pairs.append((synth.keyword_skimmer(sn, long.keyword_set()), sn))
    for sn, length in ((wide, 60), (shuffled, 30), (wide, 7)):
        pairs.append((Trajectory(sn.id, rng.integers(0, len(sn.tokens), length).tolist()), sn))
    pairs.append(pairs[0])
    order = rng.permutation(len(pairs))
    # two neighbours where one trajectory ends on the token the next starts on
    sn = pairs[0][1]
    first = [(Trajectory(sn.id, [0, 1, 2]), sn), (Trajectory(sn.id, [2, 1]), sn)]
    return ([t for t, _ in first] + [pairs[i][0] for i in order],
            [s for _, s in first] + [pairs[i][1] for i in order])


@pytest.mark.parametrize("cells", [1, 7, 60, 500])
def test_augment_all_matches_loop_reference_per_trajectory(monkeypatch, cells):
    # chunks of `cells` positions x candidate slots split trajectories
    monkeypatch.setattr(gaze, "AUGMENT_BLOCK_CELLS", cells)
    trajs, snippets = mixed_file()
    for sigma in (0.3, 1.0, 2.5, 1e6):
        # from 8 copies on, numpy sums a trajectory's joints pairwise
        for m in (1, 4, 6, 9):
            out = gaze.augment_all(trajs, snippets, sigma, m, seed=11)
            assert len(out) == len(trajs)
            for i, (traj, sn, group) in enumerate(zip(trajs, snippets, out)):
                copies, weights = loop_augment(traj, sn, sigma, m, 11 + i)
                assert [(t.snippet_id, t.steps, t.weight) for t in group] == \
                    [(traj.snippet_id, traj.steps, 0.5)] + [(traj.snippet_id, c, w)
                                                              for c, w in zip(copies, weights)]


def test_augment_all_checks_its_arguments():
    trajs, snippets = mixed_file()
    with pytest.raises(ValueError, match="^seed must be non-negative, not -1$"):
        gaze.augment_all(trajs, snippets, 1.0, 4, seed=-1)
    with pytest.raises(ValueError, match="^seed must be non-negative"):
        gaze.augment_all([], [], 1.0, 4, seed=-1)
    assert gaze.augment_all([], [], 1.0, 4, seed=0) == []
    bad = trajs[:3] + [Trajectory(snippets[3].id, [len(snippets[3].tokens)])]
    with pytest.raises(StepRangeError, match=re.escape(f"snippet {snippets[3].id!r}: step")):
        gaze.augment_all(bad, snippets[:4], 1.0, 4, seed=0)
    out = gaze.augment_all(trajs, snippets, 1.0, 0, seed=0)
    assert [[(t.steps, t.weight) for t in group] for group in out] == \
        [[(t.steps, 1.0)] for t in trajs]


def test_augment_all_keeps_each_table_to_its_own_window(monkeypatch):
    # one 3,000-token line and 300 short snippets at a huge sigma: the long
    # line's window is 2,999, every short snippet's its own widest line span
    long = tokenize(" ".join(f"t{i}" for i in range(3000)), snippet_id="long")
    gen = synth.GeneratorConfig(seed=2, n_snippets=300, lines_min=3, lines_max=5)
    shorts = [synth.gen_snippet(gen, i) for i in range(300)]
    snippets = shorts[:150] + [long] + shorts[150:]
    trajs = [synth.linear_reader(sn) for sn in snippets]
    tables = []
    real_table = gaze._candidate_table
    monkeypatch.setattr(gaze, "_candidate_table",
                        lambda distinct, *args: tables.append((len(distinct), args[1]))
                        or real_table(distinct, *args))
    out = gaze.augment_all(trajs, snippets, 1e6, 2, seed=0)
    assert [len(group) for group in out] == [3] * 301
    spans = {max(sum(t.line == line for t in sn.tokens) for line in {t.line for t in sn.tokens}) - 1
             for sn in shorts}
    assert {window for _, window in tables} == spans | {2999}
    # the 2,999-wide tables hold the long line's 3,000 steps and nothing else
    assert sum(rows for rows, window in tables if window == 2999) == 3000
    assert max(rows * (2 * window + 1) for rows, window in tables) <= gaze.AUGMENT_BLOCK_CELLS


def test_augment_all_of_a_long_line_among_short_snippets_runs_in_bounded_memory():
    # As test_augment_of_one_long_line_runs_in_bounded_memory, with the long
    # line in one file with 300 short snippets: a table padded to the long
    # line's window for every step would be 10,000 x 5,999 floats.
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from codegaze import synth\n"
            "from codegaze.gaze import augment_all\n"
            "from codegaze.lexer import tokenize\n"
            "long = tokenize(' '.join(f't{i}' for i in range(3000)), snippet_id='long')\n"
            "gen = synth.GeneratorConfig(seed=2, n_snippets=300, lines_min=3, lines_max=5)\n"
            "sns = [long] + [synth.gen_snippet(gen, i) for i in range(300)]\n"
            "out = augment_all([synth.linear_reader(sn) for sn in sns], sns, 1e6, 4, 0)\n"
            "print(len(out), max(len(t.steps) for t in out[0]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gaze.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["301", "3000"]


def test_augment_all_builds_one_table_for_a_benchmark_sized_file(monkeypatch):
    # perfbench's ingest-infer augments full reads of 300 3-5-line snippets
    # with sigma 1: every snippet's window is 2, and the file's 7,000-odd
    # positions x 5 slots fit one chunk
    tables = []
    real_table = gaze._candidate_table
    monkeypatch.setattr(gaze, "_candidate_table",
                        lambda *args: tables.append(1) or real_table(*args))
    gen = synth.GeneratorConfig(seed=41, n_snippets=300, lines_min=3, lines_max=5)
    snippets = [synth.gen_snippet(gen, i) for i in range(300)]
    gaze.augment_all([synth.linear_reader(sn) for sn in snippets], snippets, 1.0, 4, seed=41)
    assert len(tables) == 1


# ---------------------------------------------------------------------------
# File-level ingest

def random_recording(rng, sn, layout, n=60):
    """A fixation table on `sn`: random points, NaN coordinates, box edges,
    box centres, points equidistant from two centres, and short fixations."""
    x0, y0, x1, y1 = gaze.token_boxes(layout, sn.tokens)
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    k = len(sn.tokens)
    i, j = rng.integers(0, k, n), rng.integers(0, k, n)
    xs = np.concatenate([rng.uniform(-60, 500, n), x0[i], x1[i], (cx[i] + cx[j]) / 2, cx[i],
                         [math.nan, 24.5]])
    ys = np.concatenate([rng.uniform(-60, 250, n), y0[i], y1[j], (cy[i] + cy[j]) / 2, cy[j],
                         [29.0, math.nan]])
    order = rng.permutation(len(xs))
    dur = rng.choice([10.0, 49.0, 50.0, 180.0], len(xs))
    return np.column_stack([np.arange(len(xs), dtype=float), xs[order], ys[order], dur])


def scan_trajectory(table, layout, sn, min_dur_ms, radius_px):
    steps = [scan_map(Fixation(*row), layout, sn, radius_px) for row in table.tolist()
             if not row[3] < min_dur_ms]
    return merge_consecutive([s for s in steps if s is not None])


@pytest.mark.parametrize("cells", [1, 50, 1 << 16])
def test_build_trajectories_equals_per_file_build(monkeypatch, cells):
    rng = np.random.default_rng(18)
    layout = LayoutSpec(origin_x_px=13.25, origin_y_px=7.5, char_width_px=8.4,
                        line_height_px=17.3)
    snippets = parity_snippets() + [tokenize("", snippet_id="empty")]
    recordings = [(random_recording(rng, sn, LAYOUT), sn) for sn in snippets[:-1]]
    recordings.append((np.array([[0.0, 24.5, 29.0, 100.0]]), snippets[-1]))
    # a file whose fixations are all too short, and one with none
    short = random_recording(rng, snippets[0], LAYOUT)
    short[:, 3] = 10.0
    recordings += [(short, snippets[0]), (np.empty((0, 4)), snippets[1])]
    monkeypatch.setattr(gaze, "MAP_BLOCK_CELLS", cells)
    for lay in (LAYOUT, layout):
        # a radius at exactly the nearest centre distance of a point in no box
        table, sn = recordings[1]
        outside = next(Fixation(*row) for row in table.tolist() if math.isfinite(row[1] + row[2])
                       and scan_map(Fixation(*row), lay, sn, 0.0) is None)
        exact = scan_nearest_distance(outside, lay, sn)
        for min_dur, radius in ((50.0, 30.0), (0.0, 0.0), (50.0, 7.5), (0.0, math.inf),
                                (0.0, exact)):
            expected = []
            for table, sn in recordings:
                steps = scan_trajectory(table, lay, sn, min_dur, radius)
                if steps:
                    assert build_trajectory([Fixation(*row) for row in table.tolist()], lay, sn,
                                            min_dur, radius).steps == steps
                    expected.append((table, sn, steps))
                else:
                    with pytest.raises(EmptyTrajectoryError,
                                       match=f"^empty trajectory for snippet {sn.id!r}$"):
                        build_trajectory([Fixation(*row) for row in table.tolist()], lay, sn,
                                         min_dur, radius)
            got = gaze.build_trajectories([(t, sn) for t, sn, _ in expected], lay, min_dur,
                                          radius)
            assert [(t.snippet_id, t.steps, t.weight, t.task) for t in got] == \
                [(sn.id, steps, 1.0, sn.task) for _, sn, steps in expected]
            first_empty = next(sn for t, sn in recordings if not scan_trajectory(
                t, lay, sn, min_dur, radius))
            with pytest.raises(EmptyTrajectoryError,
                               match=f"^empty trajectory for snippet {first_empty.id!r}$"):
                gaze.build_trajectories(recordings, lay, min_dur, radius)


def test_map_points_at_exactly_the_radius_across_snippets():
    # one point at exactly the radius from its own snippet's nearest centre
    # (or just inside it), mapped in one pass with points of other snippets
    rng = np.random.default_rng(19)
    snippets = parity_snippets()
    xs, ys, owner, radii = [], [], [], []
    for k, sn in enumerate(snippets):
        for x, y in zip(rng.uniform(-60, 500, 40), rng.uniform(-60, 250, 40)):
            xs.append(x), ys.append(y), owner.append(k)
            radii.append(scan_nearest_distance(Fixation(0, x, y, 100), LAYOUT, sn))
    x, y, k = np.array(xs), np.array(ys), np.array(owner)
    for t in rng.choice(len(radii), 12, replace=False).tolist():
        for radius in (radii[t], np.nextafter(radii[t], 0.0)):
            got = gaze.map_points(x, y, k, LAYOUT, snippets, radius)
            assert [None if i < 0 else i for i in got.tolist()] == [
                scan_map(Fixation(0, *xy, 100), LAYOUT, snippets[j], radius)
                for *xy, j in zip(xs, ys, owner)]


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


def test_fixation_csv_columns_by_header_position(tmp_path):
    path = tmp_path / "gaze.csv"
    path.write_text("dur_ms,pupil,y_px,t_ms,x_px\n120,3,40,100,30.5\n\n80,2,20,0,10\n",
                    encoding="utf-8")
    assert read_fixations_csv(path) == [Fixation(0, 10, 20, 80), Fixation(100, 30.5, 40, 120)]
    out = tmp_path / "out.csv"
    write_fixations_csv(read_fixations_csv(path), out)
    assert out.read_text() == "t_ms,x_px,y_px,dur_ms\n0.0,10.0,20.0,80.0\n100.0,30.5,40.0,120.0\n"


@pytest.mark.parametrize("row,message", [
    ("0,10,20", "3 fields, the header has 4"),
    ("0,10,20,100,5", "5 fields, the header has 4"),
    ("0,abc,20,100", "x_px 'abc' is not a finite number"),
    ("0,10,nan,100", "y_px 'nan' is not a finite number"),
    ("0,10,20,-inf", "dur_ms '-inf' is not a finite number"),
])
def test_fixation_csv_bad_rows_name_the_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"t_ms,x_px,y_px,dur_ms\n0,1,2,100\n\n{row}\n", encoding="utf-8")
    with pytest.raises(GazeFileError) as info:
        read_fixations_csv(path)
    assert str(info.value) == f"{path}:4: {message}"


def row_parser_table(path):
    """The fixations of `path` as the strict row parser reads them, by onset."""
    rows = [finite_floats(fields, gaze.FIXATION_COLUMNS, GazeFileError, path, line)
            for line, fields in read_csv_rows(path, gaze.FIXATION_COLUMNS, "fixation file",
                                              GazeFileError)]
    return sorted(rows, key=lambda row: row[0])


@pytest.mark.parametrize("text", [
    "t_ms,x_px,y_px,dur_ms\n",
    "t_ms,x_px,y_px,dur_ms",
    "t_ms,x_px,y_px,dur_ms\r\n5,1.5,2,100\r\n\r\n0, 7 ,+1e2,1_000\r\n",
    "dur_ms,x_px,t_ms,y_px,t_ms\n100,-0.0,3,4,x\n80,2,3,.5,y",
    '"t_ms","x_px",y_px,dur_ms\n"1","2",3,4\n',
    # csv reads one row with a two-line note: the second line is not a row
    "t_ms,x_px,y_px,dur_ms,note\n0,10,20,100,\"x\n5,6,7,8,y\"\n",
    "t_ms,x_px,y_px,dur_ms,note\n0,10,20,100,a,b\n",
    "t_ms,x_px,y_px,dur_ms\n0,10,20,nan\n",
])
def test_read_fixation_table_reads_as_the_row_parser(tmp_path, text):
    path = tmp_path / "gaze.csv"
    path.write_bytes(text.encode())
    try:
        expected = row_parser_table(path)
    except GazeFileError as e:
        with pytest.raises(GazeFileError) as info:
            gaze.read_fixation_table(path)
        assert str(info.value) == str(e)
        return
    table = gaze.read_fixation_table(path)
    assert table.shape == (len(expected), 4) and table.tolist() == expected
    assert read_fixations_csv(path) == [Fixation(*row) for row in expected]


def test_layout_defaults_tab_width_and_converts_ints(tmp_path):
    path = tmp_path / "layout.json"
    path.write_text('{"origin_x_px": 20, "origin_y_px": 20.5, "char_width_px": 9, '
                    '"line_height_px": 18}')
    layout = load_layout(path)
    assert layout == LayoutSpec(20.0, 20.5, 9.0, 18.0, 4)
    assert type(layout.origin_x_px) is float


@pytest.mark.parametrize("content,message", [
    ("[1, 2]", "layout must be a JSON object, not list"),
    ('{"origin_x_px": "x"}', "layout key 'origin_x_px' must be float, not str"),
    ('{"tab_width": 8.5}', "layout key 'tab_width' must be int, not float"),
    ('{"origin_y_px": 1, "char_width_px": 9, "line_height_px": 18}',
     "missing keys ['origin_x_px']"),
    ('{"font": "mono"}', "unknown layout keys ['font']"),
    ("{", "invalid JSON"),
])
def test_layout_is_type_checked(tmp_path, content, message):
    path = tmp_path / "layout.json"
    path.write_text(content)
    with pytest.raises(GazeFileError, match=re.escape(message)):
        load_layout(path)


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


def test_trajectory_jsonl_defaults_and_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('\n{"snippet_id": "s1", "steps": [2, 0]}\n\n'
                    '{"snippet_id": "s2", "steps": [1], "weight": 0, "task": null}\n')
    back = read_trajectories_jsonl(path)
    assert [(t.snippet_id, t.steps, t.weight, t.task) for t in back] == \
        [("s1", [2, 0], 1.0, None), ("s2", [1], 0.0, None)]


@pytest.mark.parametrize("line,message", [
    ("{", "invalid JSON: Expecting property name enclosed in double quotes at column 2"),
    ('"s1"', "trajectory must be a JSON object, not str"),
    ('{"snippet_id": "s1", "steps": [0], "extra": 1}', "unknown trajectory keys ['extra']"),
    ('{"snippet_id": "s1", "steps": [true]}', "trajectory steps must be ints"),
    ('{"snippet_id": "s1", "steps": [0], "weight": Infinity}',
     "trajectory weight inf is not a finite number >= 0"),
    ('{"snippet_id": "s1", "steps": [0], "task": {"kind": "bug"}}',
     "trajectory task must have a kind (class, bug) and a value"),
    ('{"snippet_id": "s1", "steps": [0], "task": {"kind": "bug", "value": "2"}}',
     "trajectory task key 'value' must be int, not str"),
])
def test_trajectory_jsonl_bad_line_names_it(tmp_path, line, message):
    path = tmp_path / "t.jsonl"
    path.write_text('{"snippet_id": "s0", "steps": [0]}\n' + line + "\n")
    with pytest.raises(GazeFileError) as e:
        read_trajectories_jsonl(path)
    assert str(e.value) == f"{path}:2: {message}"
