import json
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codegaze
from codegaze.cli import DEFAULTS, build_parser, main


def run_cli(*args):
    return main(list(args))


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def synth_args(root: Path, **over):
    base = {
        "corpus_dir": root / "corpus", "labels": root / "labels.csv",
        "out": root / "demos.jsonl", "gaze_dir": root / "gaze",
        "layout": root / "layout.json",
    }
    args = ["synth", "--seed", "7", "--n-snippets", "12", "--lines-min", "2",
            "--lines-max", "3"]
    for k, v in base.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    for k, v in over.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


def test_synth_twice_identical_trees(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        root.mkdir()
        assert run_cli(*synth_args(root)) == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_tokenize_dump(tmp_path):
    assert run_cli(*synth_args(tmp_path)) == 0
    out = tmp_path / "tokens.jsonl"
    assert run_cli("tokenize", "--corpus-dir", str(tmp_path / "corpus"),
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert {"id", "n_lines", "tokens"} <= set(first)
    assert {"text", "kind", "line", "col_start", "col_end"} <= set(first["tokens"][0])


def test_ingest_reproduces_demos(tmp_path):
    assert run_cli(*synth_args(tmp_path)) == 0
    out = tmp_path / "ingested.jsonl"
    assert run_cli("ingest", "--corpus-dir", str(tmp_path / "corpus"),
                   "--gaze-dir", str(tmp_path / "gaze"),
                   "--layout", str(tmp_path / "layout.json"),
                   "--out", str(out)) == 0
    demos = [json.loads(l) for l in (tmp_path / "demos.jsonl").read_text().splitlines()]
    ingested = [json.loads(l) for l in out.read_text().splitlines()]
    assert [t["steps"] for t in ingested] == [t["steps"] for t in demos]


def test_augment_expands(tmp_path):
    assert run_cli(*synth_args(tmp_path)) == 0
    out = tmp_path / "aug.jsonl"
    assert run_cli("augment", "--corpus-dir", str(tmp_path / "corpus"),
                   "--trajectories", str(tmp_path / "demos.jsonl"),
                   "--out", str(out), "--m", "3", "--sigma-tokens", "1.0") == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 12 * 4
    for i in range(0, len(rows), 4):
        assert abs(sum(r["weight"] for r in rows[i:i + 4]) - 1.0) < 1e-12


def test_train_eval_rollout_roundtrip(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path, n_snippets=20)) == 0
    ckpt = tmp_path / "ckpt.json"
    metrics = tmp_path / "metrics.jsonl"
    assert run_cli("train", "--corpus-dir", str(tmp_path / "corpus"),
                   "--trajectories", str(tmp_path / "demos.jsonl"),
                   "--checkpoint", str(ckpt), "--metrics-out", str(metrics),
                   "--epochs", "2", "--d-emb", "8", "--d-hidden", "8",
                   "--d-attn", "8") == 0
    assert ckpt.exists()
    entries = [json.loads(l) for l in metrics.read_text().splitlines()]
    assert [e["epoch"] for e in entries] == [0, 1]
    assert all({"mean_loss", "action_accuracy", "task_accuracy"} <= set(e) for e in entries)

    assert run_cli("eval", "--checkpoint", str(ckpt),
                   "--corpus-dir", str(tmp_path / "corpus"),
                   "--trajectories", str(tmp_path / "demos.jsonl"),
                   "--split", "train") == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert {"action_accuracy", "task_accuracy", "mean_loss"} == set(out)

    assert run_cli("rollout", "--checkpoint", str(ckpt),
                   "--corpus-dir", str(tmp_path / "corpus"),
                   "--snippet", "snip0003", "--max-steps", "10") == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["snippet_id"] == "snip0003"
    assert isinstance(out["steps"], list) and len(out["steps"]) <= 10


def test_config_file_with_flag_override(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "corpus_dir": str(tmp_path / "corpus"), "out": str(tmp_path / "t1.jsonl")}))
    # flag overrides the file's out path
    assert run_cli("tokenize", "--config", str(cfg_path),
                   "--out", str(tmp_path / "t2.jsonl")) == 0
    assert (tmp_path / "t2.jsonl").exists()
    assert not (tmp_path / "t1.jsonl").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"corups_dir": "x"}))
    assert run_cli("tokenize", "--config", str(cfg_path)) == 1


def test_missing_required_option_is_usage_error():
    assert run_cli("tokenize") == 1


def test_missing_file_is_data_error(tmp_path):
    assert run_cli("eval", "--checkpoint", str(tmp_path / "no.json"),
                   "--corpus-dir", str(tmp_path), "--trajectories",
                   str(tmp_path / "no.jsonl")) == 2


def test_unknown_snippet_is_data_error(tmp_path):
    assert run_cli(*synth_args(tmp_path)) == 0
    ckpt = tmp_path / "ckpt.json"
    assert run_cli("train", "--corpus-dir", str(tmp_path / "corpus"),
                   "--trajectories", str(tmp_path / "demos.jsonl"),
                   "--checkpoint", str(ckpt), "--epochs", "0",
                   "--d-emb", "4", "--d-hidden", "4", "--d-attn", "4") == 0
    assert run_cli("rollout", "--checkpoint", str(ckpt),
                   "--corpus-dir", str(tmp_path / "corpus"),
                   "--snippet", "nope") == 2


def test_console_entry_point_runs():
    # the package's directory, for a checkout that is not installed
    env = dict(os.environ, PYTHONPATH=str(Path(codegaze.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "codegaze.cli"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1  # no subcommand -> usage error
    assert "usage: codegaze" in proc.stderr


def write_bad_steps(root: Path) -> Path:
    """Demos whose first trajectory points one past its snippet's last token."""
    rows = [json.loads(l) for l in (root / "demos.jsonl").read_text().splitlines()]
    tokens = json.loads((root / "tokens.jsonl").read_text().splitlines()[0])["tokens"]
    rows[0]["steps"].append(len(tokens))
    path = root / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def train_small(root: Path, trajectories: Path, *extra: str) -> int:
    return run_cli("train", "--corpus-dir", str(root / "corpus"),
                   "--trajectories", str(trajectories),
                   "--checkpoint", str(root / "ckpt.json"), "--epochs", "1",
                   "--d-emb", "4", "--d-hidden", "4", "--d-attn", "4", *extra)


def test_out_of_range_steps_are_data_errors(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    corpus = str(tmp_path / "corpus")
    assert run_cli("tokenize", "--corpus-dir", corpus,
                   "--out", str(tmp_path / "tokens.jsonl")) == 0
    bad = write_bad_steps(tmp_path)
    capsys.readouterr()
    # the bad trajectory belongs to snip0000, which the hashed split puts in
    # the training set; eval reads every split
    assert train_small(tmp_path, bad) == 2
    assert train_small(tmp_path, tmp_path / "demos.jsonl") == 0
    assert run_cli("eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                   "--corpus-dir", corpus, "--trajectories", str(bad)) == 2
    assert run_cli("augment", "--corpus-dir", corpus, "--trajectories", str(bad),
                   "--out", str(tmp_path / "aug.jsonl")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("error: ") and "out of range" in line for line in err)


def test_checkpoint_with_unknown_config_key_is_data_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert train_small(tmp_path, tmp_path / "demos.jsonl") == 0
    ckpt = tmp_path / "ckpt.json"
    obj = json.loads(ckpt.read_text())
    obj["config"]["dropout"] = 0.5
    ckpt.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("rollout", "--checkpoint", str(ckpt),
                   "--corpus-dir", str(tmp_path / "corpus"), "--snippet", "snip0003") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "unknown config keys ['dropout']" in err[0]


def test_missing_file_message_names_the_path(tmp_path, capsys):
    missing = tmp_path / "no.json"
    assert run_cli("eval", "--checkpoint", str(missing), "--corpus-dir", str(tmp_path),
                   "--trajectories", str(tmp_path / "no.jsonl")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]


def test_empty_trajectory_is_data_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert train_small(tmp_path, tmp_path / "demos.jsonl") == 0
    rows = [json.loads(l) for l in (tmp_path / "demos.jsonl").read_text().splitlines()]
    rows[0]["steps"] = []  # snip0000, in the training split
    bad = tmp_path / "empty.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                   "--corpus-dir", str(tmp_path / "corpus"), "--trajectories", str(bad)) == 2
    assert train_small(tmp_path, bad) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: trajectory for snippet 'snip0000' has no steps"] * 2


def test_rollout_of_empty_snippet_is_data_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert train_small(tmp_path, tmp_path / "demos.jsonl") == 0
    (tmp_path / "corpus" / "snip0000.txt").write_text("")
    capsys.readouterr()
    assert run_cli("rollout", "--checkpoint", str(tmp_path / "ckpt.json"),
                   "--corpus-dir", str(tmp_path / "corpus"), "--snippet", "snip0000") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cannot encode an empty token sequence"]


# Every option's default and flag type. DEFAULTS is derived from
# GeneratorConfig and BCConfig, so a change to either must not move an
# option silently.
PINNED_OPTIONS = {
    "corpus_dir": (None, str), "labels": (None, str), "gaze_dir": (None, str),
    "layout": (None, str), "trajectories": (None, str), "checkpoint": (None, str),
    "metrics_out": (None, str), "out": (None, str), "snippet": (None, str),
    "split": ("all", str), "seed": (0, int), "w_att": (1.0, float), "w_aux": (0.0, float),
    "d_emb": (32, int), "d_hidden": (48, int), "d_attn": (64, int), "lr": (5e-3, float),
    "grad_clip": (5.0, float), "epochs": (50, int), "batch": (8, int),
    "task_mode": ("none", str), "n_classes": (0, int), "feature_mode": ("onehot_pos", str),
    "ngram_n": (3, int), "ngram_buckets": (64, int), "embed_path": ("", str),
    "min_count": (1, int), "min_dur_ms": (50.0, float), "radius_px": (30.0, float),
    "sigma_tokens": (1.0, float), "m": (4, int), "n_snippets": (200, int),
    "lines_min": (3, int), "lines_max": (5, int), "bug_rate": (0.0, float),
    "expert": ("linear", str), "salient": (None, str), "bug_window": (2, int),
    "max_steps": (256, int), "tab_width": (4, int), "keywords": (None, str),
}


def test_options_keep_their_defaults_and_flag_types():
    assert {k: (v, type(v)) for k, v in DEFAULTS.items()} == \
        {k: (v, type(v)) for k, (v, _) in PINNED_OPTIONS.items()}
    parser = build_parser()
    for key, (_, flag_type) in PINNED_OPTIONS.items():
        args = parser.parse_args(["train", f"--{key.replace('_', '-')}", "7"])
        assert type(getattr(args, key)) is flag_type, key
    assert parser.parse_args(["train", "--config", "7"]).config == "7"


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_zero_batch_is_usage_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    capsys.readouterr()
    assert run_cli("train", "--corpus-dir", str(tmp_path / "corpus"),
                   "--trajectories", str(tmp_path / "demos.jsonl"),
                   "--checkpoint", str(tmp_path / "ckpt.json"), "--batch", "0") == 1
    assert "batch must be at least 1" in one_error_line(capsys)


@pytest.mark.parametrize("content,message", [
    ('{"epochs": "2"}', "config key 'epochs' must be int, not str"),
    ('{"d_emb": 8.5}', "config key 'd_emb' must be int, not float"),
    ('{"epochs": true}', "config key 'epochs' must be int, not bool"),
    ("5", "config must be a JSON object, not int"),
])
def test_mistyped_config_file_is_usage_error(tmp_path, capsys, content, message):
    assert run_cli(*synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(content)
    capsys.readouterr()
    # no flag may override the mistyped file value
    assert run_cli("train", "--config", str(cfg_path), "--corpus-dir", str(tmp_path / "corpus"),
                   "--trajectories", str(tmp_path / "demos.jsonl"),
                   "--checkpoint", str(tmp_path / "ckpt.json")) == 1
    assert message in one_error_line(capsys)


def test_int_config_value_passes_for_float(tmp_path):
    assert run_cli(*synth_args(tmp_path)) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"lr": 1, "w_aux": 0}')
    assert train_small(tmp_path, tmp_path / "demos.jsonl", "--config", str(cfg_path)) == 0
    assert json.loads((tmp_path / "ckpt.json").read_text())["config"]["lr"] == 1


@pytest.mark.parametrize("section,key,value,message", [
    ("config", "d_hidden", "4", "config key 'd_hidden' must be int, not str"),
    ("config", "batch", 2.5, "config key 'batch' must be int, not float"),
    ("feature_spec", "buckets", "x", "feature_spec key 'buckets' must be int, not str"),
    ("feature_spec", "mode", None, "missing 1 required positional argument: 'mode'"),
])
def test_checkpoint_with_mistyped_value_is_data_error(tmp_path, capsys, section, key,
                                                      value, message):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert train_small(tmp_path, tmp_path / "demos.jsonl") == 0
    ckpt = tmp_path / "ckpt.json"
    obj = json.loads(ckpt.read_text())
    if value is None:
        del obj[section][key]
    else:
        obj[section][key] = value
    ckpt.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("rollout", "--checkpoint", str(ckpt),
                   "--corpus-dir", str(tmp_path / "corpus"), "--snippet", "snip0003") == 2
    assert message in one_error_line(capsys)


def test_ingest_lexes_with_the_layouts_tab_width(tmp_path):
    # With tab width 8, "b" spans columns 8-9 (x 92-101 px); lexed with the
    # --tab-width default of 4 it would sit at x 56-65, out of reach of x=96.5.
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "snip.txt").write_text("a\tb")
    (tmp_path / "gaze").mkdir()
    (tmp_path / "gaze" / "snip.csv").write_text(
        "t_ms,x_px,y_px,dur_ms\n0,24.5,29,100\n200,96.5,29,100\n")
    layout = {"origin_x_px": 20.0, "origin_y_px": 20.0, "char_width_px": 9.0,
              "line_height_px": 18.0, "tab_width": 8}
    (tmp_path / "layout.json").write_text(json.dumps(layout))
    out = tmp_path / "traj.jsonl"
    assert run_cli("ingest", "--corpus-dir", str(tmp_path / "corpus"),
                   "--gaze-dir", str(tmp_path / "gaze"),
                   "--layout", str(tmp_path / "layout.json"), "--out", str(out)) == 0
    assert json.loads(out.read_text())["steps"] == [0, 1]


def test_synth_layout_records_tab_width(tmp_path):
    assert run_cli(*synth_args(tmp_path, tab_width=8)) == 0
    assert json.loads((tmp_path / "layout.json").read_text())["tab_width"] == 8
