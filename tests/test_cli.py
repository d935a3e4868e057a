import csv
import hashlib
import json
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codegaze
from codegaze import cli, policy, synth, training
from codegaze.cli import COMMANDS, DEFAULTS, build_parser, main
from codegaze.lexer import LabelKind


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


def run_cli_in_bounded_memory(limit: int, *args: str) -> subprocess.CompletedProcess:
    """`codegaze *args` in a subprocess under an address-space limit of
    `limit` bytes, so that a run sized by its input fails there with a
    MemoryError instead of taking the host's memory."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from codegaze.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(codegaze.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("sigma", ["1e6", "1e300", "1.7e308"])
def test_augment_with_a_huge_sigma_runs_in_bounded_memory(tmp_path, sigma):
    # The candidate table stops at the widest line, so a huge sigma needs no
    # more memory than a small one (1 GiB of address space).
    assert run_cli(*synth_args(tmp_path)) == 0
    out = tmp_path / "aug.jsonl"
    proc = run_cli_in_bounded_memory(1 << 30, "augment", "--corpus-dir", str(tmp_path / "corpus"),
                                     "--trajectories", str(tmp_path / "demos.jsonl"),
                                     "--out", str(out), "--m", "3", "--sigma-tokens", sigma)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 12 * 4
    for i in range(0, len(rows), 4):
        # every same-line candidate weighs (about) the same, so every copy does too
        assert [r["weight"] for r in rows[i + 1:i + 4]] == pytest.approx([1 / 6] * 3, rel=1e-9)


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


def ingest_args(root: Path) -> list[str]:
    return ["ingest", "--corpus-dir", str(root / "corpus"), "--gaze-dir", str(root / "gaze"),
            "--layout", str(root / "layout.json"), "--out", str(root / "traj.jsonl")]


@pytest.mark.parametrize("row,message", [
    ("0,10,20", "3 fields, the header has 4"),
    ("0,10,20,100,7", "5 fields, the header has 4"),
    ("0,abc,20,100", "x_px 'abc' is not a finite number"),
    ("0,10,inf,100", "y_px 'inf' is not a finite number"),
])
def test_bad_fixation_row_is_data_error(tmp_path, capsys, row, message):
    assert run_cli(*synth_args(tmp_path)) == 0
    gaze_file = tmp_path / "gaze" / "snip0003.csv"
    gaze_file.write_text(gaze_file.read_text() + row + "\n")
    line = len(gaze_file.read_text().splitlines())
    capsys.readouterr()
    assert run_cli(*ingest_args(tmp_path)) == 2
    assert one_error_line(capsys) == f"error: {gaze_file}:{line}: {message}"


@pytest.mark.parametrize("layout,message", [
    ([20.0, 20.0, 9.0, 18.0], "layout must be a JSON object, not list"),
    ({"origin_x_px": "x"}, "layout key 'origin_x_px' must be float, not str"),
    ({"tab_width": 8.5}, "layout key 'tab_width' must be int, not float"),
    ({"origin_x_px": None}, "missing keys ['origin_x_px']"),
])
def test_bad_layout_is_data_error(tmp_path, capsys, layout, message):
    assert run_cli(*synth_args(tmp_path)) == 0
    path = tmp_path / "layout.json"
    if isinstance(layout, dict):
        obj = json.loads(path.read_text())
        obj.update(layout)
        layout = {k: v for k, v in obj.items() if v is not None}
    path.write_text(json.dumps(layout))
    capsys.readouterr()
    assert run_cli(*ingest_args(tmp_path)) == 2
    assert message in one_error_line(capsys)


def _drop_params(obj):
    del obj["params"]


def _resize_w1(obj):
    obj["params"]["W1"]["shape"] = [4, 2, 2]


@pytest.mark.parametrize("corrupt,message", [
    (lambda obj: obj["vocab"].update(ids=list(obj["vocab"]["ids"])),
     "invalid vocab: vocab key 'ids' must be dict, not list"),
    (lambda obj: obj["vocab"]["ids"].update({"<unk>": "0"}),
     "invalid vocab: vocab ids key '<unk>' must be int, not str"),
    (lambda obj: obj["vocab"]["ids"].update({"<unk>": 99}),
     "invalid vocab: vocab ids must number the"),
    (lambda obj: obj["params"]["v"].update(shape="4"),
     "invalid params: parameter 'v' key 'shape' must be list, not str"),
    (_drop_params, "missing params"),
    (_resize_w1, "invalid params: parameter 'W1' has shape [4, 2, 2], expected [4, 4]"),
    (lambda obj: obj["params"]["W_in"]["shape"].reverse(),
     "invalid params: parameter 'W_in' has shape"),
    (lambda obj: obj["params"].update(extra={"shape": [1], "data": [0.0]}),
     "invalid params: missing parameters [], unknown parameters ['extra']"),
    (lambda obj: obj["params"]["v"].update(data=["x"] * 4),
     "invalid params: parameter 'v': could not convert string to float"),
])
def test_checkpoint_with_bad_vocab_or_params_is_data_error(tmp_path, capsys, corrupt,
                                                          message):
    assert run_cli(*synth_args(tmp_path)) == 0
    assert train_small(tmp_path, tmp_path / "demos.jsonl") == 0
    ckpt = tmp_path / "ckpt.json"
    obj = json.loads(ckpt.read_text())
    corrupt(obj)
    ckpt.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("rollout", "--checkpoint", str(ckpt),
                   "--corpus-dir", str(tmp_path / "corpus"), "--snippet", "snip0003") == 2
    assert message in one_error_line(capsys)


@pytest.mark.parametrize("name,index,value", [("W1", 5, "nan"), ("v", 1, "inf")])
def test_checkpoint_with_a_non_finite_parameter_is_data_error(tmp_path, capsys, name, index,
                                                              value):
    # json parses NaN and Infinity, so without the check eval printed a NaN
    # loss and rollout stepped on NaN scores, both exiting 0
    assert run_cli(*synth_args(tmp_path, n_snippets=20)) == 0
    assert train_small(tmp_path, tmp_path / "demos.jsonl") == 0
    ckpt = tmp_path / "ckpt.json"
    obj = json.loads(ckpt.read_text())
    obj["params"][name]["data"][index] = float(value)
    ckpt.write_text(json.dumps(obj))
    capsys.readouterr()
    corpus = ["--corpus-dir", str(tmp_path / "corpus")]
    message = (f"invalid params: parameter {name!r} has the non-finite value {value} "
               f"at index {index}")
    assert run_cli("eval", "--checkpoint", str(ckpt), *corpus,
                   "--trajectories", str(tmp_path / "demos.jsonl")) == 2
    assert message in one_error_line(capsys)
    assert run_cli("rollout", "--checkpoint", str(ckpt), *corpus, "--snippet", "snip0003") == 2
    assert message in one_error_line(capsys)


def cycling_rollout_args(root: Path) -> list[str]:
    """`rollout` arguments for snippet snip0003 on a 1-epoch checkpoint that
    never stops there: its rollout settles into a cycle, and the cycle fills
    the steps up to --max-steps."""
    assert run_cli(*synth_args(root, seed=3, n_snippets=20, lines_min=3, lines_max=5)) == 0
    assert train_small(root, root / "demos.jsonl") == 0
    return ["rollout", "--checkpoint", str(root / "ckpt.json"),
            "--corpus-dir", str(root / "corpus"), "--snippet", "snip0003"]


def test_rollout_with_more_steps_than_a_list_holds_is_usage_error(tmp_path, capsys):
    # Filling max_steps from the cycle raised OverflowError on the repeat
    # count before max_steps was range-checked.
    args = cycling_rollout_args(tmp_path)
    capsys.readouterr()
    assert run_cli(*args, "--max-steps", "99999999999999999999") == 1
    assert one_error_line(capsys) == (
        f"error: max_steps must be between 1 and {policy.MAX_ROLLOUT_STEPS}")


@pytest.mark.parametrize("max_steps", [policy.MAX_ROLLOUT_STEPS + 1, 2_000_000_000])
def test_rollout_above_the_step_cap_is_usage_error_in_bounded_memory(tmp_path, max_steps):
    # 2e9 steps passed sys.maxsize and the cycle fill died building the list
    # with a MemoryError traceback; above the cap no list is built (2 GiB of
    # address space).
    proc = run_cli_in_bounded_memory(2 << 30, *cycling_rollout_args(tmp_path),
                                     "--max-steps", str(max_steps))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: max_steps must be between 1 and {policy.MAX_ROLLOUT_STEPS}"]
    assert proc.stdout == ""


def test_rollout_at_the_step_cap_prints_every_step_in_bounded_memory(tmp_path):
    # The cap's 2^24 steps, filled from the cycle, and the line that prints
    # them fit in 2 GiB of address space.
    proc = run_cli_in_bounded_memory(2 << 30, *cycling_rollout_args(tmp_path),
                                     "--max-steps", str(policy.MAX_ROLLOUT_STEPS))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["snippet_id"] == "snip0003" and len(out["steps"]) == policy.MAX_ROLLOUT_STEPS


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_synth_generates_and_lexes_each_snippet_once(tmp_path, monkeypatch):
    calls = {"gen_source": 0, "tokenize": 0}
    for name in calls:
        def counted(*args, _fn=getattr(synth, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(synth, name, counted)
    assert run_cli(*synth_args(tmp_path)) == 0
    assert calls == {"gen_source": 12, "tokenize": 12}


def tree_digest(path: Path) -> str:
    """SHA-256 of a file, or of a directory's relative paths and file bytes."""
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")) if path.is_dir() else [path]:
        if p.is_file():
            h.update(p.relative_to(path).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def augmented_digest(path: Path) -> str:
    """SHA-256 of an augment output with its weights cut to 12 digits: numpy's
    exp and log may round their last bit differently on another CPU."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        row["weight"] = float(f"{row['weight']:.12g}")
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# SHA-256 of each output of the run below, as the per-fixation and
# per-step implementations of synth/ingest/augment wrote them: batching
# must not change a byte.
GOLDEN = {
    "corpus": "5f145ba285b06cf804b61610c09b2715f8727a9397f58c9db6ea72781b22d054",
    "labels.csv": "a11ae1626052f79cf991a18418b683deb3a65ea3414cea08703021efc8a7cba6",
    "demos.jsonl": "24362c069bd61df739fbce3043d7a014771d041aaa7287a14a92e533dea317e4",
    "gaze": "c473ae239b23ad1cdfab9b3b69758081a4aeaf0d77af022706891c4d147d38b7",
    "layout.json": "ab3f870195bb711b3514748224ee2d773ca3e294cd36026ad30511dd76a25478",
    "traj.jsonl": "6edc561f08f682aafbbb4c4b4fc2168fbd62489f757ae1311e714882f1b45a21",
    "aug.jsonl": "b056ee67f1afa2f2fe820ded9fc651e462d271ac0527976d56a9451785353654",
}


def test_synth_ingest_augment_outputs_match_golden_hashes(tmp_path):
    root = tmp_path
    corpus = ["--corpus-dir", str(root / "corpus")]
    assert run_cli("synth", "--seed", "5", "--n-snippets", "16", "--lines-min", "2",
                   "--lines-max", "6", "--expert", "bug_seeker", "--bug-rate", "1.0",
                   "--labels", str(root / "labels.csv"), "--out", str(root / "demos.jsonl"),
                   "--gaze-dir", str(root / "gaze"), "--layout", str(root / "layout.json"),
                   *corpus) == 0
    assert run_cli(*ingest_args(root)) == 0
    assert run_cli("augment", "--trajectories", str(root / "traj.jsonl"),
                   "--out", str(root / "aug.jsonl"), "--m", "3", "--sigma-tokens", "2.5",
                   "--seed", "5", *corpus) == 0
    digests = {name: tree_digest(root / name) for name in GOLDEN}
    digests["aug.jsonl"] = augmented_digest(root / "aug.jsonl")
    assert digests == GOLDEN


def train_args(root: Path, *extra):
    return ["train", "--corpus-dir", str(root / "corpus"),
            "--trajectories", str(root / "demos.jsonl"), "--checkpoint", str(root / "c.json"),
            "--epochs", "1", "--d-emb", "4", "--d-hidden", "4", "--d-attn", "4", *extra]


@pytest.mark.parametrize("row,message", [
    ("snip0001,class", "2 fields, the header has 3"),
    ("snip0001,class,1,9", "4 fields, the header has 3"),
    ("snip0001,class,one", "value 'one' is not an integer"),
    ("snip0001,colour,1", "kind 'colour' is not one of class, bug"),
])
def test_bad_label_row_is_data_error(tmp_path, capsys, row, message):
    assert run_cli(*synth_args(tmp_path)) == 0
    labels = tmp_path / "labels.csv"
    labels.write_text(labels.read_text() + row + "\n")
    line = len(labels.read_text().splitlines())
    capsys.readouterr()
    assert run_cli(*train_args(tmp_path, "--labels", str(labels))) == 2
    assert one_error_line(capsys) == f"error: {labels}:{line}: {message}"


def test_bad_labels_header_is_data_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    labels = tmp_path / "labels.csv"
    labels.write_text("id,kind,value\nsnip0001,class,1\n")
    capsys.readouterr()
    assert run_cli(*train_args(tmp_path, "--labels", str(labels))) == 2
    assert one_error_line(capsys) == (f"error: labels file {labels}: header must contain "
                                      "snippet_id,kind,value")


@pytest.mark.parametrize("line,message", [
    ('{"snippet_id": "snip0001", "steps": [1, 2',
     "invalid JSON: Expecting ',' delimiter at column 42"),
    ("[1, 2]", "trajectory must be a JSON object, not list"),
    ('{"steps": [1]}', "trajectory missing keys ['snippet_id']"),
    ('{"snippet_id": "snip0001", "weight": 1.0}', "trajectory missing keys ['steps']"),
    ('{"snippet_id": 1, "steps": [1]}', "trajectory key 'snippet_id' must be str, not int"),
    ('{"snippet_id": "snip0001", "steps": 1}', "trajectory key 'steps' must be list, not int"),
    ('{"snippet_id": "snip0001", "steps": [1.5]}', "trajectory steps must be ints"),
    ('{"snippet_id": "snip0001", "steps": [1], "task": "bug"}',
     "trajectory key 'task' must be dict, not str"),
    ('{"snippet_id": "snip0001", "steps": [1], "task": {"kind": "x", "value": 1}}',
     "trajectory task must have a kind (class, bug) and a value"),
    ('{"snippet_id": "snip0001", "steps": [1], "weight": -1.0}',
     "trajectory weight -1.0 is not a finite number >= 0"),
    ('{"snippet_id": "snip0001", "steps": [1], "weight": NaN}',
     "trajectory weight nan is not a finite number >= 0"),
    ('{"snippet_id": "snip0001", "steps": [1], "weight": "1"}',
     "trajectory key 'weight' must be float, not str"),
])
def test_bad_trajectory_line_is_data_error(tmp_path, capsys, line, message):
    assert run_cli(*synth_args(tmp_path)) == 0
    path = tmp_path / "demos.jsonl"
    path.write_text(path.read_text() + line + "\n")
    line_no = len(path.read_text().splitlines())
    capsys.readouterr()
    assert run_cli("augment", "--corpus-dir", str(tmp_path / "corpus"), "--trajectories",
                   str(path), "--out", str(tmp_path / "aug.jsonl")) == 2
    assert one_error_line(capsys) == f"error: {path}:{line_no}: {message}"


def test_trajectory_weights_summing_to_zero_are_data_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    path = tmp_path / "demos.jsonl"
    rows = [dict(json.loads(l), weight=0.0) for l in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert run_cli(*train_args(tmp_path)) == 2
    assert one_error_line(capsys) == f"error: trajectory file {path}: the weights sum to 0"


@pytest.mark.parametrize("value", [7, -1])
def test_task_label_out_of_range_is_data_error(tmp_path, capsys, value):
    assert run_cli(*synth_args(tmp_path)) == 0
    path = tmp_path / "demos.jsonl"
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    rows[1]["task"] = {"kind": "class", "value": value}
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert run_cli(*train_args(tmp_path, "--task-mode", "classify", "--n-classes", "2",
                               "--w-aux", "1")) == 2
    assert one_error_line(capsys) == (f"error: trajectory for snippet 'snip0001': task label "
                                      f"{value} out of range for 2 classes")


def test_eval_of_an_empty_split_is_data_error(tmp_path, capsys):
    # The hashed split of this 12-snippet corpus holds out no snippet.
    assert run_cli(*synth_args(tmp_path)) == 0
    assert train_small(tmp_path, tmp_path / "demos.jsonl") == 0
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                   "--corpus-dir", str(tmp_path / "corpus"),
                   "--trajectories", str(tmp_path / "demos.jsonl"), "--split", "held") == 2
    assert one_error_line(capsys) == "error: cannot evaluate on an empty trajectory set"


@pytest.mark.parametrize("row,message", [
    ("x 0.1 abc", "value 'abc' is not a finite number"),
    ("x nan 0.1", "value 'nan' is not a finite number"),
    ("x 0.1 -inf", "value '-inf' is not a finite number"),
    ("x 0.1", "width 1, the first row's is 2"),
    ("x 0.1 0.2 0.3", "width 3, the first row's is 2"),
])
def test_bad_embedding_table_row_is_data_error(tmp_path, capsys, row, message):
    assert run_cli(*synth_args(tmp_path)) == 0
    table = tmp_path / "emb.txt"
    table.write_text(f"if 0.5 -0.5\n\nfor 1 2\n{row}\n")
    capsys.readouterr()
    assert run_cli(*train_args(tmp_path, "--feature-mode", "external",
                               "--embed-path", str(table))) == 2
    assert one_error_line(capsys) == f"error: {table}:4: {message}"
    table.write_text("if 0.5 -0.5\n\nfor 1 2\n")
    assert run_cli(*train_args(tmp_path, "--feature-mode", "external",
                               "--embed-path", str(table))) == 0


def _corpus_file(root):
    return root / "corpus" / "snip0003.txt", [
        "tokenize", "--corpus-dir", str(root / "corpus"), "--out", str(root / "tokens.jsonl")]


def _labels(root):
    return root / "labels.csv", train_args(root, "--labels", str(root / "labels.csv"))


def _fixations(root):
    return root / "gaze" / "snip0003.csv", ingest_args(root)


def _layout(root):
    return root / "layout.json", ingest_args(root)


def _trajectories(root):
    return root / "demos.jsonl", ["augment", "--corpus-dir", str(root / "corpus"),
                                  "--trajectories", str(root / "demos.jsonl"),
                                  "--out", str(root / "aug.jsonl")]


def _checkpoint(root):
    assert train_small(root, root / "demos.jsonl") == 0
    return root / "ckpt.json", ["rollout", "--checkpoint", str(root / "ckpt.json"),
                                "--corpus-dir", str(root / "corpus"), "--snippet", "snip0003"]


def _embedding_table(root):
    (root / "emb.txt").write_text("if 0.5 -0.5\nfor 1 2\n")
    return root / "emb.txt", train_args(root, "--feature-mode", "external",
                                        "--embed-path", str(root / "emb.txt"))


@pytest.mark.parametrize("reader", [_corpus_file, _labels, _fixations, _layout, _trajectories,
                                    _checkpoint, _embedding_table])
def test_non_utf8_input_file_is_data_error(tmp_path, capsys, reader):
    assert run_cli(*synth_args(tmp_path)) == 0
    path, argv = reader(tmp_path)
    line = len(path.read_bytes().splitlines()) + 1
    path.write_bytes(path.read_bytes() + b"caf\xe9 1 2\n")
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert one_error_line(capsys).startswith(f"error: {path}:{line}: not UTF-8 text")


def test_corpus_dir_naming_a_file_is_data_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    not_dir = tmp_path / "labels.csv"
    capsys.readouterr()
    assert run_cli("tokenize", "--corpus-dir", str(not_dir),
                   "--out", str(tmp_path / "tokens.jsonl")) == 2
    assert str(not_dir) in one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    lambda root: train_args(root, "--checkpoint", str(root / "corpus")),
    lambda root: ["rollout", "--checkpoint", str(root / "corpus"),
                  "--corpus-dir", str(root / "corpus"), "--snippet", "snip0003"],
    lambda root: ["augment", "--corpus-dir", str(root / "corpus"),
                  "--trajectories", str(root / "demos.jsonl"), "--out", str(root / "corpus")],
    lambda root: train_args(root, "--metrics-out", str(root / "corpus")),
    lambda root: [*ingest_args(root)[:-1], str(root / "corpus")],
    lambda root: ["tokenize", "--corpus-dir", str(root / "corpus"), "--out", str(root / "corpus")],
    lambda root: synth_args(root, labels=root / "corpus"),
], ids=["train-checkpoint", "rollout-checkpoint", "augment-out", "train-metrics-out",
        "ingest-out", "tokenize-out", "synth-labels"])
def test_file_option_naming_a_directory_is_data_error(tmp_path, capsys, monkeypatch, argv):
    assert run_cli(*synth_args(tmp_path)) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("the work ran before its output was checked")

    # An output is checked before any input is read or any work is done.
    for owner, name in [(training, "train"), (cli, "augment_all"), (cli, "build_trajectories"),
                        (cli, "read_fixation_table"), (cli, "load_corpus"), (cli, "load_layout"),
                        (synth, "gen_source")]:
        monkeypatch.setattr(owner, name, never)
    assert run_cli(*argv(tmp_path)) == 2
    assert str(tmp_path / "corpus") in one_error_line(capsys)


def test_output_checks_leave_files_as_they_were(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    ckpt, metrics = tmp_path / "c.json", tmp_path / "metrics.jsonl"
    ckpt.write_text("kept\n")
    missing = tmp_path / "missing.jsonl"
    capsys.readouterr()
    assert run_cli(*train_args(tmp_path, "--metrics-out", str(metrics),
                               "--trajectories", str(missing))) == 2
    assert str(missing) in one_error_line(capsys)
    # An existing output is untouched; a new one is left empty by the failed run.
    assert ckpt.read_text() == "kept\n"
    assert metrics.read_bytes() == b""
    assert run_cli(*train_args(tmp_path, "--metrics-out", str(metrics))) == 0
    assert training.load_checkpoint(ckpt).epoch_log
    assert len(metrics.read_text().splitlines()) == 1


def test_embedding_table_of_another_width_is_data_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    table = tmp_path / "emb.txt"
    table.write_text("if 0.5 -0.5 1\nfor 1 2 3\n")
    assert train_small(tmp_path, tmp_path / "demos.jsonl", "--feature-mode", "external",
                       "--embed-path", str(table)) == 0
    table.write_text("if 0.5 -0.5\nfor 1 2\n")
    capsys.readouterr()
    message = f"error: embedding table {table}: width 2, but the checkpoint's W_in has 3 rows"
    assert run_cli("eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                   "--corpus-dir", str(tmp_path / "corpus"),
                   "--trajectories", str(tmp_path / "demos.jsonl")) == 2
    assert one_error_line(capsys) == message
    assert run_cli("rollout", "--checkpoint", str(tmp_path / "ckpt.json"),
                   "--corpus-dir", str(tmp_path / "corpus"), "--snippet", "snip0003") == 2
    assert one_error_line(capsys) == message


@pytest.mark.parametrize("task_mode,kind", [("none", LabelKind.CLASS),
                                            ("classify", LabelKind.CLASS),
                                            ("localize", LabelKind.BUG)])
def test_load_corpus_attaches_the_heads_label_kind(tmp_path, task_mode, kind):
    assert run_cli(*synth_args(tmp_path, bug_rate=1.0)) == 0
    with open(tmp_path / "labels.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 * 12 and {r["kind"] for r in rows} == {"class", "bug"}
    corpus = cli._load_corpus(dict(DEFAULTS, corpus_dir=str(tmp_path / "corpus"),
                                   labels=str(tmp_path / "labels.csv"), task_mode=task_mode))
    assert len(corpus) == 12
    assert {snippet.task.kind for snippet in corpus.values()} == {kind}


@pytest.mark.parametrize("name", ["missing.json", "corpus"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, name):
    assert run_cli(*synth_args(tmp_path)) == 0
    capsys.readouterr()
    assert run_cli(*train_args(tmp_path, "--config", str(tmp_path / name))) == 1
    assert one_error_line(capsys).startswith(f"error: config {tmp_path / name}: ")


def test_key_error_from_a_bug_is_not_a_data_error(monkeypatch):
    def broken(cfg):
        return {}["no such key"]

    monkeypatch.setitem(COMMANDS, "tokenize", broken)
    with pytest.raises(KeyError):
        run_cli("tokenize")


def test_csv_field_over_the_size_limit_is_data_error(tmp_path, capsys):
    assert run_cli(*synth_args(tmp_path)) == 0
    gaze_file = tmp_path / "gaze" / "snip0003.csv"
    line = len(gaze_file.read_text().splitlines()) + 1
    gaze_file.write_text(gaze_file.read_text() + "0," + "9" * 200_000 + ",20,100\n")
    capsys.readouterr()
    assert run_cli(*ingest_args(tmp_path)) == 2
    assert one_error_line(capsys) == (f"error: {gaze_file}:{line}: field larger than "
                                      f"field limit ({csv.field_size_limit()})")


@pytest.mark.parametrize("task_mode,trajectories", [
    ("localize", "traj.jsonl"),   # ingest under the none head writes class labels
    ("classify", "demos.jsonl"),  # synth's demo of a bugged snippet carries its bug label
])
def test_head_trains_on_its_label_kind_when_trajectories_carry_the_other(
        tmp_path, capsys, task_mode, trajectories):
    assert run_cli(*synth_args(tmp_path, bug_rate=1.0, expert="bug_seeker")) == 0
    labels = ["--labels", str(tmp_path / "labels.csv")]
    assert run_cli(*ingest_args(tmp_path), *labels) == 0
    path = tmp_path / trajectories
    kinds = {json.loads(line)["task"]["kind"] for line in path.read_text().splitlines()}
    assert kinds == {"bug" if task_mode == "classify" else "class"}
    assert run_cli("train", "--corpus-dir", str(tmp_path / "corpus"), "--trajectories",
                   str(path), "--checkpoint", str(tmp_path / "c.json"), "--epochs", "1",
                   "--d-emb", "4", "--d-hidden", "4", "--d-attn", "4", "--task-mode",
                   task_mode, "--n-classes", "2", "--w-aux", "1", *labels) == 0
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(tmp_path / "c.json"), "--corpus-dir",
                   str(tmp_path / "corpus"), "--trajectories", str(path), *labels) == 0
    assert json.loads(capsys.readouterr().out)["task_accuracy"] is not None


def test_head_with_no_label_of_its_kind_is_data_error(tmp_path, capsys):
    # The corpus has no bugs, so neither the demos nor the labels file hold
    # a bug label; without an auxiliary loss the head needs none.
    assert run_cli(*synth_args(tmp_path)) == 0
    localize = ["--task-mode", "localize", "--labels", str(tmp_path / "labels.csv")]
    capsys.readouterr()
    assert run_cli(*train_args(tmp_path, *localize, "--w-aux", "1")) == 2
    assert one_error_line(capsys) == ("error: no trajectory has a bug label for the "
                                      "localize head to train on (w_aux 1.0)")
    assert run_cli(*train_args(tmp_path, *localize, "--w-aux", "0")) == 0


@pytest.mark.parametrize("command,flags,config,code,message", [
    ("train", ["--lr", "nan"], None, 1, "option 'lr' must be a number, not NaN"),
    ("train", ["--w-att", "nan"], None, 1, "option 'w_att' must be a number, not NaN"),
    ("train", [], '{"lr": NaN}', 1, "option 'lr' must be a number, not NaN"),
    ("train", ["--lr", "-0.01"], None, 1, "lr must be a finite number > 0"),
    ("train", ["--lr", "inf"], None, 1, "lr must be a finite number > 0"),
    ("train", ["--w-aux", "inf"], None, 1, "loss weights must be finite"),
    ("train", ["--grad-clip", "-1"], None, 1, "grad_clip must be >= 0 (0 for no clipping)"),
    ("train", ["--grad-clip", "0"], None, 0, None),
    ("ingest", ["--radius-px", "nan"], None, 1, "option 'radius_px' must be a number, not NaN"),
    ("ingest", ["--min-dur-ms", "nan"], None, 1,
     "option 'min_dur_ms' must be a number, not NaN"),
    ("ingest", ["--radius-px", "inf"], None, 0, None),
    ("augment", ["--sigma-tokens", "inf"], None, 1, "sigma_tokens must be finite"),
    ("augment", [], '{"sigma_tokens": NaN}', 1,
     "option 'sigma_tokens' must be a number, not NaN"),
])
def test_non_finite_numeric_option_is_usage_error(tmp_path, capsys, command, flags, config,
                                                  code, message):
    assert run_cli(*synth_args(tmp_path)) == 0
    argv = {"train": train_args(tmp_path), "ingest": ingest_args(tmp_path),
            "augment": ["augment", "--corpus-dir", str(tmp_path / "corpus"), "--trajectories",
                        str(tmp_path / "demos.jsonl"), "--out", str(tmp_path / "aug.jsonl")]}
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        flags = flags + ["--config", str(tmp_path / "run.json")]
    capsys.readouterr()
    assert run_cli(*argv[command], *flags) == code
    if message is not None:
        assert one_error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize("command", ["synth", "train", "augment", "gradcheck"])
def test_negative_seed_is_usage_error_naming_the_seed(tmp_path, capsys, command):
    assert run_cli(*synth_args(tmp_path)) == 0
    argv = {
        "synth": synth_args(tmp_path / "again"),
        "train": train_args(tmp_path),
        "augment": ["augment", "--corpus-dir", str(tmp_path / "corpus"),
                    "--trajectories", str(tmp_path / "demos.jsonl"),
                    "--out", str(tmp_path / "aug.jsonl")],
        "gradcheck": ["gradcheck"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv, "--seed", "-5") == 1
    assert one_error_line(capsys) == "error: seed must be non-negative, not -5"
