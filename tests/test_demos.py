import os
import subprocess
import sys
from pathlib import Path

import pytest

import codegaze

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_tokenize_and_featurize.py", "02_gaze_to_trajectory.py",
                                  "03_train_and_rollout.py"])
def test_demo_runs(name, tmp_path):
    # the package's directory, for a checkout that is not installed
    env = dict(os.environ, PYTHONPATH=str(Path(codegaze.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
