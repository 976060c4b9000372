import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [("splitter_optima.py", ["--kappa", "0.2"]), ("loss_surface.py", ["--output", "{tmp}/surface.csv"])],
)
def test_script_runs(tmp_path, script, args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
