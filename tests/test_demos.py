import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    """Each demo exits 0 under the interpreter's development mode with no
    unclosed-file warning and removes the scratch directories it made."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                         os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "dev", os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr
    assert os.listdir(tmp) == []
    if demo == "demo_policy_shapes.py":
        assert "byte-identical across policies: True" in proc.stdout
    if demo == "demo_media_failure_restore.py":
        assert "restored device equals brute-force recovery: True" in proc.stdout
