"""Every script in demos/ runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import migrent

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the child imports the same `migrent` as this process; the demos write
    # only under a tempfile directory, and the working directory is a scratch one
    package_parent = str(Path(migrent.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout.strip()
    assert list(tmp_path.iterdir()) == []
