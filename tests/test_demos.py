"""Every demo script, and the README's Python quick start, runs to completion
against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    run_script(demo, tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"## Quick start \(library\)\n\n```python\n(.*?)```", readme, re.S)
    script = tmp_path / "quick_start.py"
    script.write_text(code)
    assert "overall_accuracy" in run_script(script, tmp_path)
