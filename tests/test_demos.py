"""Smoke test: every Python demo runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


def demo_env(**extra):
    return dict(os.environ, CGL_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                         os.environ.get("PYTHONPATH")])),
                **extra)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=demo_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]


def test_cli_walkthrough_runs(tmp_path):
    """The shell walkthrough, with ``cgl`` on PATH running this checkout's CLI."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "cgl"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m cgl.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = demo_env(PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    result = subprocess.run(["sh", str(ROOT / "demos" / "05_cli_walkthrough.sh")],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.rstrip().endswith("done.")
    assert "code,level1,level2,level3,e0" in result.stdout
