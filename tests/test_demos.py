"""Each demo script runs to completion against the package in ``src/``, and
every name the package exports resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import warmstart

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    namespace = {}
    exec("from warmstart import *", namespace)  # AttributeError on a stale name
    assert set(warmstart.__all__) <= set(namespace)
