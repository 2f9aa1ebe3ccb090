"""Repository checks: the oracles stay independent of the package, and the
scripts run end to end."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_oracles_import_no_factorbench_module():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not {m for m in modules if m.split(".")[0] == "factorbench"}


@pytest.mark.parametrize(
    "script, args",
    [("run_corpus.py", ["--max-order", "2"]), ("kappa_survey.py", ["--max-cyclic", "4"])],
)
def test_script_exits_zero(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
