"""The core library runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies; these tests keep
that true in practice: importing the public packages must not pull in
a third-party numerics stack behind the user's back.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_numpy_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    probe = ("import sys, repro, repro.system, repro.verify, repro.cli; "
             "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
