"""The core library runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies; these tests keep
that true in practice: importing the public packages must not pull in
a third-party numerics stack behind the user's back, and nothing but
explicit arguments picks an execution engine.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro.verify.oracles import ARTIFACT_DIR_ENV

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


def test_library_reads_no_mode_env_vars():
    """Engines are chosen by argument only: the sole environment
    variable the library reads is the falsifying-example directory."""
    package = Path(repro.__file__).resolve().parent
    reads = [f"{path.relative_to(package)}:{number}: {line.strip()}"
             for path in sorted(package.rglob("*.py"))
             for number, line in enumerate(
                 path.read_text().splitlines(), 1)
             if re.search(r"\b(environ|getenv)\b", line)]
    assert ARTIFACT_DIR_ENV == "VERIFY_ARTIFACT_DIR"
    assert reads and all("ARTIFACT_DIR_ENV" in read for read in reads), \
        reads
