"""``setup.py`` carries the package's metadata."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_setup_names_the_package():
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    import repro

    assert out[-2:] == ["repro", repro.__version__]
