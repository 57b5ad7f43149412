"""Setuptools metadata for the ``repro`` package.

This environment is offline with a pre-PEP-660 setuptools (no ``wheel``
package), so ``pip install -e .`` needs the legacy ``setup.py develop``
path, and the metadata lives here.  ``package_data`` ships the exact
core's C source (``repro/sim/exactcore.c``), which an installed copy
compiles on first use.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Improved parity-declustered layouts for disk arrays",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.sim": ["exactcore.c"]},
    install_requires=["numpy"],
    python_requires=">=3.10",
)
