"""Setuptools entry point (no pyproject.toml; environments here predate
PEP 660 editable wheels, so ``python setup.py develop`` must keep working).

Runtime dependencies are declared here.  numpy backs every cost kernel
(distance-matrix gathers, batch swap scoring — see PERFORMANCE.md); the
floor is the oldest line whose fancy-indexing and ``bincount`` semantics the
kernels were validated against.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

# One version: the package's own, read as text (src/ is not importable here).
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-nmap",
    version=VERSION,
    description="Reproduction of NMAP bandwidth-constrained NoC mapping (DATE'04)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
        "networkx>=2.6",
        # The LP/MILP back end (repro.lp.solve) drives scipy's bundled HiGHS
        # core, scipy.optimize._highspy._core, which first shipped in 1.15
        # (CI's check-scipy-floor job installs exactly this floor).
        "scipy>=1.15",
    ],
    extras_require={
        # The vector engine's compiled kernel tier (repro.simnoc.engines.jit).
        # Optional: without it the engine steps down to the C tier (system
        # cc) or the interpreted numpy loops, bit-identically.  0.57 is the
        # first numba with py3.11 support and the cache=True behavior the
        # warm-up hygiene contract relies on.
        "jit": ["numba>=0.57"],
    },
    entry_points={
        "console_scripts": [
            "nmap-noc=repro.cli:main",
        ],
    },
)
