"""Setup shim.

All project metadata lives in ``pyproject.toml``; this file exists so that
``pip install -e .`` works offline through the legacy setuptools code path
(no isolated build environment, no network access needed).
"""

from setuptools import setup

setup()
