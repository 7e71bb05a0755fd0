"""Setuptools entry point.

This stub keeps the legacy editable install path (`pip install -e .`
without PEP 517 build isolation, or `python setup.py develop`) working
in offline environments that lack the `wheel` package.

The library is dependency-free pure python.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
