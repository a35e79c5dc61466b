"""Thin setup.py kept for offline environments without the `wheel`
package, where PEP 517 editable installs fail; `pip install -e .
--no-use-pep517 --no-build-isolation` uses this legacy path."""

import re

from setuptools import find_packages, setup

with open("src/repro/__init__.py") as fh:
    version = re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M).group(1)

setup(
    name="repro",
    version=version,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
