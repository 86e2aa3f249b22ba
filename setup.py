"""Legacy setup shim.

The canonical metadata lives in pyproject.toml.  This file exists so that
environments with an old setuptools and no `wheel` package (where PEP 660
editable installs cannot build) can still `pip install -e . --no-use-pep517
--no-build-isolation`.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # numpy 1.25: the indexed 1-D ufunc.at loop core/updates.py scatters through
    install_requires=["numpy>=1.25", "scipy>=1.10"],
)
