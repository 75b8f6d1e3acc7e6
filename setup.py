"""Setuptools build script — the only build configuration in the repository.

There is no ``pyproject.toml``; ``pip install -e . --no-build-isolation``
installs the ``repro`` package from ``src/`` through this file, which also
works on offline machines that lack the ``wheel`` package.  The version is
read from ``src/repro/_version.py`` without importing the package (its
dependencies may not be installed yet).
"""

from pathlib import Path

from setuptools import find_packages, setup

version = {}
exec(Path(__file__).with_name("src").joinpath("repro", "_version.py").read_text(), version)

setup(
    name="repro-delphi",
    version=version["__version__"],
    description=(
        "Reproduction of Delphi: efficient asynchronous approximate "
        "agreement for distributed oracles"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
)
