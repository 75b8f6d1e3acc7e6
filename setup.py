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
exec((Path(__file__).parent / "src" / "repro" / "_version.py").read_text(), version)

setup(
    name="repro-delphi",
    version=version["__version__"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",  # dataclass(slots=True), int.bit_count
    # numpy is the whole runtime; scipy is imported only by the Fig. 4/5
    # distribution fits (repro.distributions.fit_distributions).
    install_requires=["numpy"],
    extras_require={"figures": ["scipy"]},
)
