"""The package as a library caller and a child process see it: the one a
test imports, from the source tree or from an installed copy."""

import importlib.metadata
import subprocess
import sys
from pathlib import Path

import pytest

import powerproof
from powerproof import AB, Presentation, distinct_presentation, e5_proof, engel_word
from powerproof import enumerate_lyndon, group_order, search, symmetrize, verify

from util import package_env


def test_a_child_imports_the_package_under_test(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import powerproof; print(powerproof.__file__)"],
        capture_output=True, text=True, env=package_env(), cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == powerproof.__file__ + "\n"


def test_the_top_level_names_return_checked_results():
    # search's proof verifies, and group_order reads 8192 from a table that
    # passed its check
    relators = symmetrize([c.canonical for n in range(1, 5) for c in enumerate_lyndon(AB, n)], 3)
    result = search(engel_word(2), relators)
    assert verify(result.proof, engel_word(2), relators=relators).valid
    assert group_order(Presentation(AB, tuple(distinct_presentation(e5_proof(), 4))))[0] == 8192


def test_an_installed_copy_reports_the_package_version():
    # pyproject.toml reads the version from powerproof.__version__; only an
    # installed copy has metadata, and only one listing the imported files
    # is the package under test
    try:
        dist = importlib.metadata.distribution("powerproof")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("no installed distribution: the package is imported from the source tree")
    imported = Path(powerproof.__file__).resolve()
    if not any(Path(dist.locate_file(f)).resolve() == imported for f in dist.files or ()):
        pytest.skip("the installed distribution is not the imported package")
    assert importlib.metadata.version("powerproof") == powerproof.__version__
