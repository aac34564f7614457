"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohomone

SOURCE = Path(cohomone.__file__).parent


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so no invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# -- the lazy package: exports resolve on first use ---------------------------


def test_every_export_is_its_defining_modules_object():
    assert len(set(cohomone.__all__)) == len(cohomone.__all__)
    star = {}
    exec("from cohomone import *", star)
    for name in cohomone.__all__:
        value = getattr(cohomone, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert star[name] is value, name
    assert "__all__" in dir(cohomone) and set(cohomone.__all__) <= set(dir(cohomone))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cohomone.no_such_name  # noqa: B018
    assert not hasattr(cohomone, "data")  # a directory of the package, not a module


# -- what a fresh interpreter imports ------------------------------------------


def modules_after(code: str) -> set[str]:
    """The ``cohomone`` modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport sys\nprint(*[m for m in sys.modules if m.split('.')[0] == 'cohomone'])"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_submodules_resolve_as_attributes_of_a_bare_import():
    assert modules_after("import cohomone") == {"cohomone"}
    assert "cohomone.verify" in modules_after("import cohomone\ncohomone.verify.build_report")


def test_cli_import_loads_only_the_front_end():
    assert modules_after("import cohomone.cli") == {"cohomone", "cohomone.cli", "cohomone.errors"}


def test_catalog_load_imports_no_classifier_report_or_front_end():
    loaded = modules_after("import cohomone\ncohomone.default_catalog()")
    assert "cohomone.catalog" in loaded
    assert not loaded & {"cohomone.classification", "cohomone.verify", "cohomone.cli"}


@pytest.mark.parametrize("argv", [
    ["degrees", "--group", "G2"],
    ["gh-case", "--l-minus", "3", "--l-plus", "2", "--h", "0"],
    ["mv-check", "--n", "11", "--h-spheres", "2,3,5", "--k-plus-spheres", "3,5", "--k-minus-spheres", "2,5"],
    ["brieskorn", "--m", "4", "--d", "5"],
    ["seven-family", "--realize", "2"],
])
def test_subcommands_that_read_no_catalog_never_import_it(argv):
    loaded = modules_after(f"from cohomone.cli import run\nassert run({argv!r}).exit_code == 0")
    assert "cohomone.catalog" not in loaded
    if argv[0] == "brieskorn":
        assert "cohomone.diagram" not in loaded
