"""Checks on the package source itself."""

import ast
import functools
import importlib
import io
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cohomone
from cohomone.lie_catalog import EMBEDDING_TAGS

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


def test_every_label_of_the_tag_vocabulary_has_a_reader():
    # EMBEDDING_TAGS holds no unread label: each occurs as a string constant of the package outside its definition
    found = set()
    for path in SOURCE.glob("*.py"):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if not (isinstance(top, ast.Assign) and [ast.unparse(t) for t in top.targets] == ["EMBEDDING_TAGS"]):
                found |= {node.value for node in ast.walk(top) if isinstance(node, ast.Constant)}
    assert EMBEDDING_TAGS <= found, sorted(EMBEDDING_TAGS - found)


def test_report_path_formats_no_fiber_text_and_restates_no_homology():
    # gh_classify runs 7,500 times a report, and only the gh-case payload reads the fiber text; the
    # Brieskorn grid derives its expected homology from Delta(1) instead of restating homology()'s cases
    def parse(name: str) -> ast.Module:
        return ast.parse((SOURCE / name).read_text())

    gh = next(node for node in ast.walk(parse("diagram.py"))
              if isinstance(node, ast.FunctionDef) and node.name == "gh_classify")
    assert not [node for node in ast.walk(gh) if isinstance(node, ast.JoinedStr)
                or isinstance(node, ast.Attribute) and node.attr == "format"]
    assert "_expected_homology" not in {node.name for node in ast.walk(parse("verify.py"))
                                        if isinstance(node, ast.FunctionDef)}


#: every (module, top-level function, type) that builds the type with ``tuple.__new__``, past its constructor's
#: checks, from parts it has proved; the docstring of each function names what it proves
UNCHECKED_BUILDS = {
    ("classification", "_family_diagram", "NamedEmbedding"),  # orbit groups checked once per parameter
    ("classification", "realize_torsion", "SevenFamilyParams"),
    ("brieskorn", "homology", "HomologyEntry"),
    ("brieskorn", "homology", "GradedAbelianGroup"),
    ("brieskorn", "delta_poly", "IntegerPolynomial"),
    ("diagram", "gh_classify", "GHCaseResult"),
}


def _unchecked_builds(path: Path) -> set:
    """(module, function, type) of each ``tuple.__new__(Type, ...)`` outside the ``__new__`` of ``Type`` itself."""
    scopes = []  # (name, node, class name)
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{node.name}" if isinstance(node, ast.FunctionDef) else top.name, node, top.name)
                       for node in top.body]
        else:
            scopes.append((top.name if isinstance(top, ast.FunctionDef) else "<module>", top, None))
    found = set()
    for name, scope, cls in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "tuple.__new__":
                built = ast.unparse(node.args[0])
                if not (name == f"{cls}.__new__" and built in ("cls", cls)):
                    found.add((path.stem, name, built))
    return found


def test_every_unchecked_build_is_on_the_allow_list():
    # a value built with tuple.__new__ skips its type's checks, so each such site is named in UNCHECKED_BUILDS;
    # every other value runs the checks of its constructor, and _replace checks too
    found = set().union(*map(_unchecked_builds, SOURCE.glob("*.py")))
    assert found == UNCHECKED_BUILDS


def test_the_front_end_names_no_diagram_family_or_family_key():
    # the families and their document keys are written once, in classification.FAMILIES, which the front end
    # reads; "brieskorn" is left out because it also names a subcommand
    family_words = {"tensor-su", "tensor-sp", "seven", "variant", "p_minus", "q_minus", "p_plus", "q_plus"}
    found = [f"cli.py:{node.lineno}: {node.value!r}" for node in ast.walk(ast.parse((SOURCE / "cli.py").read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in family_words]
    assert found == []


def test_one_json_decoder_reads_every_document():
    # catalog.parse_json's decoder refuses a repeated key; json.load, json.loads or a second decoder would keep
    # the last of two equal keys
    readers, decoders = [], []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "json" \
                    and node.attr in ("load", "loads"):
                readers.append(f"{path.name}:{node.lineno}: json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                readers += [f"{path.name}:{node.lineno}: from json import {alias.name}" for alias in node.names]
            elif isinstance(node, ast.Call) and "JSONDecoder" in ast.unparse(node.func):
                decoders.append(path.name)
    assert readers == []
    assert decoders == ["catalog.py"]


def test_every_cache_is_bounded_and_typed():
    # an unbounded cache grows with its inputs, and an untyped one lets ("so", 3.0) answer for ("so", 3)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        module = cohomone if path.stem == "__init__" else importlib.import_module(f"cohomone.{path.stem}")
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            from_functools = isinstance(node, ast.ImportFrom) and node.module == "functools"
            imported = {alias.name for alias in node.names} if from_functools else set()
            of_functools = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools"
            attr = node.attr if of_functools else None
            if "cache" in imported or attr == "cache":
                found.append(f"{path.name}:{node.lineno}: functools.cache")
            elif attr == "lru_cache" or isinstance(node, ast.Name) and node.id == "lru_cache":
                keywords = {k.arg: k.value for k in calls[id(node)].keywords} if id(node) in calls else {}
                size = keywords.get("maxsize")
                size = getattr(module, size.id, None) if isinstance(size, ast.Name) else getattr(size, "value", None)
                if type(size) is not int or size < 1 or getattr(keywords.get("typed"), "value", None) is not True:
                    found.append(f"{path.name}:{node.lineno}: lru_cache without a constant maxsize and typed=True")
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


@functools.lru_cache(maxsize=None)  # several tests probe the same processes
def loaded_after(code: str) -> frozenset[str]:
    """Every module a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport sys\nprint(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return frozenset(done.stdout.split())


def modules_after(code: str) -> set[str]:
    """The ``cohomone`` modules a fresh interpreter holds after running ``code``."""
    return {m for m in loaded_after(code) if m.split(".")[0] == "cohomone"}


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


#: every subcommand, run on the diagram document ``{"catalog": "wu-s3s1"}`` where it reads one (from stdin)
EVERY_SUBCOMMAND = [
    ["brieskorn", "--m", "4", "--d", "5"],
    ["degrees", "--group", "G2"],
    ["quotient", "--embedding", "su6-sp3"],
    ["hilbert", "--embedding", "t2-in-su3"],
    ["gh-case", "--l-minus", "3", "--l-plus", "2", "--h", "0"],
    ["classify", "--diagram", "-"],
    ["primitivity", "--diagram", "-"],
    ["mv-check", "--n", "11", "--h-spheres", "2,3,5", "--k-plus-spheres", "3,5", "--k-minus-spheres", "2,5"],
    ["seven-family", "--realize", "2"],
    ["verify-tables"],
]


def test_every_export_is_run_by_a_subcommand(monkeypatch):
    # measured, not claimed: a profile of one in-process run of each subcommand, with the catalog loaded
    # afresh, enters every exported function and every public method, property and cached_property of an
    # exported class; one it does not enter is code that no subcommand, report or library path runs
    from cohomone import catalog, cli

    fresh = functools.lru_cache(maxsize=1, typed=True)(catalog._cached_catalog.__wrapped__)
    monkeypatch.setattr(catalog, "_cached_catalog", fresh)
    entered, previous = set(), sys.getprofile()
    for argv in EVERY_SUBCOMMAND:
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"catalog": "wu-s3s1"}'))
        sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
        try:
            result = cli.run(argv)
        finally:
            sys.setprofile(previous)
        assert result.exit_code == 0, (argv, result.payload)

    def public_code(name: str):
        """(name, code) of an exported function, or of each public method and property of an exported class."""
        value = getattr(cohomone, name)
        members = [(f"{name}.{attr}", member) for attr, member in vars(value).items() if not attr.startswith("_")] \
            if isinstance(value, type) else [(name, value)]
        for qualified, member in members:
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, functools.cached_property):
                member = member.func
            if isinstance(member, types.FunctionType):
                yield qualified, member.__code__

    unreached = [qualified for name in cohomone.__all__ for qualified, code in public_code(name) if code not in entered]
    assert unreached == []


#: the code of every kind of process: a bare front-end import, a catalog load and each subcommand
EVERY_PROCESS = [
    pytest.param("import cohomone.cli", id="import-cli"),
    pytest.param("import cohomone\ncohomone.default_catalog()", id="default-catalog"),
    *(pytest.param(f"import io, sys\nsys.stdin = io.StringIO('{{\"catalog\": \"wu-s3s1\"}}')\n"
                   f"from cohomone.cli import run\nassert run({argv!r}).exit_code == 0", id=argv[0])
      for argv in EVERY_SUBCOMMAND),
]


@pytest.mark.parametrize("code", EVERY_PROCESS)
def test_no_process_imports_dataclasses_or_inspect(code):
    # value types are named tuples: importing dataclasses (and with it inspect) cost every process about 10 ms
    assert not loaded_after(code) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("code", EVERY_PROCESS)
def test_no_process_imports_argparse(code):
    # the front end parses flags from its own command table: argparse, with the gettext and locale it
    # imports, cost every process 2-4 ms to import
    assert not loaded_after(code) & {"argparse", "gettext", "locale"}
