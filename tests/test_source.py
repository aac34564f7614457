"""Checks on the package source itself."""

import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
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
    ("classification", "_family_diagram", "GroupDiagram"),  # block witnesses, proper H, counts that meet the rule
    ("diagram", "GroupDiagram.swap", "GroupDiagram"),  # every rule of validate is symmetric in K- and K+
    ("classification", "realize_torsion", "SevenFamilyParams"),
    ("brieskorn", "delta_poly", "IntegerPolynomial"),
    ("diagram", "gh_classify", "GHCaseResult"),
}


def _scopes(path: Path) -> list:
    """(name, node, class name) of each top-level statement of a module, and of each statement of a class body."""
    scopes = []
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{node.name}" if isinstance(node, ast.FunctionDef) else top.name, node, top.name)
                       for node in top.body]
        else:
            scopes.append((top.name if isinstance(top, ast.FunctionDef) else "<module>", top, None))
    return scopes


def _unchecked_builds(path: Path) -> set:
    """(module, function, type) of each ``tuple.__new__(Type, ...)`` outside the ``__new__`` of ``Type`` itself."""
    found = set()
    for name, scope, cls in _scopes(path):
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


def test_validate_runs_only_where_a_diagram_is_built():
    # a GroupDiagram is validated once, by its constructor; a read of diagram.validate anywhere else, a call or a
    # reference, re-checks what the type guarantees (classify_diagram did so on every document)
    found = [f"{path.stem}.{name}" for path in sorted(SOURCE.glob("*.py")) for name, scope, _ in _scopes(path)
             for node in ast.walk(scope) if isinstance(node, ast.Name) and node.id == "validate"
             or isinstance(node, ast.Attribute) and node.attr == "validate"]
    assert found == ["diagram.GroupDiagram.__new__"]


def test_the_readme_lists_every_unchecked_build():
    # the README's bullet list of trusted producers, `module.function` (`Type`, ...), is UNCHECKED_BUILDS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("lists every such site:"):readme.index("Public constructors and `_replace`")]
    listed = {(module, function, built) for module, function, types in re.findall(r"^\* `(\w+)\.([\w.]+)` \(([^)]*)\)",
                                                                                 section, re.M)
              for built in re.findall(r"`(\w+)`", types)}
    assert listed == UNCHECKED_BUILDS


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


def test_degree_multiplicities_have_one_reader():
    # every multiplicity of a degree is read from GroupType.degree_counts; a tuple.count per distinct degree costs
    # (distinct degrees) x rank, 10 s to load one catalog group of dimension 10^6, and a rank map built apart from
    # the table is a second source of the same numbers.  The ban covers every `.count(` call, whatever its receiver,
    # on purpose: the AST does not show a receiver's type, and no code of the package counts anything else
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "count":
                found.append(f"{path.name}:{node.lineno}: .count(")
            elif isinstance(node, ast.FunctionDef) and node.name == "injective_rank_map":
                found.append(f"{path.name}:{node.lineno}: def injective_rank_map")
    assert found == []


def test_weyl_order_has_one_source():
    # GroupType.weyl_order reads the Weyl order off degree_counts; a closed form per family is a second source of
    # the same numbers, a function that returns an attribute is a wrapper, and sum(..., ()) concatenates tuples in
    # quadratic time (17.5 s to parse 120,000 terms)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            call = ast.unparse(node.func) if isinstance(node, ast.Call) else None
            starts = [*node.args[1:], *(k.value for k in node.keywords)] if call == "sum" else []
            if call in ("math.factorial", "factorial"):
                found.append(f"{path.name}:{node.lineno}: factorial(")
            elif any(isinstance(start, ast.Tuple) for start in starts):
                found.append(f"{path.name}:{node.lineno}: sum(..., ())")
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name in ("degrees", "weyl_order"):
                found.append(f"{path.name}:{top.lineno}: def {top.name}")
            elif isinstance(top, ast.ClassDef) and top.name == "SimpleGroupLabel":
                found += [f"{path.name}:{node.lineno}: SimpleGroupLabel.weyl_order" for node in top.body
                          if isinstance(node, ast.FunctionDef) and node.name == "weyl_order"]
    assert found == []


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


#: a document of each diagram family, the fixed Brieskorn variants among them
FAMILY_DOCUMENTS = [
    {"family": "brieskorn", "m": 4, "d": 5},
    {"family": "brieskorn", "m": 8, "d": 3, "variant": "spin7"},
    {"family": "brieskorn", "m": 7, "d": 3, "variant": "g2"},
    {"family": "tensor-su", "n": 4},
    {"family": "tensor-sp", "n": 2},
    {"family": "seven", "p_minus": 1, "q_minus": 1, "p_plus": 5, "q_plus": 1},
]

#: a diagram that fails validation: H is disconnected while both fibers have dimension >= 2
_INVALID_DIAGRAM = {"g": "SU(3)", "h": "t2-in-su3", "k_minus": "su3-kminus-u2", "k_plus": "su3-kplus-u2",
                    "h_in_k_minus": "t2-in-u2", "h_in_k_plus": "t2-in-u2", "component_counts": {"h": 2}}

#: (command line, stdin document, exit code): every subcommand, each family's documents, the help payloads, the
#: flags the other runs leave out, and the fewest bad inputs that enter each function formatting an error
REACH_CORPUS = [
    *((argv, '{"catalog": "wu-s3s1"}', 0) for argv in EVERY_SUBCOMMAND),
    *((["classify", "--diagram", "-"], json.dumps(document), 0) for document in FAMILY_DOCUMENTS),
    (["--help"], "", 0),
    (["classify", "--help"], "", 0),
    (["mv-check", "--n", "5", "--p-h", "1,0,0,1", "--p-k-plus", "1,0,1", "--p-k-minus", "1,0,1"], "", 0),
    (["degrees", "--group", "B2xSU(2)"], "", 0),  # a raw classical label
    (["gh-case", "--l-minus", "4", "--l-plus", "4", "--h", "0", "--fiber", "nope"], "", 2),
    (["classify", "--diagram", "-"], '{"catalog": "wu-s3s1", "x": 1}', 2),
    (["classify", "--diagram", "-"], '{"catalog": "wu-s3s1", "catalog": "wu-s3s1"}', 2),
    (["classify", "--diagram", "-"], json.dumps(_INVALID_DIAGRAM), 2),
    (["seven-family", "--p-minus", "3", "--p-plus", "5"], "", 2),  # a slope that is not 1 mod 4
    (["brieskorn", "--m", "4"], "", 2),
]

#: the code objects of the package that no run of REACH_CORPUS enters, by qualified name (a lambda of a class body
#: by the attribute it is assigned to), each with the reason it stays
UNENTERED = {
    "cohomone.__dir__": "PEP 562: what dir(cohomone) lists, which no program path asks",
    "cohomone.catalog.Catalog.__setattr__": "refuses assignment: the catalog does not change after load",
    "cohomone.lie_catalog.GroupType.__setattr__": "refuses assignment: a group type and its cached values are fixed",
    **dict.fromkeys([f"cohomone.{name}._make" for name in (
        "brieskorn.BrieskornParams", "classification.CorankTwoRow", "diagram.ClassificationOutcome",
        "diagram.GroupDiagram", "diagram.SevenFamilyParams", "lie_catalog.GroupType", "lie_catalog.NamedEmbedding",
        "lie_catalog.SimpleGroupLabel", "polynomial.IntegerPolynomial")],
        "so that _replace runs the checks of the constructor"),
    "cohomone.lie_catalog.GroupType.__add__": "with __rmul__, refuses tuple concatenation and repetition",
    "cohomone.polynomial.IntegerPolynomial.__add__": "with __rmul__, refuses tuple concatenation and repetition",
    "cohomone.lie_catalog.GroupType.__reduce__": "copies and pickles carry the two fields, not the cached invariants",
    "cohomone.cli._printable.<lambda>": "get_int_max_str_digits is absent before Python 3.10.7, which "
                                        "requires-python >=3.10 admits",
    "cohomone.verify._check_tables23.<lambda>": "the sort key of table2/no-extra-rows: only a failing report runs it",
}

#: runs the command lines of the JSON list on stdin through ``cli.main`` under a profile set before the package is
#: imported, and prints their exit codes and the names of the code objects compiled from the package that no
#: frame entered, found by walking the constants of each module's code, which the profile saw run at import
_REACH_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
corpus, entered = json.load(sys.stdin), set()
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
import cohomone.cli
codes = []
for argv, document in corpus:
    sys.stdin = io.StringIO(document)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cohomone.cli.main(argv))
sys.setprofile(None)
source = Path(cohomone.__file__).parent
attribute = {}  # a lambda of a class body -> the first attribute it is assigned to
for module_name, module in list(sys.modules.items()):
    if module_name.split(".")[0] != "cohomone":
        continue
    for cls in vars(module).values():
        if isinstance(cls, type) and cls.__module__ == module_name:
            for name, value in vars(cls).items():
                code = getattr(getattr(value, "__func__", value), "__code__", None)  # a classmethod's function
                if code is not None and code.co_name == "<lambda>":
                    attribute.setdefault(code, f"{module_name}.{cls.__qualname__}.{name}")
modules, unentered = {}, []
def walk(code, qualified):
    for const in code.co_consts:
        if isinstance(const, type(code)):
            name = attribute.get(const, f"{qualified}.{const.co_name}")
            if const not in entered:
                unentered.append([name, f"{Path(const.co_filename).name}:{const.co_firstlineno}"])
            walk(const, name)
for code in entered:
    path = Path(code.co_filename)
    if code.co_name == "<module>" and path.parent == source:
        modules[path.name] = code
        walk(code, "cohomone" if path.stem == "__init__" else f"cohomone.{path.stem}")
print(json.dumps({"codes": codes, "modules": sorted(modules), "unentered": sorted(unentered)}))
"""


def test_every_code_object_of_the_package_is_entered():
    # measured, not claimed: every function, method, lambda and comprehension of src/cohomone, dunders and _make
    # included, runs for some command line of the corpus; one that none enters is code that no program path runs
    assert {document["family"] for document in FAMILY_DOCUMENTS} == set(cohomone.classification.FAMILIES)
    done = subprocess.run([sys.executable, "-c", _REACH_PROBE], input=json.dumps([c[:2] for c in REACH_CORPUS]),
                          env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    reach = json.loads(done.stdout)
    assert reach["codes"] == [code for _, _, code in REACH_CORPUS]
    assert reach["modules"] == sorted(path.name for path in SOURCE.glob("*.py"))
    unentered = {name for name, _ in reach["unentered"]}
    # (names no run entered that the list leaves out, names on the list that a run entered)
    assert (sorted(unentered - UNENTERED.keys()), sorted(UNENTERED.keys() - unentered)) == ([], [])


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
