"""Checks on the package source itself."""

import ast
import functools
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohomone
from cohomone.cli import MAX_DOCUMENT_BYTES
from cohomone.lie_catalog import EMBEDDING_TAGS
from cohomone.polynomial import MAX_SPHERE_DIM

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
    ("catalog", "_rebuilt", "NamedEmbedding"),  # load_catalog checked these bytes under this source stamp
    ("catalog", "_rebuilt", "GroupDiagram"),
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
    section = readme[readme.index("lists every such site:"):readme.index("Input from outside the program is checked")]
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


def test_an_embedding_rule_has_one_owner():
    # an embedding is judged once, where it is built: the Hilbert series budget is hilbert_series's own, the
    # corank-2 conditions are validate_embedding's, and every reader takes the catalog it is given.  A second copy
    # of a rule in a reader let one reader answer for data that another refused
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and path.name != "rational_homotopy.py":
                targets = map(ast.unparse, node.targets if isinstance(node, ast.Assign) else [node.target])
                found += [f"{where}: {target} =" for target in targets if target == "HILBERT_STEP_BUDGET"]
            elif isinstance(node, ast.ImportFrom) and path.name == "catalog.py":
                found += [f"{where}: import {alias.name}" for alias in node.names if alias.name == "hilbert_factors"]
            elif "_or_default" in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None)):
                found.append(f"{where}: _or_default")
        if path.name != "lie_catalog.py":
            found += [f"{path.name}:{number}: a corank-2 pair needs"
                      for number, line in enumerate(text.splitlines(), 1) if "a corank-2 pair needs" in line]
    assert found == [], "\n".join(found)


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
    # the library API is the two catalog loaders; the benchmark imports no other name from the package
    assert cohomone.__all__ == ["default_catalog", "load_catalog"]
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    imported = {alias.name for script in ("run.py", "make_golden.py")
                for node in ast.walk(ast.parse((perfbench / script).read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "cohomone" and not node.level
                for alias in node.names}
    assert imported and imported <= set(cohomone.__all__)
    star = {}
    exec("from cohomone import *", star)
    for name in cohomone.__all__:
        value = getattr(cohomone, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert star[name] is value, name
    assert "__all__" in dir(cohomone) and set(cohomone.__all__) <= set(dir(cohomone))


#: a value no caller should pass: a float, bytes, None, a negative, a huge integer and a string
BAD_VALUES = st.one_of(st.floats(), st.binary(max_size=8), st.none(), st.integers(max_value=-1),
                       st.integers(min_value=10**5, max_value=10**5000), st.text(max_size=8))
#: seconds each call of an export may take
CALL_BUDGET_S = 2.0


class _BytesPath(os.PathLike):
    def __fspath__(self) -> bytes:
        return b"."


@settings(max_examples=40, deadline=None)
@given(st.lists(BAD_VALUES, min_size=1, max_size=3))
# the arguments of calls the package once exported, which accepted a float, raised an untyped error or ran unbounded
@example([3.5, 2])  # BrieskornParams(3.5, 2)
@example([1.5, 2, 0])  # gh_classify(1.5, 2, 0)
@example([None])  # parse_group(None)
@example(["ab"])  # IntegerPolynomial("ab")
@example([[10**7]])  # odd_product_poincare([10**7])
@example([10**5])  # transitive_sphere_pairs(10**5)
@example([_BytesPath()])  # a path of bytes, which pathlib refuses with a TypeError
def test_every_export_returns_or_raises_a_typed_error(values):
    # each export is called, one after another, with the drawn values as its arguments, repeated to fill them
    for name in cohomone.__all__:
        export = getattr(cohomone, name)
        arity = len(inspect.signature(export).parameters)
        start = time.perf_counter()
        try:
            export(*(values * arity)[:arity])
        except cohomone.errors.CohomoneError:
            pass
        assert time.perf_counter() - start < CALL_BUDGET_S, (name, values)


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

#: (command line, stdin document, exit code), run on the shipped catalog: every subcommand, each family's documents,
#: the help payloads, the flags the other runs leave out, and a bad flag or document for each refusal they can reach
REACH_CORPUS = [
    *((argv, '{"catalog": "wu-s3s1"}', 0) for argv in EVERY_SUBCOMMAND),
    *((["classify", "--diagram", "-"], json.dumps(document), 0) for document in FAMILY_DOCUMENTS),
    (["--help"], "", 0),
    (["classify", "--help"], "", 0),
    (["mv-check", "--n", "5", "--p-h", "1,0,0,1", "--p-k-plus", "1,0,1", "--p-k-minus", "1,0,1"], "", 0),
    (["degrees", "--group", "B2xSU(2)"], "", 0),  # a raw classical label
    # flags: the parser's refusals, in the order it makes them
    ([], "", 2),
    (["no-such-command"], "", 2),
    (["brieskorn", "--foo"], "", 2),
    (["brieskorn", "--m", "4", "--m", "4"], "", 2),
    (["verify-tables", "--timings=1"], "", 2),  # a switch takes no value
    (["brieskorn", "--m"], "", 2),
    (["brieskorn", "--m", "x", "--d", "1"], "", 2),
    (["seven-family", "--realize", "2", "--p-minus", "1"], "", 2),
    (["seven-family", "--q-minus", "5"], "", 2),  # a flag without the flag it needs
    (["brieskorn", "--m", "4"], "", 2),
    # flags: the values each subcommand refuses
    (["brieskorn", "--m", "2", "--d", "1"], "", 2),
    (["brieskorn", "--m", "4", "--d", "0"], "", 2),
    (["brieskorn", "--m", "4", "--d", str(MAX_SPHERE_DIM + 1)], "", 2),
    (["brieskorn", "--m", "9" * 4300, "--d", "1"], "", 2),  # a top degree 2m-1 too long to print
    (["degrees", "--group", "A0"], "", 2),
    (["degrees", "--group", "SO(0)"], "", 2),
    (["degrees", "--group", "SU(0)"], "", 2),
    (["degrees", "--group", "U(0)"], "", 2),
    (["degrees", "--group", "XYZ(3)"], "", 2),
    (["degrees", "--group", "SU(1001)"], "", 2),
    (["quotient", "--embedding", "no-such-id"], "", 2),
    (["hilbert", "--embedding", "su6-sp3"], "", 2),  # not of equal rank
    (["gh-case", "--l-minus", "0", "--l-plus", "1", "--h", "0"], "", 2),
    (["gh-case", "--l-minus", "4", "--l-plus", "4", "--h", "0", "--fiber", "nope"], "", 2),
    (["gh-case", "--l-minus", "1", "--l-plus", "1", "--h", "3"], "", 2),
    (["primitivity", "--rational-sphere", "--diagram", "-"], '{"catalog": "t5-row3"}', 2),  # a declared witness
    (["mv-check", "--n", "0", "--p-h", "1", "--p-k-plus", "1", "--p-k-minus", "1"], "", 2),
    (["mv-check", "--n", "5", "--p-h", "1,-1", "--p-k-plus", "1", "--p-k-minus", "1"], "", 2),
    (["mv-check", "--n", "5", "--p-h", "1,,1", "--p-k-plus", "1", "--p-k-minus", "1"], "", 2),
    (["mv-check", "--n", "5", "--h-spheres", "0", "--p-k-plus", "1", "--p-k-minus", "1"], "", 2),
    (["seven-family", "--realize", "0"], "", 2),
    (["seven-family", "--p-minus", "3", "--p-plus", "5"], "", 2),  # a slope that is not 1 mod 4
    # documents
    (["classify", "--diagram", "no-such-document.json"], "", 2),
    (["classify", "--diagram", "-"], " " * (MAX_DOCUMENT_BYTES + 1), 2),
    (["classify", "--diagram", "-"], "{", 2),
    (["classify", "--diagram", "-"], '\ufeff{"catalog": "wu-s3s1"}', 2),
    (["classify", "--diagram", "-"], "[]", 2),
    (["classify", "--diagram", "-"], '{"catalog": "wu-s3s1", "catalog": "wu-s3s1"}', 2),
    (["classify", "--diagram", "-"], '{"catalog": "wu-s3s1", "x": 1}', 2),
    (["classify", "--diagram", "-"], '{"catalog": 5}', 2),
    (["classify", "--diagram", "-"], '{"catalog": "no-such-id"}', 2),
    (["classify", "--diagram", "-"], '{"family": "nope"}', 2),
    (["classify", "--diagram", "-"], '{"family": "brieskorn", "m": 4}', 2),
    (["classify", "--diagram", "-"], '{"family": "brieskorn", "m": 2, "d": 1}', 2),
    (["classify", "--diagram", "-"], '{"family": "brieskorn", "m": 4, "d": 3, "variant": "nope"}', 2),
    (["classify", "--diagram", "-"], '{"family": "brieskorn", "m": 8, "d": 3, "variant": "g2"}', 2),
    (["classify", "--diagram", "-"], '{"family": "tensor-su", "n": 3}', 2),
    (["classify", "--diagram", "-"], '{"family": "tensor-su", "n": 1000000}', 2),  # a manifold above the bound
    (["classify", "--diagram", "-"], json.dumps(_INVALID_DIAGRAM), 2),
]


def _append(file: str, **record):
    """A catalog edit appending ``record`` to the array of ``file``."""
    return lambda files: files[file][file.split(".")[0]].append(record)


def _set(file: str, record_id: str, **changes):
    """A catalog edit setting ``changes`` on the record ``record_id`` of ``file``."""
    return lambda files: next(r for r in files[file][file.split(".")[0]] if r["id"] == record_id).update(changes)


#: edits of the shipped data files, by name: each changes ``{file name: parsed JSON}`` in place, and a file it
#: removes is not written
CATALOGS = {
    "no-embeddings-file": lambda files: files.pop("embeddings.json"),
    "version-2": lambda files: files["diagrams.json"].update(version=2),
    "repeated-embedding-id": _append("embeddings.json", id="t2-in-su3", ambient="SU(3)", subgroup="T2"),
    "map-ranks-not-integers": _set("embeddings.json", "su6-sp3", map_ranks={"four": 1}),
    "ambient-above-the-bound": _set("embeddings.json", "su6-sp3", ambient="SU(1001)"),
    "hilbert-over-budget": _append("embeddings.json", id="su200-t199", ambient="SU(200)", subgroup="T199"),
    "unknown-tag": _set("embeddings.json", "su6-sp3", tags=["blok"]),
    "slope-not-a-pair": _set("embeddings.json", "su6-sp3", slope=[5]),
    "contains-an-unknown-id": _set("embeddings.json", "t5-l-su2su2", contains=["no-such-id"]),
    "subgroup-of-larger-dimension": _set("embeddings.json", "su6-sp3", subgroup="SU(7)"),
    "subgroup-of-larger-rank": _set("embeddings.json", "su6-sp3", subgroup="T6"),
    "negative-map-rank": _append("embeddings.json", id="neg", ambient="SU(3)", subgroup="SU(2)", map_ranks={"3": -1}),
    "map-rank-over-the-bound": _append("embeddings.json", id="over", ambient="SU(3)", subgroup="SU(2)",
                                       map_ranks={"3": 2}),
    "corank2-tag-on-no-corank2-pair": _append("embeddings.json", id="c2", ambient="SU(3)xSU(2)", subgroup="T1",
                                              tags=["corank2"]),
    # equal rank, and Sp(2)'s Weyl order 8 does not divide G2's 12
    "g2-over-sp2": _append("embeddings.json", id="weyl", ambient="G2", subgroup="Sp(2)"),
    # equal rank, and the Weyl order 8 divides 24, but (1-t^6)(1-t^8)/(1-t^4)^2 is no polynomial
    "no-polynomial": _append("embeddings.json", id="np", ambient="SU(4)", subgroup="SU(2)xSU(2)xSU(2)"),
    # equal rank, with a Hilbert series of 1 - t^2 + t^4
    "no-poincare-polynomial": _append("embeddings.json", id="neg", ambient="G2xSU(3)xT1",
                                      subgroup="SU(3)xSU(3)xSU(2)"),
    "one-diagram-twice": lambda files: files["diagrams.json"]["diagrams"].append(
        dict(files["diagrams.json"]["diagrams"][0], id="copy")),
    "stored-unmatched-outcome": _set("diagrams.json", "t5-row1", outcome={"kind": "unmatched"}),
    "outcome-and-flag": _set("diagrams.json", "t5-row2", rational_sphere=True),
    "brieskorn-m-odd-d-even": _set("diagrams.json", "t5-row1", outcome={"kind": "brieskorn", "m": 3, "d": 2}),
    "g2-quotient-of-index-2": _set("diagrams.json", "t5-row1", outcome={"kind": "g2-quotient", "index": 2}),
}

_QUOTIENT = ["quotient", "--embedding", "t2-in-su3"]  # the cheapest subcommand that loads the catalog

#: (key of CATALOGS, command line, exit code), run on that edited catalog with no stdin: each catalog refusal, which
#: the load makes for every reader
CATALOG_CORPUS = [(name, _QUOTIENT, 2) for name in CATALOGS]

#: the cache file of a data directory
CACHE_FILE = Path("__pycache__", f"catalog.{sys.implementation.cache_tag}.marshal")

#: (cache file, command line, exit code), each run on its own copy of the shipped data: with no cache file the load
#: checks the files and writes one, with the one a load of the copy wrote it rebuilds the catalog, and with a garbage
#: one it checks the files again
CACHE_CORPUS = [(cache, _QUOTIENT, 0) for cache in ("none", "warm", "garbage")]

#: the code objects of the package that no run of the corpora enters, by qualified name (a lambda of a class body
#: by the attribute it is assigned to), each with the reason it stays
UNENTERED = {
    "cohomone.__dir__": "PEP 562: what dir(cohomone) lists, which no program path asks",
    "cohomone.catalog.Catalog.__setattr__": "refuses assignment: the catalog does not change after load",
    "cohomone.catalog.load_catalog": "exported: the checked load without the cache file, whose _load a cache miss "
                                     "of default_catalog runs",
    "cohomone.lie_catalog.GroupType.__setattr__": "refuses assignment: a group type and its cached values are fixed",
    **dict.fromkeys([f"cohomone.{name}._make" for name in (
        "brieskorn.BrieskornParams", "diagram.ClassificationOutcome", "diagram.GroupDiagram",
        "diagram.SevenFamilyParams", "lie_catalog.GroupType", "lie_catalog.NamedEmbedding",
        "polynomial.IntegerPolynomial")],
        "so that _replace runs the checks of the constructor"),
    "cohomone.lie_catalog.GroupType.__add__": "with __rmul__, refuses tuple concatenation and repetition",
    "cohomone.polynomial.IntegerPolynomial.__add__": "with __rmul__, refuses tuple concatenation and repetition",
    "cohomone.lie_catalog.GroupType.__reduce__": "copies and pickles carry the two fields, not the cached invariants",
    "cohomone.cli._printable.<lambda>": "get_int_max_str_digits is absent before Python 3.10.7, which "
                                        "requires-python >=3.10 admits",
    "cohomone.verify._check_tables23.<lambda>": "the sort key of table2/no-extra-rows: only a failing report runs it",
}

#: the raise statements that no run of the corpora executes, by ``file:function``, each with the reason it stays;
#: a function with several gives one reason per raise.  Input is checked where it is read, so a refusal that only a
#: call from Python could reach is deleted; what stays are the attribute protocols, the guard of the program's own
#: tables, and the check of the one exported function that takes an argument
UNRAISED = {
    "__init__.py:__getattr__": "PEP 562: the AttributeError of an unknown name, which hasattr reads",
    "catalog.py:Catalog.__setattr__": "refuses assignment: the catalog does not change after load",
    "lie_catalog.py:GroupType.__setattr__": "refuses assignment: a group type and its cached values are fixed",
    "classification.py:_fitted": "guards the family tables: the orbit groups of each family fit at every parameter "
                                 "its factory admits",
    "catalog.py:load_catalog": "the exported loader: a directory that is no path, which no command line passes "
                               "(COHOMONE_DATA_DIR is a string); test_every_export_returns_or_raises_a_typed_error "
                               "runs it",
}

#: the raise statements that name no CohomoneError subclass, by ``file: raised callable``, each with what it raises
#: and who turns that into a typed error; no raise of the package ends a command line in a traceback
UNTYPED_RAISES = {
    "__init__.py: AttributeError": "the protocol of module __getattr__ (PEP 562)",
    "catalog.py: AttributeError": "the protocol of __setattr__ and __delattr__",
    "lie_catalog.py: AttributeError": "the protocol of __setattr__ and __delattr__",
    "catalog.py: ValueError": "_json_object: a repeated key, raised as the decoder raises a syntax error, and "
                              "parse_json: a BOM, with the text of json.loads's refusal; _read and cli._load_diagram "
                              "turn it into InvalidLabel or InvalidDiagram",
    "catalog.py: error": "read_object, _by_id and _read: the CohomoneError subclass the caller passes, InvalidLabel "
                         "for embeddings.json and InvalidDiagram otherwise",
    "catalog.py: type(exc)": "_named: the type of the CohomoneError it caught, with the record named",
    "diagram.py: _unknown_fiber_tag": "the InvalidParams that function returns",
}

#: runs the command lines of the JSON list on stdin, ``[argv, document, data directory or null]``, through
#: ``cli.main``, writing a catalog cache file to a given data directory only, under a profile and a trace set
#: before the package is imported (its directory is the first
#: argument), and prints their exit codes, the names of the code objects compiled from the package that no frame
#: entered, found by walking the constants of each module's code, which the profile saw run at import, and the
#: (file, line) of each exception event in a frame of the package: the trace follows only those frames, and
#: with no line events
_REACH_PROBE = """
import contextlib, io, json, os, sys
from pathlib import Path
package = sys.argv[1] + os.sep
corpus, entered, raised = json.load(sys.stdin), set(), set()

def exceptions(frame, event, arg):
    if event == "exception":
        raised.add((Path(frame.f_code.co_filename).name, frame.f_lineno))
    return exceptions

def calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        frame.f_trace_lines = False
        return exceptions

sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
sys.settrace(calls)
import cohomone.cli
codes = []
for argv, document, data in corpus:
    if data is None:
        os.environ.pop("COHOMONE_DATA_DIR", None)
    else:
        os.environ["COHOMONE_DATA_DIR"] = data
    sys.dont_write_bytecode = data is None  # a cache file is written to temporary copies only
    sys.stdin = io.StringIO(document)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cohomone.cli.main(argv))
sys.settrace(None)
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
print(json.dumps({"codes": codes, "modules": sorted(modules), "unentered": sorted(unentered),
                  "raised": sorted(raised)}))
"""


def shipped_copy(directory: Path, edit: str = "", cache: bytes = b"") -> Path:
    """``directory`` holding the shipped data files, with the edit ``CATALOGS[edit]`` if one is named, and the bytes
    ``cache`` as its cache file if any are given."""
    files = {file: (SOURCE / "data" / file).read_bytes() for file in ("embeddings.json", "diagrams.json")}
    if edit:
        parsed = {file: json.loads(data) for file, data in files.items()}
        CATALOGS[edit](parsed)
        files = {file: json.dumps(data).encode() for file, data in parsed.items()}
    for file, data in files.items():
        (directory / file).write_bytes(data)
    if cache:
        (directory / CACHE_FILE).parent.mkdir()
        (directory / CACHE_FILE).write_bytes(cache)
    return directory


def catalog_process(directory: Path) -> set[str]:
    """Every module a fresh interpreter holds after ``default_catalog()`` of ``directory``, with bytecode and so
    cache files written."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    code = "import cohomone, sys\ncohomone.default_catalog()\nprint(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(env, PYTHONPATH=str(SOURCE.parent), COHOMONE_DATA_DIR=str(directory)))
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """What the probe saw run for REACH_CORPUS, CATALOG_CORPUS, each edited catalog written to its directory next
    to the cache file of the shipped one, and CACHE_CORPUS."""
    warm = shipped_copy(tmp_path_factory.mktemp("warm"))
    catalog_process(warm)
    cache = (warm / CACHE_FILE).read_bytes()
    caches = {"none": b"", "warm": cache, "garbage": cache[:100]}
    corpus = [[argv, document, None] for argv, document, _ in REACH_CORPUS]
    corpus += [[argv, "", str(shipped_copy(tmp_path_factory.mktemp(name), name, cache))]
               for name, argv, _ in CATALOG_CORPUS]
    corpus += [[argv, "", str(shipped_copy(tmp_path_factory.mktemp(name), cache=caches[name]))]
               for name, argv, _ in CACHE_CORPUS]
    done = subprocess.run([sys.executable, "-c", _REACH_PROBE, str(SOURCE)], input=json.dumps(corpus),
                          env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["codes"] == [row[2] for corpus in (REACH_CORPUS, CATALOG_CORPUS, CACHE_CORPUS) for row in corpus]
    assert seen["modules"] == sorted(path.name for path in SOURCE.glob("*.py"))
    return seen


def test_every_code_object_of_the_package_is_entered(reach):
    # measured, not claimed: every function, method, lambda and comprehension of src/cohomone, dunders and _make
    # included, runs for some command line of the corpora; one that none enters is code that no program path runs
    assert {document["family"] for document in FAMILY_DOCUMENTS} == set(cohomone.classification.FAMILIES)
    unentered = {name for name, _ in reach["unentered"]}
    # (names no run entered that the list leaves out, names on the list that a run entered)
    assert (sorted(unentered - UNENTERED.keys()), sorted(UNENTERED.keys() - unentered)) == ([], [])


class _Raise(NamedTuple):
    file: str
    line: int
    function: str  # qualified by its classes and enclosing functions; "<module>" at top level
    node: ast.Raise

    def __str__(self) -> str:
        source = (SOURCE / self.file).read_text().splitlines()[self.line - 1].strip()
        return f"{self.file}:{self.line}: {source}"


def _raises() -> list[_Raise]:
    """Every raise statement of the package, in source order."""
    found = []

    def visit(node: ast.AST, scope: str, file: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found.append(_Raise(file, child.lineno, scope or "<module>", child))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope, file)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "", path.name)
    return found


def test_every_raise_is_run_by_the_corpus_or_listed(reach):
    # a refusal that no command line reaches is checked by a type or a caller first, or guards a value that only a
    # call from Python can pass: delete it, or list it in UNRAISED with the reason it stays
    run = {tuple(event) for event in reach["raised"]}
    unrun: dict[str, list[_Raise]] = {}
    for statement in _raises():
        if (statement.file, statement.line) not in run:
            unrun.setdefault(f"{statement.file}:{statement.function}", []).append(statement)
    listed = {key: (reasons,) if isinstance(reasons, str) else reasons for key, reasons in UNRAISED.items()}
    unlisted = [str(statement) for key, statements in unrun.items() if len(statements) > len(listed.get(key, ()))
                for statement in statements]
    stale = [f"{key}: {len(reasons)} listed, {len(unrun.get(key, ()))} unrun" for key, reasons in listed.items()
             if len(unrun.get(key, ())) < len(reasons)]
    assert (unlisted, stale) == ([], []), "\n".join(["unrun and unlisted:", *unlisted, "listed but run:", *stale])


def test_every_raise_names_a_cohomone_error_or_is_listed():
    # run turns a CohomoneError into exit 2; any other exception would end a command line in a traceback
    typed = {name for name, value in vars(cohomone.errors).items()
             if isinstance(value, type) and issubclass(value, cohomone.errors.CohomoneError)}
    found = set()
    for statement in _raises():
        raised = statement.node.exc
        callee = ast.unparse(raised.func if isinstance(raised, ast.Call) else raised)
        if callee not in typed:
            found.add(f"{statement.file}: {callee}")
    assert sorted(found) == sorted(UNTYPED_RAISES)


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


def test_a_process_that_rebuilds_the_catalog_imports_no_json(tmp_path):
    # the catalog rebuilt from its cache file reads no JSON: importing json cost every catalog reader about 2 ms
    directory = shipped_copy(tmp_path)
    catalog_process(directory)  # writes the cache file that the next process reads
    loaded = catalog_process(directory)
    assert "cohomone.catalog" in loaded
    assert not loaded & {"json", "json.decoder", "json.scanner", "json.encoder"}
