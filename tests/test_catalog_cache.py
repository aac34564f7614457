"""The catalog cache file: a rebuilt catalog equals a fresh load, and every fault falls through to the checked load.

Each test runs in this process, on copies of the data directory under a temporary directory.
"""

import hashlib
import json
import marshal
import os
import shutil
import sys
from pathlib import Path

import pytest

from cohomone import catalog
from cohomone.catalog import load_catalog
from cohomone.cli import render, run
from cohomone.verify import build_report
from test_source import _QUOTIENT, CACHE_FILE, CATALOGS, shipped_copy

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
cached = catalog._cached_catalog.__wrapped__  # reads or writes the cache file on every call


@pytest.fixture
def writes(monkeypatch):
    """Cache files are written, whatever ``PYTHONDONTWRITEBYTECODE`` says."""
    monkeypatch.setattr(sys, "dont_write_bytecode", False)


@pytest.fixture
def loads(monkeypatch):
    """The directories whose files ``catalog._load`` read and checked, in call order."""
    seen, load = [], catalog._load
    monkeypatch.setattr(catalog, "_load", lambda base, raw: seen.append(base) or load(base, raw))
    return seen


@pytest.fixture(scope="module")
def shipped_cache(tmp_path_factory):
    """The cache file that a load of a copy of the shipped data writes."""
    directory = shipped_copy(tmp_path_factory.mktemp("shipped"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", False)
        cached(str(directory))
    return (directory / CACHE_FILE).read_bytes()


def typed(value):
    """``value`` with the type of each of its parts, so that equal values of other types compare unequal."""
    if type(value) is frozenset:
        return frozenset, frozenset(map(typed, value))
    if isinstance(value, tuple):
        return type(value), tuple(map(typed, value))
    return type(value), value


def test_a_rebuilt_catalog_equals_a_fresh_load(tmp_path, writes, loads):
    directory = shipped_copy(tmp_path)
    cached(str(directory))
    assert (directory / CACHE_FILE).exists()
    warm = cached(str(directory))
    assert loads == [directory]  # the second call rebuilt the catalog from the file
    fresh = load_catalog(directory)
    assert warm.version == fresh.version
    assert typed(tuple(warm.embeddings())) == typed(tuple(fresh.embeddings()))
    assert typed(tuple(warm.diagram_records())) == typed(tuple(fresh.diagram_records()))
    for group in {e.ambient for e in fresh.embeddings()}:
        assert warm.lattice_for(group) == fresh.lattice_for(group), group
    for record in fresh.diagram_records():
        for diagram in (record.diagram, record.diagram.swap()):
            assert warm.matching_record(diagram) == fresh.matching_record(diagram) == record, record.id
    digest = hashlib.sha256(render(build_report(warm)).encode()).hexdigest()
    assert digest == GOLDEN["verify_tables_sha256"]


@pytest.mark.parametrize("name", CATALOGS)
def test_an_edited_catalog_is_refused_alike_next_to_the_cache_of_the_shipped_one(tmp_path, monkeypatch, writes,
                                                                                shipped_cache, name):
    # the key holds the bytes of both files: a cache of other bytes, or of a file now missing, is not read
    directory = shipped_copy(tmp_path, name)
    monkeypatch.setenv("COHOMONE_DATA_DIR", str(directory))
    cold = run(_QUOTIENT)
    assert not (directory / "__pycache__").exists()  # a failed load writes nothing
    (directory / CACHE_FILE).parent.mkdir()
    (directory / CACHE_FILE).write_bytes(shipped_cache)
    warm = run(_QUOTIENT)
    assert cold.exit_code == 2 and (warm.exit_code, warm.payload) == (cold.exit_code, cold.payload)
    assert (directory / CACHE_FILE).read_bytes() == shipped_cache


@pytest.mark.parametrize("damage", [
    pytest.param(lambda cache: cache[:len(cache) // 2], id="truncated"),
    pytest.param(lambda cache: b"", id="empty"),
    pytest.param(lambda cache: bytes(range(256)), id="garbage"),
    pytest.param(lambda cache: marshal.dumps(("key", "catalog", "extra")), id="three-values"),
    pytest.param(lambda cache: marshal.dumps(None), id="no-pair"),
    pytest.param(lambda cache: marshal.dumps((("key",), "catalog")), id="other-key"),
])
def test_a_damaged_cache_file_gives_a_fresh_load_and_is_written_again(tmp_path, writes, loads, shipped_cache, damage):
    directory = shipped_copy(tmp_path, cache=damage(shipped_cache))
    assert cached(str(directory)).diagram_records() == load_catalog(directory).diagram_records()
    assert loads == [directory, directory]
    cached(str(directory))
    assert loads == [directory, directory]  # the file written again is read


def test_a_changed_module_stamp_misses(tmp_path, monkeypatch, writes, loads):
    # the key holds (name, mtime, size) of each module: a code change that alters a rule invalidates the file
    package = tmp_path / "package"
    shutil.copytree(Path(catalog.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__", "data"))
    monkeypatch.setattr(catalog, "__file__", str(package / "catalog.py"))
    directory = shipped_copy(tmp_path)
    cached(str(directory))
    cached(str(directory))
    assert loads == [directory]
    stat = (package / "diagram.py").stat()
    os.utime(package / "diagram.py", ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    cached(str(directory))
    assert loads == [directory, directory]


def test_no_cache_file_is_written_when_bytecode_is_not(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    directory = shipped_copy(tmp_path)
    assert cached(str(directory)).embeddings() == load_catalog(directory).embeddings()
    assert sorted(path.name for path in directory.iterdir()) == ["diagrams.json", "embeddings.json"]


@pytest.mark.parametrize("obstacle", ["pycache-is-a-file", "cache-file-is-a-directory", "no-package-directory"])
def test_a_cache_file_that_cannot_be_written_is_left_out(tmp_path, monkeypatch, writes, obstacle):
    # as for a read-only install: the catalog is the same, no error is raised and no temporary file is left
    directory = shipped_copy(tmp_path)
    if obstacle == "pycache-is-a-file":
        (directory / "__pycache__").write_text("")
    elif obstacle == "cache-file-is-a-directory":
        (directory / CACHE_FILE).mkdir(parents=True)
    else:  # the source stamp cannot be read
        monkeypatch.setattr(catalog, "__file__", str(tmp_path / "no-such-package" / "catalog.py"))
    before = sorted(directory.rglob("*"))
    assert cached(str(directory)).diagram_records() == load_catalog(directory).diagram_records()
    assert sorted(directory.rglob("*")) == before
