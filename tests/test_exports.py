"""The package's export list matches what ``tracemap/__init__.py`` imports, so a
deleted or renamed name fails here rather than at a user's import."""

import ast
from pathlib import Path

import tracemap


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from tracemap import *", namespace)
    assert [name for name in tracemap.__all__ if name not in namespace] == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(tracemap.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if node.module != "__future__"]
    assert len(tracemap.__all__) == len(set(tracemap.__all__))
    assert sorted(imported) == sorted(tracemap.__all__)
