"""The package's export list is exactly what its ``__init__`` binds, so a
removed public name cannot leave a dangling export and a new one cannot
go unlisted."""

import ast
import types
from pathlib import Path

import mmchat


def bound_public_names() -> set[str]:
    """Names ``mmchat/__init__.py`` binds at its top level, by import or
    assignment, that do not start with an underscore."""
    names = set()
    for node in ast.parse(Path(mmchat.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_lists_exactly_the_public_names_init_binds():
    public = {name for name in bound_public_names()
              if not isinstance(getattr(mmchat, name), types.ModuleType)}
    assert len(mmchat.__all__) == len(set(mmchat.__all__))  # no name listed twice
    assert set(mmchat.__all__) == public


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from mmchat import *", namespace)  # a dangling export raises here
    del namespace["__builtins__"]
    assert namespace.keys() == set(mmchat.__all__)
    assert all(namespace[name] is getattr(mmchat, name) for name in namespace)
