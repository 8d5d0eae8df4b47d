"""The test oracles never route through the code they check.

``oracles.py`` re-implements the package's rules from scratch, so it may
use only the data types and generators of ``mmchat.blend``,
``mmchat.modseq`` and ``mmchat.template``. The objects it is handed (a
model, its config and weights) come from the modules it checks, so it
reads their dataclass fields but calls none of their methods or
properties. ``dense_reference.py`` is what the attention kernel is held
to, so it must not import ``mmchat.attn``.
"""

import ast
import importlib
from pathlib import Path

import mmchat

TESTS = Path(__file__).resolve().parent


def imported_modules(name):
    """Every module a test module imports, as dotted names; ``from a import
    b`` yields ``a.b`` when ``b`` is a module of ``a``, else ``a``."""
    tree = ast.parse((TESTS / name).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            for alias in node.names:
                is_module = node.module == "mmchat" and hasattr(
                    getattr(mmchat, alias.name, None), "__file__"
                )
                found.add(f"{node.module}.{alias.name}" if is_module else node.module)
    return found


def package_modules(modules):
    return {m for m in modules if m == "mmchat" or m.startswith("mmchat.")}


def test_oracles_import_only_data_modules():
    modules = imported_modules("oracles.py")
    allowed = {"mmchat.blend", "mmchat.modseq", "mmchat.template"}
    assert package_modules(modules) <= allowed, package_modules(modules) - allowed
    assert "dense_reference" not in modules


def class_body_functions(module_name):
    """Names of the methods and properties defined in the body of a class of
    one package module (dataclass fields are not functions)."""
    source = Path(importlib.import_module(module_name).__file__).read_text(encoding="utf-8")
    return {
        item.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_oracles_read_no_method_of_the_checked_modules():
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    checked = ("mmchat.attn", "mmchat.mask", "mmchat.toy_model")
    methods = set().union(*(class_body_functions(name) for name in checked))
    assert methods
    assert not read & methods, sorted(read & methods)


def test_dense_reference_does_not_import_the_kernel():
    modules = package_modules(imported_modules("dense_reference.py"))
    assert modules and not any(m in ("mmchat", "mmchat.attn") for m in modules), modules
