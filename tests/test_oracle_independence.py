"""The test oracles never route through the code they check.

``oracles.py`` re-implements the package's rules from scratch, so it may
use only the data types and generators of ``mmchat.blend``,
``mmchat.modseq`` and ``mmchat.template``. ``dense_reference.py`` is what
the attention kernel is held to, so it must not import ``mmchat.attn``.
"""

import ast
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


def test_dense_reference_does_not_import_the_kernel():
    modules = package_modules(imported_modules("dense_reference.py"))
    assert modules and not any(m in ("mmchat", "mmchat.attn") for m in modules), modules
