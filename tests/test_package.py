import ast
import importlib
import pathlib
import pkgutil

import airsense

# public names that only the tests call, each with the reason it stays
UNCALLED_ON_PURPOSE = {
    "focal_cls_term": "acceptance criterion 12 checks it; the training loss will call it",
    "moller_trumbore": "the per-triangle entry point the traversal's bit-identity tests use",
    "gather_conv": "the float64 reference every convolution engine is checked against",
}


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(airsense.__path__):
        module = importlib.import_module(f"airsense.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"airsense.{info.name}.__all__ lists undefined {missing}"


def test_no_module_imports_another_modules_private_names():
    for info in pkgutil.iter_modules(airsense.__path__):
        module = importlib.import_module(f"airsense.{info.name}")
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith("airsense"))
                   for alias in node.names if alias.name.startswith("_")]
        assert not private, f"airsense.{info.name} imports private names {private}"


def _names_used_by_the_program() -> set[str]:
    """Names loaded, attributes read and names imported anywhere under src/,
    scripts/ and bench/. Definitions, __all__ strings and docstrings are not
    uses."""
    root = pathlib.Path(__file__).resolve().parents[1]
    used = set()
    for path in (p for d in ("src", "scripts", "bench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _names_used_by_the_program()
    uncalled = [f"airsense.{info.name}.{name}"
                for info in pkgutil.iter_modules(airsense.__path__)
                for name in getattr(importlib.import_module(f"airsense.{info.name}"),
                                    "__all__", ())
                if name not in used and name not in UNCALLED_ON_PURPOSE]
    assert not uncalled, f"public names that only the tests use: {uncalled}"
