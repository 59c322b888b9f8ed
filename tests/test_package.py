import ast
import importlib
import pkgutil

import airsense


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
