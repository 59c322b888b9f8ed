import importlib
import pkgutil

import airsense


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(airsense.__path__):
        module = importlib.import_module(f"airsense.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"airsense.{info.name}.__all__ lists undefined {missing}"
