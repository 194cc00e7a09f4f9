import importlib
import pkgutil

import cograph_bei


def test_package_exports_exactly_the_module_surfaces():
    # every module's __all__ names exist and the package re-exports each
    # of them, and the package's __all__ holds nothing else
    surface = {}
    for info in pkgutil.iter_modules(cograph_bei.__path__):
        module = importlib.import_module(f"cograph_bei.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
            surface[name] = getattr(module, name)
    assert len(set(cograph_bei.__all__)) == len(cograph_bei.__all__)
    assert sorted(cograph_bei.__all__) == sorted(surface)
    for name, value in surface.items():
        assert getattr(cograph_bei, name) is value, name
