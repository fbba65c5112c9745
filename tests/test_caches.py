"""Every functools cache in the package is bounded, so a long run cannot
grow one for the life of the process."""

import importlib
import pkgutil

import cimwalk


def _caches():
    for info in pkgutil.iter_modules(cimwalk.__path__):
        module = importlib.import_module(f"cimwalk.{info.name}")
        for obj in vars(module).values():
            for f in vars(obj).values() if isinstance(obj, type) else (obj,):
                if hasattr(f, "cache_parameters") and f.__module__.startswith("cimwalk"):
                    yield f"{f.__module__}.{f.__qualname__}", f.cache_parameters()["maxsize"]


def test_no_cache_is_unbounded():
    caches = dict(_caches())
    assert "cimwalk.graphs.consistent_extension" in caches
    assert [name for name, maxsize in caches.items() if maxsize is None] == []
