"""The benchmark's tracer patches cimwalk functions by module and name; every
name it lists must still exist, or a traced run stops before its first op."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_exists():
    tracer = _tracer()
    assert tracer.WRAPPED
    for span, owners, attr in tracer.WRAPPED:
        for owner in owners:
            module = importlib.import_module(f"cimwalk.{owner}")
            assert callable(getattr(module, attr, None)), (span, owner, attr)


def test_every_cache_the_tracer_reads_exists():
    for span, (owner, attr) in _tracer().CACHED.items():
        module = importlib.import_module(f"cimwalk.{owner}")
        assert hasattr(getattr(module, attr, None), "cache_info"), (span, owner, attr)

