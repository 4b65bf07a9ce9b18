"""The benchmark's tracer wraps crimecast functions by name; a refactor that
renames or moves one of them would break `bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", [target[:2] for target in load_tracer().TARGETS])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(f"crimecast.{module_name}")
    if "." in attr:
        # `Tracer.install` replaces a method in the class's own namespace.
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
