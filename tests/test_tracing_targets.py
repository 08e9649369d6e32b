"""The traced benchmark run wraps package functions by name; a rename or
removal would break ``perfbench/run.py --trace 1`` when its tracer installs."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_every_traced_name_exists_on_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.TARGETS) == set(tracing.LAYERS)
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"ramseyforge.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"ramseyforge.{layer} lacks {missing}"
