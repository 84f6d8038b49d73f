"""Every layer that the benchmark's tracer wraps by name exists in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_name_resolves():
    # the tracer wraps a method through its class's own __dict__, and any
    # other name as a module attribute
    missing = []
    for mod_name, names in load_layers().items():
        module = importlib.import_module(f"nsdpcheck.{mod_name}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            scope = vars(getattr(module, owner)) if owner else vars(module)
            if attr not in scope:
                missing.append(f"{mod_name}.{name}")
    assert not missing
