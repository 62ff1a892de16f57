"""The benchmark's tracer wraps fltbench functions by the names callers look
up. A binding that is renamed or removed must fail here, not mid-benchmark."""
import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_target_binding_resolves_through_owner_dict():
    spec = importlib.util.spec_from_file_location("fltbench_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{module_name}.{path}")
    assert not missing, f"bindings the benchmark tracer wraps are gone: {missing}"
