"""The package's public surface, and the names the benchmark's tracer patches."""

import importlib.util
import inspect
from pathlib import Path

import llespec
from llespec import (
    closed_forms,
    errors,
    fuchsian_series,
    levy_driver,
    loewner_system,
    spectral_solver,
)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_all_is_the_union_of_the_module_surfaces():
    # errors.py has no __all__: its surface is the classes it defines
    error_names = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    modules = (
        closed_forms, fuchsian_series, levy_driver, loewner_system, spectral_solver
    )
    union = error_names.union(*(m.__all__ for m in modules))
    assert len(llespec.__all__) == len(set(llespec.__all__)) == 52
    assert set(llespec.__all__) == union
    for name in llespec.__all__:
        assert hasattr(llespec, name), name


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve_in_every_patched_module():
    # bench/run.py's traced rounds patch these names; a name that no longer
    # resolves there stops the benchmark with an AttributeError
    spans = _load_spans()
    for span_name, attr, modules in spans._TRACED:
        for mod in modules:
            assert callable(getattr(mod, attr, None)), (span_name, mod.__name__, attr)
    before = {
        (mod.__name__, attr): getattr(mod, attr)
        for _, attr, modules in spans._TRACED
        for mod in modules
    }
    with spans.Tracer().installed():
        pass
    for (mod_name, attr), fn in before.items():
        assert getattr(importlib.import_module(mod_name), attr) is fn
