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


MODULES = (
    closed_forms, errors, fuchsian_series, levy_driver, loewner_system, spectral_solver
)


def test_all_is_the_union_of_the_module_surfaces():
    union = set().union(*(m.__all__ for m in MODULES))
    assert len(llespec.__all__) == len(set(llespec.__all__)) == 52
    assert set(llespec.__all__) == union


def test_module_surfaces_are_disjoint():
    # a star re-export would let a later module silently shadow an earlier name
    for i, first in enumerate(MODULES):
        for second in MODULES[i + 1 :]:
            shared = set(first.__all__) & set(second.__all__)
            assert not shared, (first.__name__, second.__name__, shared)


def test_every_name_is_its_defining_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(llespec, name) is getattr(module, name), name


def test_errors_all_is_the_classes_it_defines():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert len(errors.__all__) == len(set(errors.__all__))
    assert set(errors.__all__) == defined


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
