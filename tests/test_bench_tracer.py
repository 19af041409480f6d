"""The benchmark's tracer wraps package functions by name: a renamed or
deleted target would crash a traced benchmark run, so it fails here first."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library only
    return tracer.TARGETS


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in load_targets().items() for name in names],
)
def test_tracer_target_resolves(module, name):
    home = importlib.import_module(f"semirelax.{module}")
    if "." in name:  # a method, which the tracer looks up in the class dict
        cls_name, attr = name.split(".")
        assert callable(vars(getattr(home, cls_name))[attr])
    else:
        assert callable(getattr(home, name))
