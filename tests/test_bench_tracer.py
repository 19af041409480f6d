"""The benchmark reads package names the suite would not otherwise pin: its
tracer wraps functions by name, and its driver and layer probes call into
the package directly.  A renamed or deleted name would crash a benchmark
run, so it fails here first.  The names are collected from the bench
files' source, without running them."""

import ast
import importlib
import importlib.util
import pathlib
import typing

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
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


def _root(node: ast.expr) -> str | None:
    """The name an attribute or call chain starts from, if any."""
    while isinstance(node, (ast.Attribute, ast.Call)):
        node = node.value if isinstance(node, ast.Attribute) else node.func
    return node.id if isinstance(node, ast.Name) else None


def package_reads(path: pathlib.Path) -> dict:
    """label -> (expression, env) of each package name one bench file reads:
    every attribute chain over env and every imported name.  env binds each
    local name the file takes from the package: a module or a name of one,
    as (module, name or None), or a name assigned from a call into the
    package, as that call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    env = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "semirelax":
            for alias in node.names:
                bound = (f"{node.module}.{alias.name}", None)
                if node.module != "semirelax":  # a name, not a submodule
                    bound = (node.module, alias.name)
                env[alias.asname or alias.name] = bound
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call) and _root(node.value) in env):
            env[node.targets[0].id] = node.value

    def label(node: ast.expr) -> str:
        if isinstance(node, ast.Attribute):
            return f"{label(node.value)}.{node.attr}"
        if isinstance(node, ast.Call):
            return f"{label(node.func)}(...)"
        bound = env[node.id]
        if isinstance(bound, ast.expr):
            return label(bound)
        module, name = bound
        return module.removeprefix("semirelax.") if name is None else name

    reads = {
        f"{path.name}:{label(node)}": (node, env)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _root(node) in env
    }
    for local, bound in env.items():
        if isinstance(bound, tuple) and bound[1] is not None:
            module = bound[0].removeprefix("semirelax.")
            reads[f"{path.name}:{module}.{bound[1]}"] = (ast.Name(local), env)
    return reads


def resolve(node: ast.expr, env: dict):
    """The package object an expression denotes; a call denotes the class
    it constructs, or the class its callee's return annotation names."""
    if isinstance(node, ast.Attribute):
        return getattr(resolve(node.value, env), node.attr)
    if isinstance(node, ast.Call):
        callee = resolve(node.func, env)
        return callee if isinstance(callee, type) else typing.get_type_hints(callee)["return"]
    bound = env[node.id]
    if isinstance(bound, ast.expr):
        return resolve(bound, env)
    module, name = bound
    home = importlib.import_module(module)
    return home if name is None else getattr(home, name)


BENCH_READS = {
    label: read for path in sorted(BENCH.glob("*.py")) for label, read in package_reads(path).items()
}


def test_bench_reads_are_collected():
    labels = {label.split(":", 1)[1] for label in BENCH_READS}
    assert {
        "propagator.StepperConfig", "propagator.strang_step", "fields.gaussian_field",
        "grids.make_grid", "norms.SobolevSpec", "norms.sobolev_norm", "fields.gradient",
        "radial.profile_from_function", "radial.JEvaluator(...).j", "radial.F_p_source",
        "diagnostics.CSV_HEADER", "runner.run(...).all_passed",
    } <= labels


@pytest.mark.parametrize("label", sorted(BENCH_READS))
def test_bench_read_resolves(label):
    node, env = BENCH_READS[label]
    resolve(node, env)  # an AttributeError names what the bench would miss
