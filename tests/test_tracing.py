"""The benchmark's trace harness (perfbench/tracing.py) finds every function
it wraps by name, so a refactor that renames or removes one breaks
``perfbench/run.py --trace 1``.  These tests resolve every name it wraps and
every public name of the package, and check that installing and removing
the wrappers leaves the package as it was."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import artifact

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def modules():
    return [importlib.import_module(f"artifact.{info.name}")
            for info in pkgutil.iter_modules(artifact.__path__)]


def resolve(modname, attr):
    """The raw object a trace target names: a module attribute, or a class
    attribute as stored in the class (a classmethod stays one)."""
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_public_names_resolve():
    for name in artifact.__all__:
        assert hasattr(artifact, name), name


def test_install_wraps_and_uninstall_restores(tracing, modules):
    # resolving every target up front fails on a renamed or removed one
    before = {m.__name__: dict(vars(m)) for m in modules}
    raw = {span: resolve(modname, attr)
           for span, modname, attr, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for span, modname, attr, _ in tracing.TARGETS:
            assert resolve(modname, attr) is not raw[span], span
    finally:
        tracer.uninstall()
    for span, modname, attr, _ in tracing.TARGETS:
        assert resolve(modname, attr) is raw[span], span
    for m in modules:
        after = vars(m)
        for key, value in before[m.__name__].items():
            assert after[key] is value, f"{m.__name__}.{key}"
