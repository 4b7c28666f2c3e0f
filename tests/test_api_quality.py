"""API-quality meta-tests: every public item is documented.

"Documentation: doc comments on every public item" is a deliverable —
this test makes it an enforced invariant rather than a hope.
"""

import importlib
import inspect
import pkgutil

import repro

EXEMPT_MODULES = set()


def iter_public_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in EXEMPT_MODULES:
            continue
        yield importlib.import_module(info.name)


def is_public(name):
    return not name.startswith("_")


def test_every_module_has_a_docstring():
    missing = [
        module.__name__
        for module in iter_public_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert missing == []


def test_every_public_class_and_function_is_documented():
    missing = []
    for module in iter_public_modules():
        for name, obj in vars(module).items():
            if not is_public(name):
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at definition site
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
                if inspect.isclass(obj):
                    for method_name, method in vars(obj).items():
                        if not is_public(method_name):
                            continue
                        if not callable(method) or isinstance(method, type):
                            continue
                        if isinstance(method, property):
                            continue
                        doc = inspect.getdoc(method)
                        if not (doc or "").strip():
                            missing.append(
                                f"{module.__name__}.{name}.{method_name}"
                            )
    assert missing == [], f"undocumented public items: {missing}"


def test_public_api_reexports_resolve():
    import repro.api

    for name in repro.api.__all__:
        assert hasattr(repro.api, name), name
