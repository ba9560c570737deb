"""Every annotation in the package resolves.

The modules use ``from __future__ import annotations``, so an annotation
that names an undefined type only fails when something asks for the type
hints.  ``typing.get_type_hints`` resolves each one here.
"""

import importlib
import inspect
import typing

import pytest

MODULES = ("polyring", "weyl", "groebner", "generators", "chernweil", "cli")


def annotated_objects(module):
    """The functions and classes defined in ``module``, and the methods of those classes."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            yield name, value
            for attr, raw in vars(value).items():
                if isinstance(raw, (staticmethod, classmethod)):
                    raw = raw.__func__
                elif isinstance(raw, property):
                    raw = raw.fget
                if inspect.isfunction(raw):
                    yield f"{name}.{attr}", raw


@pytest.mark.parametrize("module_name", MODULES)
def test_every_annotation_resolves(module_name):
    module = importlib.import_module(f"tcclasses.{module_name}")
    failures = []
    for qualname, obj in annotated_objects(module):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # collect every failure, not only the first
            failures.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert failures == []
