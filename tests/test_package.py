"""The package namespace: every public name resolves on first access to
the object its home module defines, and none is bound in the package."""

import importlib
import inspect

import pytest

import l2transform
from l2transform import algebra, pde


@pytest.mark.parametrize("name", l2transform.__all__)
def test_public_name_resolves_to_its_home_module_object(name):
    home = importlib.import_module(f"l2transform.{l2transform._HOME[name]}")
    obj = getattr(l2transform, name)
    assert obj is getattr(home, name)
    if inspect.isclass(obj) or inspect.isfunction(obj):
        assert obj.__module__ == home.__name__
    assert name in dir(l2transform)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from l2transform import *", namespace)
    assert set(l2transform.__all__) <= set(namespace)
    for name in l2transform.__all__:
        assert namespace[name] is getattr(l2transform, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        l2transform.no_such_name
    assert not hasattr(l2transform, "no_such_name")


def test_access_binds_no_public_name_in_the_package():
    for name in l2transform.__all__:
        getattr(l2transform, name)
    assert not set(l2transform.__all__) & set(vars(l2transform))


def test_pde_reexports_the_polynomial_type_of_algebra():
    assert pde.LPoly is algebra.LPoly
    assert pde.lpoly is algebra.lpoly
