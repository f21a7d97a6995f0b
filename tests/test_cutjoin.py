"""Tests for the one registry of shared recursion tables."""

import importlib
import pkgutil

import tqftrec
from tqftrec import amodel, bmodel, cutjoin, intersect
from tqftrec.groups import load_group, orbifold_frobenius


def test_equal_algebras_share_one_table():
    first = orbifold_frobenius(load_group("Z2"))
    second = orbifold_frobenius(load_group("Z2"))
    assert first is not second
    assert cutjoin.shared(amodel.CatalanTable, first) is cutjoin.shared(amodel.CatalanTable, second)


def test_cleared_registry_gives_the_same_values():
    before = (amodel.catalan(1, 2, (4, 4)), intersect.correlator(2, 1, (4,)), bmodel.wgn(1, 2))
    cutjoin.shared.cache_clear()
    assert cutjoin.shared(amodel.CatalanTable).rows() == []
    assert (amodel.catalan(1, 2, (4, 4)), intersect.correlator(2, 1, (4,)), bmodel.wgn(1, 2)) == before


def test_no_module_holds_a_table_of_its_own():
    # every recursion table lives in cutjoin.shared, where one call clears it
    tables = (cutjoin.CutJoinTable, bmodel._Recursion)
    for info in pkgutil.iter_modules(tqftrec.__path__):
        module = importlib.import_module("tqftrec." + info.name)
        for name, value in vars(module).items():
            held = list(value.values()) if isinstance(value, dict) else [value]
            assert not any(isinstance(v, tables) for v in held), (info.name, name)
