"""The package's public names are exactly its modules' `__all__` lists."""

from __future__ import annotations

import importlib

import groupqft

MODULES = ("circuit", "circuit_library", "groups", "linalg", "synthesis",
           "verify")


def test_top_level_names_are_the_modules_exports():
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"groupqft.{name}")
        for attr in module.__all__:
            assert attr not in exported, f"{attr} exported twice"
            exported[attr] = getattr(module, attr)
    assert sorted(groupqft.__all__) == sorted([*exported, "__version__"])
    assert len(set(groupqft.__all__)) == len(groupqft.__all__)
    for attr, obj in exported.items():
        assert getattr(groupqft, attr) is obj, attr
    # each of these was missing from the top level
    assert {"regular_permutations", "Matrix", "check_tolerance"} \
        <= set(groupqft.__all__)
