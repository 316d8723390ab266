"""The public surface: every name the package exports is defined and documented."""

from __future__ import annotations

from pathlib import Path

import girthscope
from girthscope import girth

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_is_a_package_attribute():
    missing = [name for name in girthscope.__all__ if not hasattr(girthscope, name)]
    assert not missing, missing


def test_every_exported_name_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    undocumented = [name for name in girthscope.__all__ if f"`{name}`" not in text]
    assert not undocumented, undocumented


def test_girth_module_ships_no_test_oracle():
    for name in ("pair_distance", "second_distance", "_pair_levels"):
        assert not hasattr(girth, name), name
