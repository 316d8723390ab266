"""The public surface: every name the package exports is defined and documented."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import girthscope
from girthscope import girth

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_is_a_package_attribute():
    missing = [name for name in girthscope.__all__ if not hasattr(girthscope, name)]
    assert not missing, missing


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from girthscope import *", namespace)
    assert set(girthscope.__all__) <= set(namespace)
    assert not hasattr(girthscope, "no_such_name")


# imports the package and the CLI without site, then reports what they loaded
# and which modules the harness names come from when first used
FOOTPRINT = """
import json, sys
import girthscope, girthscope.cli
unused = ("girthscope.bench", "girthscope.verify", "dataclasses", "inspect")
loaded = [m for m in unused if m in sys.modules]
origins = {name: getattr(girthscope, name).__module__
           for name in ("BenchReport", "bench_compare", "run_verification")}
print(json.dumps({"loaded": loaded, "origins": origins,
                  "after": [m for m in unused[:2] if m in sys.modules]}))
"""


def test_import_loads_only_what_an_enumeration_needs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT], env=env, capture_output=True, text=True, check=True
    ).stdout
    report = json.loads(out)
    assert report["loaded"] == []
    assert report["origins"] == {
        "BenchReport": "girthscope.bench",
        "bench_compare": "girthscope.bench",
        "run_verification": "girthscope.verify",
    }
    assert report["after"] == ["girthscope.bench", "girthscope.verify"]


def test_every_exported_name_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    undocumented = [name for name in girthscope.__all__ if f"`{name}`" not in text]
    assert not undocumented, undocumented


def test_girth_module_ships_no_test_oracle():
    for name in ("pair_distance", "second_distance", "_pair_levels"):
        assert not hasattr(girth, name), name
