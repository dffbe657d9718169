"""The documented surface: README examples run, and every export resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import contextqm

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["contextqm"] + [
    f"contextqm.{info.name}" for info in pkgutil.iter_modules(contextqm.__path__)
]


def test_readme_python_blocks_run_in_order():
    # later blocks use names bound by earlier ones, as a reader would run them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
