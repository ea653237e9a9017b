"""The benchmark tracer wraps package functions by module attribute name.

`qftbench/layers.py` swaps a span wrapper in for each `SITES` entry with
getattr/setattr on the calling module.  If a source change drops such an
attribute (say, an import that looks unused), `run.py --trace 1` breaks;
this test makes that a test failure instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "qftbench" / "layers.py"


def _sites():
    spec = importlib.util.spec_from_file_location("qftbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SITES


@pytest.mark.parametrize("name, module, attr", _sites(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_tracer_site_resolves_to_callable(name, module, attr):
    assert callable(getattr(module, attr, None)), \
        f"{name}: {module.__name__}.{attr} is not a callable attribute"
