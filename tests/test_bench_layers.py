"""The traced benchmark pass wraps the functions named in ``LAYERS`` of
``bench/tracing.py``; a rename in ``src`` must fail here, not in the bench."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "target", sorted({t for targets in _layers().values() for t in targets})
)
def test_layer_target_resolves(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
