"""Every function that perfbench/tracing.py wraps must exist in risjrc.

A traced name that no longer exists makes the per-layer metrics built on it
read null in a ``--trace 1`` benchmark run; this fails first.  The tracing
module is only read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, path) for name, path, _ in module.TARGETS]


@pytest.mark.parametrize("module, path", traced_targets())
def test_traced_target_exists(module, path):
    owner = importlib.import_module(f"risjrc.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
