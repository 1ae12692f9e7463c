"""perfbench/tracing.py must follow the code it times.

Every function it wraps must exist in risjrc: a traced name that no longer
exists makes the per-layer metrics built on it read null in a ``--trace 1``
benchmark run.  One tiny traced run also checks that the wrapped names are
the ones the hot paths call, so their metrics do not read 0, and that
uninstalling puts every original back.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from risjrc.codebook import build_codebook
from risjrc.comms import average_se

from conftest import tiny_cfg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_targets() -> list:
    return [(name, path) for name, path, _ in tracing_module().TARGETS]


@pytest.mark.parametrize("module, path", traced_targets())
def test_traced_target_exists(module, path):
    owner = importlib.import_module(f"risjrc.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_run_counts_the_hot_paths(tmp_path):
    namespaces = {n: m for n, m in sys.modules.items() if n == "risjrc" or n.startswith("risjrc.")}
    before = {n: dict(vars(m)) for n, m in namespaces.items()}
    cfg = tiny_cfg()
    tracer = tracing_module().Tracer()
    tracer.install()
    try:
        build_codebook(cfg, schedule=(4, 4, 4), seed=0)
        average_se(cfg, None, 50, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    m = tracer.report(str(tmp_path / "none.bin"), str(tmp_path / "none.csv"))["metrics"]
    assert m["codebook.solve_calls"] == 3
    assert all(m[f"codebook.solve_s.s{s}"] > 0 for s in (1, 2, 3))
    assert m["channels.draw_fading_calls"] == 1
    for name, module in namespaces.items():
        left = [k for k, v in vars(module).items() if k in before[name] and v is not before[name][k]]
        assert not left, f"{name} still holds wrappers for {left}"
