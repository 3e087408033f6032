"""Every function the benchmark traces exists in hpbec under the name it traces.

The tracer wraps its entries inside the benchmark's child process, so a
missing name would otherwise surface there; this check names it directly.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_entries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize("module,attr,span", traced_entries())
def test_traced_name_resolves(module, attr, span):
    owner = importlib.import_module("hpbec." + module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"hpbec.{module}.{attr} (traced as {span}) does not exist"
    assert callable(owner)
