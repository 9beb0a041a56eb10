"""Guard for the layered benchmark's span targets.

``perfbench/layers.py`` names the program callables a traced run wraps
(``TARGETS``), and the tracer refuses to start when one is missing.
Resolving every target here makes a renamed or deleted callable fail
the ordinary test run instead of only a ``--trace 1`` benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.columnar import ColumnStateStore
from repro.core.monitor import AlertLevel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def targets():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        layers = importlib.import_module("layers")
    return layers.TARGETS


def test_targets_are_listed_once(targets):
    spans = [target.span for target in targets]
    assert spans and len(spans) == len(set(spans))


def test_every_target_resolves(targets):
    """Same lookup as the tracer: the module, then each qualname part,
    with a method defined on its class itself (not inherited)."""
    for target in targets:
        module = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        owner = module
        for part in path:
            assert hasattr(owner, part), f"{target.span}: no {part}"
            owner = getattr(owner, part)
        members = vars(owner) if path else vars(module)
        assert attr in members, f"{target.span}: no {target.qualname}"
        assert callable(getattr(owner, attr)), target.span


def test_ring_probe_reads_store_layout():
    """The ``record_block`` probe reads ``capacity`` and
    ``history_hours`` off the store it is handed."""
    store = ColumnStateStore(6, initial_rows=4)
    store.record("d", np.zeros(3), AlertLevel.HEALTHY)
    assert store.capacity == 4
    assert store.history_hours == 6
