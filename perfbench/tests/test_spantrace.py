"""Span recording, wrapper installation and self time of nested spans."""

import sys
import types

import pytest

from layers import ROUND_TRIP_SPAN, self_times
from spantrace import Span, Target, Tracer, covered

SOURCE = '''
def inner(x):
    return x + 1

def outer(x):
    return inner(x) * 2

class Box:
    def method(self, x):
        return outer(x)

    @classmethod
    def make(cls):
        return cls()
'''


@pytest.fixture
def fake(monkeypatch):
    module = types.ModuleType("repro_benchfake")
    exec(SOURCE, module.__dict__)
    monkeypatch.setitem(sys.modules, "repro_benchfake", module)
    user = types.ModuleType("repro_benchfake_user")
    exec("from repro_benchfake import inner\n"
         "def call(x):\n    return inner(x)\n", user.__dict__)
    monkeypatch.setitem(sys.modules, "repro_benchfake_user", user)
    return module, user


def test_children_cover_their_union_clipped_to_the_span():
    children = [(10, 20), (15, 30), (50, 60), (90, 150), (-40, -10)]
    assert covered(0, 100, children) == 20 + 10 + 10
    assert covered(0, 100, []) == 0


def test_wrappers_record_nesting_values_and_uninstall(fake):
    module, user = fake
    originals = (module.inner, module.outer, module.Box.__dict__["method"],
                 module.Box.__dict__["make"], user.inner)
    tracer = Tracer()
    tracer.install([
        Target("inner", "repro_benchfake", "inner"),
        Target("outer", "repro_benchfake", "outer",
               probe=lambda args, result, before: result),
        Target("method", "repro_benchfake", "Box.method",
               rid=lambda args: f"r{args[1]}"),
        Target("make", "repro_benchfake", "Box.make"),
    ])
    assert module.Box().method(1) == 4
    assert user.call(5) == 6
    assert isinstance(module.Box.make(), module.Box)
    tracer.uninstall()
    assert (module.inner, module.outer, module.Box.__dict__["method"],
            module.Box.__dict__["make"], user.inner) == originals
    assert module.Box().method(1) == 4

    rows = {}
    for row in tracer.spans:
        rows.setdefault(row[1], []).append(row)
    assert len(tracer.spans) == 5
    method, = rows["method"]
    outer, = rows["outer"]
    nested, aliased = rows["inner"]
    assert method[4] == 0 and outer[4] == method[0] and nested[4] == outer[0]
    assert aliased[4] == 0          # the imported alias is timed too
    assert outer[7] == 4.0          # probe value
    assert method[5] == outer[5] == nested[5] == "r1"   # request id sticks
    assert all(row[2] <= row[3] for row in tracer.spans)


def _span(key, name, start, end, parent=None, thread=1, pid=1):
    return Span(key=(pid, key), name=name, start=start, end=end,
                parent=(pid, parent) if parent else None, rid=None,
                thread=(pid, thread), value=0.0)


def test_waiting_spans_lose_only_the_work_they_waited_on():
    spans = [
        _span(1, ROUND_TRIP_SPAN, 0, 100, pid=9, thread=9),
        _span(2, "serve.daemon.handle_ingest", 10, 90),
        _span(3, "serve.shard.submit_block", 20, 80, parent=2),
        _span(4, "serve.wal.append", 25, 40, thread=2),
        _span(5, "serve.scorer.score_block", 30, 60, thread=3),
        _span(6, "serve.scorer.score_block", 70, 95, thread=2),
        _span(7, "serve.sinks.emit", 20, 80, thread=4),
    ]
    selfs = self_times(spans)
    assert selfs[(9, 1)] == 100 - 80          # round trip minus handler
    assert selfs[(1, 2)] == 80 - 60           # handler minus submit_block
    assert selfs[(1, 3)] == 60 - (35 + 10)    # minus overlapping shard work
    assert selfs[(1, 6)] == 25                # worker span keeps its time
    assert selfs[(1, 7)] == 60                # sink work is not waited on
