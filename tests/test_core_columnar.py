"""Tests for the struct-of-arrays drive state store and block scoring.

Two contracts are pinned here.  First, :class:`ColumnStateStore`'s
``record_block`` is semantically identical to a sequential ``record``
loop (including duplicate serials within one block), the level column
grows by doubling and state dumps round-trip exactly, older dump
schemas included.  Second, the vectorized scoring path is
*bit-identical* to the scalar oracle: ``observe_columns`` emits exactly
the alerts the per-sample ``observe`` loop produces — for empty blocks,
duplicate serials in one tick and out-of-order hours — and
materialized rescue estimates go through the scalar libm inversion,
never a vectorized ``pow``.
"""

import json

import numpy as np
import pytest

from repro.core.columnar import AlertBlock, ColumnStateStore
from repro.core.monitor import AlertLevel, DegradationMonitor
from repro.core.prediction import DegradationPredictor
from repro.core.rescue import rescue_estimate
from repro.core.taxonomy import FailureType
from repro.errors import ReproError


def _drive_level(store, serial):
    """The level code a state dump holds for one drive — all the state
    a verdict or a snapshot reads back."""
    return store.dump_state()["drives"][serial]["level"]


# -- scalar surface ----------------------------------------------------------

def test_record_keeps_the_last_level():
    store = ColumnStateStore(3)
    levels = [AlertLevel.HEALTHY, AlertLevel.CRITICAL, AlertLevel.WATCH,
              AlertLevel.HEALTHY, AlertLevel.WATCH]
    for step, level in enumerate(levels):
        store.record("d", np.full(2, float(step)), level)
        assert store.level_of("d") is level
        assert store.dump_state()["drives"] == {"d": {"level": level.value}}
    assert store.n_tracked == 1


def test_constructor_validation():
    with pytest.raises(ReproError, match="history_hours"):
        ColumnStateStore(0)
    with pytest.raises(ReproError, match="initial_rows"):
        ColumnStateStore(3, initial_rows=0)


def test_record_width_mismatch_is_typed():
    store = ColumnStateStore(3)
    store.record("d", np.zeros(4), AlertLevel.HEALTHY)
    with pytest.raises(ReproError, match="attributes"):
        store.record("d", np.zeros(5), AlertLevel.HEALTHY)
    with pytest.raises(ReproError, match="attributes"):
        store.record_block(["e"], np.zeros((1, 5)),
                           np.zeros(1, dtype=np.int8))
    assert store.serials() == ["d"]


# -- growth ------------------------------------------------------------------

def test_capacity_grows_by_doubling():
    store = ColumnStateStore(2, initial_rows=2)
    for drive in range(5):
        store.record(f"d{drive}", np.full(2, float(drive)),
                     AlertLevel(drive % 3))
    assert store.capacity == 8
    assert store.n_tracked == 5
    for drive in range(5):
        assert _drive_level(store, f"d{drive}") == drive % 3


# -- record_block vs sequential record ---------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_record_block_matches_sequential_record(seed):
    rng = np.random.default_rng(seed)
    serial_pool = [f"d{i}" for i in range(5)]
    # Duplicate-heavy block: 40 samples over 5 drives, so every drive
    # repeats many times within the single block.
    serials = [serial_pool[i] for i in rng.integers(0, 5, size=40)]
    normalized = rng.normal(size=(40, 2))
    level_codes = rng.integers(0, 3, size=40).astype(np.int8)

    sequential = ColumnStateStore(3, initial_rows=1)
    for i, serial in enumerate(serials):
        sequential.record(serial, normalized[i],
                          AlertLevel(int(level_codes[i])))
    blocked = ColumnStateStore(3, initial_rows=1)
    blocked.record_block(serials, normalized, level_codes)

    assert blocked.serials() == sequential.serials()
    assert blocked.capacity == sequential.capacity
    assert blocked.snapshot() == sequential.snapshot()
    assert blocked.dump_state() == sequential.dump_state()


def test_record_block_empty_is_noop():
    store = ColumnStateStore(3)
    store.record_block([], np.empty((0, 4)), np.empty(0, dtype=np.int8))
    assert store.n_tracked == 0


# -- lazy rescue inversion ---------------------------------------------------

def test_alert_estimates_use_scalar_rescue_math():
    """Materialized estimates are bitwise the scalar libm inversion.

    A dense stage grid including the order-3 (HEAD) regime where
    numpy's vectorized ``pow`` is known to drift from libm by an ulp:
    ``alert_at`` must route every estimate through the scalar
    ``rescue_estimate``, so each dataclass compares equal bit for bit.
    """
    types = tuple(FailureType)
    n = 1001
    grid = np.linspace(-1.2, 0.5, n)
    stages = np.vstack([grid, np.roll(grid, 100), np.roll(grid, 200)])
    likely_indices = np.argmin(stages, axis=0)
    level_codes = np.zeros(n, dtype=np.int8)
    block = AlertBlock([f"d{i}" for i in range(n)],
                       np.arange(n, dtype=np.int64),
                       stages, likely_indices, level_codes, types)
    for row in range(n):
        alert = block.alert_at(row)
        for type_index, failure_type in enumerate(types):
            expected = rescue_estimate(float(stages[type_index, row]),
                                       failure_type)
            assert alert.estimates[failure_type] == expected


# -- monitor parity: scalar oracle vs columnar kernel ------------------------

@pytest.fixture(scope="module")
def monitor_parts(mid_fleet, mid_report):
    predictor = DegradationPredictor(seed=7)
    predictor.evaluate_all(mid_report.dataset, mid_report.categorization)
    normalizer = mid_fleet.dataset.fit_normalizer()
    return predictor, normalizer, mid_fleet


def _monitor_pair(monitor_parts):
    """Two fresh monitors: one fed ``observe``, one ``observe_columns``."""
    predictor, normalizer, _ = monitor_parts
    return tuple(DegradationMonitor(predictor, normalizer)
                 for _ in range(2))


def _assert_alerts_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.serial == want.serial
        assert got.hour == want.hour
        assert got.level is want.level
        assert got.stage == want.stage          # bitwise, no tolerance
        assert got.likely_type is want.likely_type
        for failure_type in FailureType:
            assert (got.estimates[failure_type]
                    == want.estimates[failure_type])


def _tick_samples(fleet):
    """One duplicate-heavy, out-of-order tick of raw samples."""
    dataset = fleet.dataset
    failed = dataset.failed_profiles[0]
    good = dataset.good_profiles[0]
    samples = [
        (failed.serial, int(failed.hours[-1]), failed.matrix[-1]),
        (good.serial, int(good.hours[0]), good.matrix[0]),
        # The same drives again inside the very same block, with hours
        # running backwards relative to the rows above.
        (failed.serial, int(failed.hours[0]), failed.matrix[0]),
        (good.serial, int(good.hours[2]), good.matrix[2]),
        (failed.serial, int(failed.hours[-2]), failed.matrix[-2]),
    ]
    return samples


def test_empty_block_parity(monitor_parts):
    scalar, columnar = _monitor_pair(monitor_parts)
    for monitor in (scalar, columnar):
        block = monitor.observe_columns([], [], np.empty((0, 4)))
        assert len(block) == 0
        assert block.alerts() == []
        assert block.n_alerting == 0


def test_duplicate_and_out_of_order_tick_parity(monitor_parts):
    predictor, normalizer, fleet = monitor_parts
    samples = _tick_samples(fleet)
    scalar, columnar = _monitor_pair(monitor_parts)

    expected = [scalar.observe(serial, hour, record)
                for serial, hour, record in samples]
    block = columnar.observe_columns(
        [s for s, _, _ in samples], [h for _, h, _ in samples],
        np.vstack([np.asarray(r, dtype=np.float64).ravel()
                   for _, _, r in samples]))
    _assert_alerts_equal(block.alerts(), expected)


def test_block_shape_validation(monitor_parts):
    _, columnar = _monitor_pair(monitor_parts)
    with pytest.raises(ReproError, match="2-D"):
        columnar.observe_columns(["d"], [0], np.zeros(3))
    with pytest.raises(ReproError, match="lengths disagree"):
        columnar.observe_columns(["d"], [0, 1], np.zeros((1, 4)))


# -- crash-recovery state dumps ----------------------------------------------

def _dumped_store(seed=13):
    """A columnar store with growth and repeated drives behind it."""
    rng = np.random.default_rng(seed)
    store = ColumnStateStore(3, initial_rows=2)
    for _ in range(4):
        for drive in range(5):
            store.record(f"d{drive}", rng.normal(size=3),
                         AlertLevel(int(rng.integers(0, 3))))
    store.record("late", rng.normal(size=3), AlertLevel.WATCH)
    store.record("after", rng.normal(size=3), AlertLevel.CRITICAL)
    return store


def test_dump_state_round_trips_exactly():
    store = _dumped_store()
    payload = json.loads(json.dumps(store.dump_state()))  # through the wire
    twin = ColumnStateStore(3)
    twin.restore(payload)
    assert twin.serials() == store.serials()
    assert twin.n_tracked == store.n_tracked
    assert twin.snapshot() == store.snapshot()
    for serial in store.serials():
        assert twin.level_of(serial) is store.level_of(serial)
    # The twin's own dump is identical — dumps are a fixed point.
    assert json.dumps(twin.dump_state(), sort_keys=True) \
        == json.dumps(payload, sort_keys=True)


def test_restored_store_admits_new_drives_identically():
    """New drives after a restore land exactly as on the original, and
    the restored level column grows to fit them."""
    store = _dumped_store()
    twin = ColumnStateStore(3, initial_rows=2)
    twin.restore(store.dump_state())
    for name in ("n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"):
        store.record(name, np.ones(3), AlertLevel.WATCH)
        twin.record(name, np.ones(3), AlertLevel.WATCH)
    assert twin.n_tracked == 15
    assert json.dumps(twin.dump_state(), sort_keys=True) \
        == json.dumps(store.dump_state(), sort_keys=True)


def test_restored_store_continues_identically_under_blocks():
    """Duplicate serials inside one block resolve identically after a
    restore — the in-tick occurrence state is derived, not lost."""
    rng = np.random.default_rng(5)
    store = _dumped_store()
    twin = ColumnStateStore(3)
    twin.restore(store.dump_state())
    serials = ["after", "after", "late", "after", "fresh", "fresh"]
    matrix = rng.normal(size=(len(serials), 3))
    levels = rng.integers(0, 3, size=len(serials)).astype(np.int8)
    store.record_block(serials, matrix, levels)
    twin.record_block(serials, matrix, levels)
    assert json.dumps(twin.dump_state(), sort_keys=True) \
        == json.dumps(store.dump_state(), sort_keys=True)
    assert _drive_level(twin, "after") == int(levels[3])


def test_empty_store_round_trips():
    store = ColumnStateStore(4, initial_rows=3)
    twin = ColumnStateStore(4)
    twin.restore(store.dump_state())
    assert twin.serials() == []
    twin.record("first", np.zeros(2), AlertLevel.HEALTHY)
    assert twin.serials() == ["first"]


def test_restore_rejects_malformed_payloads():
    store = ColumnStateStore(3)
    store.record("kept", np.zeros(2), AlertLevel.WATCH)
    before = store.dump_state()
    with pytest.raises(ReproError, match="'deque'"):
        store.restore({"kind": "deque", "history_hours": 3})
    with pytest.raises(ReproError, match="retains 5 hours"):
        store.restore({"kind": "columnar", "history_hours": 5,
                       "n_attributes": 1, "drives": {}})
    for payload in ({"kind": "columnar"},
                    {"kind": "columnar", "history_hours": 3,
                     "n_attributes": 2, "drives": {"d": {}}},
                    {"kind": "columnar", "history_hours": 3,
                     "n_attributes": 2, "drives": {"d": {"level": "x"}}},
                    {"kind": "columnar", "history_hours": 3,
                     "n_attributes": 2, "drives": ["d"]},
                    ["columnar"]):
        with pytest.raises(ReproError, match="malformed state dump"):
            store.restore(payload)
    for level in (7, -1, 3):
        with pytest.raises(ReproError,
                           match=f"drive 'd' has level {level}, not an"):
            store.restore({"kind": "columnar", "history_hours": 3,
                           "n_attributes": 2,
                           "drives": {"c": {"level": 1},
                                      "d": {"level": level}}})
    # Nothing was replaced by a refused dump.
    assert store.dump_state() == before


def test_dump_state_is_a_few_bytes_per_drive():
    """Schema 3 carries one level code per drive: each drive's JSON
    entry is bounded whatever ``history_hours`` and the record width
    are."""
    store = ColumnStateStore(48)
    rng = np.random.default_rng(2)
    serials = [f"ZA{index:08d}" for index in range(300)]
    for _ in range(60):
        store.record_block(serials, rng.normal(size=(300, 12)),
                           rng.integers(0, 3, size=300).astype(np.int8))
    payload = store.dump_state()
    assert sorted(payload) == ["drives", "history_hours", "kind",
                               "n_attributes", "schema"]
    assert payload["schema"] == 3
    assert list(payload["drives"]) == serials
    for serial, entry in payload["drives"].items():
        assert sorted(entry) == ["level"]
        assert len(json.dumps({serial: entry})) < 32


def _schema1_payload(kind):
    """A dump as written before the record windows were dropped."""
    window = [[0.25, -1.0], [0.5, 2.0]]
    drive = {"level": 2, "last_hour": 41, "window": window}
    return {"schema": 1, "kind": kind, "history_hours": 3,
            "drives_evicted": 4, "initial_rows": 2, "n_attributes": 2,
            "capacity": 2, "free": [],
            "drives": {"old-a": dict(drive, row=1),
                       "old-b": dict(drive, row=0, level=0,
                                     window=window[:1])}}


@pytest.mark.parametrize("store_cls,kind", [(ColumnStateStore, "columnar")])
def test_schema1_dump_restores(store_cls, kind):
    """A WAL snapshot written with record windows still recovers: each
    drive keeps its level, and the window is dropped."""
    store = store_cls(3)
    store.restore(_schema1_payload(kind))
    assert store.serials() == ["old-a", "old-b"]
    assert _drive_level(store, "old-a") == 2
    assert _drive_level(store, "old-b") == 0
    assert store.dump_state()["schema"] == 3
    store.record("old-a", np.zeros(2), AlertLevel.HEALTHY)
    assert _drive_level(store, "old-a") == 0
    with pytest.raises(ReproError, match="attributes"):
        store.record("old-b", np.zeros(3), AlertLevel.HEALTHY)


def test_schema2_dump_restores():
    """A schema-2 dump (row, clock and record count per drive, plus the
    free list) restores to the same levels; only the level is read."""
    store = ColumnStateStore(3)
    store.restore({"schema": 2, "kind": "columnar", "history_hours": 3,
                   "initial_rows": 2, "n_attributes": 2, "capacity": 4,
                   "drives_evicted": 1, "free": [3, 0],
                   "drives": {"b": {"row": 1, "level": 1, "last_hour": 9,
                                    "retained": 3},
                              "a": {"row": 2, "level": 2, "last_hour": 4,
                                    "retained": 1}}})
    assert store.dump_state() == {
        "schema": 3, "kind": "columnar", "history_hours": 3,
        "n_attributes": 2,
        "drives": {"a": {"level": 2}, "b": {"level": 1}}}
    assert store.drives_at(AlertLevel.CRITICAL) == ["a"]
