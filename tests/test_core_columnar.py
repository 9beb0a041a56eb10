"""Tests for the struct-of-arrays drive state store and block scoring.

Two contracts are pinned here.  First, :class:`ColumnStateStore`'s
``record_block`` is semantically identical to a sequential ``record``
loop (including duplicate serials within one block), rows are recycled
on eviction, the arrays grow by doubling and state dumps round-trip
exactly.  Second, the vectorized scoring path is *bit-identical* to the
scalar oracle: ``observe_columns`` emits exactly the alerts the
per-sample ``observe`` loop produces — for empty blocks, duplicate
serials in one tick, out-of-order hours, and drives reappearing after
eviction — and materialized rescue estimates go through the scalar
libm inversion, never a vectorized ``pow``.
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


def _drive_state(store, serial):
    """``(level, retained, last_hour)`` — all the state a verdict or a
    snapshot reads back for one drive."""
    entry = store.dump_state()["drives"][serial]
    return entry["level"], entry["retained"], entry["last_hour"]


# -- scalar surface ----------------------------------------------------------

def test_retained_count_caps_at_history_like_deque():
    store = ColumnStateStore(3)
    for step in range(7):
        store.record("d", np.full(2, float(step)), AlertLevel.HEALTHY,
                     hour=step)
        assert _drive_state(store, "d") == (0, min(step + 1, 3), step)


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
                           np.zeros(1, dtype=np.int8), [0])


# -- growth and recycling ----------------------------------------------------

def test_capacity_grows_by_doubling():
    store = ColumnStateStore(2, initial_rows=2)
    for drive in range(5):
        store.record(f"d{drive}", np.full(2, float(drive)),
                     AlertLevel.HEALTHY, hour=drive)
    assert store.capacity == 8
    assert store.n_tracked == 5
    for drive in range(5):
        assert _drive_state(store, f"d{drive}") == (0, 1, drive)


def test_evict_idle_recycles_rows():
    store = ColumnStateStore(2, initial_rows=2)
    for drive in range(4):
        store.record(f"d{drive}", np.zeros(2), AlertLevel.WATCH, hour=drive)
    capacity_before = store.capacity
    evicted = store.evict_idle(before_hour=2)
    assert evicted == 2
    assert store.drives_evicted == 2
    assert store.serials() == ["d2", "d3"]
    assert store.level_of("d0") is AlertLevel.HEALTHY
    assert "d0" not in store.dump_state()["drives"]
    assert store.capacity == capacity_before
    # Freed rows are handed to new drives before any growth.
    store.record("d-new", np.ones(2), AlertLevel.HEALTHY, hour=9)
    assert store.capacity == capacity_before
    assert store.snapshot()["drives_evicted"] == 2
    # An all-idle cutoff empties the store.
    assert store.evict_idle(before_hour=100) == 3
    assert store.n_tracked == 0
    assert store.evict_idle(before_hour=100) == 0


def test_reappearing_drive_gets_fresh_history():
    store = ColumnStateStore(4)
    store.record("d", np.full(2, 1.0), AlertLevel.CRITICAL, hour=0)
    store.record("d", np.full(2, 2.0), AlertLevel.CRITICAL, hour=1)
    assert store.evict_idle(before_hour=5) == 1
    store.record("d", np.full(2, 7.0), AlertLevel.HEALTHY, hour=6)
    assert _drive_state(store, "d") == (0, 1, 6)
    assert store.level_of("d") is AlertLevel.HEALTHY


# -- record_block vs sequential record ---------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_record_block_matches_sequential_record(seed):
    rng = np.random.default_rng(seed)
    history, n_attributes = 3, 2
    serial_pool = [f"d{i}" for i in range(5)]
    # Duplicate-heavy block: 40 samples over 5 drives, so most drives
    # repeat far beyond the retained cap within the single block.
    serials = [serial_pool[i] for i in rng.integers(0, 5, size=40)]
    normalized = rng.normal(size=(40, n_attributes))
    level_codes = rng.integers(0, 3, size=40).astype(np.int8)
    hours = rng.integers(0, 50, size=40)

    sequential = ColumnStateStore(history, initial_rows=1)
    for i, serial in enumerate(serials):
        sequential.record(serial, normalized[i],
                          AlertLevel(int(level_codes[i])),
                          hour=int(hours[i]))
    blocked = ColumnStateStore(history, initial_rows=1)
    blocked.record_block(serials, normalized, level_codes, hours)

    assert blocked.serials() == sequential.serials()
    assert blocked.snapshot() == sequential.snapshot()
    assert blocked.dump_state() == sequential.dump_state()
    # The eviction clock advanced identically (max hour per drive).
    for cutoff in (0, 25, 51):
        assert (blocked.evict_idle(cutoff)
                == sequential.evict_idle(cutoff))


def test_record_block_empty_is_noop():
    store = ColumnStateStore(3)
    store.record_block([], np.empty((0, 4)), np.empty(0, dtype=np.int8), [])
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


def _monitor_pair(monitor_parts, history_hours=24):
    """Two fresh monitors: one fed ``observe``, one ``observe_columns``."""
    predictor, normalizer, _ = monitor_parts
    return tuple(DegradationMonitor(predictor, normalizer,
                                    history_hours=history_hours)
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
        assert monitor.n_tracked == 0


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

    # Post-tick drive state agrees too: level, retained count, clock.
    assert columnar.state.serials() == scalar.state.serials()
    for serial in scalar.state.serials():
        assert columnar.level_of(serial) is scalar.level_of(serial)
        assert (_drive_state(columnar.state, serial)
                == _drive_state(scalar.state, serial))


def test_reappearance_after_eviction_parity(monitor_parts):
    predictor, normalizer, fleet = monitor_parts
    profile = fleet.dataset.good_profiles[1]
    scalar, columnar = _monitor_pair(monitor_parts)
    stream = [(profile.serial, int(hour), row)
              for hour, row in zip(profile.hours[:4], profile.matrix[:4])]

    for monitor in (scalar, columnar):
        monitor.observe_many(stream)
        assert monitor.state.evict_idle(
            before_hour=int(profile.hours[3]) + 1) == 1
        assert monitor.n_tracked == 0

    reappear = [(profile.serial, int(hour), row)
                for hour, row in zip(profile.hours[4:6],
                                     profile.matrix[4:6])]
    expected = [scalar.observe(*sample) for sample in reappear]
    actual = columnar.observe_columns(
        [s for s, _, _ in reappear], [h for _, h, _ in reappear],
        np.vstack([np.asarray(r, dtype=np.float64).ravel()
                   for _, _, r in reappear]))
    _assert_alerts_equal(actual.alerts(), expected)
    assert (_drive_state(columnar.state, profile.serial)
            == _drive_state(scalar.state, profile.serial))
    assert _drive_state(columnar.state, profile.serial)[1] == 2
    assert columnar.state.drives_evicted == 1


def test_block_shape_validation(monitor_parts):
    _, columnar = _monitor_pair(monitor_parts)
    with pytest.raises(ReproError, match="2-D"):
        columnar.observe_columns(["d"], [0], np.zeros(3))
    with pytest.raises(ReproError, match="lengths disagree"):
        columnar.observe_columns(["d"], [0, 1], np.zeros((1, 4)))


# -- crash-recovery state dumps ----------------------------------------------

def _dumped_store(seed=13):
    """A columnar store with growth, eviction and duplicates behind it."""
    rng = np.random.default_rng(seed)
    store = ColumnStateStore(3, initial_rows=2)
    for step in range(4):
        for drive in range(5):
            store.record(f"d{drive}", rng.normal(size=3),
                         AlertLevel(int(rng.integers(0, 3))), hour=step)
    store.evict_idle(before_hour=0)  # no-op, but exercises the counter path
    store.record("late", rng.normal(size=3), AlertLevel.WATCH, hour=9)
    store.evict_idle(before_hour=4)  # evicts d0..d4, frees their rows
    store.record("after", rng.normal(size=3), AlertLevel.CRITICAL, hour=10)
    return store


def test_dump_state_round_trips_exactly():
    store = _dumped_store()
    payload = json.loads(json.dumps(store.dump_state()))  # through the wire
    twin = ColumnStateStore(3)
    twin.restore(payload)
    assert twin.serials() == store.serials()
    assert twin.n_tracked == store.n_tracked
    assert twin.capacity == store.capacity
    assert twin.drives_evicted == store.drives_evicted
    for serial in store.serials():
        assert twin.level_of(serial) is store.level_of(serial)
        assert _drive_state(twin, serial) == _drive_state(store, serial)
    # The twin's own dump is identical — dumps are a fixed point.
    assert json.dumps(twin.dump_state(), sort_keys=True) \
        == json.dumps(payload, sort_keys=True)


def test_restored_store_recycles_the_same_rows():
    """The free list survives the round trip in order, so the restored
    store hands freed rows to new drives exactly as the original."""
    store = _dumped_store()
    twin = ColumnStateStore(3)
    twin.restore(store.dump_state())
    for name in ("n1", "n2", "n3"):
        store.record(name, np.ones(3), AlertLevel.HEALTHY, hour=20)
        twin.record(name, np.ones(3), AlertLevel.HEALTHY, hour=20)
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
    hours = [11] * len(serials)
    store.record_block(serials, matrix, levels, hours)
    twin.record_block(serials, matrix, levels, hours)
    assert json.dumps(twin.dump_state(), sort_keys=True) \
        == json.dumps(store.dump_state(), sort_keys=True)
    assert _drive_state(twin, "after") == (int(levels[3]), 3, 11)


def test_empty_store_round_trips():
    store = ColumnStateStore(4, initial_rows=3)
    twin = ColumnStateStore(4)
    twin.restore(store.dump_state())
    assert twin.serials() == []
    twin.record("first", np.zeros(2), AlertLevel.HEALTHY, hour=0)
    assert twin.serials() == ["first"]


def test_restore_rejects_malformed_payloads():
    store = ColumnStateStore(3)
    with pytest.raises(ReproError, match="'deque'"):
        store.restore({"kind": "deque", "history_hours": 3})
    with pytest.raises(ReproError, match="retains 5 hours"):
        store.restore({"kind": "columnar", "history_hours": 5,
                       "capacity": 1, "n_attributes": 1, "free": [],
                       "drives": {}})
    with pytest.raises(ReproError, match="malformed state dump"):
        store.restore({"kind": "columnar"})
    for row, retained in ((5, 1), (0, 4), (0, -1)):
        with pytest.raises(ReproError, match="outside the dumped layout"):
            store.restore({"kind": "columnar", "history_hours": 3,
                           "capacity": 1, "n_attributes": 2, "free": [],
                           "drives": {"d": {"row": row, "level": 0,
                                            "last_hour": 0,
                                            "retained": retained}}})
    with pytest.raises(ReproError, match="outside the dumped layout"):
        store.restore({"kind": "columnar", "history_hours": 3,
                       "capacity": 1, "n_attributes": 2, "free": [],
                       "drives": {"d": {"row": 0, "level": 0,
                                        "last_hour": 0,
                                        "window": [[0.0, 0.0]] * 4}}})

    def drive(row, level=0):
        return {"row": row, "level": level, "last_hour": 0, "retained": 1}

    # Rows outside the layout, rows with two owners, unknown levels.
    for free, drives, message in (
            ([2], {}, "free list has row 2 outside"),
            ([-1], {}, "row -1 outside"),
            ([1, 1], {}, "reuses row 1"),
            ([0], {"d": drive(0)}, "drive 'd' reuses row 0"),
            ([], {"d": drive(1), "e": drive(1)}, "drive 'e' reuses row 1"),
            ([], {"d": drive(1, level=7)}, "row 1 has level 7")):
        with pytest.raises(ReproError, match=message):
            store.restore({"kind": "columnar", "history_hours": 3,
                           "capacity": 2, "n_attributes": 2, "free": free,
                           "drives": drives})


def test_dump_state_is_a_few_bytes_per_drive():
    """Schema 2 carries no record values: each drive's JSON entry is
    bounded whatever ``history_hours`` and the record width are."""
    store = ColumnStateStore(48)
    rng = np.random.default_rng(2)
    serials = [f"ZA{index:08d}" for index in range(300)]
    for hour in range(60):
        store.record_block(serials, rng.normal(size=(300, 12)),
                           rng.integers(0, 3, size=300).astype(np.int8),
                           [10 ** 6 + hour] * 300)
    payload = store.dump_state()
    assert payload["schema"] == 2
    for serial, entry in payload["drives"].items():
        assert sorted(entry) == ["last_hour", "level", "retained", "row"]
        assert entry["retained"] == 48
        assert len(json.dumps({serial: entry})) < 128


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
    """A WAL snapshot written before schema 2 still recovers: each
    drive's window length becomes its retained count."""
    store = store_cls(3)
    store.restore(_schema1_payload(kind))
    assert store.serials() == ["old-a", "old-b"]
    assert _drive_state(store, "old-a") == (2, 2, 41)
    assert _drive_state(store, "old-b") == (0, 1, 41)
    assert store.drives_evicted == 4
    assert store.dump_state()["schema"] == 2
    store.record("old-a", np.zeros(2), AlertLevel.HEALTHY, hour=42)
    assert _drive_state(store, "old-a") == (0, 3, 42)
