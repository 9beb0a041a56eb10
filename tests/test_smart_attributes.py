"""Tests for the Table I attribute registry."""

import pytest

from repro.errors import UnknownAttributeError
from repro.smart.attributes import (
    ATTRIBUTE_REGISTRY,
    CHARACTERIZATION_ATTRIBUTES,
    ENVIRONMENTAL_ATTRIBUTES,
    READ_WRITE_ATTRIBUTES,
    AttributeKind,
    ValueForm,
    attribute_index,
)


def test_registry_has_twelve_attributes():
    assert len(ATTRIBUTE_REGISTRY) == 12
    assert len(CHARACTERIZATION_ATTRIBUTES) == 12


def test_ten_read_write_and_two_environmental():
    assert len(READ_WRITE_ATTRIBUTES) == 10
    assert ENVIRONMENTAL_ATTRIBUTES == ("POH", "TC")


def test_first_ten_are_read_write_last_two_environmental():
    kinds = [spec.kind for spec in ATTRIBUTE_REGISTRY]
    assert kinds[:10] == [AttributeKind.READ_WRITE] * 10
    assert kinds[10:] == [AttributeKind.ENVIRONMENTAL] * 2


def test_table_one_symbols_in_published_order():
    assert CHARACTERIZATION_ATTRIBUTES == (
        "RRER", "RSC", "SER", "RUE", "HFW", "HER", "CPSC", "SUT",
        "R-RSC", "R-CPSC", "POH", "TC",
    )


def spec_of(symbol):
    return ATTRIBUTE_REGISTRY[attribute_index(symbol)]


def test_raw_attributes_pair_with_health_counterparts():
    assert spec_of("R-RSC").smart_id == spec_of("RSC").smart_id
    assert spec_of("R-CPSC").smart_id == spec_of("CPSC").smart_id
    assert spec_of("R-RSC").form is ValueForm.RAW
    assert spec_of("RSC").form is ValueForm.HEALTH


def test_symbols_are_unique():
    symbols = [spec.symbol for spec in ATTRIBUTE_REGISTRY]
    assert len(symbols) == len(set(symbols))


def test_attribute_index_matches_registry_order():
    for index, spec in enumerate(ATTRIBUTE_REGISTRY):
        assert attribute_index(spec.symbol) == index


def test_attribute_index_unknown_symbol_raises():
    with pytest.raises(UnknownAttributeError):
        attribute_index("BOGUS")


def test_raw_ranges_are_sane():
    for spec in ATTRIBUTE_REGISTRY:
        assert spec.raw_min < spec.raw_max


def test_is_read_write_property():
    assert spec_of("RRER").is_read_write
    assert not spec_of("TC").is_read_write
    assert spec_of("TC").is_environmental
