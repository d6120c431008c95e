"""Unit tests for :mod:`repro.core.configurations` (Eq. 3)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configurations import (
    configuration_count_bound,
    enumerate_configurations,
)


class TestEnumeration:
    def test_paper_example(self):
        """§III lists exactly these configurations for sizes (6, 11), T=30."""
        cs = enumerate_configurations([6, 11], caps=[2, 3], target=30)
        assert set(cs.configs) == {
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1),
        }

    def test_zero_excluded_by_default(self):
        cs = enumerate_configurations([5], caps=[1], target=10)
        assert (0,) not in cs.configs

    def test_weights_match(self):
        cs = enumerate_configurations([6, 11], caps=[2, 3], target=30)
        for cfg, w in zip(cs.configs, cs.weights):
            assert w == 6 * cfg[0] + 11 * cfg[1]
            assert w <= 30

    def test_cap_respected(self):
        cs = enumerate_configurations([1], caps=[3], target=100)
        assert set(cs.configs) == {(1,), (2,), (3,)}

    def test_target_zero_only_zero_config(self):
        cs = enumerate_configurations([5], caps=[4], target=0)
        assert len(cs) == 0

    def test_fits(self):
        cs = enumerate_configurations([6, 11], caps=[2, 3], target=30)
        assert cs.fits((1, 2))
        assert not cs.fits((2, 2))

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            enumerate_configurations([0], caps=[1], target=5)

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            enumerate_configurations([2], caps=[-1], target=5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_configurations([2, 3], caps=[1], target=5)

    def test_deterministic_order(self):
        a = enumerate_configurations([3, 5], caps=[2, 2], target=10)
        b = enumerate_configurations([3, 5], caps=[2, 2], target=10)
        assert a.configs == b.configs


@given(
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=80)
def test_property_enumeration_complete_and_sound(sizes, caps, target):
    """Cross-check the DFS enumeration against brute-force iteration over
    the whole count box."""
    d = min(len(sizes), len(caps))
    sizes, caps = sizes[:d], caps[:d]
    cs = enumerate_configurations(sizes, caps, target)
    expected = {
        combo
        for combo in itertools.product(*(range(c + 1) for c in caps))
        if any(combo) and sum(s * x for s, x in zip(sizes, combo)) <= target
    }
    assert set(cs.configs) == expected


def test_count_bound_monotone():
    assert configuration_count_bound(4, 2) == 3**4
    assert configuration_count_bound(2, 5) <= configuration_count_bound(3, 5)
