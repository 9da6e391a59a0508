"""Tests for the Figure 15 replacement-policy factory and capacity helper.

The cache itself is :class:`~repro.system.residency.ExpertResidency`; its
victim choice and capacity bound are tested in ``test_residency.py`` and
fuzzed against the reference map in ``test_residency_oracle.py``.
"""

import pytest

from repro.system.cache import (
    LFUPolicy,
    LIFOPolicy,
    LRUPolicy,
    cache_capacity_from_fraction,
    make_policy,
)


class TestPolicyFactory:
    @pytest.mark.parametrize("name,cls", [("lifo", LIFOPolicy), ("lru", LRUPolicy),
                                          ("lfu", LFUPolicy)])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)
        assert isinstance(make_policy(name.upper()), cls)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("random")


class TestCapacityHelper:
    def test_fraction_of_total_experts(self):
        # Switch-Large: 24 MoE blocks x 128 experts, 10% => ~307 experts.
        assert cache_capacity_from_fraction(24, 128, 0.10) == 307
        assert cache_capacity_from_fraction(24, 128, 0.0) == 0
        assert cache_capacity_from_fraction(24, 128, 1.0) == 24 * 128

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            cache_capacity_from_fraction(4, 8, 1.5)
