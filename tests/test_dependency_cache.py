"""Unit tests for the dependency partition (Definition 1) and the estimate cache."""

import pytest

from repro.core.cache import EstimateCache
from repro.core.dependency import (
    DependencyPartition,
    UnionFind,
    compute_dependency_partition,
    partition_for_constraint_set,
)
from repro.core.estimate import Estimate
from repro.lang.parser import parse_constraint_set, parse_path_condition


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind()
        uf.add("a")
        uf.add("b")
        assert uf.find("a") != uf.find("b")
        assert len(uf) == 2

    def test_union_merges(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.find("a") == uf.find("c")
        assert len(uf.groups()) == 1

    def test_groups_sorted_by_smallest_member(self):
        uf = UnionFind()
        uf.union("d", "c")
        uf.add("a")
        groups = uf.groups()
        assert groups[0] == frozenset({"a"})
        assert groups[1] == frozenset({"c", "d"})

    def test_find_implicitly_adds(self):
        uf = UnionFind()
        assert uf.find("x") == "x"
        assert "x" in uf


class TestDependencyPartition:
    def test_paper_example(self):
        """Section 4.4: altitude is independent of headFlap/tailFlap."""
        cs = parse_constraint_set("altitude > 9000 || altitude <= 9000 && sin(headFlap * tailFlap) > 0.25")
        partition = partition_for_constraint_set(cs)
        blocks = set(partition.blocks)
        assert frozenset({"altitude"}) in blocks
        assert frozenset({"headFlap", "tailFlap"}) in blocks

    def test_transitive_dependency(self):
        cs = parse_constraint_set("x + y <= 1 && y + z <= 1")
        partition = partition_for_constraint_set(cs)
        assert partition.depends("x", "z")
        assert len(partition) == 1

    def test_dependency_spans_path_conditions(self):
        """Dep is computed over all PCs, so coupling in one PC affects all."""
        cs = parse_constraint_set("x <= 1 && y <= 1 || x + y <= 1")
        partition = partition_for_constraint_set(cs)
        assert partition.depends("x", "y")

    def test_independent_variables_in_separate_blocks(self):
        cs = parse_constraint_set("x <= 1 && y >= 0 && z * z <= 4")
        partition = partition_for_constraint_set(cs)
        assert len(partition) == 3

    def test_extra_variables_become_singletons(self):
        partition = compute_dependency_partition([parse_path_condition("x <= 1")], extra_variables=["unused"])
        assert frozenset({"unused"}) in set(partition.blocks)

    def test_block_of_unknown_variable_is_singleton(self):
        partition = DependencyPartition((frozenset({"x"}),))
        assert partition.block_of("other") == frozenset({"other"})

    def test_reflexivity(self):
        partition = partition_for_constraint_set(parse_constraint_set("x <= 1"))
        assert partition.depends("x", "x")


class TestEstimateCache:
    def test_miss_then_hit(self):
        cache = EstimateCache()
        key = EstimateCache.key_for(parse_path_condition("x <= 1 && y >= 0"))
        assert cache.get(key) is None
        cache.put(key, Estimate(0.5, 0.01))
        assert cache.get(key) == Estimate(0.5, 0.01)
        assert cache.statistics.hits == 1
        assert cache.statistics.misses == 1

    def test_key_is_order_insensitive(self):
        assert EstimateCache.key_for(parse_path_condition("x <= 1 && y >= 0")) == EstimateCache.key_for(
            parse_path_condition("y >= 0 && x <= 1")
        )

    def test_key_uses_simplified_form(self):
        assert EstimateCache.key_for(parse_path_condition("x <= 2 * 3")) == EstimateCache.key_for(
            parse_path_condition("x <= 6")
        )

    def test_clear_resets_statistics(self):
        cache = EstimateCache()
        key = EstimateCache.key_for(parse_path_condition("x <= 1"))
        cache.put(key, Estimate(0.5, 0.0))
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.statistics.lookups == 0

    def test_hit_rate(self):
        cache = EstimateCache()
        key = EstimateCache.key_for(parse_path_condition("x <= 1"))
        cache.get(key)
        cache.put(key, Estimate(0.5, 0.0))
        cache.get(key)
        assert cache.statistics.hit_rate == pytest.approx(0.5)
