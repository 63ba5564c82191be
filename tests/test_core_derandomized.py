"""Tests for the deterministic cache-aware algorithm (repro.core.derandomized)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import expected_colour_collisions
from repro.analysis.model import MachineParams
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.derandomized import (
    GreedyLevel,
    _round_up_to_power_of_two,
    deterministic_cache_aware,
    greedy_coloring,
)
from repro.core.emit import DedupCheckingSink
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.generators import clique, erdos_renyi_gnm
from repro.hashing.coloring import TableColoring
from repro.hashing.small_bias import SmallBiasFamily


def make_machine(memory=128, block=8):
    return Machine(MachineParams(memory, block), IOStats())


class TestHelpers:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (17, 32), (64, 64)],
    )
    def test_round_up_to_power_of_two(self, value, expected):
        assert _round_up_to_power_of_two(value) == expected


class TestGreedyColoring:
    def test_produces_requested_number_of_colors(self):
        edges = erdos_renyi_gnm(60, 250, seed=0).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        coloring, levels, family_size = greedy_coloring(
            machine, edge_file, num_colors=4, total_edges=len(edges), max_family_size=64
        )
        assert isinstance(coloring, TableColoring)
        assert coloring.num_colors == 4
        assert len(levels) == 2
        assert family_size == 64
        assert all(0 <= coloring.color_of(v) < 4 for v in range(60))

    def test_single_color_needs_no_levels(self):
        machine = make_machine()
        edge_file = machine.file_from_records([(0, 1)])
        coloring, levels, family_size = greedy_coloring(
            machine, edge_file, num_colors=1, total_edges=1
        )
        assert coloring.num_colors == 1
        assert levels == []
        assert family_size == 0

    def test_deterministic_across_runs(self):
        edges = erdos_renyi_gnm(50, 200, seed=1).degree_order().edges
        colorings = []
        for _ in range(2):
            machine = make_machine()
            edge_file = machine.file_from_records(edges)
            coloring, _, _ = greedy_coloring(
                machine, edge_file, num_colors=4, total_edges=len(edges), max_family_size=64
            )
            colorings.append([coloring.color_of(v) for v in range(50)])
        assert colorings[0] == colorings[1]

    def test_balance_guarantee_x_xi_below_e_times_em(self):
        """The greedy construction should certify X_xi <= e * E * M (Section 4)."""
        edges = erdos_renyi_gnm(100, 1200, seed=2).degree_order().edges
        machine = make_machine(memory=64, block=8)
        edge_file = machine.file_from_records(edges)
        num_colors = 4
        coloring, levels, _ = greedy_coloring(
            machine, edge_file, num_colors=num_colors, total_edges=len(edges), max_family_size=64
        )
        class_sizes: dict[tuple[int, int], int] = {}
        for u, v in edges:
            pair = (coloring.color_of(u), coloring.color_of(v))
            class_sizes[pair] = class_sizes.get(pair, 0) + 1
        x_xi = sum(size * (size - 1) // 2 for size in class_sizes.values())
        bound = math.e * expected_colour_collisions(len(edges), machine.memory_size)
        assert x_xi <= bound
        assert all(level.certified for level in levels)


def _dict_greedy_coloring(machine, low_degree_edges, num_colors, total_edges, max_family_size):
    """Frozen copy of the dict-based ``greedy_coloring`` it replaced (the oracle)."""
    levels_needed = int(math.log2(num_colors)) if num_colors > 1 else 0
    if levels_needed == 0:
        return TableColoring({}, 1), [], 0
    max_vertex = -1
    for block in machine.scan_blocks(low_degree_edges):
        machine.stats.charge_operations(len(block))
        block_max = max(max(u, v) for u, v in block)
        if block_max > max_vertex:
            max_vertex = block_max
    num_vertices = max_vertex + 1
    if num_vertices <= 0:
        return TableColoring({}, num_colors), [], 0

    family = SmallBiasFamily.with_size_at_most(max(16, max_family_size))
    gf = family.field
    bit_tables = []
    for x in gf.elements():
        powers = []
        power = x
        for _ in range(num_vertices):
            powers.append(power)
            power = gf.multiply(power, x)
        for y in gf.elements():
            bit_tables.append([bin(p & y).count("1") & 1 for p in powers])

    alpha = 1.0 / levels_needed
    budget_base = float(total_edges) * float(machine.memory_size)
    colors = {}
    diagnostics = []
    for level in range(1, levels_needed + 1):
        best_index = -1
        best_potential = math.inf
        scale_nonadj = (4.0**level) / float(num_colors) ** 2
        scale_adj = (2.0**level) / float(num_colors)
        class_sizes = [{} for _ in bit_tables]
        vertex_counts = [{} for _ in bit_tables]
        for block in machine.scan_blocks(low_degree_edges):
            machine.stats.charge_operations(len(block) * len(bit_tables))
            decorated = [(u, v, colors.get(u, 0), colors.get(v, 0)) for u, v in block]
            for index, table in enumerate(bit_tables):
                sizes = class_sizes[index]
                counts = vertex_counts[index]
                for u, v, cu, cv in decorated:
                    new_cu = 2 * cu + table[u]
                    new_cv = 2 * cv + table[v]
                    pair = (new_cu, new_cv)
                    sizes[pair] = sizes.get(pair, 0) + 1
                    key_u = (u, new_cu, new_cv)
                    key_v = (v, new_cu, new_cv)
                    counts[key_u] = counts.get(key_u, 0) + 1
                    counts[key_v] = counts.get(key_v, 0) + 1
        for index in range(len(bit_tables)):
            x_total = sum(size * (size - 1) // 2 for size in class_sizes[index].values())
            x_adj = sum(count * (count - 1) // 2 for count in vertex_counts[index].values())
            x_nonadj = x_total - x_adj
            potential = scale_nonadj * x_nonadj + scale_adj * x_adj
            if potential < best_potential:
                best_potential = potential
                best_index = index
        budget = ((1.0 + alpha) ** level) * budget_base
        diagnostics.append(
            GreedyLevel(level, best_index, best_potential, budget, best_potential <= budget)
        )
        chosen_table = bit_tables[best_index]
        for vertex in range(num_vertices):
            colors[vertex] = 2 * colors.get(vertex, 0) + chosen_table[vertex]
    return TableColoring(colors, num_colors), diagnostics, family.size


#: Canonical-looking low-degree edge sets (``u < v``, no duplicates), possibly
#: empty; ``stride`` and ``offset`` spread the ids so the universe has gaps.
low_degree_edge_sets = st.builds(
    lambda pairs, stride, offset: sorted(
        {(offset + stride * min(u, v), offset + stride * max(u, v)) for u, v in pairs if u != v}
    ),
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60),
    st.sampled_from([1, 2, 5]),
    st.integers(0, 20),
)


class TestGreedyColoringMatchesDictOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        edges=low_degree_edge_sets,
        num_colors=st.sampled_from([2, 4, 8]),
        max_family_size=st.sampled_from([16, 64, 256]),
        machine_shape=st.sampled_from([(32, 4), (64, 8), (128, 8)]),
    )
    def test_property_identical_to_dict_oracle(
        self, edges, num_colors, max_family_size, machine_shape
    ):
        outcomes = []
        for build in (greedy_coloring, _dict_greedy_coloring):
            machine = make_machine(*machine_shape)
            edge_file = machine.file_from_records(edges)
            with machine.phase("greedy-coloring"):
                coloring, levels, family_size = build(
                    machine, edge_file, num_colors, len(edges) + 1, max_family_size
                )
            outcomes.append(
                (coloring.num_colors, coloring._table, levels, family_size, machine.stats)
            )
        assert outcomes[0] == outcomes[1]

    def test_single_edge_and_empty_edge_set(self):
        for edges in ([(3, 9)], []):
            outcomes = []
            for build in (greedy_coloring, _dict_greedy_coloring):
                machine = make_machine()
                edge_file = machine.file_from_records(edges)
                coloring, levels, family_size = build(machine, edge_file, 4, 10, 64)
                outcomes.append((coloring._table, levels, family_size, machine.stats))
            assert outcomes[0] == outcomes[1]


class TestFullAlgorithm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle_on_random_graphs(self, seed):
        graph = erdos_renyi_gnm(60, 260, seed=seed)
        edges = graph.degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        report = deterministic_cache_aware(machine, edge_file, sink, max_family_size=64)
        assert sink.as_set() == set(triangles_in_memory(edges))
        assert report.triangles_emitted == sink.count

    def test_matches_oracle_on_clique(self):
        edges = clique(14).degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        deterministic_cache_aware(machine, edge_file, sink, max_family_size=64)
        assert sink.count == math.comb(14, 3)

    def test_is_fully_deterministic(self):
        """Two runs on the same input must produce identical I/O counts and
        identical reports -- there is no randomness left."""
        edges = erdos_renyi_gnm(70, 400, seed=5).degree_order().edges
        outcomes = []
        for _ in range(2):
            machine = make_machine(memory=64)
            edge_file = machine.file_from_records(edges)
            sink = DedupCheckingSink()
            report = deterministic_cache_aware(machine, edge_file, sink, max_family_size=64)
            outcomes.append((machine.stats.total, sink.as_set(), report.partition_sizes))
        assert outcomes[0] == outcomes[1]

    def test_number_of_colors_is_a_power_of_two(self):
        edges = erdos_renyi_gnm(80, 600, seed=3).degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        report = deterministic_cache_aware(
            machine, edge_file, DedupCheckingSink(), max_family_size=64
        )
        assert report.num_colors & (report.num_colors - 1) == 0

    def test_empty_graph(self):
        machine = make_machine()
        report = deterministic_cache_aware(machine, machine.empty_file(), DedupCheckingSink())
        assert report.triangles_emitted == 0

    def test_report_certification_flag(self):
        edges = erdos_renyi_gnm(60, 300, seed=9).degree_order().edges
        machine = make_machine(memory=64)
        edge_file = machine.file_from_records(edges)
        report = deterministic_cache_aware(
            machine, edge_file, DedupCheckingSink(), max_family_size=64
        )
        assert isinstance(report.certified, bool)
        assert report.family_size in (0, 64)
