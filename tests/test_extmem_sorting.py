"""Unit and property tests for the external merge sort (repro.extmem.sorting)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import sort_io
from repro.analysis.model import MachineParams
from repro.extmem.machine import Machine
from repro.extmem.sorting import merge_fan_in
from repro.extmem.stats import IOStats


def make_machine(memory=64, block=8) -> Machine:
    return Machine(MachineParams(memory, block), IOStats())


class TestCorrectness:
    def test_sorts_small_input_in_memory(self):
        machine = make_machine(memory=64)
        file = machine.file_from_records([5, 3, 9, 1])
        result = machine.sort(file)
        assert list(machine.scan(result)) == [1, 3, 5, 9]

    def test_sorts_input_larger_than_memory(self):
        machine = make_machine(memory=64, block=8)
        data = [random.Random(0).randrange(10_000) for _ in range(1000)]
        file = machine.file_from_records(data)
        result = machine.sort(file)
        assert list(machine.scan(result)) == sorted(data)

    def test_sort_with_key(self):
        machine = make_machine()
        pairs = [(3, "c"), (1, "a"), (2, "b")]
        file = machine.file_from_records(pairs)
        result = machine.sort(file, key=lambda record: record[0])
        assert list(machine.scan(result)) == [(1, "a"), (2, "b"), (3, "c")]

    def test_sort_is_stable_for_equal_keys(self):
        machine = make_machine(memory=64, block=8)
        pairs = [(i % 3, i) for i in range(300)]
        file = machine.file_from_records(pairs)
        result = machine.sort(file, key=lambda record: record[0])
        sorted_pairs = list(machine.scan(result))
        for key in range(3):
            group = [second for first, second in sorted_pairs if first == key]
            assert group == sorted(group)

    def test_sort_empty_file(self):
        machine = make_machine()
        file = machine.empty_file()
        result = machine.sort(file)
        assert len(result) == 0

    def test_sort_respects_requested_name(self):
        machine = make_machine(memory=16, block=4)
        file = machine.file_from_records(list(range(100, 0, -1)))
        result = machine.sort(file, name="sorted-output")
        assert result.name == "sorted-output"
        assert list(machine.scan(result)) == list(range(1, 101))

    def test_intermediate_runs_are_deleted(self):
        machine = make_machine(memory=16, block=4)
        file = machine.file_from_records(list(range(200, 0, -1)))
        result = machine.sort(file)
        live = set(machine.disk.files)
        assert result.name in live
        # Only the input and the output should remain on disk.
        assert len(live) == 2

    def test_sort_slice(self):
        machine = make_machine(memory=16, block=4)
        file = machine.file_from_records([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        result = machine.sort(file.slice(2, 8))
        assert list(machine.scan(result)) == [2, 3, 4, 5, 6, 7]


class TestIOCounts:
    def test_in_memory_sort_costs_one_read_and_write_pass(self):
        machine = make_machine(memory=64, block=8)
        file = machine.file_from_records(list(range(64, 0, -1)))
        machine.sort(file)
        assert machine.stats.reads == 8
        assert machine.stats.writes == 8

    def test_external_sort_io_close_to_model(self):
        memory, block = 64, 8
        n = 4096
        machine = make_machine(memory=memory, block=block)
        data = [random.Random(1).randrange(10**6) for _ in range(n)]
        file = machine.file_from_records(data)
        machine.sort(file)
        predicted = sort_io(n, MachineParams(memory, block))
        # The operational sort should be within a small constant of the
        # closed-form sort(n) expression (it pays reads+writes per pass).
        assert machine.stats.total <= 6 * predicted
        assert machine.stats.total >= predicted

    def test_merge_fan_in_bounds(self):
        assert merge_fan_in(64, 8) == 7
        assert merge_fan_in(16, 8) == 2
        assert merge_fan_in(8, 8) == 2


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=300),
    memory_blocks=st.integers(min_value=2, max_value=8),
    block=st.sampled_from([2, 4, 8]),
)
def test_property_external_sort_matches_sorted(data, memory_blocks, block):
    """Property: the external sort agrees with Python's sorted() for any input."""
    machine = Machine(MachineParams(memory_blocks * block, block), IOStats())
    file = machine.file_from_records(data)
    result = machine.sort(file)
    assert list(machine.scan(result)) == sorted(data)
