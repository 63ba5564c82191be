"""Unit tests for the explicit cache-aware machine (repro.extmem.machine)."""

import math

import pytest

from repro.analysis.model import MachineParams
from repro.exceptions import MemoryExceededError
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats


def make_machine(memory=64, block=8) -> Machine:
    return Machine(MachineParams(memory, block), IOStats())


class TestScan:
    def test_scan_charges_one_read_per_block(self):
        machine = make_machine(block=8)
        file = machine.file_from_records(list(range(50)))
        records = list(machine.scan(file))
        assert records == list(range(50))
        assert machine.stats.reads == math.ceil(50 / 8)
        assert machine.stats.writes == 0

    def test_scan_exact_block_multiple(self):
        machine = make_machine(block=8)
        file = machine.file_from_records(list(range(64)))
        list(machine.scan(file))
        assert machine.stats.reads == 8

    def test_scan_empty_file_costs_nothing(self):
        machine = make_machine()
        file = machine.empty_file()
        assert list(machine.scan(file)) == []
        assert machine.stats.total == 0

    def test_partial_scan_charges_only_touched_blocks(self):
        machine = make_machine(block=8)
        file = machine.file_from_records(list(range(80)))
        stream = machine.scan(file)
        for _ in range(10):
            next(stream)
        stream.close()
        assert machine.stats.reads == 2  # records 0..9 live in the first two blocks

    @pytest.mark.parametrize("memory, block", [(16, 8), (60, 8), (64, 16)])
    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 100])
    def test_scan_chunks_is_a_scan_in_runs_of_whole_blocks(self, memory, block, length):
        chunked = make_machine(memory, block)
        view = chunked.file_from_records(list(range(length + 3))).slice(3, length + 3)
        runs = list(chunked.scan_chunks(view))
        assert [r for run in runs for r in run] == list(range(3, length + 3))
        assert all(0 < len(run) <= memory for run in runs)
        assert all(len(run) % block == 0 for run in runs[:-1])
        by_block = make_machine(memory, block)
        list(by_block.scan_blocks(by_block.file_from_records(list(range(length)))))
        assert chunked.stats.snapshot() == by_block.stats.snapshot()

    def test_scan_slice_charges_by_slice_length(self):
        machine = make_machine(block=8)
        file = machine.file_from_records(list(range(100)))
        view = file.slice(10, 34)
        assert list(machine.scan(view)) == list(range(10, 34))
        assert machine.stats.reads == math.ceil(24 / 8)


class TestWriting:
    def test_write_file_charges_one_write_per_block(self):
        machine = make_machine(block=8)
        file = machine.write_file(list(range(20)))
        assert len(file) == 20
        assert machine.stats.writes == math.ceil(20 / 8)
        assert machine.stats.reads == 0

    def test_writer_flushes_partial_block_on_close(self):
        machine = make_machine(block=8)
        with machine.writer() as out:
            out.append("a")
        assert len(out.file) == 1
        assert machine.stats.writes == 1

    def test_writer_close_is_idempotent(self):
        machine = make_machine(block=8)
        writer = machine.writer()
        writer.append(1)
        writer.close()
        writer.close()
        assert machine.stats.writes == 1

    def test_input_files_charge_nothing(self):
        machine = make_machine()
        machine.file_from_records(list(range(1000)))
        assert machine.stats.total == 0

    def test_round_trip_preserves_records(self):
        machine = make_machine(block=4)
        original = [(i, i + 1) for i in range(33)]
        file = machine.write_file(original)
        assert list(machine.scan(file)) == original


class TestMemoryAccounting:
    def test_lease_within_capacity(self):
        machine = make_machine(memory=64)
        with machine.lease(60):
            assert machine.memory_in_use == 60
            assert machine.memory_available == 4
        assert machine.memory_in_use == 0

    def test_lease_over_capacity_raises(self):
        machine = make_machine(memory=64)
        with pytest.raises(MemoryExceededError):
            with machine.lease(65):
                pass

    def test_nested_leases_accumulate(self):
        machine = make_machine(memory=64)
        with machine.lease(40):
            with pytest.raises(MemoryExceededError):
                with machine.lease(30):
                    pass
            with machine.lease(20):
                assert machine.memory_in_use == 60

    def test_negative_lease_rejected(self):
        machine = make_machine()
        with pytest.raises(ValueError):
            with machine.lease(-1):
                pass

    def test_lease_released_on_exception(self):
        machine = make_machine(memory=64)
        with pytest.raises(RuntimeError):
            with machine.lease(40):
                raise RuntimeError("boom")
        assert machine.memory_in_use == 0

    def test_load_larger_than_memory_raises(self):
        machine = make_machine(memory=64)
        file = machine.file_from_records(list(range(100)))
        with pytest.raises(MemoryExceededError):
            machine.load(file, 0, 100)

    def test_load_charges_blocks_and_returns_records(self):
        machine = make_machine(memory=64, block=8)
        file = machine.file_from_records(list(range(100)))
        chunk = machine.load(file, 16, 32)
        assert chunk == list(range(16, 48))
        assert machine.stats.reads == 4


class TestPhases:
    def test_phase_attribution(self):
        machine = make_machine(block=8)
        file = machine.file_from_records(list(range(16)))
        with machine.phase("scanning"):
            list(machine.scan(file))
        assert machine.stats.phases["scanning"] == 2

    def test_blocks_helper(self):
        machine = make_machine(block=8)
        assert machine.blocks(0) == 0
        assert machine.blocks(1) == 1
        assert machine.blocks(8) == 1
        assert machine.blocks(9) == 2
