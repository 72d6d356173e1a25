"""Utility modules: timing, stats, bit helpers, table formatting."""

import time

import pytest

from repro.utils.bitops import bits_to_int, gray_code, int_to_bits
from repro.utils.stats import StatsRecorder
from repro.utils.tables import format_table
from repro.utils.timing import Stopwatch


class TestBitops:
    def test_round_trip(self):
        for value in (0, 1, 6, 255):
            assert bits_to_int(int_to_bits(value, 8)) == value

    def test_big_endian(self):
        assert int_to_bits(6, 4) == [0, 1, 1, 0]

    def test_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_bad_bit(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2])

    def test_gray_code_adjacent_differ_by_one_bit(self):
        code = gray_code(4)
        assert len(set(code)) == 16
        for a, b in zip(code, code[1:]):
            assert bin(a ^ b).count("1") == 1


class TestStopwatch:
    def test_measures_time(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.005

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch().start()
        sw.stop()
        sw.reset()
        assert sw.elapsed == 0.0


class TestStatsRecorder:
    def test_observe_nodes(self):
        stats = StatsRecorder()
        stats.observe_nodes(5)
        stats.observe_nodes(3)
        assert stats.max_nodes == 5

    def test_merge(self):
        a = StatsRecorder(max_nodes=3, contractions=1)
        b = StatsRecorder(max_nodes=7, contractions=2)
        a.merge(b)
        assert a.max_nodes == 7
        assert a.contractions == 3

    def test_as_dict(self):
        stats = StatsRecorder(max_nodes=4)
        stats.extra["blocks"] = 6
        data = stats.as_dict()
        assert data["max_nodes"] == 4
        assert data["blocks"] == 6

    def test_join_counters_merge_and_export(self):
        a = StatsRecorder(join_offered=5, join_rejected=3)
        a.merge(StatsRecorder(join_offered=4, join_rejected=4))
        data = a.as_dict()
        assert (data["join_offered"], data["join_rejected"]) == (9, 7)

    def test_join_counters_stay_out_of_the_sweep_csv(self):
        from repro.bench.sweep import CSV_COLUMNS
        assert "join_offered" not in CSV_COLUMNS
        assert "join_rejected" not in CSV_COLUMNS


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "b"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_float_formatting(self):
        text = format_table(["t"], [[1.23456]])
        assert "1.23" in text
