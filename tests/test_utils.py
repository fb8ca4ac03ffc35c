"""Tests for validation and timing utilities."""

import time

import numpy as np
import pytest

from repro.utils import (
    Stopwatch,
    as_1d_array,
    check_dense_vector,
    check_dtype,
    check_index_array,
    check_nonnegative_int,
    check_positive_int,
    check_shape,
    flops_per_spmv,
    gflops,
)


class TestValidation:
    def test_positive_int(self):
        assert check_positive_int(3, "x") == 3
        assert check_positive_int(np.int64(7), "x") == 7

    def test_positive_int_rejects(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_nonnegative_int(self):
        assert check_nonnegative_int(0, "x") == 0
        with pytest.raises(ValueError):
            check_nonnegative_int(-1, "x")

    def test_check_dtype(self):
        assert check_dtype(np.float32) == np.dtype(np.float32)
        assert check_dtype("float64") == np.dtype(np.float64)
        with pytest.raises(ValueError, match="SP/DP"):
            check_dtype(np.int32)

    def test_as_1d(self):
        arr = as_1d_array([1, 2, 3])
        assert arr.shape == (3,)
        with pytest.raises(ValueError, match="1-D"):
            as_1d_array([[1], [2]])

    def test_index_array_bounds(self):
        arr = check_index_array(np.array([0, 4]), 5)
        assert arr.dtype == np.int64
        with pytest.raises(ValueError, match="range"):
            check_index_array(np.array([5]), 5)
        with pytest.raises(ValueError, match="range"):
            check_index_array(np.array([-1]), 5)

    def test_index_array_type(self):
        with pytest.raises(TypeError, match="integer"):
            check_index_array(np.array([1.5]), 5)

    def test_check_shape(self):
        assert check_shape((3, 4)) == (3, 4)
        with pytest.raises(ValueError):
            check_shape((3,))
        with pytest.raises(ValueError):
            check_shape((0, 4))

    def test_dense_vector(self):
        v = check_dense_vector([1, 2], 2, dtype=np.float64)
        assert v.dtype == np.float64
        with pytest.raises(ValueError, match="length"):
            check_dense_vector([1, 2], 3)


class TestTiming:
    def test_flops(self):
        assert flops_per_spmv(100) == 200
        with pytest.raises(ValueError):
            flops_per_spmv(-1)

    def test_gflops(self):
        assert gflops(500_000_000, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            gflops(10, 0.0)

    def test_stopwatch(self):
        sw = Stopwatch()
        sw.start()
        time.sleep(0.005)
        lap = sw.stop()
        assert lap >= 0.004
        assert sw.total == pytest.approx(sum(sw.laps))
        assert sw.mean == pytest.approx(sw.total / len(sw.laps))
        assert sw.best <= sw.mean + 1e-12

    def test_stopwatch_misuse(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            sw.stop()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()
        sw.stop()
        empty = Stopwatch()
        with pytest.raises(RuntimeError):
            _ = empty.mean
        with pytest.raises(RuntimeError):
            _ = empty.best

    def test_stopwatch_lap_context_manager(self):
        sw = Stopwatch()
        with sw.lap():
            time.sleep(0.002)
        with sw.lap():
            pass
        assert len(sw.laps) == 2
        assert sw.laps[0] >= 0.001
        # misuse is still caught inside the context manager
        sw.start()
        with pytest.raises(RuntimeError):
            with sw.lap():
                pass
        sw.stop()

    def test_stopwatch_record_returns_value(self):
        sw = Stopwatch()
        result = sw.record(sum, range(10))
        assert result == 45
        assert len(sw.laps) == 1

    def test_stopwatch_record_propagates_exception_but_laps(self):
        sw = Stopwatch()

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sw.record(boom)
        assert len(sw.laps) == 1  # the failed lap is still timed
        assert sw._start is None  # and the watch is reusable

    def test_stopwatch_measure_median_and_iqr(self):
        calls = []
        sw = Stopwatch.measure(lambda: calls.append(1), reps=5)
        assert len(calls) == 6  # one untimed warm-up, then five laps
        assert len(sw.laps) == 5
        sw.laps[:] = [4.0, 1.0, 3.0, 2.0, 5.0]
        assert sw.median == 3.0
        assert sw.iqr == pytest.approx(2.0)  # inclusive quartiles 2 and 4
        sw.laps[:] = [7.0]
        assert sw.median == 7.0 and sw.iqr == 0.0
        with pytest.raises(RuntimeError):
            _ = Stopwatch().median
