"""Tests for repro.core.parallel (the blockwise worker pool)."""

from __future__ import annotations

import threading

import pytest

from repro.core.parallel import TypeWorkPool, resolve_n_jobs


class TestResolveNJobs:
    def test_positive_passthrough(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3

    def test_minus_one_uses_all_cpus(self):
        import os
        assert resolve_n_jobs(-1) == max(os.cpu_count() or 1, 1)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)


class TestTypeWorkPool:
    def test_serial_map_preserves_order(self):
        with TypeWorkPool(1) as pool:
            assert pool.map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]

    def test_threaded_map_preserves_order(self):
        with TypeWorkPool(3) as pool:
            assert pool.map(lambda x: x * x, range(8)) == [x * x
                                                           for x in range(8)]

    def test_threaded_map_runs_off_main_thread(self):
        seen = set()

        def record(_):
            seen.add(threading.current_thread().name)
            return None

        with TypeWorkPool(2) as pool:
            pool.map(record, range(8))
        assert any(name.startswith("rhchme-block") for name in seen)

    def test_exceptions_propagate(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("task failure")
            return x

        for n_jobs in (1, 2):
            with TypeWorkPool(n_jobs) as pool:
                with pytest.raises(RuntimeError, match="task failure"):
                    pool.map(boom, range(4))

    def test_close_is_idempotent(self):
        pool = TypeWorkPool(2)
        pool.close()
        pool.close()
        # A closed threaded pool falls back to the serial path.
        assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_single_item_skips_executor(self):
        with TypeWorkPool(4) as pool:
            thread_names = pool.map(
                lambda _: threading.current_thread().name, [0])
        assert thread_names[0] == threading.main_thread().name
