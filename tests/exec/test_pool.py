"""Contract tests for :mod:`repro.exec.pool`.

The load-bearing promise: ``map_deterministic(fn, units, jobs)`` is
``[fn(u) for u in units]`` for every ``jobs`` value — same elements,
same order — and worker failures surface as the repo's own typed
errors, never as raw pool internals.
"""

import os

import pytest

from repro.errors import (
    ExecutionError,
    InjectionError,
    ReproError,
    WorkerCrashError,
)
from repro.exec import chunk_units, map_deterministic, resolve_callable


def _square(x):
    return x * x


def _affine(pair):
    a, b = pair
    return 3 * a + b


def _raise_typed(x):
    raise InjectionError(f"unit {x} refused")


def _die(_x):
    os._exit(13)


class TestChunkUnits:
    def test_chunks_are_contiguous_and_cover(self):
        units = list(range(23))
        for jobs in (1, 2, 3, 7):
            chunks = chunk_units(units, jobs)
            flat = [u for chunk in chunks for u in chunk]
            assert flat == units

    def test_explicit_chunk_size(self):
        chunks = chunk_units(list(range(10)), jobs=2, chunk_size=4)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ExecutionError):
            chunk_units([1, 2, 3], jobs=2, chunk_size=0)

    def test_split_is_timing_independent(self):
        first = chunk_units(list(range(100)), jobs=5)
        second = chunk_units(list(range(100)), jobs=5)
        assert first == second


class TestMapDeterministic:
    def test_matches_comprehension_for_every_jobs_value(self):
        units = list(range(17))
        expected = [_square(u) for u in units]
        for jobs in (1, 2, 3, 8):
            assert map_deterministic(_square, units, jobs=jobs) == expected

    def test_order_preserved_with_tiny_chunks(self):
        units = [(i, i % 3) for i in range(12)]
        expected = [_affine(u) for u in units]
        got = map_deterministic(_affine, units, jobs=3, chunk_size=1)
        assert got == expected

    def test_empty_and_singleton_run_serially(self):
        assert map_deterministic(_square, [], jobs=4) == []
        assert map_deterministic(_square, [5], jobs=4) == [25]

    def test_typed_error_crosses_process_boundary(self):
        with pytest.raises(InjectionError, match="refused"):
            map_deterministic(_raise_typed, list(range(6)), jobs=2)

    def test_typed_error_raised_serially_too(self):
        with pytest.raises(InjectionError):
            map_deterministic(_raise_typed, [1], jobs=1)

    def test_worker_death_is_a_worker_crash_error(self):
        with pytest.raises(WorkerCrashError):
            map_deterministic(_die, list(range(8)), jobs=2)

    def test_worker_crash_error_is_a_repro_error(self):
        assert issubclass(WorkerCrashError, ExecutionError)
        assert issubclass(ExecutionError, ReproError)


class TestResolveCallable:
    def test_bad_reference_shapes(self):
        with pytest.raises(ExecutionError):
            resolve_callable("no-colon-here")
        with pytest.raises(ExecutionError):
            resolve_callable("not_a_module_xyz:fn")
        with pytest.raises(ExecutionError):
            resolve_callable("os:no_such_attr")
        with pytest.raises(ExecutionError):
            resolve_callable("os:sep")  # not callable
