"""Pool lifecycle, grid execution and shared-memory tests for ``repro.engine``.

The contracts under test:

* an :class:`EnginePool` forks once and serves many ``run_batch``/``run_grid``
  calls, each bit-for-bit identical to a fresh serial run;
* a failing cell aborts only itself — the pool survives and later calls
  still work;
* context exit shuts the workers down;
* nested engine use inside a pool worker degrades to the serial path;
* the closure codec ships lambdas/closures to persistent workers faithfully
  (and falls back to in-process execution when it cannot);
* :class:`SharedArray` hands datasets to workers by segment name, preserving
  values exactly.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.engine import (
    EnginePool,
    GridCell,
    SharedArray,
    as_shared,
    run_batch,
    run_grid,
    unlink_all,
)
from repro.engine._closures import CallableTransferError, decode_callable, encode_callable
from repro.exceptions import DomainError, EngineError, MechanismError

ENGINE_WORKERS = int(os.environ.get("REPRO_ENGINE_WORKERS", "3"))


def _noisy_trial(index, generator):
    return float(generator.normal()) + 1000.0 * index


def _failing_cell_fn(index, generator):
    raise MechanismError(f"cell trial {index} failed")


def _second_release_faults(index, generator):
    """Minor page faults of the second of two quantile releases at n=100k."""
    import resource

    from repro.core.quantiles import estimate_quantiles
    from repro.dataview import DatasetView

    data = np.random.default_rng(7).normal(250.0, 40.0, size=100_000)
    view = DatasetView(data).precompute(("sorted", "sorted_abs"))
    estimate_quantiles(view, [0.1, 0.5, 0.9], 1.0, 0.1, 1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimate_quantiles(view, [0.1, 0.5, 0.9], 1.0, 0.1, 2)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


class TestPoolLifecycle:
    def test_pool_is_lazy_until_first_parallel_call(self):
        with EnginePool(ENGINE_WORKERS) as pool:
            assert pool.alive_workers == 0
            run_batch(_noisy_trial, 6, rng=1, pool=pool)
            assert pool.alive_workers == ENGINE_WORKERS

    def test_reuse_across_many_calls_matches_fresh_serial_runs(self):
        """>= 3 batch/grid calls on one pool == fresh serial runs, bit for bit."""
        with EnginePool(ENGINE_WORKERS) as pool:
            outcomes = [
                run_batch(_noisy_trial, 11, rng=101, pool=pool),
                run_batch(_noisy_trial, 7, rng=202, pool=pool),
                run_batch(lambda i, g: float(g.uniform()), 9, rng=303, pool=pool),
                run_grid(
                    [GridCell(_noisy_trial, 5, rng=404, key="a"),
                     GridCell(_noisy_trial, 6, rng=505, key="b")],
                    pool=pool,
                ),
            ]
            workers_forked = pool.alive_workers
        serial = [
            run_batch(_noisy_trial, 11, rng=101),
            run_batch(_noisy_trial, 7, rng=202),
            run_batch(lambda i, g: float(g.uniform()), 9, rng=303),
            run_grid(
                [GridCell(_noisy_trial, 5, rng=404, key="a"),
                 GridCell(_noisy_trial, 6, rng=505, key="b")],
                workers=1,
            ),
        ]
        assert workers_forked == ENGINE_WORKERS  # forked once, never re-forked
        for pooled, reference in zip(outcomes[:3], serial[:3]):
            assert pooled.results == reference.results
            assert pooled.indices == reference.indices
        for pooled_batch, serial_batch in zip(outcomes[3].batches, serial[3].batches):
            assert pooled_batch.results == serial_batch.results

    def test_pool_survives_a_failing_cell(self):
        with EnginePool(ENGINE_WORKERS) as pool:
            with pytest.raises(MechanismError):
                run_batch(_failing_cell_fn, 4, rng=0, pool=pool)
            # Same pool, next call: still correct.
            after = run_batch(_noisy_trial, 8, rng=42, pool=pool)
            assert after.results == run_batch(_noisy_trial, 8, rng=42).results

            grid = run_grid(
                [
                    GridCell(_noisy_trial, 4, rng=1, key="ok-before"),
                    GridCell(_failing_cell_fn, 4, rng=2, key="bad"),
                    GridCell(_noisy_trial, 4, rng=3, key="ok-after"),
                ],
                pool=pool,
                allow_cell_failures=True,
            )
            assert grid.n_failures == 1
            assert grid.failures[0].key == "bad"
            assert grid.failures[0].error == "MechanismError"
            assert grid.by_key("ok-before").results == run_batch(_noisy_trial, 4, rng=1).results
            assert grid.by_key("ok-after").results == run_batch(_noisy_trial, 4, rng=3).results
            with pytest.raises(DomainError):
                grid.by_key("bad")

    def test_clean_shutdown_on_context_exit(self):
        with EnginePool(ENGINE_WORKERS) as pool:
            run_batch(_noisy_trial, 4, rng=0, pool=pool)
            processes = [handle.process for handle in pool._handles]
            assert all(process.is_alive() for process in processes)
        assert pool.closed
        assert all(not process.is_alive() for process in processes)
        with pytest.raises(EngineError):
            run_batch(_noisy_trial, 4, rng=0, pool=pool)

    def test_close_is_idempotent_and_unused_pool_closes(self):
        pool = EnginePool(2)
        pool.close()
        pool.close()
        assert pool.closed

    def test_workers_one_pool_never_forks(self):
        with EnginePool(1) as pool:
            batch = run_batch(_noisy_trial, 6, rng=5, pool=pool)
            assert batch.workers == 1
            assert pool.alive_workers == 0

    def test_nested_use_degrades_to_serial(self):
        """A trial that itself calls run_batch/run_grid works and stays serial."""

        def outer(index, generator):
            inner = run_batch(_noisy_trial, 3, rng=7, workers=4)
            grid = run_grid([GridCell(_noisy_trial, 3, rng=8)], workers=4)
            return (
                sum(inner.results) + sum(grid.batches[0].results),
                inner.workers,
                grid.workers,
                mp.current_process().daemon,
            )

        with EnginePool(2) as pool:
            pooled = run_batch(outer, 4, rng=3, pool=pool)
        serial = run_batch(outer, 4, rng=3)
        assert [entry[0] for entry in pooled.results] == [
            entry[0] for entry in serial.results
        ]
        # Inside a daemonic pool worker both nested calls ran serially.
        assert all(entry[1] == 1 and entry[2] == 1 and entry[3] for entry in pooled.results)

    def test_convenience_methods(self):
        with EnginePool(2) as pool:
            batch = pool.run_batch(_noisy_trial, 5, rng=1)
            grid = pool.run_grid([GridCell(_noisy_trial, 5, rng=1)])
        assert batch.results == grid.batches[0].results

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(DomainError):
            EnginePool(0)

    def test_function_payloads_released_after_each_call(self):
        """A long-lived pool must not accumulate every trial fn it served."""
        with EnginePool(2) as pool:
            for seed in range(5):
                run_batch(_noisy_trial, 8, rng=seed, pool=pool)
                # Parent-side bookkeeping mirrors the worker caches: after a
                # call completes, its tokens are dropped everywhere.
                assert all(not handle.sent_tokens for handle in pool._handles)
            final = run_batch(_noisy_trial, 8, rng=0, pool=pool)
        assert final.results == run_batch(_noisy_trial, 8, rng=0).results

    def test_interrupted_dispatch_fences_the_pool(self, monkeypatch):
        """An exception escaping the dispatch loop closes the pool: a retry
        must raise EngineError instead of reading the stale in-flight
        results of the aborted call (which would be misattributed by span id)."""
        from repro.engine import pool as pool_module

        with EnginePool(2) as pool:
            run_batch(_noisy_trial, 4, rng=1, pool=pool)  # fork the workers

            def interrupted_wait(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(pool_module, "wait", interrupted_wait)
            with pytest.raises(KeyboardInterrupt):
                run_batch(_noisy_trial, 8, rng=2, pool=pool)
            monkeypatch.undo()
            assert pool.closed
            with pytest.raises(EngineError):
                run_batch(_noisy_trial, 4, rng=3, pool=pool)

    def test_interrupt_is_not_captured_as_cell_failure(self):
        def interrupting(index, generator):
            if index == 2:
                raise KeyboardInterrupt
            return float(index)

        with pytest.raises(KeyboardInterrupt):
            run_grid(
                [GridCell(interrupting, 5, rng=1, key="cell")],
                workers=2,
                allow_cell_failures=True,
            )


class TestWorkerHeap:
    @pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
    def test_second_release_does_not_fault_its_temporaries_in(self):
        """Workers keep freed memory resident between releases.

        Measured on a 2-core Linux host: the second release faulted in
        31,069-34,004 pages when glibc returned every large temporary to
        the kernel on free, and 0-7 pages with the worker heap retained.
        """
        with EnginePool(2) as pool:
            if not pool.parallel:
                pytest.skip("needs forked pool workers")
            faults = run_batch(
                _second_release_faults, 2, rng=0, pool=pool, chunk_size=1
            ).results
        assert max(faults) < 1_000, faults


class TestGridDeterminism:
    def _cells(self):
        return [
            GridCell(_noisy_trial, 7, rng=11, key=("n", 100)),
            GridCell(lambda i, g: float(g.uniform()), 13, rng=22, key=("n", 200)),
            GridCell(_noisy_trial, 1, rng=33, key=("n", 300)),
            GridCell(_noisy_trial, 0, rng=44, key=("n", 400)),
        ]

    def test_grid_results_invariant_to_workers_and_chunking(self):
        reference = run_grid(self._cells(), workers=1)
        for workers in (2, ENGINE_WORKERS):
            parallel = run_grid(self._cells(), workers=workers)
            for got, expected in zip(parallel.batches, reference.batches):
                assert got.results == expected.results
                assert got.indices == expected.indices
        chunked = run_grid(
            [GridCell(c.trial_fn, c.trials, c.rng, key=c.key, chunk_size=1)
             for c in self._cells()],
            workers=2,
        )
        for got, expected in zip(chunked.batches, reference.batches):
            assert got.results == expected.results

    def test_grid_cells_match_individual_run_batch(self):
        grid = run_grid(self._cells(), workers=ENGINE_WORKERS)
        for cell, batch in zip(self._cells(), grid.batches):
            solo = run_batch(cell.trial_fn, cell.trials, cell.rng)
            assert batch.results == solo.results

    def test_failure_in_one_cell_does_not_shift_other_cells(self):
        clean = run_grid(self._cells(), workers=1)
        with_failure = run_grid(
            self._cells()[:2]
            + [GridCell(_failing_cell_fn, 5, rng=99, key="bad")]
            + self._cells()[2:],
            workers=ENGINE_WORKERS,
            allow_cell_failures=True,
        )
        assert with_failure.n_failures == 1
        surviving = [b for b in with_failure.batches if b is not None]
        for got, expected in zip(surviving, clean.batches):
            assert got.results == expected.results

    def test_cell_failure_propagates_by_default(self):
        with pytest.raises(MechanismError):
            run_grid(
                [GridCell(_noisy_trial, 4, rng=1),
                 GridCell(_failing_cell_fn, 4, rng=2)],
                workers=2,
            )

    def test_per_cell_allow_failures_capture(self):
        def flaky(index, generator):
            if index % 2 == 0:
                raise MechanismError(f"boom {index}")
            return float(generator.normal())

        grid = run_grid(
            [GridCell(flaky, 6, rng=1, key="flaky", allow_failures=True),
             GridCell(_noisy_trial, 4, rng=2, key="solid")],
            workers=ENGINE_WORKERS,
        )
        flaky_batch = grid.by_key("flaky")
        assert flaky_batch.n_failures == 3
        assert [f.index for f in flaky_batch.failures] == [0, 2, 4]
        reference = run_batch(flaky, 6, rng=1, allow_failures=True)
        assert flaky_batch.results == reference.results
        assert flaky_batch.failures == reference.failures

    def test_empty_grid(self):
        grid = run_grid([], workers=2)
        assert len(grid) == 0
        assert grid.n_failures == 0

    def test_unknown_key_rejected(self):
        grid = run_grid([GridCell(_noisy_trial, 2, rng=1, key="a")])
        with pytest.raises(DomainError):
            grid.by_key("zzz")

    def test_invalid_cells_rejected(self):
        with pytest.raises(DomainError):
            run_grid([GridCell(_noisy_trial, -1, rng=1)])
        with pytest.raises(DomainError):
            run_grid([GridCell(_noisy_trial, 2, rng=1, chunk_size=0)])
        with pytest.raises(DomainError):
            run_grid([GridCell(_noisy_trial, 2, rng=1)], workers=0)


class TestClosureCodec:
    def test_module_function_roundtrip(self):
        decoded = decode_callable(encode_callable(_noisy_trial))
        gen = np.random.default_rng(0)
        gen2 = np.random.default_rng(0)
        assert decoded(3, gen) == _noisy_trial(3, gen2)

    def test_lambda_with_closure_roundtrip(self):
        data = np.arange(10.0)
        offset = 5.0
        fn = lambda i, g: float(data.sum()) + offset + i  # noqa: E731
        decoded = decode_callable(encode_callable(fn))
        assert decoded(2, None) == fn(2, None)

    def test_nested_local_function_roundtrip(self):
        def make(scale):
            def inner(x):
                return x * scale

            def outer(i, g):
                return inner(i) + 1.0

            return outer

        fn = make(3.0)
        decoded = decode_callable(encode_callable(fn))
        assert decoded(4, None) == fn(4, None)

    def test_kwonly_defaults_roundtrip(self):
        def fn(i, g, *, bias=2.5):
            return i + bias

        decoded = decode_callable(encode_callable(fn))
        assert decoded(1, None) == 3.5

    def test_untransferable_callable_raises(self):
        handle = open(os.devnull)  # file objects cannot cross the pipe
        try:
            fn = lambda i, g: handle.fileno()  # noqa: E731
            with pytest.raises(CallableTransferError):
                encode_callable(fn)
        finally:
            handle.close()

    def test_untransferable_trial_fn_falls_back_in_process(self):
        """A closure the codec rejects still runs — serially in the parent."""
        handle = open(os.devnull)
        try:
            fn = lambda i, g: float(g.normal()) + (handle.fileno() * 0)  # noqa: E731
            with EnginePool(2) as pool:
                pooled = run_batch(fn, 6, rng=9, pool=pool)
            serial = run_batch(lambda i, g: float(g.normal()), 6, rng=9)
            assert pooled.results == serial.results
        finally:
            handle.close()

    def test_not_callable_rejected(self):
        with pytest.raises(CallableTransferError):
            encode_callable(42)


class TestSharedMemory:
    def test_roundtrip_values_and_zero_copy_metadata(self):
        source = np.random.default_rng(1).normal(size=(50, 3))
        with as_shared(source) as shared:
            assert shared.shape == (50, 3)
            assert shared.size == 150
            assert shared.owner
            np.testing.assert_array_equal(np.asarray(shared), source)
            import pickle

            clone = pickle.loads(pickle.dumps(shared))
            assert not clone.owner
            assert clone.name == shared.name
            np.testing.assert_array_equal(np.asarray(clone), source)

    def test_as_shared_passthrough(self):
        shared = as_shared(np.arange(4.0))
        try:
            assert as_shared(shared) is shared
        finally:
            shared.unlink()

    def test_shared_dataset_through_pool_matches_plain(self):
        data = np.random.default_rng(3).normal(size=10_000)
        shared = as_shared(data)
        try:
            def trial(i, g, ds=shared):
                return float(np.asarray(ds).sum() + g.normal())

            with EnginePool(2) as pool:
                pooled = run_batch(trial, 6, rng=4, pool=pool)
            serial = run_batch(
                lambda i, g: float(data.sum() + g.normal()), 6, rng=4
            )
            assert pooled.results == serial.results
        finally:
            shared.unlink()

    def test_dataset_batch_shared_matches_plain(self):
        from repro.bench import dataset_batch, uniform_integer_dataset

        factory = lambda gen: uniform_integer_dataset(128, width=50, rng=gen)  # noqa: E731
        plain = dataset_batch(factory, 4, rng=7)
        shared = dataset_batch(factory, 4, rng=7, shared=True)
        try:
            assert all(isinstance(array, SharedArray) for array in shared)
            for a, b in zip(plain, shared):
                np.testing.assert_array_equal(a, np.asarray(b))
        finally:
            unlink_all(shared)

    def test_unlink_all_ignores_plain_arrays(self):
        shared = as_shared(np.arange(3.0))
        unlink_all([np.arange(2.0), shared])  # must not raise


class TestVectorEstimates:
    def test_estimates_stacks_vector_results(self):
        batch = run_batch(lambda i, g: np.full(3, float(i)), 4, rng=0)
        stacked = batch.estimates()
        assert stacked.shape == (4, 3)
        np.testing.assert_array_equal(stacked[:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_estimates_scalar_results_stay_1d(self):
        batch = run_batch(lambda i, g: float(i), 4, rng=0)
        assert batch.estimates().shape == (4,)

    def test_estimates_empty(self):
        batch = run_batch(lambda i, g: float(i), 0, rng=0)
        assert batch.estimates().shape == (0,)
