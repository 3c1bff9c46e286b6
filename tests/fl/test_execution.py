"""Tests for the pluggable client-execution backends."""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.classic import RandomSelection
from repro.data.dataset import ArrayDataset
from repro.data.partition import dirichlet_partition
from repro.errors import ConfigurationError, TrainingError
from repro.fl.execution import (
    BACKEND_NAMES,
    ClientUpdate,
    LocalUpdateSpec,
    ProcessPoolBackend,
    RoundResult,
    SerialBackend,
    ThreadPoolBackend,
    _blas_thread_setter,
    _chunk_bounds,
    _Workers,
    create_backend,
)
from repro.fl.server import FederatedServer
from repro.fl.shm import SharedMemoryProcessPoolBackend
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.nn.architectures import build_mlp
from repro.obs import RunObserver
from repro.obs.sinks import CollectingSink
from tests.conftest import make_heterogeneous_devices


def make_update(device_id=0, weight=10.0, loss=1.5):
    return ClientUpdate(
        device_id=device_id,
        params=np.full(3, float(device_id)),
        weight=weight,
        loss=loss,
    )


class TestClientUpdate:
    def test_fields(self):
        update = make_update(device_id=3, weight=7.0, loss=0.25)
        assert update.device_id == 3
        assert update.weight == 7.0
        assert update.loss == 0.25

    def test_frozen(self):
        update = make_update()
        with pytest.raises(AttributeError):
            update.loss = 2.0


class TestRoundResult:
    def _result(self, params=None):
        return RoundResult(
            round_index=4,
            device_ids=np.array([2, 0, 7]),
            weights=np.array([5.0, 9.0, 1.0]),
            losses=np.array([0.1, 0.7, 0.4]),
            params=params,
        )

    def test_preserves_selection_order(self):
        result = self._result([np.full(3, float(i)) for i in (2, 0, 7)])
        assert result.device_ids.tolist() == [2, 0, 7]
        assert result.weights.tolist() == [5.0, 9.0, 1.0]
        assert [p[0] for p in result.params] == [2.0, 0.0, 7.0]
        assert [u.device_id for u in result] == [2, 0, 7]
        assert [u.params[0] for u in result] == [2.0, 0.0, 7.0]

    def test_losses(self):
        result = self._result()
        assert result.losses.tolist() == [0.1, 0.7, 0.4]
        assert [(u.weight, u.loss, u.params) for u in result] == [
            (5.0, 0.1, None),
            (9.0, 0.7, None),
            (1.0, 0.4, None),
        ]

    def test_truthiness(self):
        result = self._result()
        assert result
        assert len(result) == 3
        assert not RoundResult(round_index=4)

    def test_round_index_validated(self):
        with pytest.raises(ConfigurationError):
            RoundResult(round_index=0)

    def test_columns_must_align(self):
        with pytest.raises(ConfigurationError):
            RoundResult(
                round_index=1,
                device_ids=np.array([1, 2]),
                weights=np.ones(2),
                losses=np.ones(1),
            )


class TestLocalUpdateSpec:
    def test_per_client_seeds_are_stable_and_distinct(self):
        spec = LocalUpdateSpec(batch_size=4, seed=11)
        a1 = spec.make_trainer(0.1, round_index=1, device_id=0)
        a2 = spec.make_trainer(0.1, round_index=1, device_id=0)
        b = spec.make_trainer(0.1, round_index=1, device_id=1)
        c = spec.make_trainer(0.1, round_index=2, device_id=0)
        draw = lambda t: t._rng.integers(0, 2**31 - 1)
        first = draw(a1)
        assert first == draw(a2)
        assert first != draw(b)
        assert first != draw(c)

    def test_spec_carries_trainer_knobs(self):
        spec = LocalUpdateSpec(local_steps=3, batch_size=8)
        trainer = spec.make_trainer(0.05, round_index=1, device_id=2)
        assert trainer.learning_rate == 0.05
        assert trainer.local_steps == 3
        assert trainer.batch_size == 8


class TestRegistry:
    def test_names(self):
        assert BACKEND_NAMES == ("serial", "thread", "process", "process+shm")

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("serial", SerialBackend),
            ("thread", ThreadPoolBackend),
            ("process", ProcessPoolBackend),
            ("process+shm", SharedMemoryProcessPoolBackend),
        ],
    )
    def test_create(self, name, cls):
        backend = create_backend(name, workers=2)
        try:
            assert isinstance(backend, cls)
            assert backend.name == name
        finally:
            backend.close()

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            create_backend("gpu")

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            ThreadPoolBackend(workers=0)
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(workers=-1)

    def test_run_before_bind_raises(self):
        with pytest.raises(TrainingError):
            SerialBackend().run_round(1, np.zeros(3), [], 0.1)


class TestChunkBounds:
    """At most one contiguous chunk per worker, balanced by ``|D_q|``."""

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(st.integers(0, 500), min_size=1, max_size=60),
        workers=st.integers(1, 8),
    )
    def test_contiguous_covering_and_balanced(self, samples, workers):
        bounds = _chunk_bounds(np.array(samples), workers)
        assert len(bounds) <= workers
        assert all(stop > start for start, stop in bounds)
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == len(samples)
        weights = np.array(samples, dtype=float) if sum(samples) else np.ones(len(samples))
        share = weights.sum() / workers
        for start, stop in bounds:
            assert weights[start:stop].sum() <= share + weights.max()

    def test_empty_selection_has_no_chunk(self):
        assert _chunk_bounds(np.empty(0, np.int64), 3) == []

    @pytest.mark.parametrize("count", [1, 2])
    def test_fewer_clients_than_workers(self, count):
        bounds = _chunk_bounds(np.full(count, 40), 3)
        assert bounds == [(i, i + 1) for i in range(count)]

    def test_cut_follows_samples_not_counts(self):
        # One client holds half the samples: it trains alone.
        assert _chunk_bounds(np.array([90, 10, 10, 10, 10, 10, 10, 10, 10, 10]), 2) == [
            (0, 1),
            (1, 10),
        ]
        assert _chunk_bounds(np.full(12, 7), 3) == [(0, 4), (4, 8), (8, 12)]

    def test_empty_datasets_split_by_count(self):
        assert _chunk_bounds(np.zeros(4, np.int64), 2) == [(0, 2), (2, 4)]


def make_setup(num_devices=10, seed=3, fleet="equal"):
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    if fleet == "dirichlet":
        # Unequal shards: the stacked kernel groups clients by size.
        rng = np.random.default_rng(seed + 70)
        total = 12 * num_devices
        pool = ArrayDataset(
            rng.normal(size=(total, 4)), rng.integers(0, 3, size=total)
        )
        shards = dirichlet_partition(pool, num_devices, alpha=0.5, seed=seed)
        assert len({len(shard) for shard in shards}) > 2
        for device, shard in zip(devices, shards):
            device.dataset = shard
    rng = np.random.default_rng(seed + 50)
    test = ArrayDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


def run_with_backend(
    backend, num_devices=10, seed=3, fleet="equal", **config_kwargs
):
    server, devices = make_setup(
        num_devices=num_devices, seed=seed, fleet=fleet
    )
    defaults = dict(rounds=4, bandwidth_hz=2e6, learning_rate=0.2)
    defaults.update(config_kwargs)
    with backend:
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=RandomSelection(0.4, seed=1),
            config=TrainerConfig(**defaults),
            backend=backend,
        )
        return trainer.run()


class TestBackendParity:
    """Thread and process pools reproduce the serial run bitwise."""

    POOLS = [ThreadPoolBackend, ProcessPoolBackend, SharedMemoryProcessPoolBackend]

    @staticmethod
    def assert_same_history(serial, pooled):
        assert len(serial.records) == len(pooled.records)
        for want, got in zip(serial.records, pooled.records):
            assert got.selected_ids == want.selected_ids
            assert got.train_loss == want.train_loss
            assert got.test_accuracy == want.test_accuracy
            assert got.test_loss == want.test_loss

    @pytest.mark.parametrize("make_backend", POOLS)
    def test_full_batch_parity(self, make_backend):
        serial = run_with_backend(SerialBackend())
        pooled = run_with_backend(make_backend(workers=2))
        self.assert_same_history(serial, pooled)

    @pytest.mark.parametrize("make_backend", POOLS)
    def test_unequal_shard_parity(self, make_backend):
        # A Dirichlet fleet, cut into one chunk per worker by |D_q|:
        # each chunk groups its clients by shard size, and the serial
        # backend groups the whole selection.
        kwargs = dict(fleet="dirichlet", num_devices=60, local_steps=2)
        serial = run_with_backend(SerialBackend(), **kwargs)
        pooled = run_with_backend(make_backend(workers=2), **kwargs)
        self.assert_same_history(serial, pooled)

    def test_minibatch_parity(self):
        # Stochastic local updates draw from per-(round, device) seeds,
        # so they too are backend-independent.
        kwargs = dict(batch_size=8, local_steps=2, minibatch_seed=5)
        serial = run_with_backend(SerialBackend(), **kwargs)
        threaded = run_with_backend(ThreadPoolBackend(workers=3), **kwargs)
        for want, got in zip(serial.records, threaded.records):
            assert got.train_loss == want.train_loss
            assert got.test_accuracy == want.test_accuracy

    def test_thread_backend_rebind_after_close(self):
        backend = ThreadPoolBackend(workers=2)
        first = run_with_backend(backend)  # context manager closes it
        second = run_with_backend(backend)  # trainer re-binds
        assert [r.test_accuracy for r in first.records] == [
            r.test_accuracy for r in second.records
        ]

    def test_closed_pool_raises_without_bind(self):
        backend = ThreadPoolBackend(workers=1)
        server, devices = make_setup()
        backend.bind(server.model, LocalUpdateSpec(), devices)
        backend.close()
        with pytest.raises(TrainingError):
            backend.run_round(1, server.broadcast(), devices[:2], 0.1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", ["process", "process+shm"])
    def test_rounds_equal_serial_bit_for_bit(self, name, workers):
        # Round 2 selects fewer clients than there are workers.
        server, devices = make_setup(num_devices=12, fleet="dirichlet")
        spec = LocalUpdateSpec(seed=7)
        serial = SerialBackend()
        serial.bind(server.model, spec, devices)
        params = server.broadcast()
        with create_backend(name, workers=workers) as backend:
            backend.bind(server.model, spec, devices)
            for round_index, selected in enumerate(
                (devices, devices[5:7], devices[::-2]), start=1
            ):
                want = serial.run_round(round_index, params, selected, 0.2)
                got = backend.run_round(round_index, params, selected, 0.2)
                assert got.device_ids.tolist() == want.device_ids.tolist()
                assert got.losses.tobytes() == want.losses.tobytes()
                assert np.stack(got.params).tobytes() == np.stack(want.params).tobytes()
                params = np.mean(want.params, axis=0)

    def test_process_backend_handles_unbound_device(self):
        # A device that joins after bind ships its dataset with the task.
        server, devices = make_setup(num_devices=4)
        backend = ProcessPoolBackend(workers=1)
        backend.bind(server.model, LocalUpdateSpec(), devices[:2])
        try:
            updates = backend.run_round(1, server.broadcast(), devices, 0.1)
            assert [u.device_id for u in updates] == [d.device_id for d in devices]
        finally:
            backend.close()


def blas_thread_getter():
    """The get-threads twin of the OpenBLAS setter the workers call, or
    ``None`` when numpy's BLAS exports no such setter."""
    setter = _blas_thread_setter()
    if setter is None:
        return None
    try:
        from numpy._core import _multiarray_umath as linked
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as linked
    getter = getattr(
        ctypes.CDLL(linked.__file__), setter.__name__.replace("_set_", "_get_")
    )
    getter.argtypes = ()
    getter.restype = ctypes.c_int
    return getter


class _ReportBlasThreads:
    """A worker transport that answers every task with the worker's
    BLAS thread count, as the task's error."""

    @staticmethod
    def open(global_params, first_slot, count):
        raise RuntimeError(f"threads={blas_thread_getter()()}")


class TestWorkerBlasThreads:
    """A forked OpenBLAS keeps the parent's thread count; each worker
    sets its own to one, and the parent's stays as it was."""

    def test_worker_runs_one_blas_thread(self):
        getter = blas_thread_getter()
        if getter is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS set-threads symbol")
        before = getter()
        workers = _Workers(2, (None, None, {}, _ReportBlasThreads(), None))
        try:
            with pytest.raises(RuntimeError, match="^threads=1$"):
                workers.round([(1, 0.1, None, 0, (), {}, None)] * 2, lambda k, reply: None)
        finally:
            workers.close()
        assert getter() == before


class TestTaskSpans:
    """One span triple per device, apportioned from its chunk's sample."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_chunk_measurement_is_shared_out_per_device(self, name):
        server, devices = make_setup(num_devices=40)
        sink = CollectingSink()
        with create_backend(name, workers=2) as backend:
            backend.observer = RunObserver(sink=sink)
            backend.bind(server.model, LocalUpdateSpec(), devices)
            backend.run_round(3, server.broadcast(), devices, 0.1)
        starts = sink.of_kind("span_start")
        ends = {e.span_id: e for e in sink.of_kind("span_end")}
        samples = {e.span_id: e for e in sink.of_kind("worker_resource")}
        assert [e.span_id for e in starts] == [
            f"round-3/local_updates/task-{d.device_id}" for d in devices
        ]
        assert set(ends) == set(samples) == {e.span_id for e in starts}
        # Devices of one chunk share its pid and tile its interval with
        # equal shares; a pool cuts one chunk per worker (serial: one
        # chunk of 40).
        weights = np.array([d.num_samples for d in devices])
        bounds = [(0, 40)] if name == "serial" else _chunk_bounds(weights, 2)
        assert len(bounds) == (1 if name == "serial" else 2)
        for first, stop in bounds:
            size = stop - first
            chunk = starts[first:stop]
            shares = [ends[e.span_id].duration_s for e in chunk]
            assert len({e.pid for e in chunk}) == 1
            assert shares == [shares[0]] * size
            assert len({samples[e.span_id].cpu_user_s for e in chunk}) == 1
            assert [e.t_wall for e in chunk] == pytest.approx(
                [chunk[0].t_wall + i * shares[0] for i in range(size)]
            )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_empty_selection_emits_nothing(self, name):
        server, devices = make_setup(num_devices=4)
        sink = CollectingSink()
        with create_backend(name, workers=2) as backend:
            backend.observer = RunObserver(sink=sink)
            backend.bind(server.model, LocalUpdateSpec(), devices)
            assert len(backend.run_round(1, server.broadcast(), [], 0.1)) == 0
        assert sink.events == []


class TestTrainerIntegration:
    def test_trainer_defaults_to_serial(self):
        server, devices = make_setup()
        trainer = FederatedTrainer(
            server=server,
            devices=devices,
            selection=RandomSelection(0.4, seed=1),
            config=TrainerConfig(rounds=2),
        )
        assert isinstance(trainer.backend, SerialBackend)
        assert len(trainer.run()) == 2
