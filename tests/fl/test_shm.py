"""Tests for the zero-copy shared-memory process backend.

Covers the :class:`~repro.fl.shm.SharedArrayPool` unit behaviour, the
backend's shared-segment lifecycle (everything unlinked on ``close()``,
re-bindable afterwards, no leak when a worker raises mid-round), how
many workers both process backends fork (one fewer than their chunks:
the parent trains the first) and what they do when a worker raises or
dies or the parent's chunk is interrupted, and bitwise
parity against the serial backend — with and without a seeded fault
plan — down to the energy ledger.
"""

import os
import signal
import time
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError, TrainingError
from repro.faults import ChannelFault, DropoutFault, FaultPlan, StragglerFault
from repro.fl.execution import LocalUpdateSpec, SerialBackend, create_backend
from repro.fl.server import FederatedServer
from repro.fl.shm import SharedArrayPool, SharedMemoryProcessPoolBackend
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.baselines.classic import RandomSelection
from repro.nn.architectures import build_mlp
from tests.conftest import make_device, make_heterogeneous_devices


def segment_exists(name):
    """Whether a shared-memory segment is still linked under ``name``."""
    if not name:
        return False
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def own_children():
    """Pids of this process's children, zombies included; multiprocessing's
    resource tracker, which lives until the interpreter exits, excepted."""
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    children = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) != tracker:
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    parent = int(handle.read().rsplit(")", 1)[-1].split()[1])
            except OSError:
                continue  # exited while we were looking
            if parent == os.getpid():
                children.add(int(entry))
    return children


def own_segments():
    """Shared-memory segments named after this process."""
    return {name for name in os.listdir("/dev/shm") if name.startswith(f"repro{os.getpid()}x")}


def wait_until_dead(pid, timeout_s=10.0):
    """Wait until ``pid`` is a zombie: dead, its pipe ends closed, not reaped."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            if handle.read().rsplit(")", 1)[-1].split()[0] == "Z":
                return
        time.sleep(0.01)
    raise AssertionError(f"pid {pid} still alive after {timeout_s} s")


class Interrupting:
    """A client whose dataset read is a Ctrl-C, in whichever process
    trains it."""

    device_id = 77
    num_samples = 40

    @property
    def dataset(self):
        raise KeyboardInterrupt


def make_setup(num_devices=8, seed=3):
    devices = make_heterogeneous_devices(num_devices, seed=seed)
    rng = np.random.default_rng(seed + 50)
    test = ArrayDataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=1e6)
    return server, devices


def run_training(backend=None, faults=None, num_devices=8, rounds=4):
    server, devices = make_setup(num_devices=num_devices)
    trainer = FederatedTrainer(
        server=server,
        devices=devices,
        selection=RandomSelection(0.5, seed=1),
        config=TrainerConfig(
            rounds=rounds, bandwidth_hz=2e6, learning_rate=0.2
        ),
        backend=backend,
        faults=faults,
    )
    return trainer.run(), trainer


def lossy_plan(seed=11):
    return FaultPlan(
        seed=seed,
        faults=(
            DropoutFault(phase="before_compute", probability=0.15),
            StragglerFault(slowdown=2.0, probability=0.2),
            ChannelFault(mode="outage", probability=0.1),
        ),
    )


def ledger_energies(trainer):
    return {
        device_id: (
            record.compute_joules,
            record.upload_joules,
            record.total_joules,
        )
        for device_id, record in trainer.ledger.devices.items()
    }


class TestSharedArrayPool:
    def test_broadcast_roundtrip(self):
        pool = SharedArrayPool(5)
        try:
            pool.broadcast_view()[...] = np.arange(5.0)
            again = pool.broadcast_view()
            assert np.array_equal(again, np.arange(5.0))
        finally:
            pool.close()

    def test_result_block_grows_with_fresh_generation(self):
        pool = SharedArrayPool(3)
        try:
            first = pool.ensure_result_slots(2)
            assert segment_exists(first)
            # Smaller or equal requests reuse the block.
            assert pool.ensure_result_slots(1) == first
            second = pool.ensure_result_slots(4)
            assert second != first
            assert segment_exists(second)
            assert not segment_exists(first)
        finally:
            pool.close()

    def test_result_view_shape_and_bounds(self):
        pool = SharedArrayPool(4)
        try:
            pool.ensure_result_slots(3)
            view = pool.result_view(3)
            assert view.shape == (3, 4)
            with pytest.raises(TrainingError):
                pool.result_view(5)
        finally:
            pool.close()

    def test_close_unlinks_everything_and_is_idempotent(self):
        pool = SharedArrayPool(2)
        broadcast = pool.broadcast_name
        result = pool.ensure_result_slots(2)
        pool.close()
        pool.close()
        assert not segment_exists(broadcast)
        assert not segment_exists(result)

    def test_closed_pool_raises(self):
        pool = SharedArrayPool(2)
        pool.close()
        with pytest.raises(TrainingError):
            pool.broadcast_view()

    def test_negative_param_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SharedArrayPool(-1)

    def test_zero_param_model_supported(self):
        pool = SharedArrayPool(0)
        try:
            assert pool.broadcast_view().shape == (0,)
        finally:
            pool.close()


class TestBackendLifecycle:
    def test_close_unlinks_segments(self):
        server, devices = make_setup(num_devices=4)
        backend = SharedMemoryProcessPoolBackend(workers=2)
        backend.bind(server.model, LocalUpdateSpec(), devices)
        broadcast = backend._shm.broadcast_name
        backend.run_round(1, server.broadcast(), devices, 0.1)
        result = backend._shm.result_name
        backend.close()
        assert not segment_exists(broadcast)
        assert not segment_exists(result)

    def test_rebind_after_close(self):
        backend = SharedMemoryProcessPoolBackend(workers=2)
        first, _ = run_training(backend=backend)  # trainer binds; caller closes
        backend.close()
        second, _ = run_training(backend=backend)
        backend.close()
        assert first.to_dict() == second.to_dict()

    def test_closed_backend_raises(self):
        server, devices = make_setup(num_devices=2)
        backend = SharedMemoryProcessPoolBackend(workers=1)
        backend.bind(server.model, LocalUpdateSpec(), devices)
        backend.close()
        with pytest.raises(TrainingError):
            backend.run_round(1, server.broadcast(), devices, 0.1)

    def test_worker_failure_does_not_leak_segments(self):
        server, devices = make_setup(num_devices=3)
        # An after-bind joiner with an empty dataset makes its worker
        # raise mid-round (empty local update is a TrainingError).
        empty = make_device(device_id=99, num_samples=0)
        backend = SharedMemoryProcessPoolBackend(workers=2)
        backend.bind(server.model, LocalUpdateSpec(), devices)
        broadcast = backend._shm.broadcast_name
        with pytest.raises(TrainingError):
            backend.run_round(
                1, server.broadcast(), list(devices) + [empty], 0.1
            )
        result = backend._shm.result_name
        backend.close()
        assert not segment_exists(broadcast)
        assert not segment_exists(result)

    def test_empty_selection_trains_nobody(self):
        server, devices = make_setup(num_devices=2)
        with SharedMemoryProcessPoolBackend(workers=1) as backend:
            backend.bind(server.model, LocalUpdateSpec(), devices)
            assert len(backend.run_round(1, server.broadcast(), [], 0.1)) == 0

    def test_unbound_device_ships_its_dataset(self):
        # The last client of a selection is always in the last chunk, a
        # worker's.
        server, devices = make_setup(num_devices=4)
        spec = LocalUpdateSpec(seed=7)
        serial = SerialBackend()
        serial.bind(server.model, spec, devices)
        backend = SharedMemoryProcessPoolBackend(workers=2)
        backend.bind(server.model, spec, devices[:2])
        try:
            got = backend.run_round(1, server.broadcast(), devices, 0.1)
            want = serial.run_round(1, server.broadcast(), devices, 0.1)
            assert got.device_ids.tolist() == [d.device_id for d in devices]
            assert np.stack(got.params).tobytes() == np.stack(want.params).tobytes()
        finally:
            backend.close()

    def test_one_worker_maps_no_segment(self):
        server, devices = make_setup(num_devices=4)
        with SharedMemoryProcessPoolBackend(workers=1) as backend:
            backend.bind(server.model, LocalUpdateSpec(), devices)
            backend.run_round(1, server.broadcast(), devices, 0.1)
            assert backend._shm is None


PROCESS_BACKENDS = ["process", "process+shm"]


@pytest.mark.skipif(
    not (os.path.isdir("/proc") and os.path.isdir("/dev/shm")),
    reason="reads children from /proc and segments from /dev/shm",
)
class TestWorkerFailures:
    @pytest.mark.parametrize("name", PROCESS_BACKENDS)
    def test_killed_worker_raises_and_leaves_nothing(self, name):
        children, segments = own_children(), own_segments()
        server, devices = make_setup(num_devices=4)
        backend = create_backend(name, workers=3)
        try:
            backend.bind(server.model, LocalUpdateSpec(), devices)
            backend.run_round(1, server.broadcast(), devices, 0.1)
            victim = backend._pool._processes[1].pid
            os.kill(victim, signal.SIGKILL)
            wait_until_dead(victim)
            with pytest.raises(TrainingError, match=rf"pid {victim} died \(exit code -9\)"):
                backend.run_round(2, server.broadcast(), devices, 0.1)
            assert own_children() - children == set()
            assert own_segments() - segments == set()
            with pytest.raises(TrainingError, match="closed"):
                backend.run_round(3, server.broadcast(), devices, 0.1)
        finally:
            backend.close()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", PROCESS_BACKENDS)
    def test_forks_one_worker_fewer_than_chunks(self, name, workers):
        # The parent trains the first chunk: W chunks, W - 1 children,
        # and nothing left after close.
        children, segments = own_children(), own_segments()
        server, devices = make_setup(num_devices=6)
        backend = create_backend(name, workers=workers)
        try:
            backend.bind(server.model, LocalUpdateSpec(), devices)
            assert len(own_children() - children) == workers - 1
            backend.run_round(1, server.broadcast(), devices, 0.1)
            assert len(own_children() - children) == workers - 1
            assert bool(own_segments() - segments) == (name == "process+shm" and workers > 1)
        finally:
            backend.close()
        assert own_children() - children == set()
        assert own_segments() - segments == set()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", PROCESS_BACKENDS)
    def test_interrupt_in_the_parents_chunk_stops_the_workers(self, name, workers):
        # Ctrl-C while the parent trains leaves the workers' replies
        # unread: the pipes are out of step, so the workers go. With no
        # worker nothing is out of step, and the backend stays usable.
        children, segments = own_children(), own_segments()
        server, devices = make_setup(num_devices=4)
        with create_backend(name, workers=workers) as backend:
            backend.bind(server.model, LocalUpdateSpec(), devices)
            with pytest.raises(KeyboardInterrupt):
                backend.run_round(1, server.broadcast(), [Interrupting(), *devices], 0.1)
            assert own_children() - children == set()
            assert own_segments() - segments == set()
            if workers > 1:
                with pytest.raises(TrainingError, match="closed"):
                    backend.run_round(2, server.broadcast(), devices, 0.1)
            else:
                assert len(backend.run_round(2, server.broadcast(), devices, 0.1)) == 4

    @pytest.mark.parametrize("name", PROCESS_BACKENDS)
    def test_round_after_a_failed_round_equals_serial(self, name):
        server, devices = make_setup(num_devices=6)
        spec = LocalUpdateSpec(seed=7)
        serial = SerialBackend()
        serial.bind(server.model, spec, devices)
        empty = make_device(device_id=99, num_samples=0)
        with create_backend(name, workers=2) as backend:
            backend.bind(server.model, spec, devices)
            with pytest.raises(TrainingError, match="empty dataset"):
                backend.run_round(1, server.broadcast(), [empty, *devices], 0.2)
            want = serial.run_round(2, server.broadcast(), devices, 0.2)
            got = backend.run_round(2, server.broadcast(), devices, 0.2)
        assert got.losses.tobytes() == want.losses.tobytes()
        assert np.stack(got.params).tobytes() == np.stack(want.params).tobytes()

    @pytest.mark.parametrize("name", PROCESS_BACKENDS)
    def test_first_failure_in_selection_order_is_raised(self, name):
        # The |D_q| cut puts the two failing clients in different chunks:
        # an empty dataset (TrainingError) and a 5-feature one (ShapeError).
        server, devices = make_setup(num_devices=2)
        empty = make_device(device_id=99, num_samples=0)
        wide = make_device(device_id=98, input_dim=5)
        with create_backend(name, workers=2) as backend:
            backend.bind(server.model, LocalUpdateSpec(), devices)
            for selected, expected in (
                ([empty, *devices, wide], TrainingError),
                ([wide, *devices, empty], ValueError),
            ):
                with pytest.raises(Exception) as raised:
                    backend.run_round(1, server.broadcast(), selected, 0.1)
                assert isinstance(raised.value, expected)
                assert isinstance(raised.value, TrainingError) == (expected is TrainingError)
            assert len(backend.run_round(2, server.broadcast(), devices, 0.1)) == 2


class TestParity:
    def test_bitwise_parity_without_faults(self):
        serial, serial_trainer = run_training(backend=SerialBackend())
        with create_backend("process+shm", workers=2) as backend:
            shm, shm_trainer = run_training(backend=backend)
        assert shm.to_dict() == serial.to_dict()
        assert ledger_energies(shm_trainer) == ledger_energies(serial_trainer)

    def test_bitwise_parity_under_seeded_faults(self):
        serial, serial_trainer = run_training(
            backend=SerialBackend(), faults=lossy_plan(), rounds=5
        )
        with create_backend("process+shm", workers=2) as backend:
            shm, shm_trainer = run_training(
                backend=backend, faults=lossy_plan(), rounds=5
            )
        assert shm.to_dict() == serial.to_dict()
        assert ledger_energies(shm_trainer) == ledger_energies(serial_trainer)

    def test_round_updates_match_serial_exactly(self):
        server, devices = make_setup(num_devices=5)
        spec = LocalUpdateSpec(seed=7)
        serial = SerialBackend()
        serial.bind(server.model, spec, devices)
        with SharedMemoryProcessPoolBackend(workers=2) as backend:
            backend.bind(server.model, spec, devices)
            for round_index in (1, 2):
                want = serial.run_round(
                    round_index, server.broadcast(), devices, 0.2
                )
                got = backend.run_round(
                    round_index, server.broadcast(), devices, 0.2
                )
                for a, b in zip(want, got):
                    assert a.device_id == b.device_id
                    assert np.array_equal(a.params, b.params)
                    assert a.loss == b.loss
                    assert a.weight == b.weight

    def test_kept_rows_outlive_the_next_round(self):
        # The shared result block is reused every round, so rows a
        # standalone run_round keeps must be copies of it.
        server, devices = make_setup(num_devices=5)
        spec = LocalUpdateSpec(seed=7)
        with SharedMemoryProcessPoolBackend(workers=2) as backend:
            backend.bind(server.model, spec, devices)
            first = backend.run_round(1, server.broadcast(), devices, 0.2)
            kept = [update.params.copy() for update in first]
            backend.run_round(2, server.broadcast() + 1.0, devices, 0.2)
        for update, row in zip(first, kept):
            assert np.array_equal(update.params, row)
