"""``train_clients``: the stacked kernel against the per-client loop.

The contract is bitwise: every trained row and every loss the stacked
path produces equals what :meth:`LocalTrainer.train` produces for that
client alone, and does not depend on which other clients share the
call — whether every client starts from one broadcast vector or each
from its own row of a start matrix (separated learning). Every
comparison below is ``np.array_equal`` — no tolerance.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.fl.client as client_module
from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError, ShapeError, TrainingError
from repro.fl.client import LocalTrainer, LocalUpdateSpec, train_clients
from repro.nn.activations import ReLU
from repro.nn.architectures import build_cnn, build_mlp
from repro.nn.dense import Dense
from repro.nn.model import Sequential
from repro.nn.stacked import is_stackable, stacked_local_update


class Client(NamedTuple):
    device_id: int
    dataset: ArrayDataset


def make_clients(rng, sizes, width, classes):
    return [
        Client(
            device_id,
            ArrayDataset(
                rng.normal(size=(size, width)),
                rng.integers(0, classes, size=size),
            ),
        )
        for device_id, size in enumerate(sizes)
    ]


def per_client_loop(model, spec, round_index, rate, start, clients):
    """The oracle: one ``LocalTrainer.train`` per client, from the
    shared vector ``start`` or from row ``i`` of a start matrix."""
    rows, losses = [], []
    for index, client in enumerate(clients):
        model.set_flat_params(start[index] if start.ndim == 2 else start)
        trainer = spec.make_trainer(rate, round_index, client.device_id)
        losses.append(trainer.train(model, client.dataset))
        rows.append(model.get_flat_params())
    return np.array(rows).reshape(len(clients), start.shape[-1]), np.array(
        losses
    )


def run_train_clients(model, spec, round_index, rate, start, clients):
    out = np.empty((len(clients), start.shape[-1]))
    losses = train_clients(model, spec, round_index, rate, start, clients, out)
    return out, losses


def start_matrix(global_params, clients, seed=0):
    """One distinct start row per client around ``global_params``."""
    noise = np.random.default_rng(seed).normal(
        scale=0.1, size=(len(clients), global_params.size)
    )
    return global_params + noise


STARTS = ["shared", "per_client"]


def starts_for(kind, global_params, clients):
    if kind == "shared":
        return global_params
    return start_matrix(global_params, clients)


@st.composite
def problems(draw):
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    width = draw(st.integers(1, 9))
    hidden = tuple(draw(st.lists(st.integers(1, 8), min_size=0, max_size=2)))
    classes = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 3))
    rate = draw(st.floats(1e-3, 1.0))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    model = build_mlp(width, classes, hidden_sizes=hidden, seed=seed)
    clients = make_clients(rng, sizes, width, classes)
    return model, LocalUpdateSpec(local_steps=steps), rate, clients


class TestStackedParity:
    @pytest.mark.parametrize("start", STARTS)
    @given(problem=problems())
    @settings(max_examples=60, deadline=None)
    def test_rows_and_losses_equal_the_per_client_loop(self, problem, start):
        model, spec, rate, clients = problem
        begin = starts_for(start, model.get_flat_params().copy(), clients)
        want_rows, want_losses = per_client_loop(
            model.clone(), spec, 1, rate, begin, clients
        )
        rows, losses = run_train_clients(model, spec, 1, rate, begin, clients)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(losses, want_losses)

    @given(problem=problems(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_the_batch(self, problem, data):
        model, spec, rate, clients = problem
        global_params = model.get_flat_params().copy()
        rows, losses = run_train_clients(
            model, spec, 1, rate, global_params, clients
        )
        # Any permutation of any subset: same clients, same bytes.
        picked = data.draw(
            st.lists(
                st.integers(0, len(clients) - 1), min_size=1, unique=True
            )
        )
        sub_rows, sub_losses = run_train_clients(
            model, spec, 1, rate, global_params, [clients[i] for i in picked]
        )
        assert np.array_equal(sub_rows, rows[picked])
        assert np.array_equal(sub_losses, losses[picked])

    def test_eligible_inputs_never_reach_the_per_client_trainer(
        self, monkeypatch
    ):
        def refuse(self, model, dataset):
            raise AssertionError("per-client path taken")

        monkeypatch.setattr(LocalTrainer, "train", refuse)
        rng = np.random.default_rng(0)
        model = build_mlp(5, 3, hidden_sizes=(4,), seed=0)
        clients = make_clients(rng, [3, 1, 3, 2], 5, 3)
        global_params = model.get_flat_params().copy()
        rows, _ = run_train_clients(
            model, LocalUpdateSpec(), 1, 0.1, global_params, clients
        )
        assert not np.array_equal(rows[0], global_params)

    def test_trains_into_a_slice_of_a_larger_matrix(self):
        # The pool backends hand each chunk its rows of the round matrix.
        rng = np.random.default_rng(2)
        model = build_mlp(3, 2, hidden_sizes=(4,), seed=3)
        clients = make_clients(rng, [2, 2, 3], 3, 2)
        global_params = model.get_flat_params().copy()
        rows, _ = run_train_clients(
            model, LocalUpdateSpec(), 1, 0.1, global_params, clients
        )
        matrix = np.full((5, global_params.size), np.nan)
        train_clients(
            model, LocalUpdateSpec(), 1, 0.1, global_params, clients, matrix[1:4]
        )
        assert np.array_equal(matrix[1:4], rows)
        assert np.isnan(matrix[0]).all() and np.isnan(matrix[4]).all()


def greedy_blocks(costs, budget):
    """The block plan as a loop: each block takes the next client, then
    as many more as keep its total within ``budget``."""
    blocks, start = [], 0
    while start < len(costs):
        stop, used = start + 1, costs[start]
        while stop < len(costs) and used + costs[stop] <= budget:
            used, stop = used + costs[stop], stop + 1
        blocks.append((start, stop))
        start = stop
    return blocks


class RecordingSink(client_module.RowSink):
    def __init__(self, size):
        super().__init__()
        self.size, self.blocks = size, []

    def rows(self, start, stop):
        self.blocks.append((start, stop))
        return np.empty((stop - start, self.size))


class TestBlockPlan:
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=12),
        budget=st.integers(1, 1000),
    )
    @example(sizes=[1, 1, 1], budget=176)  # fills a block exactly
    @settings(max_examples=80, deadline=None)
    def test_blocks_are_the_greedy_plan(self, sizes, budget):
        # The blocks are the greedy loop's over (rows * width + P) * 8 bytes.
        rng = np.random.default_rng(len(sizes))
        model = build_mlp(3, 2, hidden_sizes=(), seed=1)  # P = 8
        clients = make_clients(rng, sizes, 3, 2)
        size = model.parameter_count
        sink = RecordingSink(size)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(client_module, "_BLOCK_BYTES", budget)
            train_clients(
                model,
                LocalUpdateSpec(),
                1,
                0.1,
                model.get_flat_params().copy(),
                clients,
                sink,
            )
        costs = [(len(client.dataset) * 3 + size) * 8 for client in clients]
        assert sink.blocks == greedy_blocks(costs, budget)


class TestFallBackToTheLoop:
    """Ineligible inputs loop ``LocalTrainer.train`` and still match it."""

    @pytest.fixture
    def no_stacking(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stacked kernel taken")

        monkeypatch.setattr(client_module, "stacked_local_update", refuse)

    def check(self, model, spec, clients, start="shared"):
        begin = starts_for(start, model.get_flat_params().copy(), clients)
        want_rows, want_losses = per_client_loop(
            model.clone(), spec, 2, 0.2, begin, clients
        )
        rows, losses = run_train_clients(model, spec, 2, 0.2, begin, clients)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(losses, want_losses)

    @pytest.mark.parametrize("start", STARTS)
    def test_conv_model(self, no_stacking, start):
        rng = np.random.default_rng(3)
        model = build_cnn((1, 4, 4), 3, channels=(2,), dense_width=4, seed=4)
        assert not is_stackable(model)
        clients = [
            Client(
                device_id,
                ArrayDataset(
                    rng.normal(size=(size, 1, 4, 4)),
                    rng.integers(0, 3, size=size),
                ),
            )
            for device_id, size in enumerate([3, 2, 3])
        ]
        self.check(model, LocalUpdateSpec(), clients, start)

    @pytest.mark.parametrize("start", STARTS)
    def test_minibatch(self, no_stacking, start):
        rng = np.random.default_rng(4)
        model = build_mlp(5, 3, hidden_sizes=(6,), seed=5)
        spec = LocalUpdateSpec(batch_size=4, local_steps=2, seed=9)
        self.check(model, spec, make_clients(rng, [6, 9, 6], 5, 3), start)

    def test_dense_subclass_is_not_stackable(self):
        class Scaled(Dense):
            def forward(self, inputs, training=False):
                return 2.0 * super().forward(inputs, training=training)

        assert not is_stackable(Sequential([Scaled(3, 2, seed=0)]))
        assert not is_stackable(Sequential([ReLU(), Dense(3, 2, seed=0)]))
        assert not is_stackable(Sequential([]))

    def test_odd_shards_loop_while_the_rest_stack(self):
        # float32 and strided shards would reach BLAS differently from
        # their stacked float64 copy, so they stay on the per-client path.
        rng = np.random.default_rng(5)
        model = build_mlp(4, 3, hidden_sizes=(5,), seed=6)
        clients = make_clients(rng, [3, 3, 3, 3, 2], 4, 3)
        single = clients[1].dataset
        clients[1] = Client(
            1, ArrayDataset(single.inputs.astype(np.float32), single.labels)
        )
        wide = rng.normal(size=(3, 8))
        clients[3] = Client(3, ArrayDataset(wide[:, ::2], clients[3].dataset.labels))
        self.check(model, LocalUpdateSpec(local_steps=2), clients)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf on purpose
class TestSignedZeroAndNanPreActivations:
    """Dense weights that feed each ReLU exact zeros and NaNs: the
    in-place ``rectify`` and its after-the-fact mask must keep the
    per-client loop's bits, NaN payloads and the sign of zero included.

    A zero weight column gives a zero pre-activation; with a ``-0.0``
    bias it would be ``-0.0`` on a BLAS that sums ``-0.0`` products to
    ``-0.0`` (OpenBLAS gives ``+0.0``). A NaN weight gives a NaN one,
    and an ``inf`` weight behind a rectified NaN gives ``0 * inf``.
    """

    @staticmethod
    def model(nan_logits=False):
        model = build_mlp(4, 3, hidden_sizes=(6, 5), seed=11)
        first, second, last = model.layers[0], model.layers[2], model.layers[4]
        first.params["W"][:, :2] = 0.0
        first.params["b"][:2] = [0.0, -0.0]
        first.params["W"][1, 2] = np.nan
        second.params["W"][2, 0] = np.inf
        if nan_logits:  # every softmax row, loss and gradient NaN
            last.params["W"][0, 1] = np.nan
        return model

    def test_the_weights_give_zero_and_nan_pre_activations(self):
        model = self.model()
        inputs = make_clients(np.random.default_rng(0), [5], 4, 3)[0].dataset.inputs
        first = inputs @ model.layers[0].params["W"] + model.layers[0].params["b"]
        assert (first[:, :2] == 0.0).all()
        assert not np.signbit(first[:, 0]).any()
        assert np.isnan(first[:, 2]).all()
        hidden = np.fmax(first, 0.0) + 0.0
        second = hidden @ model.layers[2].params["W"] + model.layers[2].params["b"]
        assert np.isnan(second[:, 0]).all()

    @pytest.mark.parametrize("nan_logits", [False, True])
    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("start", STARTS)
    def test_rows_and_losses_keep_the_per_client_bits(
        self, start, steps, nan_logits
    ):
        model = self.model(nan_logits)
        spec = LocalUpdateSpec(local_steps=steps)
        clients = make_clients(np.random.default_rng(1), [5, 5, 5, 3], 4, 3)
        begin = starts_for(start, model.get_flat_params().copy(), clients)
        want_rows, want_losses = per_client_loop(
            model.clone(), spec, 1, 0.5, begin, clients
        )
        rows, losses = run_train_clients(model, spec, 1, 0.5, begin, clients)
        assert np.isnan(rows).any()
        assert np.isnan(losses).all() == nan_logits
        assert np.array_equal(bits(rows), bits(want_rows))
        assert np.array_equal(bits(losses), bits(want_losses))


class TestStartMatrix:
    """Each client starts from its own row; the stacked path gathers
    the rows of a shard-size group and trains them in one pass."""

    @pytest.mark.parametrize(
        "block_bytes", [None, 2000], ids=["one block", "3 per block"]
    )
    @pytest.mark.parametrize("steps", [1, 3])
    def test_mixed_shards_with_interleaved_members(
        self, monkeypatch, steps, block_bytes
    ):
        if block_bytes is not None:
            # 2000 bytes hold three of these clients: blocks 0-2, 3-5
            # and 6-8, so gathered rows also come from an offset block.
            monkeypatch.setattr(client_module, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(7)
        model = build_mlp(5, 3, hidden_sizes=(6,), seed=8)
        # Sizes 3 and 5 interleave; a lone 2 is a group of one.
        clients = make_clients(rng, [3, 5, 3, 2, 5, 3, 3, 5, 3], 5, 3)
        spec = LocalUpdateSpec(local_steps=steps)
        begin = start_matrix(model.get_flat_params(), clients, seed=steps)
        want_rows, want_losses = per_client_loop(
            model.clone(), spec, 1, 0.3, begin, clients
        )
        rows, losses = run_train_clients(model, spec, 1, 0.3, begin, clients)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(losses, want_losses)

    def test_equal_rows_give_the_broadcast_bytes(self):
        rng = np.random.default_rng(8)
        model = build_mlp(4, 3, hidden_sizes=(5,), seed=9)
        clients = make_clients(rng, [2, 4, 2, 4], 4, 3)
        global_params = model.get_flat_params().copy()
        spec = LocalUpdateSpec(local_steps=2)
        shared = run_train_clients(model, spec, 1, 0.2, global_params, clients)
        tiled = run_train_clients(
            model, spec, 1, 0.2, np.tile(global_params, (4, 1)), clients
        )
        assert np.array_equal(shared[0], tiled[0])
        assert np.array_equal(shared[1], tiled[1])

    def test_start_rows_are_not_written(self):
        rng = np.random.default_rng(9)
        model = build_mlp(4, 3, hidden_sizes=(5,), seed=10)
        clients = make_clients(rng, [3, 3, 2], 4, 3)
        begin = start_matrix(model.get_flat_params(), clients)
        kept = begin.copy()
        run_train_clients(model, LocalUpdateSpec(local_steps=3), 1, 0.2, begin, clients)
        assert np.array_equal(begin, kept)


class TestErrors:
    def setup_method(self):
        self.rng = np.random.default_rng(6)
        self.model = build_mlp(4, 3, hidden_sizes=(5,), seed=7)
        self.global_params = self.model.get_flat_params().copy()

    def run(self, clients):
        return run_train_clients(
            self.model, LocalUpdateSpec(), 1, 0.1, self.global_params, clients
        )

    def test_empty_shard(self):
        clients = make_clients(self.rng, [3, 3], 4, 3)
        clients.append(
            Client(2, ArrayDataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)))
        )
        with pytest.raises(TrainingError):
            self.run(clients)

    def test_labels_out_of_range(self):
        clients = make_clients(self.rng, [3, 3], 4, 3)
        clients[1].dataset.labels[0] = 3
        with pytest.raises(ShapeError):
            self.run(clients)
        clients[1].dataset.labels[0] = -1
        with pytest.raises(ShapeError):
            self.run(clients)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_kernel_rejects_non_integer_labels(self, dtype):
        clients = make_clients(self.rng, [3, 3], 4, 3)
        inputs = np.stack([c.dataset.inputs for c in clients])
        labels = np.stack([c.dataset.labels for c in clients]).astype(dtype)
        with pytest.raises(ShapeError, match="integer"):
            stacked_local_update(
                self.model,
                inputs,
                labels,
                self.global_params,
                0.1,
                1,
                np.empty((2, self.global_params.size)),
            )

    def test_wrong_input_width(self):
        clients = make_clients(self.rng, [3, 3], 4, 3)
        clients.append(make_clients(self.rng, [3], 5, 3)[0])
        with pytest.raises(ShapeError):
            self.run(clients)

    @pytest.mark.parametrize(
        "spec, rate",
        [(LocalUpdateSpec(local_steps=0), 0.1), (LocalUpdateSpec(), 0.0)],
        ids=["local_steps=0", "learning_rate=0"],
    )
    def test_hyperparameters_are_checked_without_a_trainer(self, spec, rate):
        clients = make_clients(self.rng, [3, 3], 4, 3)
        with pytest.raises(ConfigurationError):
            run_train_clients(
                self.model, spec, 1, rate, self.global_params, clients
            )

    @pytest.mark.parametrize("extra", [1, -1], ids=["g+1 rows", "g-1 rows"])
    def test_start_matrix_needs_one_row_per_device(self, extra):
        clients = make_clients(self.rng, [3, 3], 4, 3)
        begin = np.tile(self.global_params, (len(clients) + extra, 1))
        with pytest.raises(ShapeError):
            run_train_clients(
                self.model, LocalUpdateSpec(), 1, 0.1, begin, clients
            )

    def test_kernel_rejects_a_start_matrix_of_another_height(self):
        clients = make_clients(self.rng, [3, 3], 4, 3)
        inputs = np.stack([c.dataset.inputs for c in clients])
        labels = np.stack([c.dataset.labels for c in clients])
        with pytest.raises(ShapeError):
            stacked_local_update(
                self.model,
                inputs,
                labels,
                np.tile(self.global_params, (3, 1)),
                0.1,
                1,
                np.empty((2, self.global_params.size)),
            )

    def test_wrong_result_matrix(self):
        clients = make_clients(self.rng, [3, 3], 4, 3)
        with pytest.raises(ShapeError):
            train_clients(
                self.model,
                LocalUpdateSpec(),
                1,
                0.1,
                self.global_params,
                clients,
                np.empty((2, self.global_params.size + 1)),
            )
