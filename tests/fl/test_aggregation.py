"""Tests for FedAvg aggregation (Eq. 18) and its Eq. 19 equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.dataset import ArrayDataset
from repro.errors import ShapeError, TrainingError
from repro.fl.aggregation import FedAvgAccumulator, fedavg_aggregate
from repro.fl.client import LocalTrainer
from repro.nn.architectures import build_mlp
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Sgd


class TestBasics:
    def test_equal_weights_is_mean(self):
        vectors = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        out = fedavg_aggregate(vectors, [1.0, 1.0])
        assert np.allclose(out, [2.0, 3.0])

    def test_weighted_average(self):
        vectors = [np.array([0.0]), np.array([10.0])]
        out = fedavg_aggregate(vectors, [3.0, 1.0])
        assert np.allclose(out, [2.5])

    def test_single_update_identity(self):
        vector = np.array([1.0, -2.0, 3.0])
        assert np.allclose(fedavg_aggregate([vector], [7.0]), vector)

    def test_zero_weight_ignored(self):
        vectors = [np.array([5.0]), np.array([100.0])]
        out = fedavg_aggregate(vectors, [1.0, 0.0])
        assert np.allclose(out, [5.0])

    def test_empty_raises(self):
        with pytest.raises(TrainingError):
            fedavg_aggregate([], [])

    def test_mismatched_counts_raise(self):
        with pytest.raises(TrainingError):
            fedavg_aggregate([np.zeros(2)], [1.0, 2.0])

    def test_negative_weight_raises(self):
        with pytest.raises(TrainingError):
            fedavg_aggregate([np.zeros(2), np.zeros(2)], [1.0, -1.0])

    def test_all_zero_weights_raise(self):
        with pytest.raises(TrainingError):
            fedavg_aggregate([np.zeros(2)], [0.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            fedavg_aggregate([np.zeros(2), np.zeros(3)], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 1])
    def test_non_finite_weight_is_named(self, bad, index):
        # NaN passes both ``< 0`` and ``total <= 0``, and ±inf makes
        # ``w / total`` NaN: unchecked, either gives an all-NaN model.
        weights = [1.0, 1.0]
        weights[index] = bad
        with pytest.raises(TrainingError, match=f"weight {index} is"):
            fedavg_aggregate([np.ones(2), np.ones(2)], weights)

    def test_accumulator_rejects_a_vector_of_another_length(self):
        accumulator = FedAvgAccumulator([1.0, 2.0], 3)
        accumulator.add(np.ones(3))
        with pytest.raises(ShapeError):
            accumulator.add(np.ones(4))


class TestProperties:
    @given(
        st.lists(
            arrays(
                np.float64,
                4,
                elements=st.floats(
                    min_value=-100, max_value=100, allow_nan=False
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_result_within_convex_hull(self, vectors, data):
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.1, max_value=10.0),
                min_size=len(vectors),
                max_size=len(vectors),
            )
        )
        out = fedavg_aggregate(vectors, weights)
        stacked = np.stack(vectors)
        assert np.all(out >= stacked.min(axis=0) - 1e-9)
        assert np.all(out <= stacked.max(axis=0) + 1e-9)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(2, 5),
        st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_weight_scale_invariance(self, scale, count, seed):
        rng = np.random.default_rng(seed)
        vectors = [rng.normal(size=3) for _ in range(count)]
        weights = list(rng.uniform(0.5, 2.0, size=count))
        a = fedavg_aggregate(vectors, weights)
        b = fedavg_aggregate(vectors, [w * scale for w in weights])
        assert np.allclose(a, b)

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_identical_updates_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=5)
        out = fedavg_aggregate([vector, vector.copy()], [1.0, 3.0])
        assert np.allclose(out, vector)


class TestBitwiseLayout:
    """Eq. 18 is summed client by client, whatever holds the vectors."""

    @given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_matrix_rows_and_list_of_copies_give_identical_bytes(
        self, count, length, seed
    ):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(count, length))
        weights = list(rng.integers(1, 50, size=count).astype(float))
        from_rows = fedavg_aggregate(matrix, weights)
        from_copies = fedavg_aggregate([row.copy() for row in matrix], weights)
        from_lists = fedavg_aggregate([row.tolist() for row in matrix], weights)
        assert from_rows.tobytes() == from_copies.tobytes()
        assert from_rows.tobytes() == from_lists.tobytes()
        # The sequential definition, one temporary per client.
        total = np.asarray(weights).sum()
        want = np.zeros(length)
        for row, weight in zip(matrix, weights):
            want += (weight / total) * row
        assert from_rows.tobytes() == want.tobytes()


class TestEq19Equivalence:
    """The paper's theoretical foundation (Section V-A): one FedAvg
    round with single-step full-batch GD equals one centralized GD step
    on the pooled selected data."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fedavg_round_equals_centralized_step(self, seed):
        rng = np.random.default_rng(seed)
        learning_rate = 0.3
        sizes = [12, 20, 8]
        datasets = [
            ArrayDataset(
                rng.normal(size=(n, 5)), rng.integers(0, 3, size=n)
            )
            for n in sizes
        ]

        global_model = build_mlp(5, 3, hidden_sizes=(7,), seed=seed)
        global_params = global_model.get_flat_params().copy()

        # Federated path: each client one full-batch GD step (Eq. 3),
        # server aggregates with |D_q| weights (Eq. 18).
        trainer = LocalTrainer(learning_rate=learning_rate, local_steps=1)
        updates, weights = [], []
        for dataset in datasets:
            client_model = global_model.clone()
            client_model.set_flat_params(global_params)
            trainer.train(client_model, dataset)
            updates.append(client_model.get_flat_params().copy())
            weights.append(float(len(dataset)))
        federated = fedavg_aggregate(updates, weights)

        # Centralized path: one GD step on the pooled dataset (Eq. 19).
        pooled = datasets[0].concat(datasets[1]).concat(datasets[2])
        central_model = global_model.clone()
        central_model.set_flat_params(global_params)
        loss = SoftmaxCrossEntropy()
        logits = central_model.forward(pooled.inputs, training=True)
        _, grad = loss.loss_and_grad(logits, pooled.labels)
        central_model.backward(grad)
        Sgd(learning_rate).step(central_model)
        centralized = central_model.get_flat_params()

        assert np.allclose(federated, centralized, atol=1e-10)

    def test_equivalence_breaks_with_multiple_local_steps(self):
        """Sanity check that the equivalence is specific to one step —
        with E > 1 local steps the two paths genuinely diverge."""
        rng = np.random.default_rng(3)
        datasets = [
            ArrayDataset(rng.normal(size=(10, 4)), rng.integers(0, 2, size=10))
            for _ in range(2)
        ]
        global_model = build_mlp(4, 2, hidden_sizes=(6,), seed=3)
        global_params = global_model.get_flat_params().copy()

        trainer = LocalTrainer(learning_rate=0.3, local_steps=3)
        updates, weights = [], []
        for dataset in datasets:
            model = global_model.clone()
            model.set_flat_params(global_params)
            trainer.train(model, dataset)
            updates.append(model.get_flat_params().copy())
            weights.append(float(len(dataset)))
        federated = fedavg_aggregate(updates, weights)

        pooled = datasets[0].concat(datasets[1])
        central = global_model.clone()
        central.set_flat_params(global_params)
        loss = SoftmaxCrossEntropy()
        opt = Sgd(0.3)
        for _ in range(3):
            logits = central.forward(pooled.inputs, training=True)
            _, grad = loss.loss_and_grad(logits, pooled.labels)
            central.backward(grad)
            opt.step(central)
        assert not np.allclose(federated, central.get_flat_params(), atol=1e-10)
