"""Cross-commit pins of the runs that train outside ``FederatedTrainer``.

Separated learning, the semi-asynchronous trainer and personalization
each drive :func:`repro.fl.client.train_clients` themselves instead of
going through an execution backend, so the trainer's golden and trace
pins never see them. This file pins their bytes across commits: the
sha256 of ``history.to_json()`` of SL (quick profile, IID and non-IID)
and of semi-async runs (MLP and CNN, non-IID shards, two local steps,
``async/<model>/<updates>``), and of a personalization report (MLP and
CNN, untrained global model).

Every digest but ``personalization/cnn`` was recorded on the commit
where each of these loops still kept its own ``LocalTrainer`` (and SL
one model clone per user). ``personalization/cnn`` was recorded once
personalization scored the global model with its own BatchNorm
statistics instead of those the previous users' fine-tuning had left in
a shared copy. A mismatch means a trained row, a loss, an accuracy or
the order of a total moved; regenerate only if that was intended::

    PYTHONPATH=src:. python tests/integration/test_local_update_pinned.py

``SLOW`` holds the cases too slow for tier-1 (some 10 s each: SL at
the default profile, 100 users and 300 rounds, and 200 CNN updates);
the command above prints them too, for a check by hand.
"""

import hashlib
import json

import pytest

from repro.experiments.runner import build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.extensions.async_fl import SemiAsyncConfig, SemiAsyncTrainer
from repro.extensions.personalization import evaluate_personalization
from repro.fl.server import FederatedServer

SEED = 7

PINNED = {
    "sl/quick/iid": (
        "7b48c9cdb74e5b3964a92e8e7c838dc75b830cfd10be9e8dc6a63fb59c5621da"
    ),
    "sl/quick/noniid": (
        "0fc99981115ea674cf5db8c89ef96f15de2cc9336f3c2ecd4942cee3266dc138"
    ),
    "async/mlp/200": (
        "35ceafb8f15b7b5fccc044f8abc601285f052579613e1588a23ff73f61947e03"
    ),
    "async/cnn/40": (
        "50bf3d8e66eb1120463d99ccc2b2c49d7d2e5bab22ffe046250d454daa9dd38b"
    ),
    "personalization/mlp": (
        "fa988657b847920b452d2221686e74e5b9b7b50a549edf0aced942c450cf49f6"
    ),
    "personalization/cnn": (
        "9080919d078b76851e9f988ab34b87b420ee68ccc07d2edb6ff20461f7a74e65"
    ),
}

SLOW = {
    "sl/default/iid": (
        "a6c8103b4a3858ee296954df0a38b6621db77cf7219093f89590b773f3f7cf2c"
    ),
    "sl/default/noniid": (
        "7f787f443ffc7b1c0214183454f8863adba5d32415662a75efb8d9f1fd6a5329"
    ),
    "async/cnn/200": (
        "2b1a48ffe246c7de5b90cac21900211db434e4490ffb3514abc1579922345954"
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sl_digest(settings: ExperimentSettings, iid: bool) -> str:
    return sha256(run_strategy("sl", settings, iid=iid).to_json())


def async_digest(model: str, updates: int) -> str:
    settings = ExperimentSettings.quick(seed=SEED, model=model)
    environment = build_environment(settings, iid=False)
    server = FederatedServer(
        settings.build_model(flattened=settings.uses_flat_inputs),
        test_dataset=environment.test,
        payload_bits=settings.payload_bits,
    )
    config = SemiAsyncConfig(
        max_updates=updates,
        bandwidth_hz=settings.bandwidth_hz,
        learning_rate=settings.learning_rate,
        local_steps=2,
        eval_every=5,
    )
    history = SemiAsyncTrainer(server, environment.devices, config).run()
    return sha256(history.to_json())


def personalization_digest(model: str) -> str:
    settings = ExperimentSettings.quick(seed=SEED, model=model)
    environment = build_environment(settings, iid=False)
    report = evaluate_personalization(
        settings.build_model(flattened=settings.uses_flat_inputs),
        environment.devices,
        fine_tune_steps=3,
        max_users=12,
        seed=SEED,
    )
    return sha256(
        json.dumps(
            [
                report.global_accuracies,
                report.personalized_accuracies,
                report.device_ids,
            ]
        )
    )


def digest(case: str) -> str:
    kind, *rest = case.split("/")
    if kind == "sl":
        profile, regime = rest
        settings = (
            ExperimentSettings.quick(seed=SEED)
            if profile == "quick"
            else ExperimentSettings(seed=SEED)
        )
        return sl_digest(settings, iid=regime == "iid")
    if kind == "async":
        return async_digest(rest[0], int(rest[1]))
    return personalization_digest(rest[0])


@pytest.mark.parametrize("case", sorted(PINNED))
def test_digest_is_pinned(case):
    assert digest(case) == PINNED[case], case


if __name__ == "__main__":
    for case in [*sorted(PINNED), *sorted(SLOW)]:
        print(f'    "{case}": (\n        "{digest(case)}"\n    ),')
