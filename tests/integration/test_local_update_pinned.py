"""Cross-commit pins of every quick-profile scheme's local update and run.

The paper's five synchronous schemes (``helcfl``, ``helcfl-nodvfs``,
``classic``, ``fedcs`` and ``fedl``) train through
``FederatedTrainer``; separated learning and the semi-asynchronous
trainer drive :func:`repro.fl.client.train_clients` themselves instead
of going through an execution backend, so the trainer's golden and
trace pins never see them. This file pins their bytes across commits:
the sha256 of ``history.to_json()`` of each scheme and of SL (quick
profile, IID and non-IID, ``<scheme>/quick/<regime>``) and of
semi-async runs (MLP and CNN, non-IID shards, two local steps,
``async/<model>/<updates>``).

The five schemes' digests were recorded on the commit before
``repro.nn`` lost its optimizers, schedules and unused layers; the
others on the commit where each of these loops still kept its own
``LocalTrainer`` (and SL one model clone per user). A mismatch means a
trained row, a loss, an accuracy or the order of a total moved;
regenerate only if that was intended::

    PYTHONPATH=src:. python tests/integration/test_local_update_pinned.py

``SLOW`` holds the cases too slow for tier-1 (some 10 s each: SL at
the default profile, 100 users and 300 rounds, and 200 CNN updates);
the command above prints them too, for a check by hand.
"""

import hashlib

import pytest

from repro.experiments.runner import build_environment, run_strategy
from repro.experiments.settings import ExperimentSettings
from repro.extensions.async_fl import SemiAsyncConfig, SemiAsyncTrainer
from repro.fl.server import FederatedServer

SEED = 7

# The paper's synchronous schemes, each run at ``<scheme>/quick/<regime>``.
SCHEMES = ("helcfl", "helcfl-nodvfs", "classic", "fedcs", "fedl")

PINNED = {
    "helcfl/quick/iid": (
        "5acad6394cb1a1a05db550e001833eec03ca68abbdc7000a88bc94caef3e684c"
    ),
    "helcfl/quick/noniid": (
        "b677a3bee811e679fb3ec870b5e46d383d0c038f865226e54572fc4135c20183"
    ),
    "helcfl-nodvfs/quick/iid": (
        "2588cb3424ca161e87cb155943e5202330bd67a4e01eaab350f7f691dfa28d62"
    ),
    "helcfl-nodvfs/quick/noniid": (
        "c09e3640e368177941c30bad617c0de466ffbdb4c5f4e2df9b5a67cc6eeccc82"
    ),
    "classic/quick/iid": (
        "ceab5c56a73af96874d3c95de904b93969a627732a0c6d6ecc91f7e1b3dc608d"
    ),
    "classic/quick/noniid": (
        "c2b05cdec257803d242ef587b78738297ddca54cc4a3aed8949c6bb23c5c3269"
    ),
    "fedcs/quick/iid": (
        "38d48dbf6663ec4403f1ed2082533de2e66f3c2064dabbb43f439eb44edc0a12"
    ),
    "fedcs/quick/noniid": (
        "77760c270fc6e57142e4f143596c8437d4ee49fa58aed3db9411fccac52f3f20"
    ),
    "fedl/quick/iid": (
        "d6aa55946d380d6e648e448a5a54542d18e343c135bf061403aec942243b6ae6"
    ),
    "fedl/quick/noniid": (
        "d5dc66d6dad842b44f1be5fbdd57e040ab31bb9a9e7bd4a02c94a0b5f3cda6ac"
    ),
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


def run_digest(name: str, settings: ExperimentSettings, iid: bool) -> str:
    return sha256(run_strategy(name, settings, iid=iid).to_json())


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


def digest(case: str) -> str:
    kind, *rest = case.split("/")
    if kind == "sl" or kind in SCHEMES:
        profile, regime = rest
        settings = (
            ExperimentSettings.quick(seed=SEED)
            if profile == "quick"
            else ExperimentSettings(seed=SEED)
        )
        return run_digest(kind, settings, iid=regime == "iid")
    return async_digest(rest[0], int(rest[1]))


@pytest.mark.parametrize("case", sorted(PINNED))
def test_digest_is_pinned(case):
    assert digest(case) == PINNED[case], case


if __name__ == "__main__":
    for case in [*sorted(PINNED), *sorted(SLOW)]:
        print(f'    "{case}": (\n        "{digest(case)}"\n    ),')
