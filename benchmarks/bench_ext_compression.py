"""Extension — model compression vs HELCFL's DVFS (paper Section I).

The paper's introduction argues that sparsification [5] and
quantization [6] reduce communication but "inevitably sacrifice model
accuracy", positioning HELCFL's system-level optimization as the
better lever. This bench measures that argument inside one simulator:
HELCFL with and without update compression, tracking accuracy, delay,
and energy.

Expected shape: compression slashes upload delay/energy (payload drops
>= 4x) but perturbs accuracy; HELCFL's DVFS saves energy with *zero*
accuracy cost. The two compose — compression plus DVFS is strictly
cheaper than either alone in communication-heavy regimes.
"""

import pytest

from repro.compression.pipeline import CompressionPipeline
from repro.experiments.runner import build_environment, build_trainer
from repro.experiments.settings import ExperimentSettings


def run_variant(settings, environment, compression, dvfs):
    name = "helcfl" if dvfs else "helcfl-nodvfs"
    trainer = build_trainer(name, settings, environment)
    trainer.compression = compression
    return trainer.run()


def run_compression_study():
    settings = ExperimentSettings.quick(seed=7, rounds=60, fraction=0.5)
    environment = build_environment(settings, iid=True)
    variants = {
        "plain": run_variant(settings, environment, None, dvfs=False),
        "dvfs": run_variant(settings, environment, None, dvfs=True),
        "quant8": run_variant(
            settings, environment, CompressionPipeline.quantized(bits=8),
            dvfs=False,
        ),
        "topk10": run_variant(
            settings,
            environment,
            CompressionPipeline.top_k(fraction=0.1),
            dvfs=False,
        ),
        "quant8+dvfs": run_variant(
            settings, environment, CompressionPipeline.quantized(bits=8),
            dvfs=True,
        ),
    }
    return {
        name: {
            "best": history.best_accuracy,
            "time": history.total_time,
            "energy": history.total_energy,
            "upload_energy": sum(r.upload_energy for r in history.records),
        }
        for name, history in variants.items()
    }


def test_compression_extension(benchmark):
    results = benchmark.pedantic(run_compression_study, rounds=1, iterations=1)
    plain = results["plain"]
    dvfs = results["dvfs"]
    quant = results["quant8"]
    topk = results["topk10"]
    combined = results["quant8+dvfs"]

    # Compression slashes upload energy (payload >= ~4x smaller).
    assert quant["upload_energy"] < 0.5 * plain["upload_energy"]
    assert topk["upload_energy"] < 0.5 * plain["upload_energy"]
    # DVFS saves total energy at zero accuracy cost.
    assert dvfs["energy"] < plain["energy"]
    assert dvfs["best"] == pytest.approx(plain["best"])
    # The combination is cheaper than plain on both axes.
    assert combined["energy"] < plain["energy"]
    assert combined["time"] < plain["time"]

    print()
    for name, r in results.items():
        print(
            f"  {name:12s} best={100 * r['best']:6.2f}%  "
            f"time={r['time'] / 60:6.2f}min  energy={r['energy']:8.2f}J  "
            f"upload={r['upload_energy']:7.2f}J"
        )
