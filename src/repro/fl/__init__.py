"""The federated-learning engine (Algorithm 1's machinery).

Contains the FLCC server, the local client trainer (Eq. 3) and the
``train_clients`` primitive that runs it for a whole chunk, FedAvg
aggregation (Eq. 18), the pluggable client-execution backends
(serial / thread pool / process pool / zero-copy shared-memory process
pool), the synchronous round loop with
TDMA cost simulation, and the training history with time-to-accuracy
and energy-to-accuracy queries used by the paper's Table I and Fig. 3.
"""

from repro.fl.aggregation import fedavg_aggregate
from repro.fl.client import LocalTrainer, LocalUpdateSpec, train_clients
from repro.fl.execution import (
    BACKEND_NAMES,
    ClientUpdate,
    ExecutionBackend,
    ProcessPoolBackend,
    RoundResult,
    SerialBackend,
    ThreadPoolBackend,
    create_backend,
)
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.server import FederatedServer
from repro.fl.shm import SharedArrayPool, SharedMemoryProcessPoolBackend
from repro.fl.strategy import (
    FrequencyPolicy,
    FullParticipation,
    MaxFrequencyPolicy,
    SelectionStrategy,
    selection_count,
)
from repro.fl.trainer import FederatedTrainer, TrainerConfig

__all__ = [
    "fedavg_aggregate",
    "LocalTrainer",
    "train_clients",
    "BACKEND_NAMES",
    "ClientUpdate",
    "ExecutionBackend",
    "LocalUpdateSpec",
    "ProcessPoolBackend",
    "RoundResult",
    "SerialBackend",
    "SharedArrayPool",
    "SharedMemoryProcessPoolBackend",
    "ThreadPoolBackend",
    "create_backend",
    "RoundRecord",
    "TrainingHistory",
    "FederatedServer",
    "SelectionStrategy",
    "FrequencyPolicy",
    "FullParticipation",
    "MaxFrequencyPolicy",
    "selection_count",
    "FederatedTrainer",
    "TrainerConfig",
]
