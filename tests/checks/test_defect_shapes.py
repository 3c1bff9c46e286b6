"""Every shape a kept rule exists to catch, next to its repair.

Each defect runs under every shipped rule and must fire the rule that
owns it; each repaired twin runs under every shipped rule and must be
clean. A rule that stops seeing one of its shapes, or starts flagging
the idiom the repo uses instead, fails here by name.
"""

import textwrap

import pytest

from repro.checks import ALL_RULES, check_source

QUANTIZER = "repro.compression.quantization"
FL = "repro.fl.fixture"
NN = "repro.nn.fixture"
CORE = "repro.core.fixture"


def src(text):
    return textwrap.dedent(text).lstrip("\n")


DEFECTS = [
    # REP001: randomness outside the seeded repro.rng chain.
    pytest.param("REP001", QUANTIZER, "import random\n", id="rep001-import-random"),
    pytest.param(
        "REP001", QUANTIZER, "import random as rnd\n", id="rep001-import-random-as"
    ),
    pytest.param(
        "REP001", QUANTIZER, "from random import shuffle\n", id="rep001-from-random"
    ),
    pytest.param(
        "REP001",
        QUANTIZER,
        "import numpy as np\nnp.random.seed(0)\n",
        id="rep001-legacy-seed",
    ),
    pytest.param(
        "REP001",
        QUANTIZER,
        "import numpy as np\nnoise = np.random.normal(0.0, 1.0, size=3)\n",
        id="rep001-legacy-draw",
    ),
    pytest.param(
        "REP001",
        QUANTIZER,
        "import numpy as npy\nnoise = npy.random.rand(3)\n",
        id="rep001-legacy-draw-aliased-numpy",
    ),
    pytest.param(
        "REP001",
        QUANTIZER,
        "import numpy as np\nstate = np.random.RandomState(0)\n",
        id="rep001-random-state",
    ),
    pytest.param(
        "REP001",
        QUANTIZER,
        "import numpy as np\nrng = np.random.default_rng()\n",
        id="rep001-unseeded-default-rng",
    ),
    pytest.param(
        "REP001",
        "repro.devices.fleet",
        "import numpy as np\nrng = np.random.default_rng(3)\n",
        id="rep001-seeded-default-rng",
    ),
    pytest.param(
        "REP001",
        QUANTIZER,
        "from numpy.random import default_rng\n",
        id="rep001-import-default-rng",
    ),
    pytest.param(
        "REP001",
        QUANTIZER,
        "from numpy.random import normal\n",
        id="rep001-import-legacy-function",
    ),
    # REP008: a scratch buffer outliving the call that filled it.
    pytest.param(
        "REP008",
        NN,
        src(
            """
            import numpy as np
            from repro.nn.layer import Layer

            class Dense(Layer):
                def forward(self, inputs, training=False):
                    out = np.matmul(
                        inputs, self.params["W"],
                        out=self._scratch_buffer("out", (4, 4)),
                    )
                    self._last = out
                    return out.copy()
            """
        ),
        id="rep008-stored-on-self",
    ),
    pytest.param(
        "REP008",
        NN,
        src(
            """
            import numpy as np
            from repro.nn.layer import Layer

            class Dense(Layer):
                def forward(self, inputs, training=False):
                    out = np.matmul(
                        inputs, self.params["W"],
                        out=self._scratch_buffer("out", (4, 4)),
                    )
                    return out
            """
        ),
        id="rep008-returned",
    ),
    pytest.param(
        "REP008",
        NN,
        src(
            """
            import numpy as np
            from repro.nn.layer import Layer

            class Dense(Layer):
                def backward(self, grad_output):
                    buf = self._scratch_buffer("grad", grad_output.shape)
                    np.matmul(buf, self.params["W"], out=buf)
                    return buf.copy()
            """
        ),
        id="rep008-out-aliases-operand",
    ),
    # REP009: a created shared-memory block that can outlive the run.
    pytest.param(
        "REP009",
        FL,
        src(
            """
            from multiprocessing import shared_memory

            def size_of(n):
                block = shared_memory.SharedMemory(create=True, size=n)
                return block.size
            """
        ),
        id="rep009-never-released",
    ),
    pytest.param(
        "REP009",
        FL,
        src(
            """
            from multiprocessing import shared_memory

            def maybe_release(n, flag):
                block = shared_memory.SharedMemory(create=True, size=n)
                if flag:
                    block.close()
                    block.unlink()
                return n
            """
        ),
        id="rep009-released-on-one-branch",
    ),
    pytest.param(
        "REP009",
        FL,
        src(
            """
            from multiprocessing import shared_memory

            class Holder:
                def __init__(self, n):
                    self._block = shared_memory.SharedMemory(create=True, size=n)
            """
        ),
        id="rep009-class-without-teardown",
    ),
    # REP011: a raw numpy generator driving a stochastic sink.
    pytest.param(
        "REP011",
        CORE,
        src(
            """
            import numpy as np

            def pick(scores, seed):
                rng = np.random.Generator(np.random.PCG64(seed))
                return scores[rng.integers(0, scores.shape[0])]
            """
        ),
        id="rep011-raw-generator-bound-in-sink",
    ),
    pytest.param(
        "REP011",
        CORE,
        src(
            """
            import numpy as np

            def fresh(seed):
                return np.random.Generator(np.random.PCG64(seed))
            """
        ),
        id="rep011-raw-generator-returned-from-sink",
    ),
    pytest.param(
        "REP011",
        CORE,
        src(
            """
            import numpy as np

            def sample(scores, rng):
                return scores[rng.integers(0, scores.shape[0])]

            def _fresh(seed):
                return np.random.Generator(np.random.PCG64(seed))

            def resample(scores, seed):
                return sample(scores, _fresh(seed))
            """
        ),
        id="rep011-raw-helper-passed-to-sink",
    ),
    # REP013: a span that some path leaves open.
    pytest.param(
        "REP013",
        FL,
        src(
            """
            def run(observer):
                observer.span("round")
            """
        ),
        id="rep013-discarded",
    ),
    pytest.param(
        "REP013",
        FL,
        src(
            """
            def run(observer, work):
                span = observer.span("round")
                return work()
            """
        ),
        id="rep013-never-ended",
    ),
    pytest.param(
        "REP013",
        FL,
        src(
            """
            def run(observer, work):
                span = observer.span("round")
                if work():
                    span.end()
            """
        ),
        id="rep013-ended-on-one-branch",
    ),
    pytest.param(
        "REP013",
        FL,
        src(
            """
            def run(observer, work):
                span = observer.span("run")
                try:
                    work()
                except Exception:
                    span.end()
                    raise
            """
        ),
        id="rep013-ended-only-on-error",
    ),
    pytest.param(
        "REP013",
        FL,
        src(
            """
            def run(observer, pending):
                span = observer.span("drain")
                while pending():
                    span.end()
            """
        ),
        id="rep013-ended-inside-while",
    ),
]


REPAIRS = [
    pytest.param(
        QUANTIZER,
        src(
            """
            from repro.rng import ensure_generator

            def stochastic_round(values, levels, seed):
                rng = ensure_generator(seed)
                return (values * levels + rng.random(values.shape)) // 1 / levels
            """
        ),
        id="rep001-ensure-generator",
    ),
    pytest.param(
        QUANTIZER,
        "from numpy.random import Generator, PCG64, SeedSequence\n",
        id="rep001-generator-machinery-import",
    ),
    pytest.param(
        "repro.rng",
        "import numpy as np\nrng = np.random.default_rng(3)\n",
        id="rep001-repro-rng-builds-generators",
    ),
    pytest.param(
        NN,
        src(
            """
            import numpy as np
            from repro.nn.layer import Layer

            class Dense(Layer):
                def forward(self, inputs, training=False):
                    out = np.matmul(
                        inputs, self.params["W"],
                        out=self._scratch_buffer("out", (4, 4)),
                    )
                    if training:
                        self._last = out.copy()
                    return np.ascontiguousarray(out)
            """
        ),
        id="rep008-laundered-before-escape",
    ),
    pytest.param(
        NN,
        src(
            """
            import numpy as np
            from repro.nn.layer import Layer

            class Dense(Layer):
                def backward(self, grad_output):
                    buf = self._scratch_buffer("grad", grad_output.shape)
                    np.copyto(buf, grad_output)
                    return buf.copy()
            """
        ),
        id="rep008-copyto-then-copy",
    ),
    pytest.param(
        FL,
        src(
            """
            from multiprocessing import shared_memory

            def scoped(n):
                block = shared_memory.SharedMemory(create=True, size=n)
                try:
                    return bytes(block.buf[:n])
                finally:
                    block.close()
                    block.unlink()
            """
        ),
        id="rep009-released-in-finally",
    ),
    pytest.param(
        FL,
        src(
            """
            from multiprocessing import shared_memory

            def acquire(n):
                block = shared_memory.SharedMemory(create=True, size=n)
                return block
            """
        ),
        id="rep009-handed-to-caller",
    ),
    pytest.param(
        FL,
        src(
            """
            from multiprocessing import shared_memory

            def peek(name):
                block = shared_memory.SharedMemory(name=name)
                return bytes(block.buf[:1])
            """
        ),
        id="rep009-attach-only",
    ),
    pytest.param(
        FL,
        src(
            """
            import atexit
            from multiprocessing import shared_memory

            class Pool:
                def __init__(self, n):
                    self._block = shared_memory.SharedMemory(create=True, size=n)
                    atexit.register(self.close)

                def close(self):
                    self._block.close()
                    self._block.unlink()
            """
        ),
        id="rep009-class-with-teardown",
    ),
    pytest.param(
        CORE,
        src(
            """
            from repro.rng import ensure_generator

            def sample(scores, rng):
                return scores[rng.integers(0, scores.shape[0])]

            def resample(scores, seed):
                return sample(scores, ensure_generator(seed))
            """
        ),
        id="rep011-ensure-generator-passed-to-sink",
    ),
    pytest.param(
        FL,
        src(
            """
            def run(observer, work):
                with observer.span("round"):
                    return work()
            """
        ),
        id="rep013-with-managed",
    ),
    pytest.param(
        FL,
        src(
            """
            def run(observer, work):
                span = observer.span("run")
                try:
                    work()
                finally:
                    span.end()
            """
        ),
        id="rep013-ended-in-finally",
    ),
    pytest.param(
        FL,
        src(
            """
            def run(observer, rounds, work):
                for index in rounds:
                    span = observer.span("round", span_id=f"round-{index}")
                    work(index)
                    span.end()
            """
        ),
        id="rep013-ended-per-iteration",
    ),
    pytest.param(
        FL,
        src(
            """
            def open_attempt(observer, active, run_id):
                span = observer.span("attempt", span_id=run_id)
                active[run_id] = span
            """
        ),
        id="rep013-handed-to-container",
    ),
    pytest.param(
        FL,
        src(
            """
            def blip(observer):
                observer.span("blip").end()
            """
        ),
        id="rep013-chained-end",
    ),
]


@pytest.mark.parametrize("rule,module,source", DEFECTS)
def test_defect_fires_its_rule(rule, module, source):
    report = check_source(source, module=module)
    assert rule in {finding.rule_id for finding in report.findings}, (
        report.findings
    )
    assert report.exit_code == 1


@pytest.mark.parametrize("module,source", REPAIRS)
def test_repair_is_clean_under_every_rule(module, source):
    report = check_source(source, module=module)
    assert report.findings == ()
    assert report.exit_code == 0


def test_every_kept_rule_has_defect_shapes():
    # REP012 reads comments, not code; tests/checks/test_rules.py covers it.
    covered = {case.values[0] for case in DEFECTS}
    assert covered == set(ALL_RULES) - {"REP012"}
