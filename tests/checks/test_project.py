"""Phase-1 index: summaries, import resolution, call-graph chasing."""

import ast
import textwrap

from repro.checks.project import (
    BLESSED_RNG,
    ProjectIndex,
    summarize_module,
)


def summarize(source, module="repro.demo", path=None, is_package=False):
    tree = ast.parse(textwrap.dedent(source))
    return summarize_module(
        tree, module, path or f"{module}.py", is_package=is_package
    )


class TestFunctionSummaries:
    def test_params(self):
        summary = summarize(
            """
            def cost(payload_bits, bandwidth_hz, label):
                return payload_bits
            """
        )
        fn = summary.functions["cost"]
        assert fn.params == ("payload_bits", "bandwidth_hz", "label")

    def test_returns_scratch(self):
        summary = summarize(
            """
            class L:
                def forward(self, x):
                    return self._scratch_buffer("o", x.shape)

                def safe(self, x):
                    return self._scratch_buffer("o", x.shape).copy()
            """
        )
        assert summary.functions["L.forward"].returns_scratch
        assert not summary.functions["L.safe"].returns_scratch

    def test_returns_shm_and_owner_classes(self):
        summary = summarize(
            """
            from multiprocessing import shared_memory

            def acquire(n):
                segment = shared_memory.SharedMemory(create=True, size=n)
                return segment

            class Pool:
                def _bind(self, n):
                    self._seg = shared_memory.SharedMemory(create=True, size=n)
            """
        )
        assert summary.functions["acquire"].returns_shm
        assert summary.shm_owner_classes == ("Pool",)

    def test_rng_origin_raw_and_blessed(self):
        summary = summarize(
            """
            import numpy as np
            from repro.rng import ensure_generator

            def raw(seed):
                return np.random.Generator(np.random.PCG64(seed))

            def blessed(seed):
                return ensure_generator(seed)
            """
        )
        assert summary.functions["raw"].rng_origin == "raw"
        assert summary.functions["blessed"].rng_origin == "blessed"

    def test_methods_are_qualified_and_self_is_dropped(self):
        summary = summarize(
            """
            class Fleet:
                def step(self, dt_seconds):
                    return dt_seconds
            """
        )
        fn = summary.functions["Fleet.step"]
        assert fn.qualname == "Fleet.step"
        assert fn.params == ("dt_seconds",)


class TestImportResolution:
    def test_absolute_aliased_and_from_imports(self):
        summary = summarize(
            """
            import numpy as np
            import json
            from repro.rng import ensure_generator as make_rng
            """
        )
        assert summary.imports["np"] == "numpy"
        assert summary.imports["json"] == "json"
        assert summary.imports["make_rng"] == "repro.rng.ensure_generator"

    def test_relative_import_from_module(self):
        summary = summarize(
            "from .layer import Layer\n", module="repro.nn.conv"
        )
        assert summary.imports["Layer"] == "repro.nn.layer.Layer"

    def test_relative_import_from_package_init(self):
        summary = summarize(
            "from .conv import Conv2D\n",
            module="repro.nn",
            path="repro/nn/__init__.py",
            is_package=True,
        )
        assert summary.imports["Conv2D"] == "repro.nn.conv.Conv2D"

    def test_two_level_relative_import(self):
        summary = summarize(
            "from ..rng import ensure_generator\n", module="repro.nn.conv"
        )
        assert summary.imports["ensure_generator"] == (
            "repro.rng.ensure_generator"
        )


class TestProjectIndex:
    def build(self, *sources):
        return ProjectIndex(
            summarize(source, module=module)
            for module, source in sources
        )

    def test_flat_function_lookup(self):
        index = self.build(
            ("repro.a", "def f(x_seconds):\n    return x_seconds\n")
        )
        assert index.function("repro.a.f").params == ("x_seconds",)
        assert index.function("repro.a.missing") is None
        assert index.function(None) is None

    def test_class_call_falls_back_to_constructor(self):
        index = self.build(
            (
                "repro.a",
                """
                class Pool:
                    def __init__(self, size_bits):
                        self.size_bits = size_bits
                """,
            )
        )
        assert index.function("repro.a.Pool").params == ("size_bits",)

    def test_returns_scratch_chases_and_guards_cycles(self):
        index = self.build(
            (
                "repro.a",
                """
                def ping(x):
                    return pong(x)

                def pong(x):
                    return ping(x)
                """,
            )
        )
        assert not index.returns_scratch("repro.a.ping")

    def test_rng_origin_blessed_short_circuit(self):
        for dotted in BLESSED_RNG:
            index = ProjectIndex([])
            assert index.rng_origin(dotted) == "blessed"

    def test_rng_origin_chases_helpers(self):
        index = self.build(
            (
                "repro.helpers",
                """
                import numpy as np

                def fresh(seed):
                    return np.random.default_rng(seed)
                """,
            ),
            (
                "repro.use",
                """
                from repro.helpers import fresh

                def wrapper(seed):
                    return fresh(seed)
                """,
            ),
        )
        assert index.rng_origin("repro.use.wrapper") == "raw"


class TestSummaryIdentity:
    SOURCE = """
    from multiprocessing import shared_memory

    def acquire_seconds(n, dt_seconds):
        segment = shared_memory.SharedMemory(create=True, size=n)
        return segment

    class Pool:
        def __init__(self, n):
            self._seg = shared_memory.SharedMemory(create=True, size=n)
    """

    def test_same_source_gives_equal_summaries(self):
        first = summarize(self.SOURCE, module="repro.fl.demo")
        assert summarize(self.SOURCE, module="repro.fl.demo") == first

    def test_renaming_a_function_changes_the_summary(self):
        first = summarize(self.SOURCE, module="repro.fl.demo")
        renamed = summarize(
            self.SOURCE.replace("acquire_seconds", "acquire_joules"),
            module="repro.fl.demo",
        )
        assert renamed != first
        assert "acquire_joules" in renamed.functions
