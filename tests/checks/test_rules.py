"""Good/bad fixture pair per rule: each rule fires on its bad snippet
and stays silent on its good twin. Each rule also keeps one seeded
defect shaped like the bug from this repo's history that justifies it."""

import textwrap
from pathlib import Path

import pytest

from repro.checks import ALL_RULES, check_paths
from tests.checks.test_crossfile import write_tree
from tests.checks.source import check_source

FIXTURES = Path(__file__).parent / "fixtures"


def run_fixture(name, rule, module="repro.fixture"):
    path = FIXTURES / name
    return check_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        module=module,
        is_test=False,
        rules=[rule],
    )


PAIRS = [
    ("REP001", "rep001_good.py", "rep001_bad.py", "repro.fixture"),
    ("REP008", "rep008_good.py", "rep008_bad.py", "repro.nn.fixture"),
    ("REP009", "rep009_good.py", "rep009_bad.py", "repro.fl.fixture"),
    ("REP011", "rep011_good.py", "rep011_bad.py", "repro.core.fixture"),
    ("REP013", "rep013_good.py", "rep013_bad.py", "repro.fl.fixture"),
]


def test_fixture_table_covers_every_rule_but_rep012():
    # REP012 reads comments, not code; TestRep012Findings covers it.
    assert sorted(rule for rule, *_ in PAIRS) == sorted(
        set(ALL_RULES) - {"REP012"}
    )


@pytest.mark.parametrize("rule,good,bad,module", PAIRS)
def test_good_snippet_is_clean(rule, good, bad, module):
    report = run_fixture(good, rule, module=module)
    assert report.findings == ()
    assert report.exit_code == 0


@pytest.mark.parametrize("rule,good,bad,module", PAIRS)
def test_bad_snippet_fires(rule, good, bad, module):
    report = run_fixture(bad, rule, module=module)
    assert report.findings, f"{rule} found nothing in {bad}"
    assert {f.rule_id for f in report.findings} == {rule}
    assert report.exit_code == 1


class TestRep001Findings:
    def test_flags_each_construct(self):
        report = run_fixture("rep001_bad.py", "REP001")
        messages = " ".join(f.message for f in report.findings)
        assert "stdlib 'random'" in messages
        assert "np.random.seed()" in messages
        assert "np.random.normal()" in messages
        assert "unseeded np.random.default_rng()" in messages
        assert len(report.findings) == 4

    def test_repro_rng_module_is_exempt(self):
        source = "import numpy as np\nrng = np.random.default_rng(3)\n"
        report = check_source(
            source, module="repro.rng", is_test=False, rules=["REP001"]
        )
        assert report.findings == ()

    def test_seeded_default_rng_still_flagged_elsewhere(self):
        source = "import numpy as np\nrng = np.random.default_rng(3)\n"
        report = check_source(
            source, module="repro.devices.fleet", is_test=False, rules=["REP001"]
        )
        assert len(report.findings) == 1
        assert "ensure_generator" in report.findings[0].message


class TestRep008Findings:
    MODULE = "repro.nn.fixture"

    def test_flags_store_return_and_aliased_out(self):
        report = run_fixture("rep008_bad.py", "REP008", module=self.MODULE)
        messages = [f.message for f in report.findings]
        assert any("self._last" in m for m in messages)
        assert any("returns a _scratch_buffer-backed array" in m for m in messages)
        assert any("out= aliasing its operand" in m for m in messages)
        assert len(report.findings) == 3

    def test_laundering_clears_the_taint(self):
        report = run_fixture("rep008_good.py", "REP008", module=self.MODULE)
        assert report.findings == ()

    def test_outside_repro_is_exempt(self):
        path = FIXTURES / "rep008_bad.py"
        report = check_source(
            path.read_text(encoding="utf-8"),
            path=str(path),
            module="examples.demo",
            is_test=False,
            rules=["REP008"],
        )
        assert report.findings == ()


class TestRep009Findings:
    MODULE = "repro.fl.fixture"

    def test_flags_leak_conditional_close_and_unowned_class(self):
        report = run_fixture("rep009_bad.py", "REP009", module=self.MODULE)
        messages = [f.message for f in report.findings]
        assert any("never reaches close()/unlink()" in m for m in messages)
        assert any("only on some control-flow paths" in m for m in messages)
        assert any("'LeakyHolder'" in m for m in messages)
        assert len(report.findings) == 3

    def test_finally_handoff_and_atexit_are_clean(self):
        report = run_fixture("rep009_good.py", "REP009", module=self.MODULE)
        assert report.findings == ()

    def test_attach_only_handles_are_exempt(self):
        source = (
            "from multiprocessing import shared_memory\n"
            "def peek(name):\n"
            "    segment = shared_memory.SharedMemory(name=name)\n"
            "    return bytes(segment.buf[:1])\n"
        )
        report = check_source(
            source, module=self.MODULE, is_test=False, rules=["REP009"]
        )
        assert report.findings == ()


class TestRep011Findings:
    MODULE = "repro.core.fixture"

    def test_flags_raw_binds_returns_and_sink_args(self):
        report = run_fixture("rep011_bad.py", "REP011", module=self.MODULE)
        messages = [f.message for f in report.findings]
        assert any("'rng' holds a generator of raw numpy origin" in m for m in messages)
        assert any("returns a generator of raw numpy origin" in m for m in messages)
        assert any("_fresh_rng()" in m for m in messages)
        assert len(report.findings) == 4

    def test_blessed_factories_are_clean(self):
        report = run_fixture("rep011_good.py", "REP011", module=self.MODULE)
        assert report.findings == ()

    def test_non_sink_modules_may_carry_helpers(self):
        path = FIXTURES / "rep011_bad.py"
        report = check_source(
            path.read_text(encoding="utf-8"),
            path=str(path),
            module="repro.devices.fixture",
            is_test=False,
            rules=["REP011"],
        )
        assert report.findings == ()

    def test_rng_module_itself_is_exempt(self):
        source = (
            "import numpy as np\n"
            "def build_rng(seed):\n"
            "    rng = np.random.Generator(np.random.PCG64(seed))\n"
            "    return rng\n"
        )
        report = check_source(
            source, module="repro.rng", is_test=False, rules=["REP011"]
        )
        assert report.findings == ()


class TestRep013Findings:
    MODULE = "repro.fl.fixture"

    def test_flags_each_leak_shape(self):
        report = run_fixture("rep013_bad.py", "REP013", module=self.MODULE)
        messages = [f.message for f in report.findings]
        assert any("immediately discarded" in m for m in messages)
        assert any("never reaches .end()" in m for m in messages)
        assert sum("only under extra conditions" in m for m in messages) == 2
        assert len(report.findings) == 4

    def test_closing_idioms_are_clean(self):
        report = run_fixture("rep013_good.py", "REP013", module=self.MODULE)
        assert report.findings == ()

    def test_shipped_span_call_sites_are_clean(self):
        repo_root = Path(__file__).parents[2]
        src = repo_root / "src" / "repro"
        for rel in ("fl/trainer.py", "campaign/pool.py", "fl/execution.py"):
            path = src / rel
            module = "repro." + rel.removesuffix(".py").replace("/", ".")
            report = check_source(
                path.read_text(encoding="utf-8"),
                path=str(path),
                module=module,
                is_test=False,
                rules=["REP013"],
            )
            assert report.findings == (), (path, report.findings)


class TestRep012Findings:
    def test_bare_allow_is_a_finding(self):
        source = "import random  # repro: allow[REP001]\n"
        report = check_source(
            source, module="repro.demo", is_test=False, rules=["REP012"]
        )
        assert len(report.findings) == 1
        assert "no justification" in report.findings[0].message

    def test_justified_allow_is_clean(self):
        source = "import random  # repro: allow[REP001] fixture sampler only\n"
        report = check_source(
            source, module="repro.demo", is_test=False, rules=["REP012"]
        )
        assert report.findings == ()

    def test_applies_to_test_code_too(self):
        source = "x = 1  # repro: allow[REP001]\n"
        report = check_source(
            source, module="repro.demo", is_test=True, rules=["REP012"]
        )
        assert len(report.findings) == 1

    def test_rep012_cannot_be_suppressed(self):
        source = "x = 1  # repro: allow[REP001, REP012]\n"
        report = check_source(
            source, module="repro.demo", is_test=False, rules=["REP012"]
        )
        assert len(report.findings) == 1
        assert report.suppressed == ()

    def test_deleted_rule_id_is_a_stale_suppression(self):
        # Split so this file's own line is not a suppression comment.
        source = "t = now()  # repro: allow" + "[REP004] wall clock\n"
        report = check_source(
            source, module="repro.demo", is_test=True, rules=["REP012"]
        )
        assert len(report.findings) == 1
        assert "names no shipped rule: REP004" in report.findings[0].message

    def test_one_stale_id_among_known_ones_is_flagged(self):
        source = "x = 1  # repro: allow" + "[REP008, rep005] same-step cache\n"
        report = check_source(
            source, module="repro.demo", is_test=False, rules=["REP012"]
        )
        assert [f.message.rsplit(": ", 1)[1] for f in report.findings] == [
            "rep005; delete the stale id"
        ]

    def test_star_and_every_shipped_id_are_known(self):
        ids = ", ".join(["*", *ALL_RULES])
        source = f"x = 1  # repro: allow[{ids}] every rule\n"
        report = check_source(
            source, module="repro.demo", is_test=False, rules=["REP012"]
        )
        assert report.findings == ()

    def test_suppressed_dataflow_finding_needs_justified_comment(self):
        source = (
            "import numpy as np\n"
            "from repro.nn.layer import Layer\n"
            "class Cache(Layer):\n"
            "    def forward(self, inputs, training=False):\n"
            "        out = np.matmul(inputs, inputs, "
            "out=self._scratch_buffer('o', (2, 2)))\n"
            "        self._kept = out  # repro: allow[REP008] same-step cache\n"
            "        return out.copy()\n"
        )
        report = check_source(
            source, module="repro.nn.fixture", is_test=False
        )
        assert report.findings == ()
        assert {f.rule_id for f in report.suppressed} == {"REP008"}


def fired(report):
    return {finding.rule_id for finding in report.findings}


class TestSeededDefects:
    """One bug per kept rule, shaped like the defect from this repo's
    history that justifies the rule. Every rule runs, so each test
    fails once its rule leaves ``ALL_RULES``."""

    def test_rep001_import_random_in_a_quantizer(self):
        # The linter's first run found stdlib/legacy RNG in quantization
        # and secure aggregation; each draw forked the seed universe.
        source = textwrap.dedent(
            """
            import random

            def stochastic_round(values, levels):
                return [round(v * levels + random.random()) / levels for v in values]
            """
        )
        report = check_source(source, module="repro.compression.quantization")
        assert "REP001" in fired(report)

    def test_rep008_same_step_im2col_cache(self):
        # Conv2D kept its im2col scratch on self for backward(); the
        # next forward() overwrote it.
        source = textwrap.dedent(
            """
            import numpy as np
            from repro.nn.conv_utils import im2col
            from repro.nn.layer import Layer

            class Conv2D(Layer):
                def forward(self, inputs, training=False):
                    cols, _, _ = im2col(
                        inputs, 3, 3, 1, 1,
                        out=self._scratch_buffer("cols", (64, 27)),
                    )
                    if training:
                        self._cols = cols
                    return np.matmul(cols, self.params["W"])
            """
        )
        report = check_source(source, module="repro.nn.conv")
        assert "REP008" in fired(report)

    def test_rep009_block_leaked_when_a_worker_raises(self):
        # The broadcast block was released only after a clean map; a
        # raising worker left the /dev/shm segment behind.
        source = textwrap.dedent(
            """
            from multiprocessing import shared_memory
            from repro.errors import TrainingError

            def run_round(pool, params, tasks, train_slot):
                block = shared_memory.SharedMemory(create=True, size=params.nbytes)
                try:
                    results = list(pool.map(train_slot, tasks))
                except Exception as exc:
                    raise TrainingError("a worker failed") from exc
                else:
                    block.close()
                    block.unlink()
                return results
            """
        )
        report = check_source(source, module="repro.fl.shm")
        assert "REP009" in fired(report)

    def test_rep011_raw_default_rng_flows_into_core(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/core/selection.py": """
                def sample_clients(scores, count, rng):
                    return rng.choice(scores.shape[0], size=count, replace=False)
                """,
                "repro/experiments/sweep.py": """
                import numpy as np
                from repro.core.selection import sample_clients

                def pick(scores, count, seed):
                    return sample_clients(scores, count, np.random.default_rng(seed))
                """,
            },
        )
        report = check_paths([tmp_path / "repro"])
        assert "REP011" in fired(report)

    def test_rep013_span_left_open_on_the_crash_path(self):
        # An attempt span closed only when the attempt finished cleanly:
        # a crashed attempt left a dangling span_start in the trace.
        source = textwrap.dedent(
            """
            def run_attempt(observer, attempt):
                span = observer.span("attempt", span_id=attempt.run_id)
                status = attempt.execute()
                if status == "done":
                    span.end()
                return status
            """
        )
        report = check_source(source, module="repro.campaign.pool")
        assert "REP013" in fired(report)
