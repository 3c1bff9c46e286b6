"""Good/bad fixture pair per rule: each rule fires on its bad snippet
and stays silent on its good twin."""

from pathlib import Path

import pytest

from repro.checks import check_source

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
    ("REP003", "rep003_good.py", "rep003_bad.py", "repro.fixture"),
    ("REP004", "rep004_good.py", "rep004_bad.py", "repro.fixture"),
    ("REP005", "rep005_good.py", "rep005_bad.py", "repro.fixture"),
    ("REP006", "rep006_good.py", "rep006_bad.py", "repro.core.fixture"),
    ("REP007", "rep007_good.py", "rep007_bad.py", "repro.fl.execution"),
    ("REP008", "rep008_good.py", "rep008_bad.py", "repro.nn.fixture"),
    ("REP009", "rep009_good.py", "rep009_bad.py", "repro.fl.fixture"),
    ("REP010", "rep010_good.py", "rep010_bad.py", "repro.energy.fixture"),
    ("REP011", "rep011_good.py", "rep011_bad.py", "repro.core.fixture"),
    ("REP013", "rep013_good.py", "rep013_bad.py", "repro.fl.fixture"),
]


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


class TestRep003Findings:
    def test_flags_each_construct(self):
        report = run_fixture("rep003_bad.py", "REP003")
        messages = [f.message for f in report.findings]
        assert any("float equality" in m for m in messages)
        assert any("never add or subtract" in m for m in messages)
        assert any("augmented" in m for m in messages)
        assert len(report.findings) == 3


class TestRep004Findings:
    def test_flags_import_and_call(self):
        report = run_fixture("rep004_bad.py", "REP004")
        messages = " ".join(f.message for f in report.findings)
        assert "time.perf_counter" in messages
        assert "time.time()" in messages

    def test_obs_package_is_exempt(self):
        source = "import time\nstart = time.perf_counter()\n"
        report = check_source(
            source, module="repro.obs.metrics", is_test=False, rules=["REP004"]
        )
        assert report.findings == ()


class TestRep006Findings:
    MODULE = "repro.core.selection"

    def test_flags_loop_comprehension_and_wrapped_iterables(self):
        report = run_fixture("rep006_bad.py", "REP006", module=self.MODULE)
        messages = " ".join(f.message for f in report.findings)
        assert "'devices'" in messages
        assert "'selected'" in messages
        assert "'fleet'" in messages
        assert len(report.findings) == 3

    def test_out_of_scope_modules_are_exempt(self):
        source = "def f(devices):\n    return [d for d in devices]\n"
        for module in ("repro.fl.trainer", "repro.baselines.fedl"):
            report = check_source(
                source, module=module, is_test=False, rules=["REP006"]
            )
            assert report.findings == ()

    def test_tdma_module_is_in_scope(self):
        source = "def f(devices):\n    return [d for d in devices]\n"
        report = check_source(
            source,
            module="repro.network.tdma",
            is_test=False,
            rules=["REP006"],
        )
        assert len(report.findings) == 1

    def test_index_loops_stay_clean(self):
        source = (
            "def f(scores):\n"
            "    total = 0.0\n"
            "    for position in range(scores.shape[0]):\n"
            "        total += scores[position]\n"
            "    return total\n"
        )
        report = check_source(
            source, module=self.MODULE, is_test=False, rules=["REP006"]
        )
        assert report.findings == ()

    def test_shipped_hot_paths_are_clean(self):
        repo_root = Path(__file__).parents[2]
        src = repo_root / "src" / "repro"
        paths = sorted((src / "core").glob("*.py"))
        paths.append(src / "network" / "tdma.py")
        for path in paths:
            module = "repro." + str(
                path.relative_to(src)
            ).removesuffix(".py").replace("/", ".")
            report = check_source(
                path.read_text(encoding="utf-8"),
                path=str(path),
                module=module,
                is_test=False,
                rules=["REP006"],
            )
            assert report.findings == (), (path, report.findings)
            # src/ has one scheduler; the scalar oracle lives in tests/,
            # so nothing here may be waived.
            assert report.suppressed == (), (path, report.suppressed)


class TestRep005Findings:
    def test_flags_global_and_module_dict_writes(self):
        report = run_fixture("rep005_bad.py", "REP005")
        messages = " ".join(f.message for f in report.findings)
        assert "assigns global '_TOTAL'" in messages
        assert "mutates module-level '_CACHE'" in messages
        assert len(report.findings) == 2

    def test_undispatched_function_may_write_globals(self):
        source = (
            "_STATE = {}\n"
            "def setup(value):\n"
            "    _STATE['value'] = value\n"
        )
        report = check_source(
            source, module="repro.fl.execution", is_test=False, rules=["REP005"]
        )
        assert report.findings == ()

    def test_taint_follows_helper_calls(self):
        source = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "_STATE = {}\n"
            "def helper(item):\n"
            "    _STATE['last'] = item\n"
            "def worker(item):\n"
            "    helper(item)\n"
            "    return item\n"
            "def run(items):\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        return list(pool.map(worker, items))\n"
        )
        report = check_source(
            source, module="repro.fl.execution", is_test=False, rules=["REP005"]
        )
        assert len(report.findings) == 1
        assert "'helper'" in report.findings[0].message


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


class TestRep010Findings:
    MODULE = "repro.energy.fixture"

    def test_flags_each_mismatch_shape(self):
        report = run_fixture("rep010_bad.py", "REP010", module=self.MODULE)
        messages = [f.message for f in report.findings]
        assert any("expects _bits" in m for m in messages)
        assert any("expects _hz" in m for m in messages)
        assert any("binds a _seconds value to 'total_joules'" in m for m in messages)
        assert any("declares _joules but this return carries _seconds" in m for m in messages)
        assert any("never add or subtract" in m for m in messages)
        assert len(report.findings) == 5

    def test_unknown_units_stay_silent(self):
        source = (
            "def transfer_seconds(payload_bits, bandwidth_hz):\n"
            "    return payload_bits / bandwidth_hz\n"
            "def caller(payload, bandwidth):\n"
            "    return transfer_seconds(payload, bandwidth)\n"
        )
        report = check_source(
            source, module=self.MODULE, is_test=False, rules=["REP010"]
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
        source = "x = 1  # repro: allow[REP003]\n"
        report = check_source(
            source, module="repro.demo", is_test=True, rules=["REP012"]
        )
        assert len(report.findings) == 1

    def test_rep012_cannot_be_suppressed(self):
        source = "x = 1  # repro: allow[REP003, REP012]\n"
        report = check_source(
            source, module="repro.demo", is_test=False, rules=["REP012"]
        )
        assert len(report.findings) == 1
        assert report.suppressed == ()

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
