"""Phase-2 engine behavior: cross-file detection, and repeated runs
that must give byte-equal reports."""

import json
import textwrap

from repro.checks import check_paths


def write_tree(root, files):
    """Materialize a fake ``repro`` package tree under ``root``."""
    packages = set()
    for rel in files:
        parts = rel.split("/")[:-1]
        for depth in range(1, len(parts) + 1):
            packages.add("/".join(parts[:depth]))
    for package in sorted(packages):
        path = root / package
        path.mkdir(parents=True, exist_ok=True)
        init = path / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    for rel, content in files.items():
        (root / rel).write_text(
            textwrap.dedent(content), encoding="utf-8"
        )


class TestCrossFileDetection:
    def test_rep008_scratch_return_crosses_modules(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/nn/maker.py": """
                def make_view(layer, inputs):
                    return layer._scratch_buffer("v", inputs.shape)
                """,
                "repro/nn/consumer.py": """
                from repro.nn import maker

                class Keeper:
                    def forward(self, inputs):
                        self._view = maker.make_view(self, inputs)
                        return inputs
                """,
            },
        )
        report = check_paths([tmp_path / "repro"], rules=["REP008"])
        # Both sides are on the hook: the producer returns the scratch
        # view, and the consumer persists it across the call.
        assert len(report.findings) == 2
        by_file = {f.path.rsplit("/", 1)[-1]: f for f in report.findings}
        assert "returns a _scratch_buffer-backed array" in (
            by_file["maker.py"].message
        )
        assert "repro.nn.maker.make_view" in by_file["consumer.py"].message

    def test_rep009_factory_acquisition_crosses_modules(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/fl/alloc.py": """
                from multiprocessing import shared_memory

                def acquire(n):
                    segment = shared_memory.SharedMemory(create=True, size=n)
                    return segment
                """,
                "repro/fl/user.py": """
                from repro.fl.alloc import acquire

                def leak(n):
                    segment = acquire(n)
                    return n
                """,
            },
        )
        report = check_paths([tmp_path / "repro"], rules=["REP009"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.path.endswith("user.py")
        assert "never reaches close()" in finding.message

    def test_rep011_raw_helper_traced_across_modules(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/devices/entropy.py": """
                import numpy as np

                def fresh_rng(seed):
                    return np.random.default_rng(seed)
                """,
                "repro/core/pick.py": """
                from repro.devices.entropy import fresh_rng

                def choose(scores, seed):
                    rng = fresh_rng(seed)
                    return scores[rng.integers(0, 3)]
                """,
            },
        )
        report = check_paths([tmp_path / "repro"], rules=["REP011"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.path.endswith("pick.py")
        assert "fresh_rng()" in finding.message

    def test_blessed_import_stays_clean_across_modules(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/core/pick.py": """
                from repro.rng import ensure_generator

                def choose(scores, seed):
                    rng = ensure_generator(seed)
                    return scores[rng.integers(0, 3)]
                """,
            },
        )
        report = check_paths([tmp_path / "repro"], rules=["REP011"])
        assert report.findings == ()


class TestRepeatedRuns:
    FILES = {
        "repro/nn/maker.py": """
        def make_view(layer, inputs):
            return layer._scratch_buffer("v", inputs.shape)
        """,
        "repro/nn/consumer.py": """
        from repro.nn import maker

        class Keeper:
            def forward(self, inputs):
                self._view = maker.make_view(self, inputs)
                return inputs
        """,
    }

    def run(self, tmp_path):
        return check_paths([tmp_path / "repro"], rules=["REP008"])

    def test_two_runs_give_byte_equal_reports(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        first = json.dumps(self.run(tmp_path).to_dict(), sort_keys=True)
        second = self.run(tmp_path)
        assert json.dumps(second.to_dict(), sort_keys=True) == first
        assert len(second.findings) == 2

    def test_report_document_keys(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        assert set(self.run(tmp_path).to_dict()) == {
            "version",
            "files_checked",
            "findings",
            "suppressed",
        }

    def test_fixing_the_producer_clears_the_consumer(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        assert any(
            f.path.endswith("consumer.py") for f in self.run(tmp_path).findings
        )
        # consumer.py is untouched on disk, but its cross-file finding
        # must disappear once the producer returns a copy.
        (tmp_path / "repro/nn/maker.py").write_text(
            textwrap.dedent(
                """
                def make_view(layer, inputs):
                    return layer._scratch_buffer("v", inputs.shape).copy()
                """
            ),
            encoding="utf-8",
        )
        assert self.run(tmp_path).findings == ()

    def test_docstring_edit_keeps_the_messages(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        before = self.run(tmp_path)
        maker = tmp_path / "repro/nn/maker.py"
        maker.write_text(
            '"""Docstring only."""\n'
            + maker.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        after = self.run(tmp_path)
        assert [f.message for f in after.findings] == [
            f.message for f in before.findings
        ]
