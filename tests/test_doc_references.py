"""The prose docs name only code that exists.

Every backticked ``repro.…`` dotted name in the top-level docs and
``docs/*.md`` must resolve: each part a submodule or an attribute of
the part before it. Every ``bench_*.py`` they name must be a file under
``benchmarks/``. A rename or deletion that leaves a doc behind fails
here.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / name
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md")
] + sorted((ROOT / "docs").glob("*.md"))

CODE_SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.\w+)+")
BENCH = re.compile(r"\bbench_\w+\.py\b")


def references(doc, pattern):
    """``(line number, match)`` for each ``pattern`` match inside a
    backticked span of ``doc``."""
    lines = doc.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        for span in CODE_SPAN.findall(line):
            for match in pattern.findall(span):
                yield number, match


def resolve(dotted):
    """The object ``dotted`` names; raises if there is none."""
    head, *attributes = dotted.split(".")
    target = importlib.import_module(head)
    for attribute in attributes:
        if inspect.ismodule(target) and not hasattr(target, attribute):
            # A submodule its package does not import.
            importlib.import_module(f"{target.__name__}.{attribute}")
        target = getattr(target, attribute)
    return target


def doc_name(doc):
    return str(doc.relative_to(ROOT))


@pytest.mark.parametrize("doc", DOCS, ids=doc_name)
def test_dotted_names_resolve(doc):
    stale = []
    for number, dotted in references(doc, DOTTED):
        try:
            resolve(dotted)
        except (ImportError, AttributeError) as exc:
            stale.append(f"{doc_name(doc)}:{number}: {dotted} ({exc})")
    assert not stale, "\n".join(stale)


@pytest.mark.parametrize("doc", DOCS, ids=doc_name)
def test_named_benchmarks_exist(doc):
    missing = [
        f"{doc_name(doc)}:{number}: {name}"
        for number, name in references(doc, BENCH)
        if not (ROOT / "benchmarks" / name).is_file()
    ]
    assert not missing, "\n".join(missing)


def test_the_docs_name_code_and_benchmarks():
    # An extraction that finds nothing would pass every case above.
    for pattern in (DOTTED, BENCH):
        assert any(next(references(doc, pattern), None) for doc in DOCS)
