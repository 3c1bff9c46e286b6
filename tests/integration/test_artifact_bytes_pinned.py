"""Whole-byte pins of the paper-artifact commands.

``repro fig2``, ``table1`` and ``fig3`` at the quick profile print a
table and save a JSON document; ``repro report`` prints every artifact
for both regimes. The sha256 of each stdout and of each ``--output``
document is compared with committed values, so a change to how the
artifacts are swept, derived, formatted or saved that claims the same
bytes must leave every digest here alone. The ``saved artifact to
<path>`` line names a temporary path and is dropped before hashing.

If a digest changes on purpose, regenerate with::

    PYTHONPATH=src:. python tests/integration/test_artifact_bytes_pinned.py
"""

import contextlib
import hashlib
import io
import os

import pytest

from repro.cli import main

QUICK = ["--quick", "--rounds", "4"]

PINNED = {
    "fig2": (
        "5a2abe7ce9125f124c62f1c0474a0559bc7ee70643ba9c277c472b4cc4b57f5e",
        "97c140fa570b47066fe3a5389e06d9b6a099f32b239f998612d17920db06c52c",
    ),
    "table1": (
        "66f956327b5ff68157eee0feb49fd25139985905af40b3c43cd3163cd2c0e940",
        "ae96991b883fc688e74b286c0768163276c4539acda1ffdd578a3cc1e31bf07f",
    ),
    "fig3": (
        "e713000a21bc313485954f6fa115898911cb24b0675989be01824d531ffd8b9c",
        "8ec6c98438d8a6eebe6f8f92271d7c27a7cd5698c0913cf35d7ab65d57c9acdb",
    ),
    "report": (
        "4747d85dc2fc35b9ca6f309b87aa5dd4db3885bef4a2d02d7a1aded289b5b427",
        None,
    ),
}
"""``command -> (stdout sha256, --output document sha256 or None)``."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(command, directory):
    """``(stdout sha256, document sha256 or None)`` of one command."""
    argv = [command, *QUICK]
    path = None
    if command != "report":
        path = os.path.join(directory, f"{command}.json")
        argv += ["--output", path]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    kept = [
        line
        for line in stdout.getvalue().splitlines(keepends=True)
        if not line.startswith("saved artifact to ")
    ]
    document = None
    if path is not None:
        with open(path, "rb") as handle:
            document = sha256(handle.read())
    return sha256("".join(kept).encode("utf-8")), document


@pytest.mark.parametrize("command", sorted(PINNED))
def test_artifact_bytes_pinned(command, tmp_path):
    assert run_command(command, str(tmp_path)) == PINNED[command]


if __name__ == "__main__":
    import tempfile

    for name in PINNED:
        with tempfile.TemporaryDirectory() as scratch:
            out, document = run_command(name, scratch)
        shown = "None" if document is None else f'"{document}"'
        print(f'    "{name}": (\n        "{out}",\n        {shown},\n    ),')
