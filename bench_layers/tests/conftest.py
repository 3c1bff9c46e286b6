"""Make ``bench_layers`` and the program under ``src/`` importable.

These are the harness's self-tests, run with
``python -m pytest bench_layers/tests -q``; tier-1 (``testpaths =
["tests"]``) does not collect them.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)
