"""``python3 -m bench_layers`` — see ``bench_layers/README.md``."""

import sys

from bench_layers.cli import main

if __name__ == "__main__":
    sys.exit(main())
