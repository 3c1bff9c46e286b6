"""One-command reproduction report.

:func:`generate_report` runs the paper's complete evaluation — one
Fig. 2 sweep over :data:`~repro.experiments.fig2.PAPER_STRATEGIES` per
partition regime, with Table I and Fig. 3 read off it — and renders
everything as a single text document, the programmatic equivalent of
EXPERIMENTS.md's measured sections. Exposed on the CLI as
``python -m repro report``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.fig2 import PAPER_STRATEGIES, run_fig2
from repro.experiments.fig3 import derive_fig3
from repro.experiments.reporting import (
    format_fig2_table,
    format_fig3_table,
    format_speedups,
    format_table1,
)
from repro.experiments.settings import ExperimentSettings
from repro.experiments.table1 import derive_table1
from repro.version import PAPER_TITLE, PAPER_VENUE, __version__

__all__ = ["generate_report"]


def generate_report(
    settings: Optional[ExperimentSettings] = None,
    regimes: Sequence[bool] = (True, False),
) -> str:
    """Run the full evaluation and return the text report.

    Args:
        settings: experiment settings (paper-scale defaults when None).
        regimes: partition regimes to include (True = IID).

    Returns:
        A multi-line report containing every artifact, speedup lines,
        and the run's configuration header.
    """
    settings = settings or ExperimentSettings()
    lines: List[str] = [
        f"{PAPER_TITLE} ({PAPER_VENUE})",
        f"reproduction report - repro {__version__}",
        (
            f"settings: Q={settings.num_users}, C={settings.fraction}, "
            f"eta={settings.decay}, rounds={settings.rounds}, "
            f"seed={settings.seed}, model={settings.model}"
        ),
        "=" * 72,
    ]
    for iid in regimes:
        sweep = run_fig2(settings, iid=iid, strategies=PAPER_STRATEGIES)
        table = derive_table1(sweep)
        lines += [
            "",
            f"--- {'IID' if iid else 'Non-IID'} setting ---",
            "",
            format_fig2_table(sweep),
            "",
            format_table1(table),
            format_speedups(table),
            "",
            format_fig3_table(derive_fig3(sweep)),
        ]
    lines.append("")
    lines.append("=" * 72)
    lines.append("see EXPERIMENTS.md for the paper-vs-measured reading guide")
    return "\n".join(lines)
