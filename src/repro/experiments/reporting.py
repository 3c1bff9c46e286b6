"""Text-table rendering of experiment results.

Produces the same rows the paper reports, as plain monospaced text —
the offline equivalent of its figures and tables.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.registry import strategy_labels
from repro.experiments.fig2 import Fig2Result
from repro.experiments.fig3 import Fig3Result
from repro.experiments.table1 import Table1Result

__all__ = [
    "format_fig2_table",
    "format_table1",
    "format_speedups",
    "format_fig3_table",
]


def _label(name: str) -> str:
    return strategy_labels().get(name, name)


def _fmt_minutes(seconds: Optional[float]) -> str:
    if seconds is None:
        return "x"
    return f"{seconds / 60.0:.2f}min"


def format_fig2_table(result: Fig2Result) -> str:
    """Render a Fig. 2 panel as a best-accuracy table plus curve stats."""
    regime = "IID" if result.iid else "Non-IID"
    lines = [f"Fig. 2 ({regime}): highest test accuracy per scheme"]
    best = result.best_accuracies()
    width = max(len(_label(n)) for n in best)
    for name, value in sorted(best.items(), key=lambda kv: -kv[1]):
        history = result.histories[name]
        lines.append(
            f"  {_label(name):<{width}}  best={100 * value:6.2f}%  "
            f"final={100 * history.final_accuracy:6.2f}%  "
            f"rounds={len(history)}"
        )
    improvements = result.improvements_over_baselines()
    gains = ", ".join(
        f"{_label(n)}: {100 * v:+.2f}pp" for n, v in sorted(improvements.items())
    )
    lines.append(f"  HELCFL gain over baselines -> {gains}")
    return "\n".join(lines)


def format_table1(result: Table1Result) -> str:
    """Render a Table I half exactly in the paper's layout."""
    regime = "IID" if result.iid else "Non-IID"
    # Each target header is as wide as the delay cells under it.
    header_targets = "  ".join(f"{100 * t:7.2f}%" for t in result.targets)
    lines = [
        f"Table I ({regime} setting): training delay to desired accuracy",
        f"  {'scheme':<18}  {header_targets}",
    ]
    for name, delays in result.rows():
        cells = "  ".join(f"{_fmt_minutes(d):>8}" for d in delays)
        lines.append(f"  {_label(name):<18}  {cells}")
    return "\n".join(lines)


def format_speedups(result: Table1Result) -> str:
    """HELCFL's paper-style speedup over each FL baseline, one line per
    target of a Table I half ("x" where either scheme never got there)."""
    lines = []
    for target in result.targets:
        cells = []
        for versus in ("classic", "fedcs", "fedl"):
            value = result.speedup(target, versus=versus)
            cells.append(
                f"{versus}: " + (f"{value:.0f}%" if value is not None else "x")
            )
        lines.append(
            f"  HELCFL speedup @ {100 * target:.2f}%  " + "  ".join(cells)
        )
    return "\n".join(lines)


def format_fig3_table(result: Fig3Result) -> str:
    """Render a Fig. 3 panel: energy with/without DVFS per target."""
    regime = "IID" if result.iid else "Non-IID"
    lines = [
        f"Fig. 3 ({regime}): training energy to desired accuracy",
        f"  {'target':>8}  {'with DVFS':>12}  {'max freq':>12}  {'saving':>8}",
    ]
    for entry in result.entries:
        with_dvfs = (
            f"{entry.energy_with_dvfs:10.3f}J"
            if entry.energy_with_dvfs is not None
            else "        x"
        )
        without = (
            f"{entry.energy_without_dvfs:10.3f}J"
            if entry.energy_without_dvfs is not None
            else "        x"
        )
        saving = (
            f"{100 * entry.reduction_fraction:6.2f}%"
            if entry.reduction_fraction is not None
            else "     x"
        )
        lines.append(
            f"  {100 * entry.target:7.2f}%  {with_dvfs:>12}  {without:>12}  "
            f"{saving:>8}"
        )
    lines.append(
        f"  whole-run energy saving: "
        f"{100 * result.total_energy_reduction:.2f}%"
    )
    return "\n".join(lines)
