"""Experiment result formatting and persistence.

Every experiment both prints its paper-style table and writes it (text +
JSON) under ``benchmarks/results/`` so the artifacts can be diffed across
runs.  Quick runs write to its ``quick/`` subdirectory instead, so they
never overwrite a checked-in full-run artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Sequence

__all__ = ["format_table", "save_results", "results_dir"]


def results_dir(quick: bool = False) -> Path:
    """Where experiment artifacts land (override with REPRO_RESULTS_DIR);
    ``quick`` runs land in its ``quick/`` subdirectory."""
    root = os.environ.get("REPRO_RESULTS_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    if quick:
        path = path / "quick"
    path.mkdir(parents=True, exist_ok=True)
    return path


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    def text(cell) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000:
                return f"{cell:,.0f}"
            if abs(cell) >= 10:
                return f"{cell:.1f}"
            return f"{cell:.2f}"
        return str(cell)

    str_rows = [[text(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def save_results(name: str, payload: dict, text: str = "",
                 quick: bool = False) -> Path:
    """Persist one experiment's results; returns the JSON path."""
    directory = results_dir(quick)
    json_path = directory / f"{name}.json"
    with open(json_path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
    if text:
        with open(directory / f"{name}.txt", "w") as f:
            f.write(text + "\n")
    return json_path
