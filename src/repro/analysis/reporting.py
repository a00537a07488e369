"""Experiment reports: the rows/series printed by the benchmark harness.

Each benchmark module regenerates one table or figure of the paper; the
helpers here turn raw measurements into the compact, aligned text blocks those
benchmarks print (and that EXPERIMENTS.md quotes).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_series(
    title: str,
    x_label: str,
    series: Mapping[str, Mapping[float, float]],
    value_format: str = "{:.2f}",
) -> str:
    """Format a figure-style result: one column per series, one row per x value.

    ``series`` maps a series name (e.g. ``"120 nodes"``) to an ``x -> y``
    mapping (e.g. number of merged schedules -> average increase).
    """
    xs = sorted({x for values in series.values() for x in values})
    names = list(series)
    header = [x_label] + names
    widths = [max(len(h), 10) for h in header]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for x in xs:
        cells = [f"{x:g}".rjust(widths[0])]
        for name, width in zip(names, widths[1:]):
            value = series[name].get(x)
            cell = value_format.format(value) if value is not None else "-"
            cells.append(cell.rjust(width))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Format a paper-style table with a header row and aligned columns."""
    widths = [len(str(h)) for h in headers]
    text_rows: List[List[str]] = []
    for row in rows:
        cells = [
            f"{cell:g}" if isinstance(cell, (int, float)) else str(cell)
            for cell in row
        ]
        text_rows.append(cells)
        for index, cell in enumerate(cells):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines = [title]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def format_comparison(
    title: str, paper: Mapping[str, float], measured: Mapping[str, float]
) -> str:
    """Side-by-side paper-reported vs. measured values (used in EXPERIMENTS.md)."""
    keys = list(paper) + [k for k in measured if k not in paper]
    rows = []
    for key in keys:
        rows.append(
            [key, paper.get(key, float("nan")), measured.get(key, float("nan"))]
        )
    return format_table(title, ["case", "paper", "measured"], rows)


def as_dict(rows: Sequence[Sequence[object]], key_index: int = 0) -> Dict[str, List[object]]:
    """Index table rows by one column (convenience for tests)."""
    return {str(row[key_index]): list(row) for row in rows}


def format_trajectory(title: str, points: Sequence[object]) -> str:
    """Format a design-space exploration trajectory as an aligned table.

    ``points`` duck-types :class:`repro.exploration.TrajectoryPoint`: objects
    with ``cycle``, ``move``, ``cost``, ``best_cost`` and ``accepted``
    attributes, one per search cycle.
    """
    rows = [
        [point.cycle, point.move, point.cost, point.best_cost, point.accepted]
        for point in points
    ]
    return format_table(title, ["cycle", "move", "cost", "best", "accepted"], rows)


def format_pareto_front(title: str, front) -> str:
    """Format a Pareto front as an aligned table, one row per trade-off point.

    ``front`` duck-types :class:`repro.exploration.ParetoFront`: an iterable
    of points with an ``objectives`` vector ``(delta_max, mean_path_delay,
    load_imbalance, architecture_cost, bus_imbalance)`` and a ``candidate``
    carrying the priority function, (optionally) the sized platform and
    (optionally) explicit communication-to-bus pins.
    """
    rows = []
    for point in front:
        (
            delta_max,
            mean_path_delay,
            load_imbalance,
            architecture_cost,
            bus_imbalance,
        ) = point.objectives
        candidate = point.candidate
        if candidate.platform:
            platform = (
                f"{len(candidate.platform_processors)} PE + "
                f"{len(candidate.platform_buses)} bus"
            )
        else:
            platform = "-"
        pinned = len(candidate.communication_assignment)
        rows.append([
            f"{delta_max:g}",
            f"{mean_path_delay:.2f}",
            f"{load_imbalance:.3f}",
            f"{architecture_cost:g}",
            f"{bus_imbalance:.3f}",
            candidate.priority_function,
            platform,
            f"{pinned} pinned" if pinned else "derived",
        ])
    return format_table(
        title,
        ["delta_max", "mean delay", "imbalance", "arch cost", "bus imb",
         "priority", "platform", "comm"],
        rows,
    )


def format_exploration_comparison(
    title: str, results: Sequence[object]
) -> str:
    """Side-by-side summary of several exploration runs (one row per engine).

    ``results`` duck-types :class:`repro.exploration.ExplorationResult`.  The
    ``sched hits`` column reports the incremental evaluator's per-path schedule
    cache (``hits/probes``, see :class:`repro.exploration.StageStats`); runs
    without stage counters (staged evaluation off, process-mode pool) show
    ``-``.  The ``wall`` column shows the run's total wall-clock time and the
    mean per evaluation (``total/mean``, from the metrics snapshot backing
    ``ExplorationResult.wall_seconds``); runs without metrics show ``-``.
    """
    rows = []
    for result in results:
        stages = getattr(result, "stages", None)
        if stages is not None:
            probes = stages.schedule_hits + stages.schedule_misses
            stage_cell = f"{stages.schedule_hits}/{probes}"
        else:
            stage_cell = "-"
        wall = getattr(result, "wall_seconds", None)
        if wall is not None:
            evaluations = result.evaluations or 1
            wall_cell = f"{wall:.2f}s/{1000.0 * wall / evaluations:.1f}ms"
        else:
            wall_cell = "-"
        rows.append([
            result.engine,
            result.initial.delta_max,
            result.best.delta_max,
            f"{result.improvement_percent:.2f}%",
            result.cycles,
            result.evaluations,
            result.cache.hits,
            stage_cell,
            wall_cell,
        ])
    return format_table(
        title,
        ["engine", "seed dmax", "best dmax", "gain", "cycles", "evals",
         "cache hits", "sched hits", "wall"],
        rows,
    )
