"""Aggregation and paper-figure reports over a campaign store.

Loads a :class:`~repro.campaign.store.CampaignStore`, recomputes the
paper's summary statistics through :mod:`repro.analysis` (sample summaries
via :func:`~repro.analysis.statistics.summarize_sample`, growth-rate
exponents via :func:`~repro.analysis.fitting.fit_power_law`), and renders:

* **Markdown tables** — one per adversary family (the paper's main
  comparison: algorithms × ``n`` with termination rate, mean/std/median/p90
  interactions), plus a scaling table of fitted power-law exponents; for
  ``ratio = true`` campaigns the comparison gains competitive-ratio columns
  and each adversary additionally gets a ratio-vs-``n`` table (mean finite
  ratio with 95% CI per ``(algorithm, n)``, via
  :mod:`repro.analysis.ratio`) and a fitted ratio-trend table;
* **matplotlib figures** — duration-vs-``n`` log-log curves per adversary
  family, one line per algorithm.  Figure output is gated on matplotlib
  being importable; without it the report still produces every table and
  says explicitly that figures were skipped (no hard dependency).

Determinism: the report is a pure function of the store's shard contents —
tables from a fresh run and from an interrupted-then-resumed run of the
same spec render identically (asserted by ``E24``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.fitting import fit_power_law
from ..analysis.ratio import RatioPoint, fit_ratio_trend, summarize_finite_ratios
from ..analysis.statistics import summarize_sample
from ..sim.results import ResultTable
from .spec import CampaignSpec, spec_from_manifest
from .store import CampaignStore

__all__ = ["CampaignReport", "build_campaign_report", "write_campaign_figures"]


@dataclass
class CampaignReport:
    """Rendered campaign aggregation: tables plus bookkeeping."""

    campaign: str
    spec_hash: str
    tables: List[ResultTable]
    complete_cells: int
    total_cells: int
    notes: List[str] = field(default_factory=list)

    def to_markdown(self) -> str:
        """The full report as markdown (deterministic for a given store)."""
        lines = [
            f"# Campaign report — {self.campaign}",
            "",
            f"- spec hash: `{self.spec_hash}`",
            f"- cells aggregated: {self.complete_cells}/{self.total_cells}",
        ]
        for note in self.notes:
            lines.append(f"- {note}")
        for table in self.tables:
            lines.append("")
            lines.append(table.to_markdown())
        return "\n".join(lines)


def _cell_durations(records: Sequence[Dict[str, Any]]) -> List[float]:
    return [
        float(record["duration"])
        for record in records
        if record["terminated"] and record["duration"] is not None
    ]


def _cell_ratio_point(n: int, records: Sequence[Dict[str, Any]]) -> RatioPoint:
    """Ratio statistics of one cell's records (ratio campaigns only).

    ``captured`` counts trials that carried the offline baseline at all;
    only *finite* ratios (terminated trial, reachable baseline) enter the
    summary — mirroring :mod:`repro.analysis.ratio`.
    """
    captured = [record for record in records if "opt_cost" in record]
    finite = [
        float(record["competitive_ratio"])
        for record in captured
        if record.get("competitive_ratio") is not None
    ]
    return RatioPoint(
        n=int(n),
        captured=len(captured),
        finite=len(finite),
        summary=summarize_finite_ratios(finite),
    )


def _load_verified(store_dir: "str | Path"):
    """Open a store, reconstruct its spec, verify every cell.

    Returns ``(store, manifest, spec, statuses)`` — the shared first step
    of the report and figure builders.
    """
    store = CampaignStore(store_dir)
    manifest = store.read_manifest()
    spec = spec_from_manifest(manifest)
    statuses = store.verify(spec)
    return store, manifest, spec, statuses


def _grid_records(
    store: CampaignStore, spec: CampaignSpec, complete: Sequence
) -> Dict[str, Dict[str, List[Tuple[int, List[Dict[str, Any]]]]]]:
    """``{adversary: {algorithm: [(n, records), ...]}}`` in spec cell order.

    One shard read per complete cell — both the tables and the figures
    aggregate from this single structure, so they can never diverge.
    """
    grid: Dict[str, Dict[str, List[Tuple[int, List[Dict[str, Any]]]]]] = {}
    for cell in complete:
        grid.setdefault(cell.adversary, {}).setdefault(cell.algorithm, []).append(
            (cell.n, store.load_cell(cell.key))
        )
    return grid


def build_campaign_report(store_dir: "str | Path") -> CampaignReport:
    """Aggregate a campaign store into the paper's comparison tables.

    Only cells that verify (:meth:`CampaignStore.verify_cell`) are
    aggregated; pending/corrupt cells are counted and called out in the
    report notes instead of silently skewing the statistics.

    Raises:
        CampaignStoreError: if the directory is not a campaign store.
    """
    store, manifest, spec, statuses = _load_verified(store_dir)
    complete = [s.cell for s in statuses if s.state == "complete"]
    grid = _grid_records(store, spec, complete)
    notes: List[str] = []
    missing = [s for s in statuses if s.state != "complete"]
    if missing:
        notes.append(
            f"{len(missing)} of {len(statuses)} cells not aggregated "
            f"({', '.join(sorted({s.state for s in missing}))}); "
            "run `repro campaign run` to fill them in"
        )

    # The spec flag is authoritative: records carry opt_cost iff the
    # campaign ran with ratio capture, and ratio campaigns embed the flag
    # in their spec hash — no need to sniff shard contents.
    with_ratio = bool(spec.ratio)
    tables: List[ResultTable] = []
    for adversary in spec.adversaries:
        columns = [
            "algorithm", "n", "trials", "terminated",
            "mean", "std", "median", "p90",
        ]
        if with_ratio:
            columns += ["mean_ratio", "median_ratio", "p90_ratio"]
        table = ResultTable(
            title=f"Adversary {adversary!r}: interactions to termination",
            columns=columns,
        )
        ratio_table = ResultTable(
            title=f"Adversary {adversary!r}: competitive ratio vs n "
            "(online duration / offline optimum)",
            columns=[
                "algorithm", "n", "captured", "finite",
                "mean_ratio", "ci95_low", "ci95_high",
            ],
        )
        scaling_rows: List[Tuple[str, List[int], List[float]]] = []
        ratio_trend_rows: List[Tuple[str, List[RatioPoint]]] = []
        for algorithm in spec.algorithms:
            ns: List[int] = []
            means: List[float] = []
            points: List[RatioPoint] = []
            for n, records in grid.get(adversary, {}).get(algorithm, []):
                finished = _cell_durations(records)
                summary = summarize_sample(finished) if finished else None
                row = dict(
                    algorithm=algorithm,
                    n=n,
                    trials=len(records),
                    terminated=(
                        sum(1 for r in records if r["terminated"]) / len(records)
                        if records
                        else 0.0
                    ),
                    mean=summary.mean if summary else math.inf,
                    std=summary.std if summary else math.inf,
                    median=summary.median if summary else math.inf,
                    p90=summary.p90 if summary else math.inf,
                )
                if with_ratio:
                    point = _cell_ratio_point(n, records)
                    points.append(point)
                    low, high = point.confidence_interval()
                    row.update(
                        mean_ratio=(
                            point.summary.mean if point.summary else math.inf
                        ),
                        median_ratio=(
                            point.summary.median if point.summary else math.inf
                        ),
                        p90_ratio=(
                            point.summary.p90 if point.summary else math.inf
                        ),
                    )
                    ratio_table.add_row(
                        algorithm=algorithm,
                        n=n,
                        captured=point.captured,
                        finite=point.finite,
                        mean_ratio=point.mean,
                        ci95_low=low,
                        ci95_high=high,
                    )
                table.add_row(**row)
                if summary is not None:
                    ns.append(n)
                    means.append(summary.mean)
            if len(ns) >= 2 and all(m > 0 for m in means):
                scaling_rows.append((algorithm, ns, means))
            if with_ratio and points:
                ratio_trend_rows.append((algorithm, points))
        if table.rows:
            tables.append(table)
        if ratio_table.rows:
            tables.append(ratio_table)
        if scaling_rows:
            scaling = ResultTable(
                title=f"Adversary {adversary!r}: fitted growth exponents "
                "(mean duration ~ c*n^alpha)",
                columns=["algorithm", "points", "exponent", "r_squared"],
            )
            for algorithm, ns, means in scaling_rows:
                fit = fit_power_law(ns, means)
                scaling.add_row(
                    algorithm=algorithm,
                    points=len(ns),
                    exponent=fit.exponent,
                    r_squared=fit.r_squared,
                )
            tables.append(scaling)
        if ratio_trend_rows:
            trend = ResultTable(
                title=f"Adversary {adversary!r}: fitted ratio trend "
                "(mean ratio ~ c*n^alpha)",
                columns=["algorithm", "points", "exponent", "r_squared"],
            )
            for algorithm, points in ratio_trend_rows:
                fit = fit_ratio_trend(points)
                if fit is None:
                    continue
                trend.add_row(
                    algorithm=algorithm,
                    points=sum(1 for p in points if p.summary is not None),
                    exponent=fit.exponent,
                    r_squared=fit.r_squared,
                )
            if trend.rows:
                tables.append(trend)

    return CampaignReport(
        campaign=str(manifest.get("campaign")),
        spec_hash=str(manifest.get("spec_hash", "")),
        tables=tables,
        complete_cells=len(complete),
        total_cells=len(statuses),
        notes=notes,
    )


def write_campaign_figures(
    store_dir: "str | Path", figures_dir: "str | Path"
) -> Optional[List[Path]]:
    """Emit duration-vs-n figures for a store; returns the written paths.

    One log-log figure per adversary family, one curve per algorithm,
    aggregated through the same :func:`_grid_records` structure as the
    tables.  Returns ``None`` (without raising) when matplotlib is not
    installed — keeping matplotlib an optional dependency of an otherwise
    stdlib+numpy package — and an empty list when matplotlib is present
    but the store holds nothing plottable (no complete cells with
    terminated trials); callers word their notes accordingly.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None

    store, manifest, spec, statuses = _load_verified(store_dir)
    complete = [s.cell for s in statuses if s.state == "complete"]
    grid = _grid_records(store, spec, complete)
    output = Path(figures_dir)
    output.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for adversary in spec.adversaries:
        figure, axes = plt.subplots(figsize=(6.0, 4.0))
        plotted = False
        for algorithm in spec.algorithms:
            points: List[Tuple[int, float]] = []
            for n, records in grid.get(adversary, {}).get(algorithm, []):
                finished = _cell_durations(records)
                if finished:
                    points.append((n, sum(finished) / len(finished)))
            if len(points) >= 1:
                points.sort()
                axes.plot(
                    [n for n, _ in points],
                    [mean for _, mean in points],
                    marker="o",
                    label=algorithm,
                )
                plotted = True
        if not plotted:
            plt.close(figure)
            continue
        axes.set_xscale("log")
        axes.set_yscale("log")
        axes.set_xlabel("n (nodes)")
        axes.set_ylabel("mean interactions to termination")
        axes.set_title(f"{manifest.get('campaign')} — adversary {adversary}")
        axes.legend()
        figure.tight_layout()
        path = output / f"{manifest.get('campaign')}_{adversary}.png"
        figure.savefig(path, dpi=150)
        plt.close(figure)
        written.append(path)
    return written
