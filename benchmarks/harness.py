"""One harness for the gated component benchmarks.

The gated benchmarks run in seven modes: ``bench_shared_scan``,
``bench_sql_scan``, ``bench_incremental``, ``bench_service`` with and
without ``--multiproc`` and ``bench_load`` with and without ``--fault``.
Each measures, checks its results and declares its :class:`Metric` s.
This module is the only place that

- builds the flags they share (:func:`parser`, :func:`parse`);
- writes the run record (:func:`record`: cores, Python, commit) and the
  report;
- refuses ``--update-baseline`` after a correctness failure;
- decides whether a baseline is comparable (:func:`comparable`);
- gates every declared metric with one rule (:func:`gate`).

The rule, for each metric:

- **Trajectory.** Against a comparable baseline, a lower-is-better value
  must stay at or below ``base / tolerance`` and a higher-is-better one
  at or above ``base * tolerance`` (``TOLERANCE``, 0.6, unless the metric
  says otherwise).  A comparable baseline that lacks the metric fails the
  gate and names it, so renaming a metric cannot drop its gate.
- **Floor.** ``floor`` holds on every run; ``fallback`` holds only when
  no comparable baseline exists.  For a lower-is-better metric the floor
  is a ceiling.
- **Cores.** A metric with ``min_cpus`` is gated only on a host with that
  many cores, and its trajectory only against a baseline recorded on one.

Each term of a ratio is its own metric where the ratio could hide which
term moved: a faster cold path shrinks a speed-up without anything
getting slower.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

#: Fraction of a metric's baseline a run may fall to before its gate trips.
TOLERANCE = 0.6

BASELINE_DIR = Path(__file__).parent / "baselines"


@dataclass(frozen=True)
class Metric:
    """One gated number of a report and the bounds it must meet."""

    #: Dotted path into the report, such as ``"timings_ms.cold_read"``.
    name: str
    #: ``"lower"`` or ``"higher"``: the direction that is better.
    better: str
    #: Allowed fraction of the baseline; None gates no trajectory.
    tolerance: float | None = TOLERANCE
    #: Bound every run must meet.
    floor: float | None = None
    #: Bound a run must meet when no comparable baseline exists.
    fallback: float | None = None
    #: Gate only on hosts with at least this many cores.
    min_cpus: int = 0

    def meets(self, value: float, bound: float) -> bool:
        return value <= bound if self.better == "lower" else value >= bound


def lookup(report: Mapping[str, Any], name: str) -> Any:
    """The value at dotted ``name`` in ``report``; None where it is missing."""
    node: Any = report
    for part in name.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def gate(
    report: Mapping[str, Any],
    baseline: Mapping[str, Any] | None,
    metrics: Iterable[Metric],
) -> list[str]:
    """Every failure of ``metrics`` under the one rule.

    ``baseline`` is a comparable baseline (see :func:`comparable`) or None.
    """
    failures: list[str] = []
    for metric in metrics:
        if report["cpu_count"] < metric.min_cpus:
            continue
        value = lookup(report, metric.name)
        if value is None:
            raise KeyError(f"report lacks declared metric {metric.name}")
        past = "below" if metric.better == "higher" else "above"
        bound = "floor" if metric.better == "higher" else "ceiling"
        if metric.floor is not None and not metric.meets(value, metric.floor):
            failures.append(f"{metric.name} {value:g} {past} the {metric.floor:g} {bound}")
        if baseline is None:
            if metric.fallback is not None and not metric.meets(value, metric.fallback):
                failures.append(
                    f"{metric.name} {value:g} {past} the {metric.fallback:g} {bound} "
                    "(no comparable baseline)"
                )
            continue
        if metric.tolerance is None or baseline.get("cpu_count", 0) < metric.min_cpus:
            continue
        base = lookup(baseline, metric.name)
        if base is None:
            failures.append(f"baseline lacks {metric.name}")
            continue
        if base <= 0:  # nothing was measured: no trajectory to hold
            continue
        limit = base * metric.tolerance if metric.better == "higher" else base / metric.tolerance
        if not metric.meets(value, limit):
            failures.append(
                f"{metric.name} {value:g} {past} {limit:g} "
                f"(baseline {base:g}, tolerance {metric.tolerance:g})"
            )
    return failures


def comparable(
    baseline: Mapping[str, Any] | None, report: Mapping[str, Any], shape: Sequence[str]
) -> bool:
    """Whether ``baseline`` measured the same workload as ``report``.

    The benchmark and mode must match, and so must each ``shape`` key.
    """
    return baseline is not None and all(
        baseline.get(key) == report[key] for key in ("benchmark", "mode", *shape)
    )


def load(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def write(path: Path, report: Mapping[str, Any]) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def record(benchmark: str, args: argparse.Namespace, **shape: Any) -> dict[str, Any]:
    """The head of a report: what ran, at what size, where and at which commit."""
    return {
        "schema": 1,
        "benchmark": benchmark,
        "mode": "quick" if args.quick else "full",
        **shape,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "commit": _commit(),
    }


def parser(
    doc: str,
    quick: str = "small smoke run for CI (20k rows, 2 rounds)",
    sized: bool = True,
) -> argparse.ArgumentParser:
    """The flags every gated benchmark takes; ``sized`` adds --rows/--rounds."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    if sized:
        p.add_argument("--rows", type=int, default=50_000, help="frame size (default 50k)")
        p.add_argument(
            "--rounds", type=int, default=3, help="timed rounds per condition; best is reported"
        )
    p.add_argument("--quick", action="store_true", help=quick)
    p.add_argument(
        "--out", type=Path, default=None,
        help="trajectory artifact path (default BENCH_<benchmark>.json)",
    )
    p.add_argument(
        "--baseline", type=Path, default=None,
        help="committed baseline to gate against (default baselines/BENCH_<benchmark>.json)",
    )
    p.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the committed baseline from this run",
    )
    return p


def parse(p: argparse.ArgumentParser, argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv``; ``--quick`` sets a sized benchmark to 20k rows, 2 rounds."""
    args = p.parse_args(argv)
    if args.quick and "rows" in vars(args):
        args.rows, args.rounds = 20_000, 2
    return args


def conclude(
    args: argparse.Namespace,
    report: Mapping[str, Any],
    metrics: Sequence[Metric],
    correctness: Iterable[str] = (),
    shape: Sequence[str] = (),
    keeps_baseline: bool = True,
) -> int:
    """Write the report, then refuse, refresh or gate; returns the exit code.

    A correctness failure fails the run before anything else, so
    ``--update-baseline`` never records a wrong run.  A mode that keeps no
    baseline is gated on its floors alone.
    """
    name = report["benchmark"]
    out = args.out or Path(f"BENCH_{name}.json")
    write(out, report)
    print(f"  wrote {out}")
    wrong = list(correctness)
    for failure in wrong:
        print(f"  GATE FAILED: {failure}")
    if wrong:
        return 1
    path = args.baseline or BASELINE_DIR / f"BENCH_{name}.json"
    if keeps_baseline and args.update_baseline:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path, report)
        print(f"  wrote baseline {path}")
        return 0
    baseline = load(path) if keeps_baseline else None
    if not comparable(baseline, report, shape):
        baseline = None
        if keeps_baseline:
            print("  no comparable baseline; gating on absolute floors")
    failures = gate(report, baseline, metrics)
    for failure in failures:
        print(f"  GATE FAILED: {failure}")
    if not failures:
        print("  all gates passed")
    return 1 if failures else 0
