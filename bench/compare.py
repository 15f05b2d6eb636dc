"""Compare two sets of benchmark records, one row per workload and
end-to-end metric.

A record file holds one JSON record per line, as `run.py --out` appends them
(lines that are not records, such as a captured result line, are skipped).
Runs pair up in file order within a workload; alternate which side runs
first when collecting them.  The verdict follows the rule the benchmark
documents:

- improved: over at least 10 pairs, the head wins at least 9 of 10 (ties
  count for neither) and its median beats the base median by more than the
  base's interquartile range;
- worse: the head median is worse than the base median by more than the
  metric's bound;
- unresolved: the base's own interquartile range is wider than the bound, and
  not every head run beats every base run;
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_records(path: Path) -> dict[str, list[dict]]:
    """Untraced records by workload, in file order."""
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "workload" in record and not record.get("trace"):
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    gain = sign * (h_med - b_med)  # positive when the head is better
    iqr = b3 - b1
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        outcome = "improved"
    elif -gain > bound * abs(b_med):
        outcome = "worse"
    elif iqr > bound * abs(b_med) and not min(sign * h for h in head) > max(sign * b for b in base):
        outcome = "unresolved"
    else:
        outcome = "no worse"
    return {
        "base": (b_med, b1, b3),
        "head": (h_med, h1, h3),
        "change": (h_med - b_med) / b_med if b_med else float("nan"),
        "wins": wins,
        "pairs": len(pairs),
        "verdict": outcome,
    }


def compare_files(base_path: Path, head_path: Path, spec: dict) -> str:
    base, head = load_records(base_path), load_records(head_path)
    lines = [f"{'workload':<12} {'metric':<12} {'unit':<5} {'base median [q1, q3]':<30} "
             f"{'head median [q1, q3]':<30} {'change':>8} {'wins':>6}  verdict"]
    for workload in sorted(set(base) & set(head)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict([r["metrics"][name] for r in base[workload]],
                          [r["metrics"][name] for r in head[workload]],
                          metric["better"], metric["bound"])
            cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in ("base", "head")]
            lines.append(f"{workload:<12} {name:<12} {metric['unit']:<5} {cells[0]:<30} "
                         f"{cells[1]:<30} {row['change']:>+8.2%} "
                         f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}")
    missing = sorted(set(base) ^ set(head))
    if missing:
        lines.append(f"workloads on one side only: {', '.join(missing)}")
    return "\n".join(lines)
