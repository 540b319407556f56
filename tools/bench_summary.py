"""Summarize parent and change benchmark runs into one ``BENCH_<n>.json``.

Usage, from the root of a checkout::

    python3 tools/bench_summary.py --parent p/*.json --change c/*.json --out BENCH_<n>.json

Each input is a report file that ``perfbench/run.py --trace 0`` writes to
``perfbench/out/<workload>_seed<seed>_trace0.json``; copy it away after each
run, since the next run of the same workload and seed overwrites it.  The
``--parent`` reports come from the commit before the change and the
``--change`` reports from the change.  Per workload and side the output
holds the seeds, the ``src_loc`` of that checkout, and for each end-to-end
metric the median, the quartiles and every run's value in seed order.
``pairs`` counts the seeds that both sides ran.  Per metric, ``change_vs_parent``
gives ``ratio``, the change's median over the parent's (null where the
parent's is 0), and ``won``, the number of those pairs in which the change's
run is better by the metric's ``better`` field in ``BENCHMARK.json``; a tie
counts for neither side.  ``gain`` says whether the change won at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range q3 - q1; ``within_bound`` says whether the
change's median is worse than the parent's by no more than the metric's
``bound`` in ``BENCHMARK.json``, as a share of the parent's median.  All
three are null for a metric that file does not list.  Only untraced reports
are read: a traced run reports per-layer metrics from half the time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for side in SIDES:
        p.add_argument(f"--{side}", type=Path, nargs="+", required=True,
                       help=f"report files of the {side} runs")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def _side(reports: list[dict]) -> dict:
    """The summary of one side's reports of one workload, in seed order."""
    reports = sorted(reports, key=lambda r: r["meta"]["seed"])
    locs = {r["meta"]["src_loc"] for r in reports}
    if len(locs) != 1:
        raise ValueError(f"reports of one side disagree on src_loc: {sorted(locs)}")
    names = list(reports[0]["metrics"])
    if any(list(r["metrics"]) != names for r in reports):
        raise ValueError("reports of one side list different metrics")
    metrics = {}
    for name in names:
        runs = [r["metrics"][name] for r in reports]
        metrics[name] = {**_quartiles(runs), "runs": runs}
    return {"seeds": [r["meta"]["seed"] for r in reports], "src_loc": locs.pop(),
            "metrics": metrics}


def _end_to_end() -> dict:
    """{metric: its entry} of the end-to-end metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def _versus(parent: dict, change: dict, end_to_end: dict) -> dict:
    """Per metric, the ratio of the two sides' medians, the number of seeds
    both ran on which the change's run is the better one, and whether that
    makes a gain and keeps within the metric's bound."""
    out = {}
    for name, p in parent["metrics"].items():
        c = change["metrics"][name]
        p_runs = dict(zip(parent["seeds"], p["runs"]))
        c_runs = dict(zip(change["seeds"], c["runs"]))
        won = gain = within_bound = None
        if name in end_to_end:
            sign = 1 if end_to_end[name]["better"] == "higher" else -1
            seeds = p_runs.keys() & c_runs.keys()
            won = sum(sign * (c_runs[s] - p_runs[s]) > 0 for s in seeds)
            lead = sign * (c["median"] - p["median"])
            gain = bool(seeds) and won >= 0.9 * len(seeds) and lead > p["q3"] - p["q1"]
            within_bound = -lead <= end_to_end[name]["bound"] * p["median"]
        out[name] = {"ratio": c["median"] / p["median"] if p["median"] else None, "won": won,
                     "gain": gain, "within_bound": within_bound}
    return out


def summarize(paths: dict[str, list[Path]]) -> dict:
    """{workload: {"pairs", "parent", "change", "change_vs_parent"}} from
    each side's report files."""
    by_workload: dict = {}
    for side, files in paths.items():
        for path in files:
            report = json.loads(path.read_text(encoding="utf-8"))
            meta = report["meta"]
            if meta["trace"]:
                raise ValueError(f"{path}: a traced report; summarize --trace 0 runs")
            runs = by_workload.setdefault(meta["workload"], {s: {} for s in SIDES})[side]
            if meta["seed"] in runs:
                raise ValueError(f"{path}: a second {side} {meta['workload']} report "
                                 f"of seed {meta['seed']}")
            runs[meta["seed"]] = report
    summary = {}
    end_to_end = _end_to_end()
    for workload, sides in sorted(by_workload.items()):
        missing = [side for side in SIDES if not sides[side]]
        if missing:
            raise ValueError(f"no {' or '.join(missing)} reports of {workload}")
        parent, change = (_side(list(sides[side].values())) for side in SIDES)
        summary[workload] = {"pairs": len(sides["parent"].keys() & sides["change"].keys()),
                             "parent": parent, "change": change,
                             "change_vs_parent": _versus(parent, change, end_to_end)}
    return summary


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        summary = summarize({side: getattr(args, side) for side in SIDES})
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
