"""Record benchmark runs and compare two sets of them under BENCHMARK.json.

    python3 bench/compare.py record --seeds 1-10 --out runs.jsonl [--workloads A,B] [--trace 1]
    python3 bench/compare.py summary runs.jsonl
    python3 bench/compare.py diff base.jsonl new.jsonl

`record` runs bench/run.py once per workload and seed (with the
run_seconds of BENCHMARK.json) and appends one JSON line per run.
`summary` prints, per workload row, each metric's median, quartiles and
spread (interquartile distance over the median) next to its bound.
`diff` compares a change (new) against its parent (base), per workload row
and end-to-end metric:
  unresolved  either side's spread exceeds the bound, unless every new run
              is better than every base run
  regressed   the new median is worse than the base median by more than the bound
  improved    the new side wins at least 9 of 10 same-seed pairs and the
              medians differ by more than the base's interquartile distance
  same        none of the above
Per-layer (trace) rows are listed with their medians and relative change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(args) -> int:
    spec = _spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in workloads:
            for seed in _seeds(args.seeds):
                cmd = [
                    *spec["command"],
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                line = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                out.write(json.dumps(line) + "\n")
                out.flush()
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} {values}")
    return 0


def _load(path: str) -> dict[tuple[str, int], dict[str, dict[int, float]]]:
    """(workload, trace) -> metric -> seed -> value."""
    rows: dict = defaultdict(lambda: defaultdict(dict))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            run = json.loads(line)
            for name, metric in run["result"]["metrics"].items():
                rows[(run["workload"], run["trace"])][name][run["seed"]] = metric["value"]
    return rows


def _stats(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _spread(values: list[float]) -> float:
    median, q1, q3 = _stats(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def summary(args) -> int:
    bounds = {m["name"]: m for m in _spec()["end_to_end"]}
    for (workload, trace), metrics in sorted(_load(args.file).items()):
        print(f"{workload} (trace {trace})")
        for name, by_seed in metrics.items():
            values = list(by_seed.values())
            median, q1, q3 = _stats(values)
            line = f"  {name:34s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {_spread(values):.4f}"
            if name in bounds:
                line += f" bound {bounds[name]['bound']}"
            print(f"{line}  n={len(values)}")
    return 0


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b, n = list(base.values()), list(new.values())
    b_med, b_q1, b_q3 = _stats(b)
    n_med = statistics.median(n)
    all_better = max(n) < min(b) if better == "lower" else min(n) > max(b)
    if max(_spread(b), _spread(n)) > bound:
        return "improved" if all_better else "unresolved"
    if sign * (n_med - b_med) / abs(b_med) > bound:
        return "regressed"
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > b_q3 - b_q1:
        return "improved"
    return "same"


def diff(args) -> int:
    spec = {m["name"]: m for m in _spec()["end_to_end"]}
    base, new = _load(args.base), _load(args.new)
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace})")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            b_med, b_q1, b_q3 = _stats(list(b.values()))
            n_med, n_q1, n_q3 = _stats(list(n.values()))
            change = (n_med - b_med) / abs(b_med) if b_med else float("nan")
            line = (
                f"  {name:34s} base {b_med:<11.5g} [{b_q1:.5g}, {b_q3:.5g}]"
                f"  new {n_med:<11.5g} [{n_q1:.5g}, {n_q3:.5g}]  change {change:+.2%}"
            )
            if name in spec:
                m = spec[name]
                line += f"  {verdict(b, n, m['better'], m['bound'])} (bound {m['bound']:.0%})"
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the benchmark and append results")
    rec.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    rec.add_argument("--out", required=True)
    rec.add_argument("--workloads", help="comma-separated; default all")
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    summ = sub.add_parser("summary", help="medians, quartiles and spreads of one file")
    summ.add_argument("file")
    dif = sub.add_parser("diff", help="verdict per workload and metric, base vs new")
    dif.add_argument("base")
    dif.add_argument("new")
    args = parser.parse_args(argv)
    return {"record": record, "summary": summary, "diff": diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
