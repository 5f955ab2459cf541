"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records that ``perfbench/run.py --out FILE`` appended, one
run per line; runs with ``--trace 1`` are ignored.  For every workload and
end-to-end metric of ``BENCHMARK.json`` this prints both sides' median and
quartiles, the share of pairs (runs of equal seed, in order) that NEW won,
and a verdict:

- ``unresolved``: either side's quartile spread exceeds the metric's bound,
  and not every NEW run beats every BASE run;
- ``regression``: NEW's median is worse than BASE's by more than the bound;
- ``gain``: NEW won at least 9 of 10 pairs and the medians differ by more
  than BASE's quartile spread;
- ``within bound``: none of the above.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load_runs(path: str) -> dict:
    """{workload: {metric: [(seed, value), ...]}} of the untraced runs in a file."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["detail"]["trace"]:
                continue
            for name, m in rec["result"]["metrics"].items():
                runs[rec["detail"]["workload"]][name].append((rec["detail"]["seed"], m["value"]))
    return runs


def _quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, new, better: str, bound: float) -> dict:
    """Summary and verdict for one metric; ``base``/``new`` are (seed, value) lists."""
    sign = 1.0 if better == "higher" else -1.0
    b = [v for _, v in base]
    n = [v for _, v in new]
    bq, nq = _quartiles(b), _quartiles(n)
    pairs = list(zip(sorted(base, key=lambda r: r[0]), sorted(new, key=lambda r: r[0])))
    wins = sum(1 for (_, x), (_, y) in pairs if sign * (y - x) > 0)
    won = wins / len(pairs) if pairs else 0.0
    spread = max((bq[2] - bq[0]) / abs(bq[1]) if len(b) > 1 else float("inf"),
                 (nq[2] - nq[0]) / abs(nq[1]) if len(n) > 1 else float("inf"))
    worse = sign * (bq[1] - nq[1]) / abs(bq[1])
    all_better = all(sign * (y - x) > 0 for x in b for y in n)
    if spread > bound and not all_better:
        call = "unresolved"
    elif worse > bound:
        call = "regression"
    elif won >= 0.9 and worse < 0 and abs(nq[1] - bq[1]) > bq[2] - bq[0]:
        call = "gain"
    else:
        call = "within bound"
    return {"base": bq, "new": nq, "won": won, "pairs": len(pairs), "spread": spread,
            "change": -worse, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=BENCHMARK)
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = load_runs(args.base), load_runs(args.new)
    print(f"{'workload':10} {'metric':22} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
          f"{'change':>8} {'won':>9} {'spread':>7} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            b, n = base[w["name"]][m["name"]], new[w["name"]][m["name"]]
            if not b or not n:
                print(f"{w['name']:10} {m['name']:22} missing runs")
                continue
            r = verdict(b, n, m["better"], m["bound"])
            fmt = "/".join(f"{x:.4g}" for x in r["base"]), "/".join(f"{x:.4g}" for x in r["new"])
            print(f"{w['name']:10} {m['name']:22} {fmt[0]:>32} {fmt[1]:>32} "
                  f"{r['change']:+8.1%} {round(r['won'] * r['pairs']):>4}/{r['pairs']:<4} "
                  f"{r['spread']:7.3f} {m['bound']:6.2f}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
