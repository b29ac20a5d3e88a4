"""Compare two result sets, or read the spread of one.

    python3 perfbench/compare.py perfbench-results/parent.jsonl perfbench-results/change.jsonl
    python3 perfbench/compare.py perfbench-results/parent.jsonl

Only untraced runs count. For each workload and end-to-end metric of
BENCHMARK.json the comparison prints each side's median and quartiles over
its runs, the pairs (runs with the same seed) won by each side, and one of:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's spread (quartile distance over median) is wider
              than the bound, and not every change run beats every parent run
  better      the change wins at least nine tenths of the pairs and the
              medians differ by more than the parent's quartile distance
  same        none of these

It also prints the operations attempted and failed on each side, and the
commit, Python, numpy, nproc and BLAS thread setting each set was run with.
With one result set it prints each metric's spread against its bound and a
third of it, and the share of failed operations.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return [r for r in runs if r["trace"] == 0]


def values(runs, workload, metric):
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and metric in r["result"]["metrics"]
    }


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med


def verdict(par, chg, bound, lower_better):
    sign = 1 if lower_better else -1
    pm, cm = statistics.median(par.values()), statistics.median(chg.values())
    worse_by = sign * (cm - pm) / pm
    pairs = [(par[s], chg[s]) for s in par if s in chg]
    won = sum(sign * (p - c) > 0 for p, c in pairs)
    lost = sum(sign * (c - p) > 0 for p, c in pairs)
    all_better = all(sign * (c - p) > 0 for p in par.values() for c in chg.values())
    if worse_by > bound:
        word = "worse"
    elif spread(par.values()) > bound and not all_better:
        word = "unresolved"
    elif pairs and won >= 0.9 * len(pairs) and -worse_by > spread(par.values()):
        word = "better"
    else:
        word = "same"
    return word, won, lost, worse_by


def ops(runs, workload):
    mine = [r for r in runs if r["workload"] == workload]
    return sum(r["result"]["attempted"] for r in mine), sum(r["result"]["failed"] for r in mine)


def describe(runs, label):
    seen = {json.dumps(r["machine"], sort_keys=True) for r in runs}
    for m in sorted(seen):
        print(f"{label}: {m}")
    if not all(r["result"]["correct"] for r in runs):
        print(f"{label}: some runs report incorrect outputs")


def fmt(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:10.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("sets", nargs="+", metavar="RESULTS.jsonl")
    args = p.parse_args(argv)
    if len(args.sets) > 2:
        p.error("give one or two result sets")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(path) for path in args.sets]
    for runs, label in zip(sets, ("parent", "change")):
        describe(runs, label)
    bad = 0
    for w in (w["name"] for w in spec["workloads"]):
        print(f"\n{w}")
        for runs, label in zip(sets, ("parent", "change")):
            att, fail = ops(runs, w)
            print(f"  {label}: {len(values(runs, w, 'wall_s'))} runs, {att} operations attempted, {fail} failed")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            par = values(sets[0], w, name)
            if not par:
                continue
            if len(sets) == 1:
                sp = spread(par.values())
                flag = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "OVER BOUND")
                bad += sp > bound
                print(f"  {name:12s} {fmt(par.values())} {m['unit']:5s} spread {sp:.3f} (bound {bound}): {flag}")
                continue
            chg = values(sets[1], w, name)
            if not chg:
                print(f"  {name:12s} no runs in the change")
                continue
            word, won, lost, worse_by = verdict(par, chg, bound, m["better"] == "lower")
            bad += word == "worse"
            print(
                f"  {name:12s} parent {fmt(par.values())}  change {fmt(chg.values())} {m['unit']:5s} "
                f"pairs won parent {lost} change {won}; change worse by {worse_by:+.3f} "
                f"(bound {bound}): {word}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
