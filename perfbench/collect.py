"""Build a result set: run every workload on several seeds, one run at a
time, and append each run to a JSON-lines file.

    python3 perfbench/collect.py --out perfbench-results/parent.jsonl --seeds 1-10

Each round takes one seed and runs the workloads in an order shuffled by
that seed, so a slow drift of the machine spreads over all of them. The run
length is BENCHMARK.json's run_seconds. Compare two result sets, or read
the spread of one, with compare.py. To compare a parent and a change, run
one seed at a time in each checkout in turn, and alternate which side runs
first, so that the two runs of a seed are taken minutes apart rather than a
whole set apart:

    run() { (cd "$1" && python3 perfbench/collect.py --out "$RESULTS/$2.jsonl" --seeds $3-$3); }
    for n in $(seq 1 10); do
        if [ $((n % 2)) = 1 ]; then run PARENT parent $n; run CHANGE change $n
        else run CHANGE change $n; run PARENT parent $n; fi
    done
"""

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True, help="JSON-lines result set to append to")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="like 1-10")
    args = p.parse_args(argv)

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        order = list(names)
        random.Random(seed).shuffle(order)
        for name in order:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0", "--out", args.out,
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            print(f"{name} seed {seed} exit {out.returncode}: {last}", flush=True)
            if out.returncode != 0:
                print(out.stderr[-2000:], file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
