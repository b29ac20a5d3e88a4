"""Show that each correctness check can fail.

    python3 perfbench/selftest.py

Runs `fusioncat ocneanu` and `fusioncat verify` once, confirms that the
checks accept their outputs, then feeds the checks corrupted copies and
confirms that each is rejected:

  - a graph-algebra record with one entry changed (several positions);
  - a fusion matrix with one coefficient changed (several positions);
  - an S matrix with one entry changed;
  - a catalog file whose bytes do not hash to its name;
  - a `verify` transcript that contains one FAIL line, or a wrong figure.

It also checks that BENCHMARK.json lists exactly the workloads run.py runs
and the per-layer metrics tracer.py reports. Exits 1 if any case goes the
wrong way.
"""

import contextlib
import copy
import json
import shutil
import subprocess
import sys

import numpy as np

import checks
import run
import tracer


def main():
    failures = []

    def expect(label, probs, rejected):
        ok = bool(probs) == rejected
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if probs else 'accepted'}"
              + (f" ({probs[0]})" if probs else ""))
        if not ok:
            failures.append(label)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json workloads match run.py",
           [] if [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) else ["differ"], False)
    expect("BENCHMARK.json per_layer matches tracer.METRICS",
           [] if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.METRICS
           else ["differ"], False)

    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    catalog = work / "catalog"
    catalog.mkdir(parents=True)
    try:
        env = run.child_env(catalog)
        cli = [sys.executable, "-m", "fusioncat.cli"]
        subprocess.run(cli + ["ocneanu"], cwd=run.ROOT, env=env, check=True, capture_output=True)
        verify = subprocess.run(cli + ["verify", "--fixture", "e4"], cwd=run.ROOT, env=env,
                                capture_output=True, text=True)

        # the verify transcript
        failed, probs = checks.check_verify_transcript(verify.stdout, verify.returncode)
        expect("verify transcript as printed", probs + ["failed"] * failed, False)
        lines = verify.stdout.splitlines()
        i = next(n for n, line in enumerate(lines) if line.startswith("criterion 11: PASS"))
        lines[i] = lines[i].replace("PASS", "FAIL", 1)
        failed, probs = checks.check_verify_transcript("\n".join(lines) + "\n", 0)
        expect("verify transcript with one FAIL line", probs + ["failed"] * failed, True)
        failed, probs = checks.check_verify_transcript(verify.stdout.replace("rank 33,", "rank 32,"), 0)
        expect("verify transcript with splitting rank 32", probs + ["failed"] * failed, True)

        # the catalog as written, then records with one entry changed
        expect("ocneanu catalog as written", checks.check_ocneanu_catalog(catalog)[1], False)
        recs, _ = checks.read_catalog(catalog)
        by_kind = {rec["kind"]: (h, rec["payload"]) for h, rec in recs.items()}
        rng = np.random.default_rng(7)

        ga = by_kind["graph-algebra"][1]
        expect("graph algebra as written", checks.check_graph_algebra(ga), False)
        for a, i, j in rng.integers(0, 12, size=(4, 3)):
            bad = copy.deepcopy(ga)
            bad["matrices"][a][i][j] += 1
            expect(f"graph algebra with G_{a + 1}[{i}, {j}] + 1", checks.check_graph_algebra(bad), True)

        md = by_kind["modular-data"][1]
        s, _ = checks.modular_matrices(md)
        fus = by_kind["fusion-ring"][1]
        expect("fusion ring as written", checks.check_fusion_record(fus, s), False)
        for a, b, c in rng.integers(0, len(fus["labels"]), size=(4, 3)):
            bad = copy.deepcopy(fus)
            bad["matrices"][a][b][c] += 1
            expect(f"fusion ring with N_{a},{b}^{c} + 1", checks.check_fusion_record(bad, s), True)

        bad = copy.deepcopy(fus)
        bad["matrices"][1][2][3] += 1
        bad["matrices"][2][1][3] += 1
        expect("fusion ring with N_1,2^3 and N_2,1^3 + 1", checks.check_fusion_record(bad, s), True)

        bad = copy.deepcopy(md)
        bad["s"][3][5][0] += 1e-6
        expect("modular data with one S entry moved by 1e-6", checks.check_modular_record(bad), True)

        h = by_kind["graph-algebra"][0]
        path = catalog / "objects" / f"{h}.json"
        path.write_bytes(path.read_bytes().replace(b'"doublet_survivors":2', b'"doublet_survivors":3'))
        expect("catalog file whose bytes do not hash to its name",
               checks.check_ocneanu_catalog(catalog)[1], True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()  # only if no run is using it

    print(f"{len(failures)} cases went the wrong way" if failures else "every check accepts good output and rejects the corruptions")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
