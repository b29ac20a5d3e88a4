"""The program side of the ring-sweep workload.

Calls the public functions behind `fusioncat alcove`, `modular`, `fusion`
and `embed-scan` on a ladder of A1, A2 and A3 rings, writes each modular
and fusion result to the catalog named by FUSIONCAT_CATALOG and reads it
back, and solves three small conformal-embedding invariants. No flagship
stage runs. Outputs that are not stored in the catalog go to a small JSON
results file, which the benchmark checks after the process has ended.

    PYTHONPATH=src python3 perfbench/sweep.py --seed 1 --results out.json
"""

import argparse
import json
import random

# (family, rank, level); the largest alcoves have 120 labels, the flagship 35
LADDER = (
    ("A", 1, 30), ("A", 1, 60), ("A", 1, 119),
    ("A", 2, 6), ("A", 2, 10), ("A", 2, 14),
    ("A", 3, 4), ("A", 3, 5), ("A", 3, 6),
)
SCANS = ("SU(2)", "SU(3)", "SU(4)")
# (base rank, level, ambient family, ambient rank, ambient name), all A-series bases
INVARIANTS = (
    (1, 4, "A", 2, "SU(3)"),
    (1, 10, "B", 2, "Spin(5)"),
    (3, 2, "A", 5, "SU(6)"),
)
RING_OPS = ("alcove", "modular", "fusion")


def plan(seed):
    """The operations of one pass, in the order the seed gives them."""
    ops = [(op, ring) for ring in LADDER for op in RING_OPS]
    ops += [("scan", base) for base in SCANS]
    ops += [("invariant", inv) for inv in INVARIANTS]
    random.Random(seed).shuffle(ops)
    return ops


def op_key(op, arg):
    return f"{op}:{'/'.join(str(x) for x in arg) if isinstance(arg, tuple) else arg}"


def run_op(op, arg, store):
    # imported here: run.py and checks.py import this module for plan() and
    # op_key() only, and the benchmark's parent process must stay small
    from fusioncat import catalog as cat
    from fusioncat import embedding as emb
    from fusioncat import fusion as fr
    from fusioncat import modular as md
    from fusioncat import weights as wt

    if op == "scan":
        return {
            "solutions": [
                [e.ambient.compact_name, e.ambient.dim, e.ambient.dual_coxeter, e.level, str(e.charge)]
                for e in emb.scan_embeddings(arg)
            ]
        }
    if op == "invariant":
        rank, k, afam, arank, aname = arg
        base = wt.algebra("A", rank)
        data = md.modular_data(base, k)
        sols = emb.solve_invariant(data, emb.branch_candidates(base, k, wt.algebra(afam, arank), 1))
        inv = emb.pick_invariant(sols)
        mh = store.put(cat.modular_data_record(data))
        h = store.put(cat.invariant_record(inv, data, aname, inputs={"modular-data": mh}))
        return {
            "hash": h,
            "get_hash": store.get(h).content_hash,
            "solutions": [s.matrix.tolist() for s in sols],
        }
    fam, rank, k = arg
    spec = wt.algebra(fam, rank)
    if op == "alcove":
        labels = wt.enumerate_alcove(spec, k)
        return {
            "labels": [list(la) for la in labels],
            "h": [str(wt.conformal_dimension(spec, k, la)) for la in labels],
        }
    if op == "modular":
        h = store.put(cat.modular_data_record(md.modular_data(spec, k)))
    else:
        labels = wt.enumerate_alcove(spec, k)
        h = store.put(cat.fusion_ring_record(spec, k, labels, fr.fusion_matrices(spec, k)))
    return {"hash": h, "get_hash": store.get(h).content_hash}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--results", required=True)
    args = p.parse_args(argv)

    from fusioncat import catalog as cat

    store = cat.Catalog()
    out = {}
    for op, arg in plan(args.seed):
        try:
            out[op_key(op, arg)] = run_op(op, arg, store)
        except Exception as e:  # one failed operation must not hide the others
            out[op_key(op, arg)] = {"error": f"{type(e).__name__}: {e}"}
    with open(args.results, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
