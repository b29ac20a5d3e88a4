"""Correctness checks on what the program wrote, made after each pass.

Every check compares an output with a value the benchmark computes itself
(closed forms for alcove sizes, conformal dimensions and central charges, a
Verlinde sum over the stored S matrix, sha256 of the stored bytes), with a
property the method must have (modular relations, fusion-ring axioms,
commutation with S and T), or with a figure printed in arXiv:0710.1397. None
compares with a saved copy of an earlier run.

Each check returns a list of problems; an empty list means the output
passed. The benchmark runs the checks in a process of their own,

    python3 perfbench/checks.py WORKLOAD WORKDIR EXIT_CODE SEED

so that the records they load never sit in the memory of the process that
starts the passes: a child's peak resident set as `wait4` reports it is at
least its parent's resident set when it was started.
"""

import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import sweep

TOL = 1e-9  # modular relations, Verlinde sums and Perron values, absolute
INV_TOL = 1e-7  # commutators of an integer invariant with S and T

# figures of the SU(4)_4 in Spin(15)_1 case in arXiv:0710.1397
PAPER_RANK = 33
PAPER_SINGLETS, PAPER_DOUBLETS, PAPER_SLOTS = 18, 15, 48
PAPER_ANNULAR_SUMS = (1568, 86816)
PAPER_DUAL_SUMS = (1864, 86816)
PAPER_CENTERS = (9, 33)
PAPER_INVARIANT_TRACE, PAPER_GRAM_TRACE = 12, 48
PAPER_GRAPH_NORM = 1 / math.sin(math.pi / 8)  # norm of the 12-vertex graph
PAPER_PAIRS = 48
FLAGSHIP_KINDS = (
    "fusion-ring", "modular-data", "invariant", "toric-family", "graph-algebra", "oc-graph",
)


# --- closed forms for the A series -------------------------------------------

def a_dim(n):
    return n * (n + 2)


def a_dual_coxeter(n):
    return n + 1


def a_inner(lam, mu):
    """<lam, mu> for A_n weights in Dynkin labels, through the inverse
    Cartan matrix min(i, j) (N - max(i, j)) / N."""
    n = len(lam)
    N = n + 1
    return sum(
        Fraction(lam[i] * mu[j] * min(i + 1, j + 1) * (N - max(i + 1, j + 1)), N)
        for i in range(n)
        for j in range(n)
    )


def a_conformal_dimension(lam, k):
    """h = <lam, lam + 2 rho> / (2 (k + h^v))."""
    n = len(lam)
    return a_inner(lam, [x + 2 for x in lam]) / (2 * (k + a_dual_coxeter(n)))


def a_central_charge(n, k):
    return Fraction(k * a_dim(n), k + a_dual_coxeter(n))


def sha_ok(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest() == Path(path).stem


# --- modular data and fusion rings -------------------------------------------

def _complex(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def modular_matrices(payload):
    s = _complex(payload["s"])
    t = np.diag([complex(re, im) for re, im in payload["t_diagonal"]])
    return s, t


def check_modular_record(payload):
    """Closed-form alcove, h and c; S symmetric and unitary, S^2 the charge
    conjugation, (ST)^3 = S^2, S positive on the vacuum row."""
    probs = []
    n, k = int(payload["algebra"][1:]), payload["level"]
    labels = [tuple(la) for la in payload["labels"]]
    if len(labels) != math.comb(k + n, n):
        probs.append(f"A{n}_{k}: {len(labels)} labels, want C({k + n},{n})")
    if Fraction(payload["central_charge"]) != a_central_charge(n, k):
        probs.append(f"A{n}_{k}: central charge {payload['central_charge']}")
    hs = [Fraction(h) for h in payload["conformal_dimensions"]]
    if hs != [a_conformal_dimension(la, k) for la in labels]:
        probs.append(f"A{n}_{k}: conformal dimensions differ from the closed form")
    s, t = modular_matrices(payload)
    index = {la: i for i, la in enumerate(labels)}
    conj = np.zeros_like(s)
    for i, la in enumerate(labels):
        conj[i, index[tuple(reversed(la))]] = 1
    st = s @ t
    res = {
        "symmetry": np.abs(s - s.T).max(),
        "unitarity": np.abs(s @ s.conj().T - np.eye(len(labels))).max(),
        "S^2 = C": np.abs(s @ s - conj).max(),
        "(ST)^3 = S^2": np.abs(st @ st @ st - s @ s).max(),
    }
    probs += [f"A{n}_{k}: {name} residual {r:.2e}" for name, r in res.items() if not r < TOL]
    if not (s[0].real > 0).all():
        probs.append(f"A{n}_{k}: vacuum row of S not positive")
    return probs


def check_fusion_record(payload, s):
    """Nonnegative integers, N_0 = I, N_ab^c = N_ba^c, associativity on two
    random probes, equality with the Verlinde sum over s, and the quantum
    dimensions d = S_0/S_00 as a common eigenvector with sum d^2 = 1/S_00^2."""
    probs = []
    name = f"{payload['algebra']}_{payload['level']}"
    N = np.array(payload["matrices"])
    r = N.shape[0]
    if N.shape != (r, r, r) or s.shape != (r, r):
        return [f"{name}: fusion tensor shape {N.shape}, S shape {s.shape}"]
    if N.dtype.kind != "i" or N.min() < 0:
        probs.append(f"{name}: fusion coefficients are not nonnegative integers")
    if not np.array_equal(N[0], np.eye(r, dtype=N.dtype)):
        probs.append(f"{name}: N_0 is not the identity")
    if not np.array_equal(N, N.transpose(1, 0, 2)):
        probs.append(f"{name}: N_ab^c != N_ba^c")
    Nf = N.astype(float)
    rng = np.random.default_rng(0)
    for _ in range(2):
        x = rng.integers(-1000, 1001, size=r).astype(float)
        Y = Nf @ x  # Y[c] = N_c x
        lhs = Nf @ Y.T  # [a, i, b] = (N_a N_b x)_i
        rhs = np.tensordot(Nf, Y, axes=([2], [0]))  # [a, b, i] = sum_c N_ab^c (N_c x)_i
        if not np.array_equal(lhs.transpose(0, 2, 1), rhs):
            probs.append(f"{name}: N_a N_b != sum_c N_ab^c N_c")
            break
    ratio = s / s[0]
    ver = np.stack([(ratio[a] * s) @ s.conj().T for a in range(r)]).real
    drift = np.abs(ver - N).max()
    if not drift < TOL * r:
        probs.append(f"{name}: Verlinde sum differs by {drift:.2e}")
    d = (s[0] / s[0, 0]).real
    if not abs((d * d).sum() - 1 / s[0, 0].real ** 2) < TOL * (d * d).sum():
        probs.append(f"{name}: sum d^2 != 1/S_00^2")
    if not np.abs(Nf @ d - np.outer(d, d)).max() < TOL * d.max() ** 2:
        probs.append(f"{name}: d is not a common eigenvector with eigenvalues d")
    return probs


def check_invariant_matrix(M, s, t, name):
    """Nonnegative integer, M_00 = 1, commutes with S and T."""
    M = np.array(M)
    probs = []
    if M.dtype.kind != "i" or M.min() < 0 or M[0, 0] != 1:
        probs.append(f"{name}: invariant is not a nonnegative integer matrix with M_00 = 1")
    res = max(np.abs(M @ s - s @ M).max(), np.abs(M @ t - t @ M).max())
    if not res < INV_TOL:
        probs.append(f"{name}: invariant commutator {res:.2e}")
    return probs


# --- catalogs ----------------------------------------------------------------

def read_catalog(root):
    """{hash: record dict} for every object, with problems for files whose
    names are not the sha256 of their bytes and for stray files."""
    objects = Path(root) / "objects"
    recs, probs = {}, []
    for path in sorted(objects.iterdir()) if objects.is_dir() else []:
        if not re.fullmatch(r"[0-9a-f]{64}\.json", path.name):
            probs.append(f"stray file {path.name} in the catalog")
        elif not sha_ok(path):
            probs.append(f"{path.name}: sha256 of the bytes is not the name")
        else:
            recs[path.stem] = json.loads(path.read_bytes())
    return recs, probs


def check_provenance(recs):
    probs = []
    for h, rec in recs.items():
        for kind, ih in rec["provenance"]["inputs"].items():
            if ih not in recs or recs[ih]["kind"] != kind:
                probs.append(f"{h[:12]}: provenance input {kind} {ih[:12]} is not in the catalog")
    return probs


def check_graph_algebra(payload):
    """G_1 = I, nonnegative integer entries, G_x G_a = sum_c (G_a)_xc G_c,
    and the left-fundamental graph has norm 1/sin(pi/8)."""
    probs = []
    G = np.array(payload["matrices"])
    n = G.shape[0]
    if G.dtype.kind != "i" or G.min() < 0:
        probs.append("graph algebra: entries are not nonnegative integers")
    if not np.array_equal(G[0], np.eye(n, dtype=G.dtype)):
        probs.append("graph algebra: G_1 is not the identity")
    lhs = np.einsum("xij,ajk->axik", G, G)
    rhs = np.einsum("axc,cik->axik", G, G)
    bad = int((lhs != rhs).any(axis=(2, 3)).sum())
    if bad:
        probs.append(f"graph algebra: {bad} of {n * n} products G_x G_a do not close")
    names = payload["graph"]["vertices"]
    pos = {v: i for i, v in enumerate(names)}
    (cls,) = [c for c in payload["graph"]["edge_classes"] if c["name"] == "left-fundamental"]
    A = np.zeros((len(names), len(names)))
    for u, v, m in cls["edges"]:
        A[pos[u], pos[v]] += m
    norm = np.abs(np.linalg.eigvals(A)).max()
    if not abs(norm - PAPER_GRAPH_NORM) < TOL:
        probs.append(f"graph algebra: Perron eigenvalue {norm!r}, want 1/sin(pi/8)")
    return probs


def check_flagship_invariant(payload):
    """M_00 = 1, trace 12, Gram trace 48, and M_ij != 0 only where
    h_i - h_j is an integer."""
    M = np.array(payload["matrix"])
    k = payload["level"]
    hs = [a_conformal_dimension(la, k) for la in payload["labels"]]
    probs = []
    if M[0, 0] != 1 or M.trace() != PAPER_INVARIANT_TRACE or (M.T @ M).trace() != PAPER_GRAM_TRACE:
        probs.append(f"invariant: M_00 {M[0, 0]}, trace {M.trace()}, Gram trace {(M.T @ M).trace()}")
    off = [(i, j) for i, j in zip(*np.nonzero(M)) if (hs[i] - hs[j]).denominator != 1]
    if off:
        probs.append(f"invariant: {len(off)} entries where h_i - h_j is not an integer")
    return probs


def check_ocneanu_catalog(root):
    """The six records `fusioncat ocneanu` writes to an empty catalog."""
    recs, probs = read_catalog(root)
    by_kind = {}
    for h, rec in recs.items():
        by_kind.setdefault(rec["kind"], []).append(rec)
    if sorted(by_kind) != sorted(FLAGSHIP_KINDS) or len(recs) != len(FLAGSHIP_KINDS):
        probs.append(f"catalog holds {len(recs)} records of kinds {sorted(by_kind)}, want one of each of six")
    probs += check_provenance(recs)
    one = {kind: recs[0]["payload"] for kind, recs in by_kind.items() if len(recs) == 1}
    if "invariant" in one:
        probs += check_flagship_invariant(one["invariant"])
    if "graph-algebra" in one:
        probs += check_graph_algebra(one["graph-algebra"])
    if "oc-graph" in one:
        pairs = {tuple(p) for p in one["oc-graph"]["pairs"]}
        if len(pairs) != PAPER_PAIRS or len(one["oc-graph"]["pairs"]) != PAPER_PAIRS:
            probs.append(f"oc-graph: {len(pairs)} distinct pairs, want {PAPER_PAIRS}")
    if "toric-family" in one:
        fam = one["toric-family"]
        if fam["rank"] != PAPER_RANK or len(fam["slots"]) != PAPER_SLOTS:
            probs.append(f"toric family: rank {fam['rank']}, {len(fam['slots'])} slots")
    if "modular-data" in one:
        probs += check_modular_record(one["modular-data"])
        if "fusion-ring" in one:
            s, _ = modular_matrices(one["modular-data"])
            probs += check_fusion_record(one["fusion-ring"], s)
    return len(FLAGSHIP_KINDS) - len(set(by_kind) & set(FLAGSHIP_KINDS)), probs


# --- the verify transcript ---------------------------------------------------

def check_verify_transcript(text, code):
    """(failed criteria, problems) for the output of `fusioncat verify`."""
    passed = {int(n) for n in re.findall(r"^criterion (\d+): PASS — ", text, re.M)}
    failed = 12 - len(passed & set(range(1, 13)))
    probs = []
    if code != (0 if failed == 0 else 1):
        probs.append(f"exit code {code} with {failed} criteria not passed")

    def grab(pattern):
        m = re.search(pattern, text)
        return tuple(int(x) for x in m.groups()) if m else None

    figures = {
        "rank": (grab(r"splitting rank, census and rebuild: rank (\d+),"), (PAPER_RANK,)),
        "members": (
            grab(r"(\d+)\+(\d+) members -> (\d+) slots"),
            (PAPER_SINGLETS, PAPER_DOUBLETS, PAPER_SLOTS),
        ),
        "sums": (
            grab(r"annular sums (\d+), (\d+); dual sums (\d+), (\d+)"),
            PAPER_ANNULAR_SUMS + PAPER_DUAL_SUMS,
        ),
        "centers": (grab(r"centers (\d+) and (\d+)"), PAPER_CENTERS),
    }
    probs += [f"{k}: got {got}, want {want}" for k, (got, want) in figures.items() if got != want]
    return failed, probs


# --- the ring sweep ----------------------------------------------------------

def check_sweep(results, ops, root):
    """(failed operations, problems) for one ring-sweep pass. `ops` is the
    pass's plan, `results` what the process reported for each operation."""
    recs, probs = read_catalog(root)
    probs += check_provenance(recs)
    failed = 0
    modular = {}
    for op, arg in ops:
        out = results.get(sweep.op_key(op, arg))
        if out is None or "error" in out:
            failed += 1
            continue
        if "hash" in out and not (out["hash"] in recs and out["get_hash"] == out["hash"]):
            probs.append(f"{sweep.op_key(op, arg)}: get did not return the stored bytes")
            continue
        if op == "modular":
            payload = recs[out["hash"]]["payload"]
            probs += check_modular_record(payload)
            modular[arg] = modular_matrices(payload)[0]
        elif op == "alcove":
            _, n, k = arg
            labels = [tuple(la) for la in out["labels"]]
            inside = all(min(la) >= 0 and sum(la) <= k for la in labels)
            if len(set(labels)) != math.comb(k + n, n) or len(labels) != len(set(labels)) or not inside:
                probs.append(f"alcove A{n}_{k}: {len(labels)} labels, want C({k + n},{n})")
            if [Fraction(h) for h in out["h"]] != [a_conformal_dimension(la, k) for la in labels]:
                probs.append(f"alcove A{n}_{k}: conformal dimensions differ from the closed form")
        elif op == "scan":
            probs += _check_scan(arg, out["solutions"])
        elif op == "invariant":
            rec = recs[out["hash"]]
            base = recs[rec["provenance"]["inputs"]["modular-data"]]["payload"]
            probs += check_modular_record(base)
            s, t = modular_matrices(base)
            name = f"A{arg[0]}_{arg[1]} in {arg[4]}"
            for M in out["solutions"]:
                probs += check_invariant_matrix(M, s, t, name)
            if rec["payload"]["matrix"] != out["solutions"][0]:
                probs.append(f"{name}: stored invariant is not the first solution")
    # fusion rings are checked against the S matrix of the same ring
    for op, arg in ops:
        out = results.get(sweep.op_key(op, arg))
        if op != "fusion" or out is None or "error" in out or out["hash"] not in recs:
            continue
        if arg in modular:
            probs += check_fusion_record(recs[out["hash"]]["payload"], modular[arg])
        else:
            probs.append(f"fusion {arg}: no modular data of the same ring to check against")
    return failed, probs


# each sweep base, and an ambient the embedding must find with its level
SCAN_BASES = {"SU(2)": 1, "SU(3)": 2, "SU(4)": 3}
SCAN_EXPECTED = {"SU(2)": ("SU(3)", 4), "SU(3)": ("SU(6)", 5), "SU(4)": ("Spin(15)", 4)}


def _check_scan(base, solutions):
    n = SCAN_BASES[base]
    probs = []
    for name, dim, h, level, charge in solutions:
        c = Fraction(dim, 1 + h)
        if a_central_charge(n, level) != c or Fraction(charge) != c:
            probs.append(f"scan {base}: {name} at level {level} does not match charges")
    if len({s[0] for s in solutions}) != len(solutions):
        probs.append(f"scan {base}: an ambient appears twice")
    if list(SCAN_EXPECTED[base]) not in [[s[0], s[3]] for s in solutions]:
        probs.append(f"scan {base}: {SCAN_EXPECTED[base]} is missing")
    return probs


def check_pass(workload, work, code, seed):
    """(failed operations, problems) for the outputs one pass left in `work`."""
    if workload == "flagship-verify":
        return check_verify_transcript((work / "stdout").read_text(), code)
    if workload == "flagship-ocneanu":
        failed, probs = check_ocneanu_catalog(work / "catalog")
        return failed, probs + ([f"exit code {code}"] if code else [])
    ops = sweep.plan(seed)
    path = work / "results.json"
    if code != 0 or not path.exists():
        return len(ops), [f"exit code {code}"]
    return check_sweep(json.loads(path.read_text()), ops, work / "catalog")


if __name__ == "__main__":
    name, work, code, seed = sys.argv[1:]
    failed, probs = check_pass(name, Path(work), int(code), int(seed))
    print(json.dumps({"failed": failed, "problems": probs}))
