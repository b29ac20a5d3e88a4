"""Command-line driver: run pipeline stages, store artifacts, verify, export.

Exit codes: 0 on success, 1 when a verification check fails or a derived
object or stored artifact fails its certification, 2 when a requested
artifact is missing from the catalog, 64 on bad arguments.
"""

import argparse
import re
import sys

from . import CertificationError
from . import catalog as cat

EX_OK = 0
EX_CHECK = 1
EX_MISSING = 2
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    """Arguments that parse but name something the program does not cover."""


def _algebra(text):
    m = re.fullmatch(r"([A-G])(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected a family letter and rank, like A3, got {text!r}")
    family, rank = m.group(1), int(m.group(2))
    if family not in "AB" or rank < (2 if family == "B" else 1):
        raise argparse.ArgumentTypeError(f"supported algebras are A1, A2, ... and B2, B3, ..., got {text!r}")
    from . import weights as wt

    return wt.algebra(family, rank)


def _level(text):
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer level, got {text!r}")
    return int(text)


def _modular_algebra(spec):
    """The modular layer's phase conventions are audited for A1..A3 only."""
    if spec.family != "A" or spec.rank > 3:
        raise UsageError(f"modular data and fusion rings cover A1, A2 and A3, not {spec.family}{spec.rank}")
    return spec


def _catalog(args):
    return cat.Catalog(args.catalog)


def _fixture(text):
    if text != "e4":
        raise argparse.ArgumentTypeError("the only shipped fixture is 'e4'")
    return text


# --- stage commands ----------------------------------------------------------

def cmd_alcove(args):
    from . import weights as wt

    labels = wt.enumerate_alcove(args.algebra, args.level)
    for lab in labels:
        h = wt.conformal_dimension(args.algebra, args.level, lab)
        print(f"{lab}  h={h}")
    print(f"{len(labels)} weights in the level-{args.level} alcove")
    return EX_OK


def cmd_fusion(args):
    from . import fusion as fr
    from . import weights as wt

    spec = _modular_algebra(args.algebra)
    labels = wt.enumerate_alcove(spec, args.level)
    mats = fr.fusion_matrices(spec, args.level)
    rec = cat.fusion_ring_record(spec, args.level, labels, mats)
    h = _catalog(args).put(rec)
    print(f"stored fusion-ring {h} ({len(labels)} matrices)")
    return EX_OK


def cmd_modular(args):
    from . import modular as md

    data = md.modular_data(_modular_algebra(args.algebra), args.level)
    rec = cat.modular_data_record(data)
    h = _catalog(args).put(rec)
    print(f"stored modular-data {h} ({len(data.labels)} labels, c={data.central_charge})")
    return EX_OK


def cmd_embed_scan(args):
    from . import embedding as emb

    try:
        sols = emb.scan_embeddings(args.base)
    except KeyError as e:
        print(f"unknown algebra: {e}", file=sys.stderr)
        return EX_USAGE
    for e in sols:
        print(f"level {e.level:3d}  ambient {e.ambient.compact_name:>9s}  charge {e.charge}")
    print(f"{len(sols)} embeddings of {args.base}")
    return EX_OK


# kind -> the kinds its flagship record names as inputs, in dependency order
_FLAGSHIP_INPUTS = {
    "fusion-ring": (),
    "modular-data": (),
    "invariant": ("modular-data",),
    "toric-family": ("fusion-ring", "invariant"),
    "graph-algebra": ("toric-family",),
    "oc-graph": ("graph-algebra", "toric-family"),
}


def _flagship_record(kind, inputs):
    from . import pipeline as pl

    if kind == "fusion-ring":
        return cat.fusion_ring_record(pl.spec(), pl.LEVEL, pl.base_data().labels, pl.ring())
    if kind == "modular-data":
        return cat.modular_data_record(pl.base_data())
    if kind == "invariant":
        return cat.invariant_record(pl.invariant(), pl.base_data(), pl.AMBIENT, inputs=inputs)
    if kind == "toric-family":
        return cat.toric_family_record(pl.family(), pl.chiral_lift(), inputs=inputs)
    if kind == "graph-algebra":
        return cat.graph_algebra_record(pl.graph_algebra(), pl.module_graph(), inputs=inputs)
    return cat.oc_graph_record(pl.quantum_symmetries(), pl.slot_map(), inputs=inputs)


def _store_flagship(store, kind):
    """Put the flagship record of `kind` and every record it depends on,
    each once and in dependency order; returns kind -> hash of each."""
    needed = {kind}
    for k in reversed(_FLAGSHIP_INPUTS):  # inputs come before their users
        if k in needed:
            needed.update(_FLAGSHIP_INPUTS[k])
    hashes = {}
    for k, deps in _FLAGSHIP_INPUTS.items():
        if k in needed:
            hashes[k] = store.put(_flagship_record(k, {d: hashes[d] for d in deps}))
    return hashes


def cmd_invariant(args):
    from . import pipeline as pl

    h = _store_flagship(_catalog(args), "invariant")["invariant"]
    M = pl.invariant().matrix
    print(f"stored invariant {h} (trace {int(M.trace())}, gram trace {int((M.T @ M).trace())})")
    return EX_OK


def cmd_split(args):
    from . import pipeline as pl

    h = _store_flagship(_catalog(args), "toric-family")["toric-family"]
    fam = pl.family()
    print(f"stored toric-family {h} (rank {fam.rank}, {fam.slot_count} slots)")
    return EX_OK


def cmd_realize(args):
    from . import pipeline as pl

    h = _store_flagship(_catalog(args), "graph-algebra")["graph-algebra"]
    print(f"stored graph-algebra {h} ({pl.graph_algebra().doublet_survivors} closure-exact solutions)")
    return EX_OK


def cmd_ocneanu(args):
    h = _store_flagship(_catalog(args), "oc-graph")["oc-graph"]
    print(f"stored oc-graph {h} (48 basis pairs)")
    return EX_OK


def cmd_verify(args):
    from . import acceptance as acc

    results = acc.run_all()
    for num, name, ok, detail in results:
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {name}: {detail}")
    failed = [num for num, _, ok, _ in results if not ok]
    if failed:
        print(f"{len(failed)} of {len(results)} criteria failed: {failed}")
        return EX_CHECK
    print(f"all {len(results)} criteria passed")
    return EX_OK


def cmd_export(args):
    store = _catalog(args)
    if args.hash:
        rec = store.get(args.hash)
        if rec.kind != args.kind:
            print(f"artifact {args.hash} is {rec.kind}, not {args.kind}", file=sys.stderr)
            return EX_USAGE
    else:
        hashes = store.find(args.kind)
        if not hashes:
            raise cat.MissingArtifact(args.kind)
        rec = store.get(hashes[0])
    if args.format == "json":
        text = rec.to_json() + "\n"
    else:
        graph = rec.payload.get("graph")
        if graph is None:
            print(f"{args.kind} artifacts have no graph to draw", file=sys.stderr)
            return EX_USAGE
        text = cat.emit_dot(graph, name=args.kind)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EX_OK


# --- wiring ------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="fusioncat", description=__doc__)
    catalog_help = "catalog root; default $FUSIONCAT_CATALOG, else ./fusioncat-catalog"
    p.add_argument("--catalog", metavar="DIR", help=catalog_help)
    sub = p.add_subparsers(dest="command", required=True)

    def stage(name, fn, help):
        q = sub.add_parser(name, help=help)
        q.set_defaults(func=fn)
        # also accepted after the command; unset, it leaves the top-level value
        q.add_argument("--catalog", metavar="DIR", default=argparse.SUPPRESS, help=catalog_help)
        return q

    q = stage("alcove", cmd_alcove, "list the level-k alcove with conformal dimensions")
    q.add_argument("--algebra", type=_algebra, required=True)
    q.add_argument("--level", type=_level, required=True)

    q = stage("fusion", cmd_fusion, "compute and store the fusion ring")
    q.add_argument("--algebra", type=_algebra, required=True)
    q.add_argument("--level", type=_level, required=True)

    q = stage("modular", cmd_modular, "compute and store the modular data")
    q.add_argument("--algebra", type=_algebra, required=True)
    q.add_argument("--level", type=_level, required=True)

    q = stage("embed-scan", cmd_embed_scan, "scan for equal-charge ambient algebras at level 1")
    q.add_argument("--base", required=True, help="compact name, like 'SU(4)'")

    stage("invariant", cmd_invariant, "solve and store the flagship modular invariant")
    stage("split", cmd_split, "run modular splitting and store the toric family")
    stage("realize", cmd_realize, "solve and store the graph algebra")
    stage("ocneanu", cmd_ocneanu, "build and store the quantum-symmetry basis")

    q = stage("verify", cmd_verify, "run the twelve release checks")
    q.add_argument("--fixture", type=_fixture, default="e4")

    q = stage("export", cmd_export, "write a stored artifact as canonical JSON or DOT")
    q.add_argument("--kind", choices=cat.ARTIFACT_KINDS, required=True)
    q.add_argument("--format", choices=("json", "dot"), default="json")
    q.add_argument("--hash", default=None, help="content hash; default is the first stored hash of the kind")
    q.add_argument("--out", default=None, help="output path; default stdout")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"{parser.prog}: error: {e}", file=sys.stderr)
        return EX_USAGE
    except cat.MissingArtifact as e:
        print(f"missing artifact: {e}", file=sys.stderr)
        return EX_MISSING
    except CertificationError as e:
        print(f"{parser.prog}: {e}", file=sys.stderr)
        return EX_CHECK


if __name__ == "__main__":
    sys.exit(main())
