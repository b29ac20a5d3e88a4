"""Exact-arithmetic reconstruction of fusion rings, conformal embeddings,
modular invariants, and the quantum-symmetry algebras of module categories.

Everything upstream of the modular layer is exact: Fractions for weights and
conformal data, integers for the splitting and graph-algebra searches. Floats
only appear where roots of unity are unavoidable, and every float-facing
check carries an explicit tolerance.

Every matrix product in the package is small, and OpenBLAS's thread pool
only costs time on them: on a 2-vCPU machine, starting it took about a
quarter of a cold `import fusioncat.catalog`, and threaded products ran
several times slower. So when this package is the first to load numpy and
OPENBLAS_NUM_THREADS is not set, numpy loads with it set to 1, and the
variable is removed again at once: child processes see the caller's
environment, and a value the caller set wins.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # OpenBLAS reads the variable as it loads
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

# the record kinds of the catalog; here, so that the CLI can name them and
# catch MissingArtifact without loading the catalog (and with it hashlib)
ARTIFACT_KINDS = (
    "fusion-ring",
    "modular-data",
    "invariant",
    "toric-family",
    "oc-graph",
    "graph-algebra",
)


class MissingArtifact(KeyError):
    """Requested hash or kind is not in the catalog."""


class CertificationError(RuntimeError):
    """A derived object failed one of the checks that certify it. Raised
    instead of `assert`, so the checks also run under `python -O`."""

    def __init__(self, stage, detail):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail
