"""Exact-arithmetic reconstruction of fusion rings, conformal embeddings,
modular invariants, and the quantum-symmetry algebras of module categories.

Everything upstream of the modular layer is exact: Fractions for weights and
conformal data, integers for the splitting and graph-algebra searches. Floats
only appear where roots of unity are unavoidable, and every float-facing
check carries an explicit tolerance.
"""

__version__ = "0.1.0"


class CertificationError(RuntimeError):
    """A derived object failed one of the checks that certify it. Raised
    instead of `assert`, so the checks also run under `python -O`."""

    def __init__(self, stage, detail):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail
