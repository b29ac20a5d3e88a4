"""Modular data of the level-k A-series categories.

The s matrix is the Weyl-alternating Gaussian sum over traceless partial-sum
coordinates, normalized so the vacuum row is positive; t is the diagonal of
conformal dimensions shifted by the central charge. This is the first module
where floats appear, and every identity downstream of here carries a
tolerance.

Every Kac-Peterson phase is rational: scaled by N, the coordinates of
lam + rho are integers, so each Weyl permutation gives all r^2 phase
numerators as one integer matrix product. The cost is N! such products and
N! vectorized exponentials. The floats are formed in the order the scalar
sum would form them (numerator / N^2, times -2 pi, over kappa, then exp of
i times that), so s does not depend on how the sum is batched. The same
numerators over N are exponents of zeta = exp(2 pi i / (N kappa)), so
s_numerators writes s exactly, as a scalar times integer matrices over a
basis of Q(zeta) (Coste and Gannon, 1994).

Phase conventions are audited for rank <= 3 only; the guard below is
deliberate.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import weights as wt

__all__ = ["ModularData", "modular_data", "s_numerators", "verlinde_matrices", "verlinde_tensor"]


@dataclass
class ModularData:
    spec: wt.AlgebraSpec
    level: int
    labels: list  # alcove in canonical order
    index: dict  # label -> position
    s: np.ndarray
    t: np.ndarray
    hs: list  # exact conformal dimensions, same order
    central_charge: Fraction
    conj_perm: np.ndarray  # position of the conjugate label


def _phase_numerators(spec, labels):
    """(sign, P) per Weyl permutation p: P[a, b] = N^2 <p(lam_a + rho),
    lam_b + rho>, one integer product of the rows B_a = N times the
    barycentric coordinates of lam_a + rho."""
    N = spec.rank + 1
    B = np.array(
        [[int(N * x) for x in wt.barycentric(tuple(x + 1 for x in la))] for la in labels],
        dtype=np.int64,
    )
    for p, sg in wt.weyl_group(N).items():
        yield sg, B[:, p] @ B.T


def _divide(p, q):
    """Divide p by the monic q in place, coefficients constant first along
    axis 0: p[:d] becomes the remainder and p[d:] the quotient, d = deg q,
    which is returned."""
    d = len(q) - 1
    q = q.reshape(-1, *(1,) * (p.ndim - 1))
    for e in range(len(p) - 1, d - 1, -1):
        p[e - d : e] -= p[e] * q[:-1]
    return d


def _cyclotomic(m):
    """The m-th cyclotomic polynomial, integer coefficients constant first:
    for each divisor d of m in turn, x^d - 1 over those of the divisors of
    d found before it."""
    phi = {}
    for d in (d for d in range(1, m + 1) if m % d == 0):
        p = np.zeros(d + 1, dtype=np.int64)
        p[[0, d]] = -1, 1
        for e in [e for e in phi if d % e == 0]:
            p = p[_divide(p, phi[e]) :]
        phi[d] = p
    return phi[m]


def s_numerators(data: ModularData):
    """(m, Z): data.s = sigma * sum_j Z[j] zeta^j exactly, with m = N kappa,
    zeta = exp(2 pi i / m), sigma the scalar modular_data multiplies by and
    Z integer, of shape (phi(m), r, r). SU(N) weights have inner products in
    Z/N, so the phase numerators over N are exponents of zeta; reduced
    modulo the m-th cyclotomic polynomial they give coordinates over a basis
    of Q(zeta). So a rational matrix commutes with s exactly when it
    commutes with every Z[j]."""
    spec, r = data.spec, len(data.labels)
    N = spec.rank + 1
    m = N * (data.level + spec.dual_coxeter)
    Z = np.zeros((m, r, r), dtype=np.int64)
    for sg, P in _phase_numerators(spec, data.labels):
        Z[(-P // N % m, *np.indices((r, r)))] += sg  # each (a, b) once per p
    return m, Z[: _divide(Z, _cyclotomic(m))]


def modular_data(spec: wt.AlgebraSpec, k: int) -> ModularData:
    if spec.family != "A" or spec.rank > 3:
        raise ValueError(f"phase conventions audited for A1..A3 only, not {spec.name}")
    N = spec.rank + 1
    kappa = k + spec.dual_coxeter
    labels = wt.enumerate_alcove(spec, k)
    r = len(labels)
    index = {la: i for i, la in enumerate(labels)}

    s = np.zeros((r, r), dtype=complex)
    for sg, P in _phase_numerators(spec, labels):
        # this order of roundings is the scalar sum's; see the module docstring
        phase = (-2 * np.pi) * (P / N**2) / kappa
        s += sg * np.exp(1j * phase)
    # entry (a, b) with a >= b is the sum with lam_a permuted; mirror it
    upper = np.triu_indices(r, 1)
    s[upper] = s.T[upper]
    sigma = (1j) ** (N * (N - 1) // 2) * N ** -0.5 * float(kappa) ** (-spec.rank / 2)
    s *= sigma

    c = wt.central_charge(spec, k)
    hs = [wt.conformal_dimension(spec, k, la) for la in labels]
    t = np.diag([np.exp(2j * np.pi * float(h - c / 24)) for h in hs])

    conj = np.array([index[wt.conjugate(spec, la)] for la in labels])
    return ModularData(spec, k, labels, index, s, t, hs, c, conj)


def verlinde_tensor(data: ModularData) -> np.ndarray:
    """N[l, m, n] = sum_b s[m,b] s[l,b] conj(s[n,b]) / s[0,b], as floats."""
    s = data.s
    ratios = s / s[0]
    return np.einsum("lb,mb,nb->lmn", ratios, s, s.conj(), optimize=True).real


def verlinde_matrices(data: ModularData):
    """Fusion matrices keyed by label, rounded to int; raises if any entry
    sits further than 1e-6 from an integer. The oracle that the integer
    towers of fusion.py are checked against."""
    ten = verlinde_tensor(data)
    drift = np.abs(ten - np.round(ten)).max()
    if drift > 1e-6:
        raise ValueError(f"fusion numbers {drift:.3g} away from integers (tol 1e-06)")
    out = {}
    for i, la in enumerate(data.labels):
        out[la] = np.round(ten[i]).astype(np.int64)
    return out
