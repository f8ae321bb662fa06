"""Solution decomposition for the rigid-inclusion problem.

The displacement is reconstructed as

    u = sum_a C1[a] v1[a] + sum_a C2[a] v2[a] + v3,

where v_i[a] solves the shell Dirichlet problem with rigid datum psi_a on
inclusion i and zero elsewhere, v3 carries the outer boundary datum, and the
free constants C_i[a] are fixed by the vanishing of all traction moments on
the inclusion boundaries.  That condition is the symmetric linear system

    sum_{i,a} C_i[a] * a_ij[a,b] = b_j[b],    a_ij[a,b] = (C e(v_i[a]), e(v_j[b]))_Omega,

whose Gram blocks are computed here by volume energy quadrature (the
boundary-traction form of the same numbers is kept as a cross-check only).
Each field's strain is computed once and cached on the field, so the 42 pair
quadratures of a point cost seven strain evaluations plus the pairwise sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elasticity import ElasticParams, rigid_basis
from .fem import (
    DirichletSolver,
    DisplacementField,
    Region,
    SolveReport,
    SolverConfig,
    energy_integral,
    max_gradient,
)
from .meshing import BoundaryTag, Mesh


class DecompositionError(RuntimeError):
    pass


@dataclass
class CellSolutions:
    """The d(d+1)/2 + 1 cell problems solved on one mesh."""

    mesh: Mesh
    params: ElasticParams
    v: dict                     # (i, alpha) -> DisplacementField, 1-based
    v3: DisplacementField
    report: SolveReport
    basis: list

    @property
    def n_alpha(self) -> int:
        return len(self.basis)


def solve_cell_problems(mesh: Mesh, params: ElasticParams, phi,
                        solver: SolverConfig | None = None) -> CellSolutions:
    """Solve all v_i[alpha] and v3 in one block solve sharing one
    preconditioner."""
    basis = rigid_basis(2)
    keys, bcs = [], {}
    for i, own_tag in ((1, BoundaryTag.INCLUSION_TOP), (2, BoundaryTag.INCLUSION_BOTTOM)):
        other = (BoundaryTag.INCLUSION_BOTTOM if i == 1 else BoundaryTag.INCLUSION_TOP)
        for psi in basis:
            keys.append((i, psi.index))
            bcs[f"v{i}^{psi.index}"] = {own_tag: psi, other: 0.0, BoundaryTag.OUTER: 0.0}
    bcs["v3"] = {BoundaryTag.INCLUSION_TOP: 0.0, BoundaryTag.INCLUSION_BOTTOM: 0.0,
                 BoundaryTag.OUTER: phi}
    fields, report = DirichletSolver(mesh, params, solver).solve(bcs)
    return CellSolutions(mesh, params, dict(zip(keys, fields)), fields[-1], report, basis)


@dataclass
class CoefficientSystem:
    """Gram blocks, loads and (once solved) the rigid-motion coefficients."""

    n_alpha: int
    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    asymmetry_defect: float
    c1: np.ndarray | None = None
    c2: np.ndarray | None = None
    diff: np.ndarray | None = None
    p: np.ndarray | None = None
    residual: float = float("nan")
    residual_p: float = float("nan")

    def full_matrix(self) -> np.ndarray:
        top = np.hstack([self.a11.T, self.a21.T])
        bot = np.hstack([self.a12.T, self.a22.T])
        return np.vstack([top, bot])

    def rhs(self) -> np.ndarray:
        return np.concatenate([self.b1, self.b2])


def assemble_system(params: ElasticParams, cells: CellSolutions) -> CoefficientSystem:
    """Fill the Gram blocks a_ij and loads b_j by volume energy quadrature.

    Strains are computed once per field (``DisplacementField.strain``), but
    each unordered pair is still integrated in both argument orders, and the
    recorded asymmetry defect compares the two; the blocks are then
    symmetrized.  A defect above 1e-6 relative indicates a discretization
    fault and raises.  At lam = mu = 1 both orders round alike and the defect
    is exactly 0, so the blocks and loads are also checked against
    ``V^T (K V)`` over the seven fields and the assembled stiffness K, which
    the quadrature equals up to rounding; a gap above 1e-8 relative raises.
    """
    n = cells.n_alpha
    a = {}
    defect = 0.0
    scale = 0.0
    for i in (1, 2):
        for j in (1, 2):
            block = np.empty((n, n))
            for al in range(1, n + 1):
                for be in range(1, n + 1):
                    block[al - 1, be - 1] = energy_integral(
                        params, cells.v[(i, al)], cells.v[(j, be)])
            a[(i, j)] = block
    for i in (1, 2):
        m = a[(i, i)]
        d = float(np.abs(m - m.T).max())
        s = float(np.abs(m).max())
        defect = max(defect, d / max(s, 1e-300))
        a[(i, i)] = 0.5 * (m + m.T)
    cross = float(np.abs(a[(1, 2)] - a[(2, 1)].T).max())
    scale = max(float(np.abs(a[(1, 2)]).max()), 1e-300)
    defect = max(defect, cross / scale)
    if defect > 1e-6:
        raise DecompositionError(
            f"Gram asymmetry defect {defect:.3e} exceeds 1e-6; discretization fault")
    sym_cross = 0.5 * (a[(1, 2)] + a[(2, 1)].T)
    a[(1, 2)] = sym_cross
    a[(2, 1)] = sym_cross.T

    b1 = np.array([-energy_integral(params, cells.v3, cells.v[(1, be)])
                   for be in range(1, n + 1)])
    b2 = np.array([-energy_integral(params, cells.v3, cells.v[(2, be)])
                   for be in range(1, n + 1)])

    fields = [cells.v[(i, al)] for i in (1, 2) for al in range(1, n + 1)] + [cells.v3]
    v = np.column_stack([f.vec() for f in fields])
    gram_k = v.T @ (cells.v3.space.stiffness(params) @ v)
    gram_q = np.block([[a[(1, 1)], a[(1, 2)]], [a[(2, 1)], a[(2, 2)]]])
    for what, quad, alt in (("Gram", gram_q, gram_k[:-1, :-1]),
                            ("load", np.concatenate([b1, b2]), -gram_k[-1, :-1])):
        dev = float(np.abs(quad - alt).max()) / max(float(np.abs(quad).max()), 1e-300)
        if dev > 1e-8:
            raise DecompositionError(
                f"{what} quadrature and V^T K V differ by {dev:.3e} relative; "
                "discretization fault")
    return CoefficientSystem(
        n_alpha=n, a11=a[(1, 1)], a12=a[(1, 2)], a21=a[(2, 1)], a22=a[(2, 2)],
        b1=b1, b2=b2, asymmetry_defect=defect,
    )


def solve_coefficients(system: CoefficientSystem) -> CoefficientSystem:
    """Solve the 2n x 2n system directly (dense, tiny) and form the
    difference data: diff = C1 - C2 and p = b1 - (a11 + a21^T) C2, which
    satisfy a11 diff = p up to the recorded residual."""
    m = system.full_matrix()
    rhs = system.rhs()
    n = system.n_alpha
    try:
        c = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(m))
        raise DecompositionError(
            f"coefficient system is singular (cond ~ {cond:.3e})") from exc
    rhs_norm = max(float(np.linalg.norm(rhs)), 1e-300)
    residual = float(np.linalg.norm(m @ c - rhs)) / rhs_norm
    c1, c2 = c[:n], c[n:]
    diff = c1 - c2
    p = system.b1 - (system.a11 + system.a21.T) @ c2
    p_norm = max(float(np.linalg.norm(p)), 1e-300)
    residual_p = float(np.linalg.norm(system.a11 @ diff - p)) / p_norm
    return replace(system, c1=c1, c2=c2, diff=diff, p=p,
                   residual=residual, residual_p=residual_p)


def cramer_diff(system: CoefficientSystem) -> np.ndarray:
    """C1 - C2 recomputed by Cramer's rule on the 3x3 block a11 with p.

    Cross-validates the direct solve through an independent algebraic route
    (d = 2 only)."""
    if system.n_alpha != 3 or system.p is None:
        raise DecompositionError("cramer_diff needs a solved d=2 system")
    a = system.a11
    p = system.p
    det = np.linalg.det(a)
    out = np.empty(3)
    for k in range(3):
        m = a.copy()
        m[:, k] = p
        out[k] = np.linalg.det(m) / det
    return out


def reconstruct(cells: CellSolutions, system: CoefficientSystem,
                name: str = "u") -> DisplacementField:
    """Nodal combination u = sum C1 v1 + sum C2 v2 + v3."""
    if system.c1 is None:
        raise DecompositionError("solve_coefficients first")
    vals = cells.v3.values.copy()
    for al in range(1, cells.n_alpha + 1):
        vals = vals + system.c1[al - 1] * cells.v[(1, al)].values
        vals = vals + system.c2[al - 1] * cells.v[(2, al)].values
    return DisplacementField(cells.v3.space, vals, name)


def sum_field_check(cells: CellSolutions, region: Region) -> dict:
    """Max neck gradient of v1[a] + v2[a] per rigid index a.

    The sums stay O(1) as the gap closes even though each summand blows up;
    a sweep-level fit with exponent above ~0.15 flags a violation."""
    out = {}
    for al in range(1, cells.n_alpha + 1):
        s = cells.v[(1, al)] + cells.v[(2, al)]
        val, where = max_gradient(s, region)
        out[al] = (val, where)
    return out
