"""Solution decomposition for the rigid-inclusion problem.

The displacement is reconstructed as

    u = sum_a C1[a] v1[a] + sum_a C2[a] v2[a] + v3,

where v_i[a] solves the shell Dirichlet problem with rigid datum psi_a on
inclusion i and zero elsewhere, v3 carries the outer boundary datum, and the
free constants C_i[a] are fixed by the vanishing of all traction moments on
the inclusion boundaries.  That condition is the symmetric linear system

    sum_{i,a} C_i[a] * a_ij[a,b] = b_j[b],    a_ij[a,b] = (C e(v_i[a]), e(v_j[b]))_Omega,

whose Gram matrix and loads are formed here as V^T (K V) over the seven
fields, with K V taken from the blocks of the stiffness K that the cell
problems' solver holds.  Volume energy quadrature of all seven fields at
once (one stacked gradient evaluation and one contraction) cross-checks
them; the harness cross-checks the loads once more against their
boundary-traction form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elasticity import ElasticParams, rigid_basis
from .fem import (
    DirichletSolver,
    DisplacementField,
    SolveReport,
    energy_integral,
    max_gradient,
)
from .meshing import BoundaryTag, Mesh


class DecompositionError(RuntimeError):
    pass


@dataclass
class CellSolutions:
    """The d(d+1)/2 + 1 cell problems solved on one mesh, with the solver
    that solved them: it holds the stiffness blocks that the Gram matrix and
    the traction moments are formed from, and no factorization."""

    solver: DirichletSolver
    v: dict                     # (i, alpha) -> DisplacementField, 1-based
    v3: DisplacementField
    report: SolveReport
    basis: list

    @property
    def n_alpha(self) -> int:
        return len(self.basis)


def solve_cell_problems(mesh: Mesh, params: ElasticParams, phi) -> CellSolutions:
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
    ds = DirichletSolver(mesh, params)
    fields, report = ds.solve(bcs)
    return CellSolutions(ds, dict(zip(keys, fields)), fields[-1], report, basis)


@dataclass
class CoefficientSystem:
    """Gram matrix, loads and (once solved) the rigid-motion coefficients.

    ``gram`` is the symmetric 2n x 2n matrix [[a11, a12], [a12^T, a22]] and
    ``load`` is [b1, b2]; ``gram_defect`` is the larger relative gap between
    them and the energy quadrature that cross-checks them."""

    n_alpha: int
    gram: np.ndarray
    load: np.ndarray
    gram_defect: float
    c1: np.ndarray | None = None
    c2: np.ndarray | None = None
    diff: np.ndarray | None = None
    p: np.ndarray | None = None
    residual: float = float("nan")
    residual_p: float = float("nan")

    @property
    def a11(self) -> np.ndarray:
        return self.gram[:self.n_alpha, :self.n_alpha]

    @property
    def b1(self) -> np.ndarray:
        return self.load[:self.n_alpha]


def assemble_system(cells: CellSolutions) -> CoefficientSystem:
    """Form the Gram matrix a_ij and loads b_j as ``V^T (K V)``.

    V holds the seven fields (v1[.], v2[.], v3) as columns; K V comes from
    the stiffness blocks of the cells' solver (``stiffness_product``), and
    the product is symmetrized.  One ``energy_integral`` call forms the same
    matrix by volume energy quadrature, which reads the fields' gradients
    and not K, with the moduli of the solver that formed K; a gap above
    1e-8 relative in the Gram block or the loads indicates a discretization
    fault and raises.
    """
    n = cells.n_alpha
    fields = [cells.v[(i, al)] for i in (1, 2) for al in range(1, n + 1)] + [cells.v3]
    v = np.column_stack([f.vec() for f in fields])
    g = v.T @ cells.solver.stiffness_product(v)
    g = 0.5 * (g + g.T)
    quad = energy_integral(cells.solver.params, fields)
    defect = 0.0
    for what, part in (("Gram", np.s_[:-1, :-1]), ("load", np.s_[-1, :-1])):
        scale = max(float(np.abs(g[part]).max()), 1e-300)
        dev = float(np.abs(quad[part] - g[part]).max()) / scale
        if dev > 1e-8:
            raise DecompositionError(
                f"{what} quadrature and V^T K V differ by {dev:.3e} relative; "
                "discretization fault")
        defect = max(defect, dev)
    return CoefficientSystem(n_alpha=n, gram=g[:-1, :-1], load=-g[-1, :-1], gram_defect=defect)


def solve_coefficients(system: CoefficientSystem) -> CoefficientSystem:
    """Solve gram c = load directly (dense, 2n x 2n) and form the difference
    data: diff = C1 - C2 and p = b1 - (a11 + a12) C2, which satisfy
    a11 diff = p up to the recorded residual.  A solve residual above 1e-8
    raises; that of a11 diff = p does not, as |p| is rounding for rigid data."""
    m, rhs = system.gram, system.load
    n = system.n_alpha
    try:
        c = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(m))
        raise DecompositionError(
            f"coefficient system is singular (cond ~ {cond:.3e})") from exc
    rhs_norm = max(float(np.linalg.norm(rhs)), 1e-300)
    residual = float(np.linalg.norm(m @ c - rhs)) / rhs_norm
    if residual > 1e-8:
        raise DecompositionError(f"coefficient system solve residual {residual:.3e} exceeds 1e-8")
    c1, c2 = c[:n], c[n:]
    diff = c1 - c2
    p = system.b1 - (system.a11 + m[:n, n:]) @ c2
    p_norm = max(float(np.linalg.norm(p)), 1e-300)
    residual_p = float(np.linalg.norm(system.a11 @ diff - p)) / p_norm
    return replace(system, c1=c1, c2=c2, diff=diff, p=p,
                   residual=residual, residual_p=residual_p)


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


def sum_field_check(cells: CellSolutions, region) -> dict:
    """Max gradient of v1[a] + v2[a] over ``region`` (a predicate of
    points, see :func:`max_gradient`) per rigid index a.

    The sums stay O(1) as the gap closes even though each summand blows up;
    a sweep-level fit with exponent above ~0.15 flags a violation."""
    space = cells.v3.space
    sums = [DisplacementField(space, cells.v[(1, al)].values + cells.v[(2, al)].values,
                              f"v1^{al}+v2^{al}")
            for al in range(1, cells.n_alpha + 1)]
    return dict(enumerate(max_gradient(sums, region), start=1))
