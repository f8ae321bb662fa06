"""Quadratic vector finite elements for the interior Dirichlet problems.

Displacements are discretized with P2 (six-node) triangles on straight-edged
cells, two components per scalar dof.  Gradients of P2 fields are linear per
cell, which is what the pointwise gradient measurements need.  All boundary
conditions are Dirichlet and imposed strongly by row elimination.  The
Dirichlet problems of one mesh are solved together (``DirichletSolver``): up
to ``_DIRECT_MAX_FREE_DOFS`` free dofs by one sparse LU factorization and one
multi-column triangular solve, above it by one block CG run with a shared
incomplete-LU preconditioner.  The solver is the one owner of a point's
operator: it assembles the stiffness once, keeps only the blocks it needs,
and drops the full matrix before the factorization; every later product with
the stiffness (Gram matrix, traction moments) goes through it.  The solver
also builds the mesh's ``P2Space`` (dof layout and geometry factors), and
every field of the point lives on that space.  The mesh holds no reference
back, so a point's mesh and space are freed by reference counting as soon as
the point is done.

The weak form is int_Omega lam*div(u)*div(v) + 2*mu*e(u):e(v); with the
degree-2 quadrature rule below it is integrated exactly on affine cells.

Every gradient measurement goes through one kernel, ``_grads_at``, which
takes a stack of fields: ``energy_integral`` and ``max_gradient`` measure a
list of fields in one evaluation.

scipy's sparse stack (``sp``, ``spla``) is imported at the first assembly,
or the first time ``sp`` or ``spla`` is read off this module, so importing
the package, meshing and mesh I/O need numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elasticity import ElasticParams
from .meshing import FLOAT_FMT, BoundaryTag, Mesh, format_rows

# degree-2 rule on the reference triangle (weights sum to 1/2)
_QP = np.array([[1.0 / 6.0, 1.0 / 6.0], [2.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 2.0 / 3.0]])
_QW = np.array([1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0])

# Systems with at most this many free dofs are solved directly.  The cap is
# not an accuracy, physics or memory boundary: the point_fine benchmark point
# (87,998 free dofs) solves directly in half the time at the same peak RSS,
# but its stored reference holds the block PCG's rtol-1e-10 error
# (max_grad_u 47.4278759245, against 47.4278755931 from the exact solve).
# The cap and the PCG branch go once that reference is re-recorded from a
# direct solve.
_DIRECT_MAX_FREE_DOFS = 50_000

# block PCG iteration budget and incomplete-LU preconditioner settings, for
# systems above the direct cap only
_PCG_MAXITER = 300
_ILU_DROP_TOL = 1e-5
_ILU_FILL_FACTOR = 20.0

# sample points for per-cell gradient extrema: vertices and edge midpoints
_SAMPLE_BARY = np.array([
    [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
    [0.5, 0.0], [0.5, 0.5], [0.0, 0.5],
])


def _load_sparse():
    """Bind scipy's sparse stack as ``sp`` and ``spla``; a binding already
    made, or replaced from outside, is kept."""
    import scipy.sparse
    import scipy.sparse.linalg
    g = globals()
    g.setdefault("sp", scipy.sparse)
    g.setdefault("spla", scipy.sparse.linalg)


def __getattr__(name):
    if name in ("sp", "spla"):
        _load_sparse()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FemError(RuntimeError):
    pass


def _factor(a_ff):
    """Sparse LU of the symmetric positive definite ``a_ff``, ordered on
    its symmetric pattern.  No pivoting: an SPD matrix needs none, and
    SuperLU's default threshold pivoting abandons the order when lam >> mu.
    At lam = 1000, eps = 1e-4 (default grading) it made 231M nonzeros in
    256 s, against 6.7M in 0.37 s without (2-core x86-64 host)."""
    return spla.splu(a_ff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _ref_grads(xi_eta: np.ndarray) -> np.ndarray:
    """Reference gradients of the 6 P2 basis functions, shape (q, 6, 2)."""
    pts = np.atleast_2d(xi_eta)
    q = pts.shape[0]
    xi, eta = pts[:, 0], pts[:, 1]
    l1 = 1.0 - xi - eta
    g = np.zeros((q, 6, 2))
    g[:, 0, 0] = -(4.0 * l1 - 1.0)
    g[:, 0, 1] = -(4.0 * l1 - 1.0)
    g[:, 1, 0] = 4.0 * xi - 1.0
    g[:, 2, 1] = 4.0 * eta - 1.0
    g[:, 3, 0] = 4.0 * (l1 - xi)
    g[:, 3, 1] = -4.0 * xi
    g[:, 4, 0] = 4.0 * eta
    g[:, 4, 1] = 4.0 * xi
    g[:, 5, 0] = -4.0 * eta
    g[:, 5, 1] = 4.0 * (l1 - eta)
    return g


class P2Space:
    """Scalar P2 dof layout on a mesh plus its geometry factors.  The
    stiffness is assembled on request and not kept: ``DirichletSolver``
    holds the blocks of it that a point uses."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        cells = mesh.cells
        n = mesh.n_nodes
        pairs = np.sort(np.concatenate([
            cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]
        ]), axis=1)
        # edge (a, b), a < b, has key a*n + b: sorting the keys sorts the
        # edges lexicographically, as a row-wise unique of the pairs would
        key, inv = np.unique(pairs[:, 0] * n + pairs[:, 1], return_inverse=True)
        head, tail = np.divmod(key, n)
        m = cells.shape[0]
        self.cell_edges = np.stack(
            [inv[:m], inv[m:2 * m], inv[2 * m:]], axis=1)
        self.n_vertex = n
        self.n_edge = key.shape[0]
        self.n_scalar = self.n_vertex + self.n_edge
        self.dof_coords = np.vstack([
            mesh.nodes, 0.5 * (mesh.nodes[head] + mesh.nodes[tail])
        ])
        # (m, 6): vertex dofs then midside dofs in local order 01, 12, 20
        self.cell_dofs = np.concatenate(
            [cells, self.n_vertex + self.cell_edges], axis=1)

        p = mesh.nodes[cells]
        j11 = p[:, 1, 0] - p[:, 0, 0]
        j21 = p[:, 1, 1] - p[:, 0, 1]
        j12 = p[:, 2, 0] - p[:, 0, 0]
        j22 = p[:, 2, 1] - p[:, 0, 1]
        det = j11 * j22 - j12 * j21
        self.inv_jt = np.empty((m, 2, 2))
        self.inv_jt[:, 0, 0] = j22 / det
        self.inv_jt[:, 0, 1] = -j21 / det
        self.inv_jt[:, 1, 0] = -j12 / det
        self.inv_jt[:, 1, 1] = j11 / det
        self.p0 = p[:, 0, :]
        jac = np.stack(
            [np.stack([j11, j12], axis=1), np.stack([j21, j22], axis=1)], axis=1)

        ghat = _ref_grads(_QP)                       # (q, 6, 2)
        # physical gradients at quadrature points: (m, q, 6, 2)
        self.grad_q = np.einsum("mij,qaj->mqai", self.inv_jt, ghat)
        self.wdet = _QW[None, :] * det[:, None]      # (m, q)
        self.quad_xy = (
            self.p0[:, None, :]
            + np.einsum("mij,qj->mqi", jac, _QP)
        )

        # boundary scalar dofs per tag (vertices plus midside dofs)
        self._tag_dofs: dict[int, np.ndarray] = {}
        for tag in (BoundaryTag.INCLUSION_TOP, BoundaryTag.INCLUSION_BOTTOM,
                    BoundaryTag.OUTER):
            sel = mesh.edges[mesh.edge_tags == int(tag)]
            if sel.size == 0:
                self._tag_dofs[int(tag)] = np.array([], dtype=np.int64)
                continue
            be = np.sort(sel, axis=1)
            bkey = be[:, 0] * n + be[:, 1]
            pos = np.searchsorted(key, bkey)
            if np.any(key[np.minimum(pos, key.size - 1)] != bkey):
                raise FemError("boundary edge missing from mesh edge set")
            dofs = np.concatenate([sel.ravel(), self.n_vertex + pos])
            self._tag_dofs[int(tag)] = np.unique(dofs)
        self.dirichlet_scalar = np.unique(np.concatenate(
            [v for v in self._tag_dofs.values()]))

    def tag_scalar_dofs(self, tag) -> np.ndarray:
        try:
            return self._tag_dofs[int(tag)]
        except KeyError:
            raise FemError(f"unknown boundary tag {tag!r}") from None

    def stiffness(self, params: ElasticParams) -> sp.csr_matrix:
        """Assemble the vector stiffness K (CSR, interleaved dofs), afresh on
        every call."""
        _load_sparse()
        g = self.grad_q                        # (m, q, 6, 2)
        w = self.wdet                          # (m, q)
        lam, mu = params.lam, params.mu
        a1 = np.einsum("mq,mqac,mqbd->macbd", w, g, g)
        dot = np.einsum("mq,mqak,mqbk->mab", w, g, g)
        # sum_q w g[a, d] g[b, c] at [m, a, c, b, d]: a1 with c and d swapped
        a3 = a1.transpose(0, 1, 4, 3, 2)
        # in place, and the factors freed before the sparse conversion, so
        # fewer (m, 144) arrays are alive at the assembly's memory peak
        k = lam * a1
        k += mu * a3
        k[:, :, 0, :, 0] += mu * dot
        k[:, :, 1, :, 1] += mu * dot
        del a1, a3, dot
        m = g.shape[0]
        k = k.reshape(m, 12, 12)

        # int32, as scipy stores the CSR indices: int64 COO indices would
        # double their memory only to be narrowed during the conversion
        vdofs = np.empty((m, 12), dtype=np.int32)
        vdofs[:, 0::2] = 2 * self.cell_dofs
        vdofs[:, 1::2] = 2 * self.cell_dofs + 1
        rows = np.repeat(vdofs, 12, axis=1).ravel()
        cols = np.tile(vdofs, (1, 12)).ravel()
        n = 2 * self.n_scalar
        a = sp.coo_matrix((k.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        a.sum_duplicates()
        return a


@dataclass
class SolveReport:
    iterations: int
    rel_residual: float
    method: str


@dataclass(frozen=True)
class SolverConfig:
    """Relative residual target of each column of the block PCG solve
    (incomplete-LU preconditioner), which runs only for systems with more
    than ``_DIRECT_MAX_FREE_DOFS`` free dofs; a direct sparse factorization
    takes over for the columns still unconverged when the iteration budget is
    exhausted (conditioning in the neck degrades like 1/eps).  Smaller
    systems are solved directly and ``tol`` only scales the residual raise,
    ``max(10 tol, 1e-8)``."""

    tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise FemError(f"tol must be finite and > 0, got {self.tol!r}")


@dataclass(frozen=True)
class DisplacementField:
    """Vector P2 field: per-scalar-dof displacement."""

    space: P2Space
    values: np.ndarray          # (n_scalar, 2)
    name: str = "field"

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise FemError(f"field {self.name!r} contains non-finite values")

    def vec(self) -> np.ndarray:
        return self.values.reshape(-1)


def _evaluate_bc(bc_spec, points: np.ndarray) -> np.ndarray:
    if callable(bc_spec):
        out = np.asarray(bc_spec(points), dtype=float)
        if out.shape != points.shape:
            raise FemError(
                f"boundary data returned shape {out.shape}, expected {points.shape}")
        return out
    arr = np.asarray(bc_spec, dtype=float)
    if arr.ndim == 0 and arr == 0.0:
        return np.zeros_like(points)
    if arr.shape == (2,):
        return np.broadcast_to(arr, points.shape).copy()
    raise FemError(f"cannot interpret boundary data {bc_spec!r}")


class DirichletSolver:
    """Solver for many Dirichlet problems on one mesh, sharing one
    factorization, and the one owner of the mesh's stiffness K.

    K is assembled once, here, and only three blocks of it are kept: the
    eliminated operator ``a_ff`` (CSC), the free-boundary coupling (negated,
    ``neg_a_fb``: the load of a boundary datum) and the boundary rows
    ``a_b`` (all columns; their boundary-boundary part is small).  The full K
    is gone before the factorization starts.  ``stiffness_product`` forms
    K v from the blocks for the Gram matrix and the traction moments.

    All problems of one ``solve`` share one factorization, which is released
    when the solve returns.  Up to ``_DIRECT_MAX_FREE_DOFS`` free dofs it is
    the sparse LU of ``_factor``, applied to all loads in one triangular
    solve.  Above the cap it is an incomplete LU preconditioning one block
    PCG run.  Each block PCG iteration makes
    one ``ilu.solve`` on the active residuals and one sparse product with the
    search directions; both equal their one-column forms entry for entry, and
    the per-column recurrences are those of ``scipy.sparse.linalg.cg``, so
    each column equals a separate ``cg`` call bit for bit.
    """

    def __init__(self, mesh: Mesh, params: ElasticParams,
                 config: SolverConfig | None = None):
        self.space = P2Space(mesh)
        self.params = params
        self.config = config or SolverConfig()
        a = self.space.stiffness(params)
        nsc = self.space.n_scalar
        bscalar = self.space.dirichlet_scalar
        bmask = np.zeros(2 * nsc, dtype=bool)
        bmask[2 * bscalar] = True
        bmask[2 * bscalar + 1] = True
        self.bdofs = np.nonzero(bmask)[0]
        self.fdofs = np.nonzero(~bmask)[0]
        # each block slices its rows of K afresh: holding one row slice
        # across both kept the heap from returning K's memory before the
        # factorization (point_fine RSS there 193 MB instead of 104 MB)
        self.a_ff = a[self.fdofs][:, self.fdofs].tocsc()
        self.neg_a_fb = -a[self.fdofs][:, self.bdofs].tocsr()
        # rows of K, so the traction residual at the boundary is the full
        # product's bit for bit
        self.a_b = a[self.bdofs]

    def stiffness_product(self, v: np.ndarray) -> np.ndarray:
        """K v for a vector or column block over all ``2 n_scalar`` dofs.

        The boundary rows equal the full product's; the free rows are
        ``a_ff v_f + a_fb v_b``, the same sum in another order."""
        out = np.empty(v.shape)
        out[self.fdofs] = self.a_ff @ v[self.fdofs] - self.neg_a_fb @ v[self.bdofs]
        out[self.bdofs] = self.a_b @ v
        return out

    def _boundary_values(self, bc: dict) -> np.ndarray:
        """The datum at the Dirichlet dofs, in ``bdofs`` order."""
        space = self.space
        required = {int(BoundaryTag.INCLUSION_TOP), int(BoundaryTag.INCLUSION_BOTTOM),
                    int(BoundaryTag.OUTER)}
        given = {int(k) for k in bc}
        if given != required:
            raise FemError(f"bc must cover exactly the tags {sorted(required)}, got {sorted(given)}")
        g = np.zeros((space.n_scalar, 2))
        for tag, spec in bc.items():
            dofs = space.tag_scalar_dofs(tag)
            g[dofs] = _evaluate_bc(spec, space.dof_coords[dofs])
        return g.reshape(-1)[self.bdofs]

    def _pcg(self, b: np.ndarray, b_norms: list, x: np.ndarray,
             cols: list) -> tuple[int, list]:
        """Block PCG on the rows ``cols`` of ``b`` (one right-hand side per
        row), updating ``x`` in place.  Returns the number of block
        iterations and the rows still unconverged when the budget ran out.
        The preconditioner lives only as long as this call."""
        ilu = spla.spilu(self.a_ff, drop_tol=_ILU_DROP_TOL,
                         fill_factor=_ILU_FILL_FACTOR)
        tol = self.config.tol
        r = b.copy()
        p = np.empty_like(b)
        rho_prev = np.zeros(b.shape[0])
        active = cols
        iterations = 0
        for _ in range(_PCG_MAXITER):
            active = [j for j in active if not np.linalg.norm(r[j]) < tol * b_norms[j]]
            if not active:
                return iterations, []
            # rows stay C-contiguous: np.dot over a strided row rounds differently
            z = ilu.solve(r[active].T).T
            for zj, j in zip(z, active):
                rho = np.dot(r[j], zj)
                if iterations > 0:
                    p[j] *= rho / rho_prev[j]
                    p[j] += zj
                else:
                    p[j] = zj
                rho_prev[j] = rho
            q = np.ascontiguousarray((self.a_ff @ p[active].T).T)
            for qj, j in zip(q, active):
                alpha = rho_prev[j] / np.dot(p[j], qj)
                x[j] += alpha * p[j]
                r[j] -= alpha * qj
            iterations += 1
        return iterations, active

    def solve(self, bcs: dict) -> tuple[list[DisplacementField], SolveReport]:
        """Solve one Dirichlet problem per entry of ``bcs`` (field name ->
        dict from each boundary tag to its datum) with one factorization.

        Returns the fields, in the order of ``bcs``, and one report for the
        block: the most iterations any column took, the worst relative
        residual, and method ``"direct"`` (at most
        ``_DIRECT_MAX_FREE_DOFS`` free dofs: one sparse LU, 0 iterations),
        ``"pcg"``, ``"pcg->direct"`` (columns unconverged after the PCG
        budget are solved by the same sparse LU) or ``"trivial"`` (every
        load is zero).  A column with zero load is never solved; its free
        dofs are zero.  A residual above ``max(10 tol, 1e-8)`` raises
        ``FemError``."""
        space = self.space
        gbs = [self._boundary_values(bc) for bc in bcs.values()]
        rhs = np.stack([self.neg_a_fb @ gb for gb in gbs])
        rhs_norms = [float(np.linalg.norm(b)) for b in rhs]
        live = [j for j, nb in enumerate(rhs_norms) if nb > 0.0]

        x = np.zeros_like(rhs)
        iterations, used = 0, "trivial"
        if live and self.fdofs.size <= _DIRECT_MAX_FREE_DOFS:
            x[live] = _factor(self.a_ff).solve(rhs[live].T).T
            used = "direct"
        elif live:
            iterations, stalled = self._pcg(rhs, rhs_norms, x, live)
            used = "pcg"
            if stalled:
                x[stalled] = _factor(self.a_ff).solve(rhs[stalled].T).T
                used = "pcg->direct"

        worst = 0.0
        fields = []
        for j, (gb, name) in enumerate(zip(gbs, bcs)):
            if rhs_norms[j] > 0.0:
                res = float(np.linalg.norm(self.a_ff @ x[j] - rhs[j])) / rhs_norms[j]
                if res > max(self.config.tol * 10.0, 1e-8):
                    raise FemError(
                        f"linear solve for {name!r} did not reach tolerance: residual {res:.3e}")
                worst = max(worst, res)
            full = np.zeros(2 * space.n_scalar)
            full[self.bdofs] = gb
            full[self.fdofs] = x[j]
            fields.append(DisplacementField(space, full.reshape(-1, 2), name))
        return fields, SolveReport(iterations, worst, used)


def interpolate(space: P2Space, fn, name: str = "interp") -> DisplacementField:
    vals = _evaluate_bc(fn, space.dof_coords)
    return DisplacementField(space, vals, name)


def _grads_at(space: P2Space, values: np.ndarray, cells: np.ndarray | None = None,
              bary: np.ndarray | None = None) -> np.ndarray:
    """Gradients d u_i / d x_j of P2 fields, ``values`` (n_scalar, 2) or a
    stack of them (k, n_scalar, 2).  Returns (..., len(cells), len(bary), 2,
    2) on ``cells`` at the reference points ``bary``, or (..., n_cells, q, 2,
    2) on every cell at the quadrature points when ``cells`` is None."""
    if cells is None:
        gphys = space.grad_q
        local = values[..., space.cell_dofs, :]
    else:
        gphys = np.einsum("mij,qaj->mqai", space.inv_jt[cells], _ref_grads(bary))
        local = values[..., space.cell_dofs[cells], :]
    return np.einsum("...mai,mqaj->...mqij", local, gphys)


def _stacked(fields) -> tuple[P2Space, np.ndarray]:
    """The one space of ``fields`` and their values, (k, n_scalar, 2)."""
    space = fields[0].space
    if any(f.space is not space for f in fields):
        raise FemError("fields live on different meshes")
    return space, np.stack([f.values for f in fields])


def gradient_at(field: DisplacementField, point) -> np.ndarray:
    """Displacement gradient [du_i/dx_j] at a point inside the shell.

    Of the cells containing the point (barycentric tolerance 1e-10), the one
    with the nearest centroid is used, the lowest index on ties."""
    space = field.space
    pt = np.asarray(point, dtype=float)
    xi_eta = np.einsum("mij,mi->mj", space.inv_jt, pt - space.p0)
    tol = -1e-10
    inside = np.nonzero((xi_eta[:, 0] >= tol) & (xi_eta[:, 1] >= tol)
                        & (xi_eta.sum(axis=1) <= 1.0 - tol))[0]
    if inside.size == 0:
        raise FemError(f"point {pt.tolist()} is outside the meshed domain")
    centroids = space.mesh.nodes[space.mesh.cells[inside]].mean(axis=1)
    cell = inside[np.argmin(np.sum((centroids - pt) ** 2, axis=1))]
    g = _grads_at(space, field.values, np.array([cell]), xi_eta[cell][None, :])
    return g[0, 0]


def max_gradient(fields, region) -> list[tuple[float, np.ndarray]]:
    """Max Frobenius norm of each field's gradient over sample points of the
    cells whose centroids ``region(points)`` holds true: one ``(value,
    where)`` per field, in order.

    Samples are the cell vertices and edge midpoints (P2 gradients are linear
    per cell, so vertices carry the per-cell extrema); the reported location
    is the best sample, not a continuous optimizer.
    """
    space, values = _stacked(fields)
    cells = np.nonzero(region(space.mesh.cell_centroids()))[0]
    if cells.size == 0:
        raise FemError("empty measurement region")
    g = _grads_at(space, values, cells, _SAMPLE_BARY)
    fro = np.sqrt(np.sum(g * g, axis=(-2, -1)))     # (k, m, 6)
    out = []
    for f in fro:
        ci, qi = divmod(int(np.argmax(f)), _SAMPLE_BARY.shape[0])
        v = space.mesh.nodes[space.mesh.cells[cells[ci]]]
        b = _SAMPLE_BARY[qi]
        where = v[0] * (1.0 - b[0] - b[1]) + v[1] * b[0] + v[2] * b[1]
        out.append((float(f[ci, qi]), where))
    return out


def energy_integral(params: ElasticParams, fields) -> np.ndarray:
    """The k x k matrix of int (C e(f_a), e(f_b)) over the whole shell, from
    one stacked gradient evaluation of the k fields.

    The density is lam tr e_a tr e_b + 2 mu e_a : e_b at each quadrature
    point; the weights scale one side of each product and the moduli
    multiply the sums, since lam may be negative."""
    space, values = _stacked(fields)
    g = _grads_at(space, values)                    # (k, m, q, 2, 2)
    e = 0.5 * (g + g.swapaxes(-1, -2))
    tr = e[..., 0, 0] + e[..., 1, 1]
    k, w = len(fields), space.wdet
    div = (tr * w).reshape(k, -1) @ tr.reshape(k, -1).T
    inner = (e * w[..., None, None]).reshape(k, -1) @ e.reshape(k, -1).T
    return params.lam * div + 2.0 * params.mu * inner


def gradient_sq_integral(field: DisplacementField, region) -> float:
    """int |grad u|^2 (Frobenius) over the quadrature points where
    ``region(points)`` is true; used for patch energies."""
    space = field.space
    g = _grads_at(space, field.values)
    dens = np.sum(g * g, axis=(2, 3))
    mask = region(space.quad_xy.reshape(-1, 2)).reshape(space.wdet.shape)
    return float(np.sum(space.wdet * mask * dens))


def boundary_traction_moment(solver: DirichletSolver, field: DisplacementField,
                             tag, motions) -> list[float]:
    """Traction moments int_tag (C e(u)) n . psi, one per motion psi of the
    sequence ``motions``, in the variationally consistent (residual-pairing)
    form.  The residual K u is formed once for all of them.

    The normal n points out of the region the tagged curve encloses: out of
    the inclusion for inclusion boundaries, out of the domain for the outer
    one.  Raw differentiation of the FEM solution on the boundary would lose
    an order of accuracy; pairing the interior residual with an extension of
    psi is exact for the discrete traction functional.  The residual K u is
    the solver's ``stiffness_product``, so the field must live on the
    solver's mesh and the moment uses the solver's elastic parameters.
    """
    space = field.space
    if space is not solver.space:
        raise FemError("field and solver live on different meshes")
    dofs = space.tag_scalar_dofs(tag)       # raises on unknown tag
    r = solver.stiffness_product(field.vec())
    rx, ry = r[2 * dofs], r[2 * dofs + 1]
    sign = 1.0 if int(tag) == int(BoundaryTag.OUTER) else -1.0
    out = []
    for motion in motions:
        psi = _evaluate_bc(motion, space.dof_coords[dofs])
        out.append(sign * float(np.sum(psi[:, 0] * rx) + np.sum(psi[:, 1] * ry)))
    return out


def export_field(field: DisplacementField, path: str):
    """Columnar plain-text export: dof id, coordinates, displacement."""
    space = field.space
    with open(path, "w", encoding="utf-8") as f:
        f.write("# neckstress-field-v1\n")
        f.write(f"# dofs {space.n_scalar} (vertices {space.n_vertex}, edge midpoints {space.n_edge})\n")
        f.write("# id x y ux uy\n")
        # ids ride along as floats: %d prints an integral float exactly
        table = np.column_stack([np.arange(space.n_scalar, dtype=np.float64),
                                 space.dof_coords, field.values])
        f.write(format_rows("%d " + " ".join([FLOAT_FMT] * 4) + "\n", table))
