"""Ground-truth machinery: tensor-product quadrature for the partition
function and marginals, the high-concentration closed form, brute-force
density grids, and the kappa=0 cube analysis.

The torus integrands are smooth and periodic, so the equal-weight
trapezoid rule converges spectrally.  The grid is never built whole: one
coordinate is held at each of its angles in turn (the first coordinate
for the partition function, the requested one for a marginal), and each
(n,)*(p-1) slab over the other coordinates is reduced in a reused buffer
with its own max shift; the per-slab log sums are then combined in slab
order.  The reduction order is fixed, so results are deterministic, and
the workspace is O(n**(p-1)) (under 1 MB per buffer at p = 4, n = 48).
Quadrature time is still n**p, so these helpers are restricted to p <= 4:
``_node_count``, their one gate, resolves the node default, applies the
16-node floor at every p and gives no node count above that limit.

A density grid is not built whole either: one generator,
``_grid_blocks``, evaluates it in blocks of whole grid rows, about
``_GRID_BLOCK`` points each, each block with the node angles of its own
rows.  The CSV writer formats each block as it arrives, so its memory is
O(n * p) for an n x n grid and O(``_GRID_BLOCK`` * p) for a 1-d sweep,
and :func:`density_grid` fills its result, its only O(n**2) memory, from
the same blocks.  Both check their input before anything is evaluated or
written.  The block size bounds memory only: the exponent gives a point
the same bits in any batch, so no block size changes a value.

The slabs and the grid blocks are built by broadcasting per-axis terms,
not as rows of :func:`mvmtorus.model.lattice_rows`, whose whole lattice
would set their memory; for the slabs, broadcasting also sets the float
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import spectral
from .model import MvmParams, TWO_PI, _half_quadratic, as_torus_point, exponent_many, lattice_rows
from .model import DimensionMismatchError

__all__ = [
    "MAX_QUADRATURE_DIM",
    "CubeAnalysis",
    "CubeFace",
    "default_n_per_dim",
    "log_partition",
    "high_concentration_log_partition",
    "marginal_density",
    "kappa_zero_analysis",
    "density_grid",
    "write_density_grid_csv",
    "write_cube_surface_csv",
]

#: quadrature above this dimension is refused (cost n**p)
MAX_QUADRATURE_DIM = 4
#: face order of the unwrapped-cross cube layout: top, then the middle ring,
#: then bottom
CUBE_FACE_ORDER = ("+3", "-2", "+1", "+2", "-1", "-3")


def default_n_per_dim(p: int) -> int:
    return 128 if p <= 3 else 48


def _node_count(p: int, n_per_dim: int | None) -> int | None:
    """``n_per_dim`` (None: :func:`default_n_per_dim`) checked against the
    floor n >= 16 at every p, then the node count of a p-dimensional
    quadrature, or None above ``MAX_QUADRATURE_DIM``, where none runs."""
    n = default_n_per_dim(p) if n_per_dim is None else int(n_per_dim)
    if n < 16:
        raise ValueError(f"n_per_dim must be >= 16, got {n}")
    return n if p <= MAX_QUADRATURE_DIM else None


def _log_slab_sums(
    params: MvmParams, dim: int, n: int, angles: np.ndarray | None = None
) -> np.ndarray:
    """For each angle a in ``angles`` (default: the n nodes 2*pi*k/n), the
    log of the sum of exp(exponent) over the n-node grid in the other p-1
    coordinates with coordinate ``dim`` held at a (quadrature weights
    2*pi/n not applied).

    The exponent splits as kappa_dim cos(a - mu_dim) + base + s_dim * coupling,
    where base (the kappa cos and pairwise sin*sin terms of the other
    coordinates) and coupling (sum_j Lambda_dim,j s_j) are built once on the
    n**(p-1) grid.  Each slab is then reduced in one reused buffer with its
    own max shift, so the workspace is O(n**(p-1))."""
    nodes = TWO_PI * np.arange(n) / n
    angles = nodes if angles is None else angles
    free = [i for i in range(params.p) if i != dim]
    shape = (n,) * len(free)
    base = np.zeros(shape)
    coupling = np.zeros(shape)
    sines = []
    for axis, i in enumerate(free):
        axis_shape = [1] * len(free)
        axis_shape[axis] = n
        d = nodes - params.mu.angles[i]
        base += (params.kappa[i] * np.cos(d)).reshape(axis_shape)
        sines.append(np.sin(d).reshape(axis_shape))
        coupling += params.lam[dim, i] * sines[axis]
    for a in range(len(free)):
        for b in range(a + 1, len(free)):
            base += params.lam[free[a], free[b]] * (sines[a] * sines[b])

    d = angles - params.mu.angles[dim]
    fixed = params.kappa[dim] * np.cos(d)
    s_fixed = np.sin(d)
    buf = np.empty(shape)
    out = np.empty(angles.shape)
    for k in range(angles.size):
        np.multiply(coupling, s_fixed[k], out=buf)
        buf += base
        shift = buf.max()
        buf -= shift
        np.exp(buf, out=buf)
        out[k] = fixed[k] + shift + np.log(buf.sum())
    return out


def log_partition(params: MvmParams, n_per_dim: int | None = None) -> float:
    """Log of the trapezoid-rule integral of exp(exponent) over the torus,
    reduced slab by slab along the first coordinate; ``ValueError`` where
    :func:`_node_count` refuses ``n_per_dim`` or gives no count for p."""
    n = _node_count(params.p, n_per_dim)
    if n is None:
        raise ValueError(f"quadrature supports p <= {MAX_QUADRATURE_DIM}, got p={params.p}")
    slabs = _log_slab_sums(params, 0, n)
    shift = slabs.max()
    log_sum = shift + np.log(np.sum(np.exp(slabs - shift)))
    return float(log_sum + params.p * np.log(TWO_PI / n))


def high_concentration_log_partition(params: MvmParams) -> float:
    """Laplace-type closed form (p/2) log(2*pi) - 0.5 log|P| + sum(kappa),
    valid when P = diag(kappa) - Lambda certifies and eig(S) > 0 (else ``ValueError``)."""
    cert = spectral.certify_unimodal(params)
    scaled = spectral._jacobi_scaled(cert.p_matrix) if cert.prop1_holds else None
    # row dominance can certify P while min eig(S) rounds to 0 or below
    eig = spectral._eigh(scaled, vectors=False) if scaled is not None else [0.0]
    if not eig[0] > 0.0:
        raise ValueError("high-concentration approximation requires positive definite P")
    # log|P| = sum(log eig(S)) + sum(log diag(P)): no determinant to
    # overflow or underflow
    log_det = np.sum(np.log(eig)) + np.sum(np.log(np.diag(cert.p_matrix)))
    return float(0.5 * params.p * np.log(TWO_PI) - 0.5 * log_det + np.sum(params.kappa))


def marginal_density(
    params: MvmParams, dim: int, theta_i, n_per_dim: int | None = None
):
    """Marginal density of coordinate ``dim`` at angle(s) ``theta_i``,
    by quadrature over the other p-1 coordinates; ``dim`` is checked, then
    :func:`log_partition` at the same resolution gates and normalizes it."""
    p = params.p
    if not 0 <= dim < p:
        raise ValueError(f"dim must be in [0, {p}), got {dim}")
    log_z = log_partition(params, n_per_dim)
    n = _node_count(p, n_per_dim)
    theta_arr = np.atleast_1d(np.asarray(theta_i, dtype=float))
    log_marg = _log_slab_sums(params, dim, n, theta_arr.ravel())
    log_marg += (p - 1) * np.log(TWO_PI / n)
    out = np.exp(log_marg - log_z).reshape(theta_arr.shape)
    return float(out[0]) if np.isscalar(theta_i) or np.ndim(theta_i) == 0 else out


# ---------------------------------------------------------------------------
# kappa = 0 cube analysis


@dataclass(frozen=True)
class CubeFace:
    """One face of the cube [-1, 1]^p (p=3 only), sampled on a grid_n x
    grid_n lattice.  ``s`` holds the 3-vectors, ``values`` the quadratic
    form 0.5 * s^T Lambda s."""

    label: str
    s: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class CubeAnalysis:
    """Vertex table and witnesses for the kappa=0 regime, where every
    global maximum of the density lives on the surface of the sine cube."""

    vertex_values: dict[tuple[int, ...], float]
    best_vertices: list[tuple[int, ...]]
    top_eigenpair: tuple[float, np.ndarray]
    surface_grid: list[CubeFace] | None


def kappa_zero_analysis(lam, grid_n: int = 0) -> CubeAnalysis:
    """Evaluate g(s) = 0.5 s^T Lambda s on all sign vertices of [-1,1]^p,
    report the argmax set (ties within 1e-12 relative), and the largest
    eigenpair of Lambda (whose eigenvector witnesses max f > 0 whenever
    Lambda != 0).  With ``grid_n`` > 0 (it must be >= 0) and p = 3, also
    sample g on the six cube faces in the unwrapped-cross order
    ``CUBE_FACE_ORDER``."""
    if grid_n < 0:
        raise ValueError(f"grid_n must be >= 0, got {grid_n}")
    lam = np.asarray(lam, dtype=float)
    p = lam.shape[0]
    # reuse the parameter validation (symmetry, zero diagonal)
    MvmParams(mu=np.zeros(p), kappa=np.zeros(p), lam=lam)

    vertices = lattice_rows(np.array([-1.0, 1.0]), p)
    values = _half_quadratic(lam, vertices)
    vertex_values = {
        tuple(int(x) for x in v): float(g) for v, g in zip(vertices, values)
    }
    top = float(np.max(values))
    tie = 1e-12 * max(1.0, abs(top))
    best = [v for v, g in vertex_values.items() if g >= top - tie]

    eig = spectral.sym_eigen(lam)
    top_eigenpair = (float(eig.values[-1]), eig.vectors[:, -1])

    surface = None
    if grid_n > 0:
        if p != 3:
            raise ValueError("surface grids are only defined for p=3 cubes")
        surface = []
        face = lattice_rows(np.linspace(-1.0, 1.0, grid_n), 2)
        for label in CUBE_FACE_ORDER:
            axis = int(label[1]) - 1
            s = np.empty((grid_n * grid_n, 3))
            s[:, axis] = 1.0 if label[0] == "+" else -1.0
            s[:, [i for i in range(3) if i != axis]] = face
            s = s.reshape(grid_n, grid_n, 3)
            surface.append(
                CubeFace(label=label, s=s, values=_half_quadratic(lam, s))
            )
    return CubeAnalysis(
        vertex_values=vertex_values,
        best_vertices=best,
        top_eigenpair=top_eigenpair,
        surface_grid=surface,
    )


# ---------------------------------------------------------------------------
# grids and CSV emission


#: points in one block of a density grid: whole rows of an n x n grid (at
#: least one row), or a chunk of a 1-d sweep
_GRID_BLOCK = 4096


def _grid_axes(params: MvmParams, dims, n: int, slice_point) -> tuple[tuple, np.ndarray]:
    """The checked ``dims`` of a density grid (a repeated pair as one index)
    and the angles of its slice point (default: mu); ``ValueError`` for
    n < 1, a bad index or (``DimensionMismatchError``) a slice of another p."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dims = (dims,) if np.isscalar(dims) else tuple(dims)
    if len(dims) == 2 and dims[0] == dims[1]:
        dims = (dims[0],)
    if len(dims) not in (1, 2):
        raise ValueError("dims must name one or two coordinates")
    for d in dims:
        if not 0 <= d < params.p:
            raise ValueError(f"coordinate index {d} out of range for p={params.p}")
    slice_point = params.mu if slice_point is None else as_torus_point(slice_point)
    if slice_point.p != params.p:
        raise DimensionMismatchError("slice point dimension mismatch")
    return dims, slice_point.angles


def _grid_blocks(params: MvmParams, dims: tuple, n: int, point: np.ndarray):
    """Exponent values of the grid of :func:`density_grid` (checked
    ``dims``, slice angles ``point``) in C order, one block of about
    ``_GRID_BLOCK`` points at a time: (rows, n) arrays of whole grid rows
    for a pair of dims, (points,) chunks for one; the workspace is
    O(n * p), and O(``_GRID_BLOCK`` * p) for one dim."""
    k = len(dims)
    columns = TWO_PI * np.arange(n) / n if k == 2 else None
    step = max(1, _GRID_BLOCK // n ** (k - 1))
    for a in range(0, n, step):
        b = min(n, a + step)
        thetas = np.tile(point, (b - a,) + (n,) * (k - 1) + (1,))
        rows = TWO_PI * np.arange(a, b) / n
        thetas[..., dims[0]] = rows.reshape((-1,) + (1,) * (k - 1))
        if k == 2:
            thetas[..., dims[1]] = columns
        yield exponent_many(params, thetas)


def density_grid(params: MvmParams, dims, n: int, slice_point=None) -> np.ndarray:
    """Exponent values over an n-point grid in one or two coordinates,
    the remaining coordinates held at ``slice_point`` (default: mu).

    ``dims`` is a pair of coordinate indices for an n x n grid, or a single
    index (or a repeated pair) for a 1-d sweep; ``n`` must be >= 1.  The
    grid is evaluated in blocks of rows into the result, its only O(n**2)
    memory.
    """
    dims, point = _grid_axes(params, dims, n, slice_point)
    out = np.empty((n,) * len(dims))
    done = 0
    for block in _grid_blocks(params, dims, n, point):
        out[done : done + len(block)] = block
        done += len(block)
    return out


def write_density_grid_csv(
    fileobj, params: MvmParams, dims, n: int, slice_point=None
) -> None:
    """Tidy CSV of :func:`density_grid`: node indices, angles, exponent.

    The input is checked before the header is written, and each block of
    grid rows is formatted as it is evaluated, with the node angles of its
    rows, so memory is O(n * p) at any n, and O(``_GRID_BLOCK`` * p) for a
    1-d sweep.  Floats are written as their shortest round-trip ``repr``,
    which never needs CSV quoting; each node angle is formatted once."""
    dims, point = _grid_axes(params, dims, n, slice_point)
    blocks = _grid_blocks(params, dims, n, point)
    if len(dims) == 1:
        fileobj.write(f"i,theta{dims[0] + 1},value\n")
        i = 0
        for block in blocks:
            j = i + len(block)
            nodes = (TWO_PI * np.arange(i, j) / n).tolist()
            rows = zip(range(i, j), nodes, block.tolist())
            fileobj.write("%d,%r,%r\n" * len(block) % tuple(chain.from_iterable(rows)))
            i = j
        return
    fileobj.write(f"i,j,theta{dims[0] + 1},theta{dims[1] + 1},value\n")
    angles = [repr(x) for x in (TWO_PI * np.arange(n) / n).tolist()]
    # one row template, made once: \0 and \1 stand for i and its angle, and
    # each row is formatted by one C-level '%' ('%r' of a float is its repr)
    line = "".join(f"\0,{j},\1,{angles[j]},%r\n" for j in range(n))
    rows = (row for block in blocks for row in block.tolist())
    for i, row in enumerate(rows):
        fileobj.write(line.replace("\0", str(i)).replace("\1", angles[i]) % tuple(row))


def write_cube_surface_csv(fileobj, analysis: CubeAnalysis) -> None:
    """CSV with the vertex table followed by any per-face surface grids.

    Columns: record ('vertex' or 'face'), face label, grid row/col (empty
    for vertices), the s vector, and g(s).  Floats are written as their
    shortest round-trip ``repr``, each row by one C-level '%'.  Vertices are
    written in the order of ``vertex_values``, a hand-built one's too, which
    :func:`kappa_zero_analysis` builds sorted: C order over (-1, 1).
    """
    p = len(next(iter(analysis.vertex_values)))
    fileobj.write("record,face,row,col," + "".join(f"s{i + 1}," for i in range(p)) + "value\n")
    line = "vertex,,,," + "%d," * p + "%r\n"
    for vertex, value in analysis.vertex_values.items():
        fileobj.write(line % (*vertex, value))
    for face in analysis.surface_grid or []:
        # one row template per face, \0 standing for the row index
        line = "".join(f"face,{face.label},\0,{j},%r,%r,%r,%r\n" for j in range(len(face.s[0])))
        for i, (s_row, v_row) in enumerate(zip(face.s, face.values)):
            cells = np.column_stack((s_row, v_row)).ravel().tolist()
            fileobj.write(line.replace("\0", str(i)) % tuple(cells))
