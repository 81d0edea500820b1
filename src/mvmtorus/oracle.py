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
Quadrature time is still n**p, so these helpers are restricted to p <= 4,
a limit that ``_node_count`` alone applies with the node default and floor.
The slabs are built by broadcasting per-axis terms, not from
:func:`mvmtorus.model.lattice_rows`, which sets their memory and float order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .model import MvmParams, TWO_PI, as_torus_point, exponent_many, lattice_rows

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


def _node_count(p: int, n_per_dim: int | None) -> int:
    """``n_per_dim`` (None: :func:`default_n_per_dim`) checked for a
    p-dimensional quadrature: p <= ``MAX_QUADRATURE_DIM``, n >= 16."""
    if p > MAX_QUADRATURE_DIM:
        raise ValueError(f"quadrature supports p <= {MAX_QUADRATURE_DIM}, got p={p}")
    n = default_n_per_dim(p) if n_per_dim is None else int(n_per_dim)
    if n < 16:
        raise ValueError(f"n_per_dim must be >= 16, got {n}")
    return n


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
    reduced slab by slab along the first coordinate."""
    n = _node_count(params.p, n_per_dim)
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
    eig = spectral.sym_eigen(scaled).values if scaled is not None else [0.0]
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
    by quadrature over the other p-1 coordinates, normalized by
    :func:`log_partition` at the same resolution."""
    p = params.p
    n = _node_count(p, n_per_dim)
    if not 0 <= dim < p:
        raise ValueError(f"dim must be in [0, {p}), got {dim}")
    log_z = log_partition(params, n)
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


def _quadratic_form(lam: np.ndarray, s: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("...i,ij,...j->...", s, lam, s)


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
    values = _quadratic_form(lam, vertices)
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
                CubeFace(label=label, s=s, values=_quadratic_form(lam, s))
            )
    return CubeAnalysis(
        vertex_values=vertex_values,
        best_vertices=best,
        top_eigenpair=top_eigenpair,
        surface_grid=surface,
    )


# ---------------------------------------------------------------------------
# grids and CSV emission


def density_grid(params: MvmParams, dims, n: int, slice_point=None) -> np.ndarray:
    """Exponent values over an n-point grid in one or two coordinates,
    the remaining coordinates held at ``slice_point`` (default: mu).

    ``dims`` is a pair of coordinate indices for an n x n grid, or a single
    index (or a repeated pair) for a 1-d sweep; ``n`` must be >= 1.
    """
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
        raise ValueError("slice point dimension mismatch")

    k = len(dims)
    thetas = np.tile(slice_point.angles, (n**k, 1))
    thetas[:, dims] = lattice_rows(TWO_PI * np.arange(n) / n, k)
    return exponent_many(params, thetas.reshape((n,) * k + (params.p,)))


def write_density_grid_csv(
    fileobj, params: MvmParams, dims, n: int, slice_point=None
) -> None:
    """Tidy CSV of :func:`density_grid`: node indices, angles, exponent.

    Floats are written as their shortest round-trip ``repr``, which never
    needs CSV quoting; each node angle is formatted once."""
    dims = (dims,) if np.isscalar(dims) else tuple(dims)
    values = density_grid(params, dims, n, slice_point)
    angles = [repr(x) for x in (TWO_PI * np.arange(n) / n).tolist()]
    if values.ndim == 1:
        fileobj.write(f"i,theta{dims[0] + 1},value\n")
        fileobj.write("".join(f"{i},{angles[i]},{v!r}\n" for i, v in enumerate(values.tolist())))
        return
    fileobj.write(f"i,j,theta{dims[0] + 1},theta{dims[1] + 1},value\n")
    # one row template, made once: \0 and \1 stand for i and its angle, and
    # each row is formatted by one C-level '%' ('%r' of a float is its repr)
    line = "".join(f"\0,{j},\1,{angles[j]},%r\n" for j in range(n))
    for i, row in enumerate(values.tolist()):
        fileobj.write(line.replace("\0", str(i)).replace("\1", angles[i]) % tuple(row))


def write_cube_surface_csv(fileobj, analysis: CubeAnalysis) -> None:
    """CSV with the vertex table followed by any per-face surface grids.

    Columns: record ('vertex' or 'face'), face label, grid row/col (empty
    for vertices), the s vector, and g(s).  Floats are written as their
    shortest round-trip ``repr``.
    """
    p = len(next(iter(analysis.vertex_values)))
    header = ["record", "face", "row", "col"] + [f"s{i + 1}" for i in range(p)]
    fileobj.write(",".join(header + ["value"]) + "\n")
    for vertex in sorted(analysis.vertex_values):
        cells = ["vertex", "", "", ""] + [str(x) for x in vertex]
        fileobj.write(",".join(cells + [repr(analysis.vertex_values[vertex])]) + "\n")
    for face in analysis.surface_grid or []:
        for i, (s_row, v_row) in enumerate(zip(face.s.tolist(), face.values.tolist())):
            fileobj.write(
                "".join(
                    f"face,{face.label},{i},{j}," + ",".join(map(repr, s + [v])) + "\n"
                    for j, (s, v) in enumerate(zip(s_row, v_row))
                )
            )
