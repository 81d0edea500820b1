"""Unimodality certification and exhaustive mode discovery.

Two complementary tools:

* :func:`certify_unimodal` checks sufficient conditions on the matrix
  P = diag(kappa) - Lambda (positive definiteness, and the stronger
  row-dominance condition kappa_i > sum_j |lam_ij|) and issues a
  certificate.  The conditions are sufficient only; an inconclusive
  certificate does not assert multimodality.

* :func:`critical_points` locates the critical points of the log-density
  exponent by damped multi-start Newton iteration on the torus and
  classifies each one through its Hessian spectrum, flagging extended
  (degenerate) maxima such as flat ridges.

The search runs one damped-Newton driver three times over the start set,
once per target (ascent toward maxima, descent toward minima, and a plain
root pass on the gradient that also lands on saddles), then polishes each
pass's result with pseudo-inverse Newton.  Everything runs batched over
the start set with plain numpy; for a fixed seed the result is
deterministic.  The converged pool is deduplicated (greedy, first kept,
in pool order) before classification, so only the surviving points are
classified.  They are classified in one batch: stacked Hessians from
:func:`mvmtorus.model.hessian_many`, their spectra from one stacked
``eigvalsh``, and f from :func:`mvmtorus.model.exponent_many`.
:func:`classify_critical` runs the same batch path on a single row, so
both give identical results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .model import (
    TWO_PI,
    MvmParams,
    TorusPoint,
    as_torus_point,
    exponent_many,
    grad_f,
    grad_many,
    hessian_many,
    lattice_rows,
    wrap_angles,
)
# not used here: the benchmark's tracer wraps these two names on this module
from .model import exponent_f, hessian_f  # noqa: F401

__all__ = [
    "Verdict",
    "PointKind",
    "UnimodalityCertificate",
    "CriticalPoint",
    "SearchConfig",
    "SearchMeta",
    "ModeReport",
    "certify_unimodal",
    "classify_critical",
    "critical_points",
    "deduplicate",
]

#: sup-norm gradient level below which the damped passes hand over to polishing
_POLISH_TRIGGER = 1e-6
#: rounds of pseudo-inverse Newton polishing after each damped pass
_POLISH_ROUNDS = 8
#: relative slack when testing monotone improvement of f (absorbs roundoff)
_F_SLACK = 1e-14
#: largest per-coordinate step the solver will take
_MAX_STEP = np.pi / 2
#: most lattice points the start set can index (the int64 range)
_MAX_LATTICE_SIZE = 2**63 - 1


class Verdict(enum.Enum):
    CERTIFIED_UNIMODAL = "CertifiedUnimodal"
    CERTIFIED_UNIMODAL_WITH_MINIMUM = "CertifiedUnimodalWithMinimum"
    INCONCLUSIVE = "Inconclusive"


class PointKind(enum.Enum):
    MAXIMUM = "Maximum"
    MINIMUM = "Minimum"
    SADDLE = "Saddle"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class UnimodalityCertificate:
    """Outcome of the sufficient unimodality tests.

    ``prop1_holds``: P is positive definite, so the density has its single
    maximum at mu.  ``cor1_holds``: every kappa_i strictly dominates its
    coupling row sum, which additionally pins the unique minimum at the
    antipode of mu.  Row dominance implies definiteness, so ``cor1_holds``
    implies ``prop1_holds`` on every certificate.
    """

    p_matrix: np.ndarray
    prop1_holds: bool
    cor1_holds: bool
    p_eigenvalues: np.ndarray
    gershgorin: spectral.GershgorinReport
    verdict: Verdict


def certify_unimodal(params: MvmParams) -> UnimodalityCertificate:
    """Build P = diag(kappa) - Lambda and run both sufficient tests."""
    p_matrix = params.p_matrix()
    report = spectral.gershgorin(p_matrix)
    # row dominance: centers are exactly kappa (Lambda has zero diagonal)
    cor1 = bool(np.all(report.centers > report.radii))
    # dominance implies definiteness exactly, even when the margin is below
    # the numerical Cholesky tolerance; otherwise definiteness is decided on
    # the Jacobi-scaled P, so neither the scale of P nor of its rows matters
    scaled = spectral._jacobi_scaled(p_matrix)
    prop1 = cor1 or (scaled is not None and spectral.is_positive_definite(scaled))
    eigenvalues = spectral.sym_eigen(p_matrix).values
    if cor1:
        verdict = Verdict.CERTIFIED_UNIMODAL_WITH_MINIMUM
    elif prop1:
        verdict = Verdict.CERTIFIED_UNIMODAL
    else:
        verdict = Verdict.INCONCLUSIVE
    return UnimodalityCertificate(
        p_matrix=p_matrix,
        prop1_holds=prop1,
        cor1_holds=cor1,
        p_eigenvalues=eigenvalues,
        gershgorin=report,
        verdict=verdict,
    )


@dataclass(frozen=True)
class CriticalPoint:
    """A located zero of the gradient with its spectral classification."""

    theta: TorusPoint
    f_value: float
    grad_norm: float
    hessian_eigenvalues: np.ndarray
    kind: PointKind


_KINDS = (PointKind.MAXIMUM, PointKind.MINIMUM, PointKind.DEGENERATE, PointKind.SADDLE)


def _classify_eigenvalues(eigenvalues: np.ndarray, tol: np.ndarray) -> list[PointKind]:
    """Kinds of a stack of ascending spectra, one threshold per row."""
    degenerate = np.any(np.abs(eigenvalues) <= tol[:, None], axis=1)
    maximum, minimum = eigenvalues[:, -1] < -tol, eigenvalues[:, 0] > tol
    return [_KINDS[k] for k in np.select([maximum, minimum, degenerate], [0, 1, 2], 3)]


def _classified(
    params: MvmParams, rows: np.ndarray, grad_norms: np.ndarray, degeneracy_tol: float
) -> list[CriticalPoint]:
    """Classify the critical points ``rows`` (wrapped angles, shape (n, p))
    in one batch: stacked Hessians, their spectra, and f."""
    hessians = hessian_many(params, rows)
    eigenvalues = np.linalg.eigvalsh(hessians)
    tol = degeneracy_tol * np.maximum(1.0, spectral.norm_inf(hessians))
    kinds = _classify_eigenvalues(eigenvalues, tol)
    f_values = exponent_many(params, rows).tolist()
    return [
        CriticalPoint(TorusPoint(row), f, float(g), eig, kind)
        for row, f, g, eig, kind in zip(rows, f_values, grad_norms, eigenvalues, kinds)
    ]


def classify_critical(
    params: MvmParams,
    theta,
    degeneracy_tol: float = 1e-6,
    grad_tol: float = 1e-8,
) -> CriticalPoint:
    """Classify a point already known to be critical.

    Raises ``ValueError`` when the gradient sup-norm at ``theta`` exceeds
    ``grad_tol``.  ``degeneracy_tol`` is relative; the effective threshold
    is ``degeneracy_tol * max(1, inf-norm of the Hessian)``.
    """
    theta = as_torus_point(theta)
    grad_norm = np.max(np.abs(grad_f(params, theta)))
    if grad_norm > grad_tol:
        raise ValueError(
            f"theta is not critical: |grad|_inf = {grad_norm:.3e} > {grad_tol:.0e}"
        )
    return _classified(params, theta.angles[None, :], [grad_norm], degeneracy_tol)[0]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for :func:`critical_points`.

    The start set is the lattice ``mu + {pi/m + k*2pi/m}^p`` (anchored at
    odd multiples of pi/m so starts never coincide with the kappa=0
    extremum grid), truncated to ``max_lattice_starts`` by a seeded
    subsample when ``m**p`` exceeds it, plus ``n_random_starts`` seeded
    uniform starts (defaults to 32 for p <= 4, else 256).  The subsample
    is drawn as lattice indices and only the chosen rows are built, so the
    start set takes O((max_lattice_starts + n_random_starts) * p) memory
    whatever ``m**p`` is; ``m**p`` may not exceed 2**63 - 1, and
    :func:`critical_points` raises ``ValueError`` above that.  Out-of-range
    values raise ``ValueError`` on construction.
    """

    starts_per_dim: int = 4
    max_lattice_starts: int = 256
    n_random_starts: int | None = None
    grad_tol: float = 1e-10
    max_iter: int = 80
    max_halvings: int = 30
    dedup_radius: float = 1e-4
    degeneracy_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name, low in (
            ("starts_per_dim", 1),
            ("max_lattice_starts", 1),
            ("max_iter", 0),
            ("max_halvings", 0),
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.n_random_starts is not None and self.n_random_starts < 0:
            raise ValueError(
                f"n_random_starts must be >= 0, got {self.n_random_starts}"
            )
        for name in ("grad_tol", "dedup_radius", "degeneracy_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class SearchMeta:
    starts_used: int
    converged: int
    seed: int


@dataclass(frozen=True)
class ModeReport:
    """All located critical points, deduplicated on the torus."""

    criticals: list[CriticalPoint]
    n_maxima: int
    extended_mode_suspected: bool
    search_meta: SearchMeta

    @property
    def maxima(self) -> list[CriticalPoint]:
        return [c for c in self.criticals if c.kind is PointKind.MAXIMUM]

    @property
    def minima(self) -> list[CriticalPoint]:
        return [c for c in self.criticals if c.kind is PointKind.MINIMUM]

    @property
    def degenerate(self) -> list[CriticalPoint]:
        return [c for c in self.criticals if c.kind is PointKind.DEGENERATE]


# ---------------------------------------------------------------------------
# solver internals


def _start_points(params: MvmParams, cfg: SearchConfig, rng) -> np.ndarray:
    """The lattice starts (all ``m**p`` rows in C order, or the seeded
    subsample of ``max_lattice_starts`` of them, kept in lattice order)
    followed by the random starts, shifted by mu and wrapped.  Lattice rows
    are built from their indices alone, so memory is
    O((max_lattice_starts + n_random) * p) however large ``m**p`` is."""
    p = params.p
    m = cfg.starts_per_dim
    size = m**p
    if size > _MAX_LATTICE_SIZE:
        raise ValueError(
            f"the start lattice has starts_per_dim**p = {m}**{p} points, more than "
            f"2**63 - 1; lower starts_per_dim (--starts-per-dim) for p = {p}"
        )
    index = None
    if size > cfg.max_lattice_starts:
        index = np.sort(rng.choice(size, size=cfg.max_lattice_starts, replace=False))
    offsets = np.pi / m + np.arange(m) * (2.0 * np.pi / m)
    lattice = lattice_rows(offsets, p, index)
    n_random = cfg.n_random_starts
    if n_random is None:
        n_random = 32 if p <= 4 else 256
    random_starts = rng.uniform(0.0, 2.0 * np.pi, size=(n_random, p))
    starts = np.vstack([lattice, random_starts]) if n_random else lattice
    return wrap_angles(starts + params.mu.angles)


def _eigh_directions(hessians: np.ndarray, gradients: np.ndarray):
    """Eigen-decompose a stack of Hessians and return (w, v, gproj, habs):
    gproj are the gradients rotated into the eigenbases and habs is
    max(1, inf-norm) of each Hessian."""
    w, v = np.linalg.eigh(hessians)
    gproj = np.einsum("nik,ni->nk", v, gradients)
    return w, v, gproj, np.maximum(1.0, spectral.norm_inf(hessians))


def _cap_steps(steps: np.ndarray) -> np.ndarray:
    mags = np.max(np.abs(steps), axis=1)
    scale = np.where(mags > _MAX_STEP, _MAX_STEP / np.maximum(mags, 1e-300), 1.0)
    return steps * scale[:, None]


def _damped_pass(
    params: MvmParams, starts: np.ndarray, sign: float, cfg: SearchConfig
) -> np.ndarray:
    """Damped Newton iteration from every start toward a maximum of f
    (sign=+1), a minimum (sign=-1) or any root of grad f (sign=0), which
    lands on saddles as readily as on extrema.

    Newton steps are taken where the Hessian suits the target: definite
    with the matching sign for an extremum, nonsingular for a root.
    Elsewhere the step is the capped gradient step sign*g, or for a root
    the steepest descent direction -H g of 0.5*|grad|^2.  Steps are halved
    until sign*f does not decrease (up to roundoff slack), or for a root
    until |grad|_inf falls by the factor (1 - 1e-4*step); a start that
    cannot improve after ``max_halvings`` halvings is frozen.
    """
    th = starts.copy()
    alive = np.ones(len(th), dtype=bool)
    for _ in range(cfg.max_iter):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        cur = th[idx]
        g = grad_many(params, cur)
        gnorm = np.max(np.abs(g), axis=1)
        done = gnorm <= _POLISH_TRIGGER
        alive[idx[done]] = False
        keep = ~done
        if not keep.any():
            continue
        idx, cur, g, gnorm = idx[keep], cur[keep], g[keep], gnorm[keep]

        h = hessian_many(params, cur)
        w, v, gproj, habs = _eigh_directions(h, g)
        if sign:
            suited = np.all(sign * w < -1e-8 * habs[:, None], axis=1)
            fallback = sign * g
            f0 = exponent_many(params, cur)
            slack = _F_SLACK * np.maximum(1.0, np.abs(f0))
        else:
            suited = np.min(np.abs(w), axis=1) >= 1e-10 * habs
            fallback = -np.einsum("nij,nj->ni", h, g)
        newton = -np.einsum("nik,nk->ni", v, gproj / np.where(w == 0.0, 1.0, w))
        use_newton = suited & (np.max(np.abs(newton), axis=1) <= _MAX_STEP)
        direction = np.where(use_newton[:, None], newton, _cap_steps(fallback))

        step = np.ones(len(cur))
        pending = np.ones(len(cur), dtype=bool)
        moved = np.zeros(len(cur), dtype=bool)
        new = cur.copy()
        for _ in range(cfg.max_halvings + 1):
            if not pending.any():
                break
            rows = np.flatnonzero(pending)
            cand = cur[rows] + step[rows, None] * direction[rows]
            if sign:
                ok = sign * (exponent_many(params, cand) - f0[rows]) >= -slack[rows]
            else:
                g1 = np.max(np.abs(grad_many(params, cand)), axis=1)
                ok = g1 <= (1.0 - 1e-4 * step[rows]) * gnorm[rows]
            new[rows[ok]] = cand[ok]
            moved[rows[ok]] = True
            pending[rows[ok]] = False
            step[rows[~ok]] *= 0.5
        th[idx] = wrap_angles(new)
        alive[idx[~moved]] = False  # stalled: no step length improved the merit
    return th


def _polish(params: MvmParams, points: np.ndarray) -> np.ndarray:
    """A few rounds of pseudo-inverse Newton on the gradient.

    Eigen-directions with |eigenvalue| below 1e-8 * max(1, |H|_inf) are
    dropped, so flat ridge directions are left untouched while the
    transverse error contracts quadratically down to roundoff.  The
    iterate with the smallest gradient norm wins.
    """
    cur = points.copy()
    g = grad_many(params, cur)
    best, best_norm = cur.copy(), np.max(np.abs(g), axis=1)
    for _ in range(_POLISH_ROUNDS):
        w, v, gproj, habs = _eigh_directions(hessian_many(params, cur), g)
        thresh = 1e-8 * habs
        winv = np.where(np.abs(w) > thresh[:, None], 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
        cur = wrap_angles(cur - _cap_steps(np.einsum("nik,nk->ni", v, winv * gproj)))
        g = grad_many(params, cur)
        norm = np.max(np.abs(g), axis=1)
        better = norm < best_norm
        best[better] = cur[better]
        best_norm[better] = norm[better]
    return best


def _first_kept(rows: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the rows kept by greedy first-kept dedup: a row is kept
    when its angular sup-metric distance to every row kept before it is at
    least ``radius``.  Rows must already be wrapped to [0, 2*pi)."""
    kept = np.empty_like(rows)
    index = []
    for i, row in enumerate(rows):
        d = np.abs(row - kept[: len(index)])
        if np.all(np.minimum(d, TWO_PI - d).max(axis=1) >= radius):
            kept[len(index)] = row
            index.append(i)
    return np.array(index, dtype=int)


def deduplicate(criticals: list[CriticalPoint], radius: float) -> list[CriticalPoint]:
    """Greedy first-kept dedup under the angular sup-metric.

    Kept points are pairwise at least ``radius`` apart, which makes the
    operation idempotent.
    """
    if not criticals:
        return []
    rows = np.stack([c.theta.angles for c in criticals])
    return [criticals[i] for i in _first_kept(rows, radius)]


def critical_points(
    params: MvmParams, cfg: SearchConfig | None = None
) -> ModeReport:
    """Locate and classify the critical points of the exponent.

    Non-convergent starts are simply dropped (counted in ``search_meta``);
    every reported point re-checks ``|grad|_inf < cfg.grad_tol`` on a fresh
    evaluation.  Results are deterministic for a fixed ``cfg.seed``.
    """
    if cfg is None:
        cfg = SearchConfig()
    rng = np.random.default_rng(cfg.seed)
    starts = _start_points(params, cfg, rng)

    pool = np.vstack(
        [_polish(params, _damped_pass(params, starts, sign, cfg)) for sign in (1.0, -1.0, 0.0)]
    )

    grads = grad_many(params, pool)
    norms = np.max(np.abs(grads), axis=1)
    converged_mask = norms < cfg.grad_tol
    converged = pool[converged_mask]
    kept = _first_kept(converged, cfg.dedup_radius)
    unique = _classified(
        params, converged[kept], norms[converged_mask][kept], cfg.degeneracy_tol
    )
    unique.sort(
        key=lambda c: (-c.f_value, c.kind.value, tuple(c.theta.angles.tolist()))
    )
    n_maxima = sum(1 for c in unique if c.kind is PointKind.MAXIMUM)
    extended = any(c.kind is PointKind.DEGENERATE for c in unique)
    meta = SearchMeta(
        starts_used=len(starts),
        converged=int(converged_mask.sum()),
        seed=cfg.seed,
    )
    return ModeReport(
        criticals=unique,
        n_maxima=n_maxima,
        extended_mode_suspected=extended,
        search_meta=meta,
    )
