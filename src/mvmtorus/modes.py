"""Unimodality certification and exhaustive mode discovery.

Two complementary tools:

* :func:`certify_unimodal` checks sufficient conditions on the matrix
  P = diag(kappa) - Lambda (positive definiteness, and the stronger
  row-dominance condition kappa_i > sum_j |lam_ij|) and issues a
  certificate.  The conditions are sufficient only; an inconclusive
  certificate does not assert multimodality.  The sampler gates on the same
  definiteness test.

* :func:`critical_points` locates the critical points of the log-density
  exponent by damped multi-start Newton iteration on the torus and
  classifies each one through its Hessian spectrum, flagging extended
  (degenerate) maxima such as flat ridges.

The search runs one damped-Newton driver three times over the start set,
once per target (ascent toward maxima, descent toward minima, and a plain
root pass on the gradient that also lands on saddles), then polishes the
three results, stacked, in one pseudo-inverse Newton call.  Each pass
factors every live Hessian once per iteration (Cholesky for an extremum, LU
with partial pivoting for a root), which both judges whether it suits the
target and gives the Newton step; only the polish, whose pseudo-inverse
must drop flat directions, decomposes with ``eigh``, and it stops on each
row once that row has reached roundoff.  Everything runs batched over the
start set with plain numpy, except that the Hessian work (the passes'
factorisations, the polish's ``eigh`` and the classification's spectra)
runs in near-equal row blocks of at most ``_BLOCK_ROWS`` = 512 rows, never
of one row (see :func:`_by_blocks`): Hessian memory is O(512 * p**2) and
the rest O(rows * p) whatever the start count, and the blocks give the
stacked results bit for bit.  For a fixed seed and version the result is
deterministic.  A point counts as converged when its gradient sup-norm is
below ``grad_tol``, or below the gradient's roundoff floor where that is
larger.  The converged pool is deduplicated (greedy, first kept, in pool
order) before classification, so only the surviving points are
classified.  They are classified in one batch: Hessians from
:func:`mvmtorus.model.hessian_many` and their spectra from a stacked
``eigvalsh``, block by block, and f from
:func:`mvmtorus.model.exponent_many` on the whole batch.
:func:`classify_critical` runs the same batch path on a single row.  It
gives the same kind, but numpy may take another BLAS path for one row than
for a stack, so its eigenvalues and f can differ from the search's in the
last bits (at most a few eps * max(1, f range)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial

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
#: rounds of pseudo-inverse Newton polishing after the damped passes
_POLISH_ROUNDS = 8
#: step halvings a damped pass tries before it freezes a start
_MAX_HALVINGS = 30
#: relative slack when testing monotone improvement of f (absorbs roundoff)
_F_SLACK = 1e-14
#: largest per-coordinate step the solver will take
_MAX_STEP = np.pi / 2
#: lattice starts kept when the ``starts_per_dim**p`` lattice is larger
_MAX_LATTICE_STARTS = 256
#: most rows whose p x p Hessians the search holds at once
_BLOCK_ROWS = 512


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

    verdict: Verdict
    prop1_holds: bool
    cor1_holds: bool
    p_matrix: np.ndarray
    p_eigenvalues: np.ndarray
    gershgorin: spectral.GershgorinReport


def certify_unimodal(params: MvmParams) -> UnimodalityCertificate:
    """Build P = diag(kappa) - Lambda and run both sufficient tests."""
    p_matrix = params.p_matrix()
    prop1, _, report = spectral._certified(p_matrix)
    # row dominance: centers are exactly kappa (Lambda has zero diagonal)
    cor1 = bool(np.all(report.centers > report.radii))
    eigenvalues = spectral.sym_eigen(p_matrix).values
    if cor1:
        verdict = Verdict.CERTIFIED_UNIMODAL_WITH_MINIMUM
    elif prop1:
        verdict = Verdict.CERTIFIED_UNIMODAL
    else:
        verdict = Verdict.INCONCLUSIVE
    return UnimodalityCertificate(
        verdict=verdict,
        prop1_holds=prop1,
        cor1_holds=cor1,
        p_matrix=p_matrix,
        p_eigenvalues=eigenvalues,
        gershgorin=report,
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


def _by_blocks(fn, *arrays):
    """``fn(*arrays)`` over near-equal row blocks of at most ``_BLOCK_ROWS``
    rows, each block's tuple of arrays written into preallocated
    whole-batch outputs, so ``fn``'s p x p per row intermediates never
    stack more than ``_BLOCK_ROWS`` rows.  A batch of at most
    ``_BLOCK_ROWS`` rows is one plain call.  No block has one row unless
    the batch has one: numpy multiplies a single row by a matrix through
    BLAS gemv, which rounds differently from the gemm of a stack, while
    blocks of two rows or more give the stacked results bit for bit."""
    n = len(arrays[0])
    k = -(-n // _BLOCK_ROWS)
    if k <= 1:
        return fn(*arrays)
    edges = [i * n // k for i in range(k + 1)]
    outs = None
    for lo, hi in zip(edges, edges[1:]):
        parts = fn(*(a[lo:hi] for a in arrays))
        if outs is None:
            outs = tuple(np.empty((n, *a.shape[1:]), a.dtype) for a in parts)
        for out, a in zip(outs, parts):
            out[lo:hi] = a
    return outs


def _spectra(params: MvmParams, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Hessian spectra of ``rows`` and the Hessians' inf-norms."""
    hessians = hessian_many(params, rows)
    return np.linalg.eigvalsh(hessians), spectral.norm_inf(hessians)


def _classified(
    params: MvmParams, rows: np.ndarray, grad_norms: np.ndarray, degeneracy_tol: float
) -> list[CriticalPoint]:
    """Classify the critical points ``rows`` (wrapped angles, shape (n, p))
    in one batch: Hessians and their spectra in row blocks of at most 512
    rows, never of one (:func:`_by_blocks`), so they are the stacked ones
    bit for bit; f on the whole batch, since its ``c @ kappa`` rounds by
    batch shape."""
    eigenvalues, norms = _by_blocks(partial(_spectra, params), rows)
    tol = degeneracy_tol * np.maximum(1.0, norms)
    kinds = _classify_eigenvalues(eigenvalues, tol)
    f_values = exponent_many(params, rows).tolist()
    return [
        CriticalPoint(TorusPoint(row), f, float(g), eig, kind)
        for row, f, g, eig, kind in zip(rows, f_values, grad_norms, eigenvalues, kinds)
    ]


def _critical_tol(params: MvmParams, grad_tol: float) -> float:
    """The gradient sup-norm below which a point counts as critical:
    ``grad_tol``, or where it is larger the roundoff floor of grad f,
    64 * eps * (sum(kappa) + 0.5 * sum |lambda_ij|), which passes 1e-10 once
    kappa reaches about 1e6."""
    f_range = np.sum(params.kappa) + 0.5 * np.sum(np.abs(params.lam))
    return max(grad_tol, 64.0 * np.finfo(float).eps * float(f_range))


def classify_critical(
    params: MvmParams,
    theta,
    degeneracy_tol: float = 1e-6,
    grad_tol: float = 1e-8,
) -> CriticalPoint:
    """Classify a point already known to be critical.

    Raises ``ValueError`` when the gradient sup-norm at ``theta`` exceeds
    ``grad_tol``, or the roundoff floor of the gradient where that is larger
    (the same rule as :class:`SearchConfig`'s ``grad_tol``).
    ``degeneracy_tol`` is relative; the effective threshold is
    ``degeneracy_tol * max(1, inf-norm of the Hessian)``.
    """
    theta = as_torus_point(theta)
    grad_norm = np.max(np.abs(grad_f(params, theta)))
    tol = _critical_tol(params, grad_tol)
    if grad_norm > tol:
        raise ValueError(
            f"theta is not critical: |grad|_inf = {grad_norm:.3e} > {tol:.3g}"
        )
    return _classified(params, theta.angles[None, :], [grad_norm], degeneracy_tol)[0]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for :func:`critical_points`.

    The start set is the lattice ``mu + {pi/m + k*2pi/m}^p`` (anchored at
    odd multiples of pi/m so starts never coincide with the kappa=0
    extremum grid), truncated to a fixed 256 rows by a seeded subsample
    when ``m**p`` exceeds that, plus ``n_random_starts`` seeded uniform
    starts (defaults to 32 for p <= 4, else 256).  The subsample is drawn
    as lattice indices (above 2**63 - 1 points, as digits per coordinate)
    and only the chosen rows are built, so the start set takes
    O((256 + n_random_starts) * p) memory whatever ``m**p`` is.  A point
    counts as critical when its gradient sup-norm is below ``grad_tol``, or
    below the roundoff floor 64 * eps * (sum(kappa) + 0.5 * sum |lambda_ij|)
    of the gradient where that is larger (from kappa of about 1e6 up; a
    fixed level would drop every point the gradient cannot resolve that
    finely).  ``dedup_radius`` is at most pi: no two points of the torus
    are further apart in the sup-metric, so a larger radius would merge
    every point into one.  Out-of-range values raise ``ValueError`` on
    construction.
    """

    starts_per_dim: int = 4
    n_random_starts: int | None = None
    grad_tol: float = 1e-10
    max_iter: int = 80
    dedup_radius: float = 1e-4
    degeneracy_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name, low in (("starts_per_dim", 1), ("max_iter", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.n_random_starts is not None and self.n_random_starts < 0:
            raise ValueError(
                f"n_random_starts must be >= 0, got {self.n_random_starts}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("grad_tol", "dedup_radius", "degeneracy_tol"):
            value = getattr(self, name)
            span, high = ("in (0, pi]", np.pi) if name == "dedup_radius" else ("> 0", np.inf)
            if not (np.isfinite(value) and 0.0 < value <= high):
                raise ValueError(f"{name} must be finite and {span}, got {value}")


@dataclass(frozen=True)
class SearchMeta:
    starts_used: int
    converged: int
    seed: int


@dataclass(frozen=True)
class ModeReport:
    """All located critical points, deduplicated on the torus."""

    n_maxima: int
    extended_mode_suspected: bool
    search_meta: SearchMeta
    criticals: list[CriticalPoint]

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
    subsample of ``_MAX_LATTICE_STARTS`` of them, kept in lattice order)
    followed by the random starts, shifted by mu and wrapped.  Lattice rows
    are built from their indices alone, so memory is
    O((_MAX_LATTICE_STARTS + n_random) * p) however large ``m**p`` is.
    Beyond int64 indices the digits are drawn per coordinate, and a
    repeated row (odds below 1e-14 for 256 rows) is dropped."""
    p = params.p
    m = cfg.starts_per_dim
    size = m**p
    offsets = np.pi / m + np.arange(m) * (2.0 * np.pi / m)
    if size < 2**63:
        index = None  # the whole lattice fits
        if size > _MAX_LATTICE_STARTS:
            index = np.sort(rng.choice(size, size=_MAX_LATTICE_STARTS, replace=False))
        lattice = lattice_rows(offsets, p, index)
    else:
        # np.unique sorts the digit rows into lattice (C) order
        lattice = offsets[np.unique(rng.integers(m, size=(_MAX_LATTICE_STARTS, p)), axis=0)]
    n_random = cfg.n_random_starts
    if n_random is None:
        n_random = 32 if p <= 4 else 256
    random_starts = rng.uniform(0.0, 2.0 * np.pi, size=(n_random, p))
    starts = np.vstack([lattice, random_starts])
    return wrap_angles(starts + params.mu.angles)


def _cap_steps(steps: np.ndarray) -> np.ndarray:
    mags = np.max(np.abs(steps), axis=1)
    scale = np.where(mags > _MAX_STEP, _MAX_STEP / np.maximum(mags, 1e-300), 1.0)
    return steps * scale[:, None]


def _descent_steps(h: np.ndarray, g: np.ndarray, gnorm: np.ndarray) -> np.ndarray:
    """The steepest descent direction -H g of 0.5*|grad|^2, capped.  Where
    -H g overflows (|H| and |g| near 1e155 and above), the direction comes
    from the scaled gradient g/|g|_inf and is set to the cap's length."""
    with np.errstate(over="ignore"):
        steps = -np.einsum("nij,nj->ni", h, g)
    if not np.isfinite(steps).all():
        wild = ~np.isfinite(steps).all(axis=1)
        unit = -np.einsum("nij,nj->ni", h[wild], g[wild] / gnorm[wild, None])
        steps[wild] = unit * (_MAX_STEP / np.max(np.abs(unit), axis=1))[:, None]
    return _cap_steps(steps)


def _directions(
    params: MvmParams, sign: float, cur: np.ndarray, g: np.ndarray, gnorm: np.ndarray
) -> tuple[np.ndarray]:
    """A damped pass's search direction at each row of ``cur``: the Newton
    step where the row's Hessian suits the target and the step is within
    ``_MAX_STEP``, else the fallback step (see :func:`_damped_pass`)."""
    h = hessian_many(params, cur)
    habs = np.maximum(1.0, spectral.norm_inf(h))
    if sign:
        suited, newton = spectral._solve_stack(-sign * h, sign * g, 1e-8 * habs, True)
        fallback = _cap_steps(sign * g)
    else:
        suited, newton = spectral._solve_stack(h, -g, 1e-10 * habs, False)
        fallback = _descent_steps(h, g, gnorm)
    use_newton = suited & (np.max(np.abs(newton), axis=1) <= _MAX_STEP)
    return (np.where(use_newton[:, None], newton, fallback),)


def _damped_pass(
    params: MvmParams, starts: np.ndarray, sign: float, cfg: SearchConfig
) -> np.ndarray:
    """Damped Newton iteration from every start toward a maximum of f
    (sign=+1), a minimum (sign=-1) or any root of grad f (sign=0), which
    lands on saddles as readily as on extrema.

    Each iteration factors every live Hessian once, with
    ``spectral._solve_stack``, and takes the Newton step -H^-1 g from that
    factorisation where the Hessian suits the target: for an extremum, a
    Cholesky factorisation of -sign*H whose pivots all exceed
    1e-8 * max(1, |H|_inf) (definite with the matching sign); for a root,
    an LU factorisation with partial pivoting whose pivots all have
    magnitude at least 1e-10 * max(1, |H|_inf) (nonsingular).  Elsewhere
    the step is the capped gradient step sign*g, or for a root the
    steepest descent direction -H g of 0.5*|grad|^2.  Steps are halved
    until sign*f does not decrease (up to roundoff slack), or for a root
    until |grad|_inf falls by the factor (1 - 1e-4*step); a start that
    cannot improve after ``_MAX_HALVINGS`` halvings is frozen.  The
    Hessians, their factorisations and the steps are taken in row blocks of
    at most 512 rows, never of one, whose single-row product would round
    differently (:func:`_by_blocks`); the gradients, f and the step halving
    run on all live rows at once.
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

        (direction,) = _by_blocks(partial(_directions, params, sign), cur, g, gnorm)
        if sign:
            f0 = exponent_many(params, cur)
            slack = _F_SLACK * np.maximum(1.0, np.abs(f0))

        step = np.ones(len(cur))
        pending = np.ones(len(cur), dtype=bool)
        new = cur.copy()
        for _ in range(_MAX_HALVINGS + 1):
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
            pending[rows[ok]] = False
            step[rows[~ok]] *= 0.5
        th[idx] = wrap_angles(new)
        alive[idx[pending]] = False  # stalled: no step length improved the merit
    return th


def _pinv_steps(params: MvmParams, cur: np.ndarray, g: np.ndarray) -> tuple[np.ndarray]:
    """The uncapped pseudo-inverse Newton step pinv(H) g at each row of
    ``cur``, eigen-directions with |eigenvalue| below 1e-8 * max(1, |H|_inf)
    dropped."""
    h = hessian_many(params, cur)
    thresh = 1e-8 * np.maximum(1.0, spectral.norm_inf(h))
    w, v = np.linalg.eigh(h)
    winv = np.where(np.abs(w) > thresh[:, None], 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return (np.einsum("nik,nk->ni", v, winv * np.einsum("nik,ni->nk", v, g)),)


def _polish(params: MvmParams, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``_POLISH_ROUNDS`` rounds of pseudo-inverse Newton on the
    gradient, row by row; returns each row's best iterate and its gradient
    sup-norm, as measured by ``grad_many`` at that iterate.

    Eigen-directions (``eigh``) with |eigenvalue| below
    1e-8 * max(1, |H|_inf) are dropped, so flat ridge directions are left
    untouched while the transverse error contracts quadratically down to
    roundoff.  The iterate with the smallest gradient norm wins.  A row
    retires once a round fails to lower its best gradient norm while that
    norm is at most ``_POLISH_TRIGGER``: it has reached roundoff.  Rows
    above the trigger run every round.  Each round's Hessians, ``eigh`` and
    steps are taken in row blocks of at most 512 rows, never of one, whose
    single-row product would round differently (:func:`_by_blocks`): with
    default flags at p > 4 the three passes stack 1536 rows, three blocks
    of 512.
    """
    best = points.copy()
    g = grad_many(params, best)
    best_norm = np.max(np.abs(g), axis=1)
    live = np.arange(len(best))
    cur = best
    for _ in range(_POLISH_ROUNDS):
        if not len(live):
            break
        (steps,) = _by_blocks(partial(_pinv_steps, params), cur, g)
        cur = wrap_angles(cur - _cap_steps(steps))
        g = grad_many(params, cur)
        norm = np.max(np.abs(g), axis=1)
        better = norm < best_norm[live]
        best[live[better]] = cur[better]
        best_norm[live[better]] = norm[better]
        stay = better | (best_norm[live] > _POLISH_TRIGGER)
        live, cur, g = live[stay], cur[stay], g[stay]
    return best, best_norm


def _first_kept(rows: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the rows kept by greedy first-kept dedup: a row is kept
    when its angular sup-metric distance to every row kept before it is at
    least ``radius``.  Rows must already be wrapped to [0, 2*pi).  The loop
    runs over kept rows: each one drops every later candidate within
    ``radius`` of it, so the first candidate left is the next row kept."""
    candidates = np.arange(len(rows))
    index = []
    while len(candidates):
        first, candidates = candidates[0], candidates[1:]
        index.append(first)
        d = np.abs(rows[candidates] - rows[first])
        candidates = candidates[np.minimum(d, TWO_PI - d).max(axis=1) >= radius]
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
    every reported point checks ``|grad|_inf`` against ``cfg.grad_tol``
    (or the gradient's roundoff floor, where larger) by the norm the polish
    measured at that point, which is also its reported ``grad_norm``.
    Results are deterministic for a fixed ``cfg.seed``.
    """
    if cfg is None:
        cfg = SearchConfig()
    rng = np.random.default_rng(cfg.seed)
    starts = _start_points(params, cfg, rng)

    pool, norms = _polish(
        params, np.vstack([_damped_pass(params, starts, sign, cfg) for sign in (1.0, -1.0, 0.0)])
    )
    converged_mask = norms < _critical_tol(params, cfg.grad_tol)
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
        n_maxima=n_maxima,
        extended_mode_suspected=extended,
        search_meta=meta,
        criticals=unique,
    )
