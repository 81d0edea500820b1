"""Multi-start mode search: :func:`critical_points` seeks the critical
points of the exponent by damped Newton iteration on the torus, with no
proof that it finds them all (it can miss saddles and minima), and
classifies each by its Hessian spectrum, flagging extended
(degenerate) maxima such as flat ridges.  The paper's unimodality criteria
are only sufficient (their certificate is
:func:`mvmtorus.spectral.certify_unimodal`), so the search settles modality
where they are inconclusive.

The search runs one damped-Newton driver three times over the start set
(ascent toward maxima, descent toward minima, and a root pass that also
lands on saddles), then polishes the three results, stacked, with
pseudo-inverse Newton steps.  A pass iteration evaluates the trig of its
rows once and factors each live Hessian once, which judges whether it
suits the target and gives the Newton step; an extremum step must raise
sign * f by more than roundoff, and the step is halved one length at a
time on the rows still pending.  Only the polish, whose pseudo-inverse
drops flat directions, uses ``eigh``; a row leaves it at the gradient's
roundoff floor.  The Hessian work runs in row blocks of at most
``_BLOCK_ROWS`` = 512 rows (:func:`_by_blocks`), so it takes
O(512 * p**2) memory, the rest O(rows * p).  The start set comes from the
standard library's ``random.Random(seed)``, so the search loads no
``numpy.random``; for a fixed seed and version the result is deterministic.
Converged points are deduplicated (greedy, first kept, in pool order),
then :func:`_classified` classifies them in one batch, sorts them into
report order and builds each point.  :func:`classify_critical` runs the
same path on one row, but numpy may take another BLAS path for one row
than for a stack, so its eigenvalues and f can differ from the search's in
the last bits.  Both run on f scaled by 2**k where its range is below 1
(:func:`_unit_range`), since their levels are absolute, and
:func:`_classified` scales f, gradient norms and eigenvalues back.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import spectral
from .model import (
    TWO_PI,
    MvmParams,
    TorusPoint,
    _exponent_cs,
    _grad_cs,
    _hessian_cs,
    _trig_many,
    as_torus_point,
    exponent_many,
    grad_f,
    grad_many,
    hessian_many,
    lattice_rows,
    wrap_angles,
)
# not used here: the benchmark's tracer wraps these three names on this module
from .model import exponent_f, hessian_f  # noqa: F401
from .spectral import certify_unimodal  # noqa: F401

__all__ = [
    "PointKind",
    "CriticalPoint",
    "SearchConfig",
    "SearchMeta",
    "ModeReport",
    "classify_critical",
    "critical_points",
    "deduplicate",
]

#: sup-norm gradient level at which the damped passes hand over to the polish
_POLISH_TRIGGER = 1e-6
#: rounds of pseudo-inverse Newton polishing after the damped passes
_POLISH_ROUNDS = 8
#: halvings of the step (to length 2**-30) a damped pass tries before it freezes a start
_MAX_HALVINGS = 30
#: relative slack an extremum step's rise in f must exceed (roundoff)
_F_SLACK = 1e-14
#: f values this many eps * f range apart tie in the report order
_F_ULPS = 16
#: angles this far apart tie in the report order
_ANGLE_TIE = 1e-8
#: largest per-coordinate step the solver will take
_MAX_STEP = np.pi / 2
#: lattice starts kept when the ``starts_per_dim**p`` lattice is larger
_MAX_LATTICE_STARTS = 256
#: most rows whose p x p Hessians the search holds at once
_BLOCK_ROWS = 512


class PointKind(enum.Enum):
    MAXIMUM = "Maximum"
    MINIMUM = "Minimum"
    SADDLE = "Saddle"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class CriticalPoint:
    """A located zero of the gradient with its spectral classification."""

    theta: TorusPoint
    f_value: float
    grad_norm: float
    hessian_eigenvalues: np.ndarray
    kind: PointKind


_KINDS = (PointKind.MAXIMUM, PointKind.MINIMUM, PointKind.DEGENERATE, PointKind.SADDLE)


def _by_blocks(fn, *arrays):
    """``fn(*arrays)`` over near-equal row blocks of at most ``_BLOCK_ROWS``
    rows, the blocks' outputs concatenated, so ``fn``'s p x p per-row
    intermediates never stack more rows.  No block has one row unless the
    batch has: numpy multiplies one row by a matrix through BLAS gemv,
    which rounds differently from the gemm of a stack, while blocks of two
    rows or more give the stacked results bit for bit."""
    k = -(-len(arrays[0]) // _BLOCK_ROWS)
    if k <= 1:
        return fn(*arrays)
    parts = [fn(*block) for block in zip(*(np.array_split(a, k) for a in arrays))]
    return tuple(map(np.concatenate, zip(*parts)))


def _spectra(params: MvmParams, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Hessian spectra of ``rows`` and the Hessians' inf-norms."""
    hessians = hessian_many(params, rows)
    return spectral._eigh(hessians, vectors=False), spectral.norm_inf(hessians)


def _classified(
    params: MvmParams, rows: np.ndarray, grad_norms: np.ndarray, degeneracy_tol: float, k: int = 0
) -> list[CriticalPoint]:
    """The critical points ``rows`` (wrapped angles, shape (n, p)) of the f
    of ``params``, classified in one batch and in report order: Hessians and
    spectra in row blocks (:func:`_by_blocks`), f on the whole batch, since
    its ``c @ kappa`` rounds by batch shape.  ``params`` is 2**k times the
    caller's set (:func:`_unit_range`): the order is taken on the scaled
    values (:func:`_report_order`), then f, ``grad_norms`` and eigenvalues
    are scaled back by 2**-k."""
    eigenvalues, norms = _by_blocks(partial(_spectra, params), rows)
    tol = degeneracy_tol * np.maximum(1.0, norms)
    degenerate = np.any(np.abs(eigenvalues) <= tol[:, None], axis=1)
    maximum, minimum = eigenvalues[:, -1] < -tol, eigenvalues[:, 0] > tol
    kinds = [_KINDS[i] for i in np.select([maximum, minimum, degenerate], [0, 1, 2], 3)]
    f_values = exponent_many(params, rows)
    order = _report_order(params, f_values, kinds, rows)
    f_values, grad_norms = np.ldexp(f_values, -k).tolist(), np.ldexp(grad_norms, -k).tolist()
    eigenvalues = np.ldexp(eigenvalues, -k)
    return [
        CriticalPoint(TorusPoint(rows[i]), f_values[i], grad_norms[i], eigenvalues[i], kinds[i])
        for i in order
    ]


def _critical_tol(params: MvmParams, grad_tol: float) -> float:
    """The gradient sup-norm below which a point is critical: ``grad_tol``,
    or the roundoff floor 64 * eps * f range where larger (kappa ~ 1e6 up)."""
    return max(grad_tol, 64.0 * np.finfo(float).eps * params.f_range)


def _report_order(
    params: MvmParams, f_values: np.ndarray, kinds: list[PointKind], rows: np.ndarray
) -> list[int]:
    """The indices of the points (f, kind, angles) by descending f, then
    kind, then angles, where f values within ``_F_ULPS`` * eps * f range of
    a group's first, or angles within ``_ANGLE_TIE`` (near 2*pi counting as
    near 0), rank as equal: mirror points keep their order, whatever the
    last bits of their f and angles."""
    keys = [
        [-f, kind.value] + [a - TWO_PI if a > TWO_PI - _ANGLE_TIE else a for a in row]
        for f, kind, row in zip(f_values.tolist(), kinds, rows.tolist())
    ]
    ties = [(0, _F_ULPS * np.finfo(float).eps * params.f_range)]
    for j, tie in ties + [(j, _ANGLE_TIE) for j in range(2, params.p + 2)]:
        ordered = sorted(keys, key=lambda key: key[j])
        for prev, key in zip(ordered, ordered[1:]):
            if key[j] - prev[j] <= tie:
                key[j] = prev[j]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _unit_range(params: MvmParams) -> tuple[MvmParams, int]:
    """``params`` with kappa and Lambda scaled by 2**k, and k: where the f
    range R is in (0, 1), k = 1 - frexp(R)[1] brings it into [1, 2), else
    k = 0 and ``params`` is returned as is.  Scaling by a power of two is
    exact, so the search and the classification run on 2**k * f, and
    :func:`_classified` scales f, gradient norms and eigenvalues back by
    2**-k."""
    r = params.f_range
    if not 0.0 < r < 1.0:
        return params, 0
    k = 1 - int(np.frexp(r)[1])
    return MvmParams(params.mu, np.ldexp(params.kappa, k), np.ldexp(params.lam, k)), k


def classify_critical(
    params: MvmParams, theta, degeneracy_tol: float = 1e-6, grad_tol: float = 1e-8
) -> CriticalPoint:
    """Classify a point already known to be critical.

    Raises ``ValueError`` when the gradient sup-norm at ``theta`` exceeds
    ``grad_tol``, or the gradient's roundoff floor where larger (the rule of
    :class:`SearchConfig`, on f scaled as there).  ``degeneracy_tol`` is
    relative: the threshold is ``degeneracy_tol * max(1, inf-norm of the
    Hessian)``.
    """
    unit, k = _unit_range(params)
    theta, tol = as_torus_point(theta), _critical_tol(unit, grad_tol)
    grad_norm = np.max(np.abs(grad_f(unit, theta)))
    if grad_norm > tol:
        raise ValueError(f"theta is not critical: |grad|_inf = {grad_norm:.3e} > {tol:.3g}")
    return _classified(unit, theta.angles[None, :], [grad_norm], degeneracy_tol, k)[0]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for :func:`critical_points`.

    The start set is the lattice ``mu + {pi/m + k*2pi/m}^p`` (odd multiples
    of pi/m, off the kappa=0 extremum grid), cut to 256 distinct rows when
    ``m**p`` is larger, plus ``n_random_starts`` uniform starts (default 32
    for p <= 4, else 256), both drawn from ``random.Random(seed)``.  A
    point is critical when its gradient sup-norm is below ``grad_tol``, or
    below the gradient's roundoff floor 64 * eps * (sum(kappa) + 0.5 * sum
    |lambda_ij|) where larger.  When that f range R is below 1 the search
    runs on 2**k * f, with 2**k * R in [1, 2), so ``grad_tol`` and
    ``degeneracy_tol`` apply to the scaled f.  ``dedup_radius`` is at most
    pi, the largest sup-metric distance on the torus.  Out-of-range values
    raise ``ValueError``.
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
            raise ValueError(f"n_random_starts must be >= 0, got {self.n_random_starts}")
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


def _start_points(params: MvmParams, cfg: SearchConfig) -> np.ndarray:
    """The lattice starts, then the random starts, shifted by mu and
    wrapped, all drawn from ``random.Random(cfg.seed)``: the whole ``m**p``
    lattice in C order when it has at most ``_MAX_LATTICE_STARTS`` rows,
    else that many distinct digit rows (digits ``int(m * random())``, a
    repeated row redrawn) sorted into lattice order; then ``n_random * p``
    uniforms ``TWO_PI * random()``, row by row.  Memory is O((256 +
    n_random) * p) however large ``m**p`` is."""
    p, m = params.p, cfg.starts_per_dim
    rng = random.Random(cfg.seed)
    offsets = np.pi / m + np.arange(m) * (2.0 * np.pi / m)
    if m**p <= _MAX_LATTICE_STARTS:
        lattice = lattice_rows(offsets, p)
    else:
        digits = set()
        while len(digits) < _MAX_LATTICE_STARTS:
            digits.add(tuple(int(m * rng.random()) for _ in range(p)))
        lattice = offsets[np.array(sorted(digits))]
    n = (32 if p <= 4 else 256) if cfg.n_random_starts is None else cfg.n_random_starts
    # count= allocates first, so an impossible n fails before any draw
    uniforms = np.fromiter((TWO_PI * rng.random() for _ in range(n * p)), float, count=n * p)
    return wrap_angles(np.vstack([lattice, uniforms.reshape(n, p)]) + params.mu.angles)


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


def _directions(params: MvmParams, sign: float, c, s, g, gnorm) -> tuple[np.ndarray]:
    """A damped pass's direction at the rows with trig ``c``, ``s``: the
    Newton step where the Hessian suits the target and the step is within
    ``_MAX_STEP``, else the fallback step (see :func:`_damped_pass`)."""
    h = _hessian_cs(params, c, s)
    habs = np.maximum(1.0, spectral.norm_inf(h))
    if sign:
        h *= -sign  # in place: the extremum step needs no second stack
        suited, newton = spectral._solve_stack(h, sign * g, 1e-8 * habs, True)
        fallback = _cap_steps(sign * g)
    else:
        suited, newton = spectral._solve_stack(h, -g, 1e-10 * habs, False)
        fallback = _descent_steps(h, g, gnorm)
    use_newton = suited & (np.max(np.abs(newton), axis=1) <= _MAX_STEP)
    return (np.where(use_newton[:, None], newton, fallback),)


def _step_lengths(params: MvmParams, sign: float, c, s, gnorm, cur, direction):
    """Each row's largest step length 2**-k, k = 0..``_MAX_HALVINGS``, at
    which cur + 2**-k * direction passes the merit, or 0 where none does:
    for an extremum sign * f must rise by more than roundoff (so no row
    circles at constant f), for a root |grad|_inf must fall by the factor
    1 - 1e-4 * 2**-k.  The step is halved one length at a time, with one f
    or gradient call on the rows still pending."""
    found = np.zeros(len(cur))
    pending = np.arange(len(cur))
    if sign:
        f0 = _exponent_cs(params, c, s)
        slack = _F_SLACK * np.maximum(1.0, np.abs(f0))
    for k in range(_MAX_HALVINGS + 1):
        length = 0.5**k
        cand = cur[pending] + length * direction[pending]
        if sign:
            ok = sign * (exponent_many(params, cand) - f0[pending]) > slack[pending]
        else:
            g1 = np.max(np.abs(grad_many(params, cand)), axis=1)
            ok = g1 <= (1.0 - 1e-4 * length) * gnorm[pending]
        found[pending[ok]] = length
        pending = pending[~ok]
        if not len(pending):
            break
    return found


def _damped_pass(
    params: MvmParams, starts: np.ndarray, sign: float, cfg: SearchConfig
) -> np.ndarray:
    """Damped Newton iteration from every start toward a maximum of f
    (sign=+1), a minimum (sign=-1) or any root of grad f (sign=0).

    Each iteration evaluates cos and sin of the live rows once and factors
    every live Hessian once (``spectral._solve_stack``).  Where the Hessian
    suits the target the step is -H^-1 g: for an extremum, the Cholesky
    pivots of -sign*H all exceed 1e-8 * max(1, |H|_inf); for a root, the
    LU pivots all reach 1e-10 * max(1, |H|_inf) in magnitude.  Elsewhere it
    is the capped gradient step sign*g, or for a root -H g, the steepest
    descent direction of 0.5*|grad|^2.  The step is halved from length 1
    until it passes the merit of :func:`_step_lengths`, at most
    ``_MAX_HALVINGS`` times; a start that no length improves is frozen.
    Hessian work runs in row blocks (:func:`_by_blocks`), gradients and f
    on all live rows at once.
    """
    th = starts.copy()
    alive = np.ones(len(th), dtype=bool)
    for _ in range(cfg.max_iter):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        c, s = _trig_many(params, th[idx])
        g = _grad_cs(params, c, s)
        gnorm = np.max(np.abs(g), axis=1)
        keep = gnorm > _POLISH_TRIGGER
        alive[idx[~keep]] = False
        if not keep.any():
            continue
        idx, c, s, g, gnorm = idx[keep], c[keep], s[keep], g[keep], gnorm[keep]
        (direction,) = _by_blocks(partial(_directions, params, sign), c, s, g, gnorm)
        cur = th[idx]
        step = _step_lengths(params, sign, c, s, gnorm, cur, direction)
        moved = step > 0.0
        th[idx[moved]] = wrap_angles(cur[moved] + step[moved, None] * direction[moved])
        alive[idx[~moved]] = False  # stalled: no step length improved the merit
    return th


def _pinv_steps(params: MvmParams, cur: np.ndarray, g: np.ndarray) -> tuple[np.ndarray]:
    """The uncapped pseudo-inverse Newton step pinv(H) g at each row of
    ``cur``, eigen-directions with |eigenvalue| below 1e-8 * max(1, |H|_inf)
    dropped."""
    h = hessian_many(params, cur)
    thresh = 1e-8 * np.maximum(1.0, spectral.norm_inf(h))
    w, v = spectral._eigh(h)
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=np.abs(w) > thresh[:, None])
    return (np.einsum("nik,nk->ni", v, winv * np.einsum("nik,ni->nk", v, g)),)


def _polish(params: MvmParams, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``_POLISH_ROUNDS`` rounds of pseudo-inverse Newton on the
    gradient, row by row; returns each row's best iterate (smallest
    gradient sup-norm) and that norm.  Eigen-directions with |eigenvalue|
    below 1e-8 * max(1, |H|_inf) are dropped, so flat ridge directions stay
    untouched while the transverse error contracts quadratically.  A row
    retires once its best norm is at most the gradient's roundoff floor
    8 * eps * f range, or once a round fails to lower a best norm at most
    ``_POLISH_TRIGGER``.  Hessian work runs in row blocks (:func:`_by_blocks`)."""
    best = points.copy()
    g = grad_many(params, best)
    best_norm = np.max(np.abs(g), axis=1)
    floor = 8.0 * np.finfo(float).eps * params.f_range
    live = np.flatnonzero(best_norm > floor)
    cur, g = (best, g) if len(live) == len(best) else (best[live], g[live])
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
        stay = (better | (best_norm[live] > _POLISH_TRIGGER)) & (best_norm[live] > floor)
        live, cur, g = live[stay], cur[stay], g[stay]
    return best, best_norm


def _first_kept(rows: np.ndarray, radius: float) -> np.ndarray:
    """Indices kept by greedy first-kept dedup: a row is kept when its
    angular sup-metric distance to every row kept before it is at least
    ``radius`` (rows wrapped to [0, 2*pi)).  Each kept row drops every later
    candidate within ``radius``, so the first one left is kept next."""
    candidates = np.arange(len(rows))
    index = []
    while len(candidates):
        first, candidates = candidates[0], candidates[1:]
        index.append(first)
        d = np.abs(rows[candidates] - rows[first])
        candidates = candidates[np.minimum(d, TWO_PI - d).max(axis=1) >= radius]
    return np.array(index, dtype=int)


def deduplicate(criticals: list[CriticalPoint], radius: float) -> list[CriticalPoint]:
    """Greedy first-kept dedup under the angular sup-metric.  Kept points
    are pairwise at least ``radius`` apart, so the operation is idempotent."""
    if not criticals:
        return []
    rows = np.stack([c.theta.angles for c in criticals])
    return [criticals[i] for i in _first_kept(rows, radius)]


def critical_points(params: MvmParams, cfg: SearchConfig | None = None) -> ModeReport:
    """Locate and classify the critical points of the exponent.

    Starts that do not converge are dropped (counted in ``search_meta``);
    a point is reported when the gradient norm the polish measured there,
    its ``grad_norm``, is below ``cfg.grad_tol`` (or the roundoff floor).
    An f range below 1 is searched scaled by a power of two (see
    :class:`SearchConfig`).  Results are deterministic for a fixed
    ``cfg.seed``.
    """
    if cfg is None:
        cfg = SearchConfig()
    params, k = _unit_range(params)
    starts = _start_points(params, cfg)
    pool, norms = _polish(
        params, np.vstack([_damped_pass(params, starts, sign, cfg) for sign in (1.0, -1.0, 0.0)])
    )
    converged_mask = norms < _critical_tol(params, cfg.grad_tol)
    converged = pool[converged_mask]
    kept = _first_kept(converged, cfg.dedup_radius)
    unique = _classified(
        params, converged[kept], norms[converged_mask][kept], cfg.degeneracy_tol, k
    )
    return ModeReport(
        n_maxima=sum(1 for c in unique if c.kind is PointKind.MAXIMUM),
        extended_mode_suspected=any(c.kind is PointKind.DEGENERATE for c in unique),
        search_meta=SearchMeta(len(starts), int(converged_mask.sum()), cfg.seed),
        criticals=unique,
    )
