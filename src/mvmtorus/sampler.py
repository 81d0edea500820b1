"""Exact rejection sampling for the multivariate von Mises distribution in
the regime where ``spectral.certify_unimodal`` certifies P positive definite;
the computed lambda_min(P) only sizes the envelope.

Product envelope: coordinate i follows VM(0, d_i), density
exp(d_i cos t) / (2 pi I0(d_i)), for a d >= 0 with P - diag(d) positive
semidefinite (so d_i <= kappa_i); above d_i = 1e6 numpy draws a wrapped
normal instead, O(1/d_i) away.  The paper's inequality kappa_i (c_i - 1)
<= -kappa_i s_i^2 / 2, applied to the kappa - d part of kappa, gives

    sum (kappa_i - d_i)(c_i - 1) + s^T Lambda s / 2 <= -s^T (P - diag(d)) s / 2 <= 0,

so exp(f) <= C g with log C = sum(kappa) - sum(d) + sum_i log(2 pi I0(d_i)),
and a proposal accepted with probability exp(sum (kappa_i - d_i)(c_i - 1)
+ s^T Lambda s / 2) is an exact draw, shifted by mu on output.  The rate
tends to sqrt(prod(d) / |P|) <= 1 at high concentration.  The paper uses
d = b*1 (b <= lambda_min(P)) and the doubled-angle proposal
exp(-d_i sin^2(t) / 2); since d (c - 1) <= -d s^2 / 2, the von Mises one
lies below it for every d.

Collapsed envelope (p >= 2): given the others, theta_q is VM(atan2(b_q,
kappa_q), r_q), r_q = sqrt(kappa_q^2 + b_q^2), b_q = sum_j lambda_qj s_j
(Mardia, Hughes, Taylor & Singh, Canad. J. Statist. 36, 2008), so the
others have the marginal exp(f') 2 pi I0(r_q), f' the terms of f without
theta_q.  log I0(sqrt(kappa^2 + u)) is concave in u = b^2, so its tangent
at 0 bounds it: log I0(r_q) <= log I0(kappa_q) + (A(kappa_q) / kappa_q)
b_q^2 / 2, A = I1/I0.  The marginal is then at most 2 pi I0(kappa_q) times
a sine model with P_q = (P without row and column q) - (A(kappa_q) /
kappa_q) lambda_q lambda_q^T (lambda_q: column q of Lambda without entry
q), which is at least the Schur complement of kappa_q in P since A(k) < 1,
so positive definite with P.  The product envelope on P_q proposes the
others, accepted with probability exp(sum' (kappa_i - d_i)(c_i - 1) +
s'^T Lambda' s' / 2 + log I0(r_q) - log I0(kappa_q)), and theta_q is then
drawn from its conditional.  With d_q = kappa_q stored in the spec, log C
and the asymptote keep the formulas above.  ``_exponent`` forms either
exponent and is the one run-time test of the envelope; ``_log_i0e``,
log I0(x) - x, is the one Bessel routine.

:meth:`ProposalSpec.from_params` tries d = b*1 and the Jacobi-scaled
t*diag(P), t = lambda_min(diag(P)^-1/2 P diag(P)^-1/2), on P and then on
each P_q, q = 0, 1, ...; a candidate replaces the one kept so far only if
it lowers log C by more than ``TIE_LOG_GAIN`` per coordinate.

Reproducibility contract: the proposal stream is cut into blocks of
``BLOCK_SIZE`` = 2048 proposals.  Block i draws from its own generator, the
i-th child of ``SeedSequence(seed).spawn()``, worked out from i when the
block starts, and consumes, in order, (1) 2048 x m von Mises rows (m = p,
or p - 1 without the collapsed coordinate), (2) 2048 uniforms, a proposal
being accepted when its uniform is at most its acceptance probability,
and (3) for a collapsed spec, one call of VM(0, r_q) draws for the
accepted rows, its concentrations padded with kappa_q to a multiple of 256
(numpy's generator keeps about 2.6 KB for each new length of an array
argument), an accepted row's theta_q being its draw plus atan2(b_q,
kappa_q).  A run of n draws keeps the first n accepted proposals of the
stream, in order, ends with the block that holds draw n, and hands each
block's draws on in pieces of at most ``PIECE_ROWS`` rows.  Worker threads
only run whole blocks, at most ``workers`` (and the CPU count) of them in
flight: the next is submitted only when the consumer asks for another,
and pending blocks are cancelled once draw n is found or the consumer
stops early.  So output is bit-identical for a fixed seed whatever the
worker count, the draws of n are the first n rows of any longer run, and
memory is O(``BLOCK_SIZE`` * p * workers) whatever n is.

The error types are defined in :mod:`mvmtorus.model` and re-exported here.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np

from . import spectral
from .model import (
    AcceptanceStallError,
    BoundViolationError,
    DimensionMismatchError,
    MvmParams,
    NotPositiveDefiniteError,
    TWO_PI,
    _half_quadratic,
    as_torus_point,
    wrap_angles,
)

__all__ = [
    "BLOCK_SIZE",
    "NotPositiveDefiniteError",
    "BoundViolationError",
    "AcceptanceStallError",
    "ProposalSpec",
    "SampleBatch",
    "AcceptanceForecast",
    "sample_proposal_batch",
    "log_proposal_density",
    "log_envelope_constant",
    "acceptance_probability",
    "sample_blocks",
    "sample_mvm",
    "forecast_acceptance",
]

#: proposals per seeding block; fixed so the stream layout is independent of
#: worker count
BLOCK_SIZE = 2048
#: most draws yielded at once, half a block, so what a consumer builds per
#: piece (the CSV text of ``sample``) stays bounded as acceptance nears 1
PIECE_ROWS = 1024
#: stall guard: a run raises ``AcceptanceStallError`` once its trials exceed
#: STALL_FACTOR * (draws + 1), checked after each block, so a run with no
#: draw stops within STALL_FACTOR + BLOCK_SIZE proposals whatever n is
STALL_FACTOR = 1e6
#: slack subtracted from computed eigenvalues when building an envelope,
#: so eigen-solver rounding cannot push diag(d) past P; scaled by
#: min(1, inf-norm of P) so a P with tiny entries keeps a positive bound
ENVELOPE_SLACK = 1e-12
#: per-coordinate drop in log C below which a candidate envelope counts as
#: a tie with the one kept before it (a constant diagonal gives the scalar
#: back up to rounding), which is kept
TIE_LOG_GAIN = 1e-9
#: argument above which log I0 switches from log(numpy.i0) to its
#: asymptotic series (numpy.i0 overflows near 713)
LOG_I0_SWITCH = 700.0
#: Z <= C always holds, so an exact acceptance rate Z/C above 1 + this
#: tolerance is a quadrature failure
EXACT_RATE_TOL = 1e-9


def _log_i0e(x: np.ndarray) -> np.ndarray:
    """log(exp(-x) I0(x)) for an array x >= 0: log(numpy.i0(x)) - x up to
    ``LOG_I0_SWITCH``, below the point where numpy.i0 overflows, and the
    large-x asymptotic series -log(2 pi x)/2 + log(1 + 1/(8x) + 9/(128x^2)
    + 225/(3072x^3) + 11025/(98304x^4)) above it (truncation error below
    1e-15 there).  The scaling keeps log I0(d) - d accurate for huge d,
    where log I0(d) alone rounds to d."""
    if np.all(x <= LOG_I0_SWITCH):  # the sampler's usual case: no series
        return np.log(np.i0(x)) - x
    small = np.minimum(x, LOG_I0_SWITCH)
    big = np.maximum(x, LOG_I0_SWITCH)
    inv = 1.0 / big
    series = inv * (1 / 8 + inv * (9 / 128 + inv * (225 / 3072 + inv * 11025 / 98304)))
    large = np.log1p(series) - 0.5 * np.log(TWO_PI * big)
    return np.where(x <= LOG_I0_SWITCH, np.log(np.i0(small)) - small, large)


def _slope(kappa: float) -> float:
    """A(kappa) / kappa, A = I1/I0, raised by 1e-14 relative so that it is
    never below the true value (its error is under 1e-15 from subnormal
    kappa to 1e300): up to 64 the continued fraction 1/(2 + k^2/(4 + k^2/(6
    + ...))), 99 levels deep, else the quotient of the large-kappa series of
    I1 and I0."""
    if kappa <= 64.0:
        u, t = kappa * kappa, 200.0
        for k in range(99, 0, -1):
            t = 2.0 * k + u / t
        ratio = 1.0 / t
    else:
        inv = 1.0 / kappa
        s0 = s1 = t0 = t1 = 1.0
        for k in range(1, 30):
            odd = (2 * k - 1) ** 2
            t0 *= odd * inv / (8 * k)
            t1 *= (odd - 4) * inv / (8 * k)
            s0 += t0
            s1 += t1
        ratio = s1 / s0 * inv
    return ratio * (1.0 + 1e-14)


@dataclass(frozen=True)
class ProposalSpec:
    """Product of von Mises proposals with per-coordinate concentrations
    d_i, or, with ``collapsed`` = q, of all but q, which is drawn from its
    conditional.

    ``lambda_min_bound`` is a positive lower bound b on the eigenvalues of
    P; ``d`` is the envelope diagonal, a vector with P - diag(d) positive
    semidefinite, and defaults to the paper's scalar envelope b*1.  A
    collapsed spec has d_q = kappa_q, P_q - diag(d without q) positive
    semidefinite, and ``coupling`` = column q of Lambda."""

    lambda_min_bound: float
    p: int
    d: tuple[float, ...] | None = None
    collapsed: int | None = None
    coupling: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        d = (self.lambda_min_bound,) * self.p if self.d is None else self.d
        d = tuple(float(x) for x in d)
        if len(d) != self.p or not all(np.isfinite(x) and x >= 0.0 for x in d):
            raise ValueError(f"d must hold {self.p} finite values >= 0, got {d}")
        object.__setattr__(self, "d", d)
        q = self.collapsed
        if q is not None:
            column = tuple(float(x) for x in self.coupling)
            if not (self.p >= 2 and 0 <= q < self.p and len(column) == self.p and d[q] > 0.0):
                raise ValueError(f"collapsed = {q} needs 2 <= p, q < p, d_q > 0, p couplings")
            object.__setattr__(self, "coupling", column)

    @cached_property
    def _conditional(self) -> tuple[list[int], np.ndarray, float, float]:
        """The indices of the proposed coordinates, their couplings to the
        collapsed one, kappa_q and log I0(kappa_q) - kappa_q."""
        keep = [i for i in range(self.p) if i != self.collapsed]
        kappa_q = self.d[self.collapsed]
        return keep, np.asarray(self.coupling)[keep], kappa_q, float(_log_i0e(np.asarray(kappa_q)))

    @property
    def concentration(self) -> float:
        """The scalar bound b.  Kept, like :func:`sample_proposal_batch`,
        only for the benchmark's micro-timings; the sampler reads ``d``."""
        return self.lambda_min_bound

    @classmethod
    def from_params(
        cls, params: MvmParams, lambda_min: float | None = None
    ) -> "ProposalSpec":
        """Build a spec for ``params``.

        ``lambda_min`` may be any value in (0, min eigenvalue of P] and
        forces the scalar envelope d = lambda_min * 1.  A P that does not
        certify raises ``NotPositiveDefiniteError``.  By default b is the
        computed smallest eigenvalue minus ``ENVELOPE_SLACK`` times
        min(1, inf-norm of P); a P whose smallest eigenvalue does not exceed
        that slack raises ``ValueError``.  The envelope is the one of
        smallest log C among b*1 and the Jacobi-scaled t*diag(P), t the
        smallest eigenvalue of diag(P)^-1/2 P diag(P)^-1/2 minus
        ``ENVELOPE_SLACK``, and the same two on each P_q with q collapsed
        (p >= 2); see the module docstring for the order and
        ``TIE_LOG_GAIN``.  (At low concentration the larger sum of log d_i
        can be the worse choice: d = (0.2, 2, 2) beats (1, 1, 1).)  The spec
        returned has passed the
        envelope check; :func:`sample_blocks` and
        :func:`forecast_acceptance` build theirs here from the same
        ``lambda_min``."""
        return _resolve_spec(params, lambda_min)[0]


@dataclass(frozen=True)
class SampleBatch:
    """Accepted draws (rows, wrapped to [0, 2*pi)) plus trial accounting.
    ``trials`` is the number of proposals in the stream up to and
    including the one that gave the last draw.
    Rebuilding with the same parameters and seed reproduces the batch
    bit-for-bit."""

    draws: np.ndarray
    trials: int
    seed: int

    @property
    def n(self) -> int:
        return self.draws.shape[0]

    @property
    def empirical_acceptance(self) -> float:
        return self.n / self.trials


@dataclass(frozen=True)
class AcceptanceForecast:
    """Predicted acceptance rate of the envelope d = ``proposal_d`` (bound
    ``lambda_min_bound``, coordinate ``collapsed`` drawn from its
    conditional, or None): the high-concentration asymptote sqrt(prod(d) /
    |P|), and the exact rate Z/C with Z from quadrature (None above p = 4)."""

    asymptotic_rate: float
    exact_rate: float | None
    lambda_min_bound: float
    proposal_d: tuple[float, ...]
    collapsed: int | None


# ---------------------------------------------------------------------------
# generators


def _raw_proposals(spec: ProposalSpec, m: int, rng: np.random.Generator):
    """m proposal rows of the proposed coordinates (all but the collapsed
    one) in the mean-zero frame, on [-pi, pi]: one von Mises block."""
    d = np.asarray(spec.d)
    if spec.collapsed is not None:
        d = d[spec._conditional[0]]
    # a shared concentration takes numpy's faster scalar-kappa path; the
    # stream is the same either way
    kappa = d[0] if np.all(d == d[0]) else d
    return rng.vonmises(0.0, kappa, size=(m, len(d)))


def sample_proposal_batch(
    spec: ProposalSpec, p: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """m independent draws from the product of VM(0, d_i) over all p
    coordinates, wrapped to [0, 2*pi), shape (m, p); ``p`` must equal
    ``spec.p``.  For a collapsed spec the sampler does not draw this
    product.  The benchmark's micro-timings call this by name; remove it,
    and the ``p`` argument, with the next change to the benchmark."""
    if p != spec.p:
        raise ValueError(f"p = {p} does not match the proposal's p = {spec.p}")
    return wrap_angles(_raw_proposals(ProposalSpec(spec.lambda_min_bound, p, spec.d), m, rng))


def log_proposal_density(spec: ProposalSpec, thetas) -> np.ndarray:
    """log g at points with shape (..., p) in the mean-zero frame; for a
    collapsed spec, the product over the proposed coordinates times the
    conditional density of the collapsed one, the law the sampler draws."""
    thetas = np.asarray(thetas, dtype=float)
    d = np.asarray(spec.d)
    per_coord = d * (np.cos(thetas) - 1.0) - (np.log(TWO_PI) + _log_i0e(d))
    log_g = np.sum(per_coord, axis=-1)
    q = spec.collapsed
    if q is not None:
        # VM(atan2(b, kappa_q), r) at theta_q, over the VM(0, kappa_q) term
        # already in the sum; r - kappa_q = b^2 / (r + kappa_q)
        _, _, kappa_q, log_i0e_q = spec._conditional
        b = np.sin(thetas) @ np.asarray(spec.coupling)
        r = np.hypot(kappa_q, b)
        log_g += b * (np.sin(thetas[..., q]) - b / (r + kappa_q)) - _log_i0e(r) + log_i0e_q
    return log_g


def log_envelope_constant(params: MvmParams, spec: ProposalSpec) -> float:
    """log C = sum(kappa) - sum(d) + sum_i log(2 pi I0(d_i)) for the bound
    exp(f) <= C g (d_q = kappa_q for a collapsed spec)."""
    return float(
        np.sum(params.kappa) + np.sum(np.log(TWO_PI) + _log_i0e(np.asarray(spec.d)))
    )


def _exponent(params: MvmParams, spec: ProposalSpec, t):
    """(log acceptance probability, b_q, r_q) at the angles t (shape (...,
    m)) of the proposed coordinates in the mean-zero frame; b_q and r_q are
    None for an uncollapsed spec.  The exponent is <= 0 when the envelope
    bounds f, and a value above 1e-12 raises ``BoundViolationError``."""
    s = np.sin(t)
    weights = params.kappa - np.asarray(spec.d)
    if spec.collapsed is None:
        log_acc = (np.cos(t) - 1.0) @ weights + _half_quadratic(params.lam, s)
        b = r = None
    else:
        keep, column, kappa_q, log_i0e_q = spec._conditional
        b = s @ column
        r = np.hypot(kappa_q, b)
        # c - 1 = -2 sin^2(t/2): cos(t) - 1 rounds to 0 below |t| = 1e-8,
        # where the Bessel term b^2 A / (2 kappa_q) still counts at large kappa
        half = np.sin(0.5 * t)
        log_acc = (-2.0 * half * half) @ weights[keep]
        log_acc += _half_quadratic(params.lam[keep][:, keep], s)
        # log I0(r) - log I0(kappa_q), with r - kappa_q = b^2 / (r + kappa_q)
        log_acc += _log_i0e(r) - log_i0e_q + b * (b / (r + kappa_q))
    if np.any(log_acc > 1e-12):
        raise BoundViolationError(
            f"acceptance exponent {np.max(log_acc):.6g} is positive: envelope "
            f"d = {spec.d} (collapsed {spec.collapsed}) is not below P"
        )
    return log_acc, b, r


def _log_acceptance(params: MvmParams, spec: ProposalSpec, c, s) -> np.ndarray:
    """log acceptance probability from cos and sin of all p coordinates
    (shape (..., p)) in the mean-zero frame; a collapsed coordinate's
    column is not read.  See ``_exponent``."""
    t = np.arctan2(s, c)
    return _exponent(params, spec, t if spec.collapsed is None else t[..., spec._conditional[0]])[0]


def acceptance_probability(params: MvmParams, spec: ProposalSpec, theta) -> float:
    """Probability of accepting proposal ``theta``,
    exp(sum (kappa_i - d_i)(c_i - 1) + 0.5 s^T Lambda s) clamped to <= 1,
    over the proposed coordinates and plus log I0(r_q) - log I0(kappa_q)
    for a collapsed spec; an exponent above 1e-12 raises
    ``BoundViolationError``."""
    theta = as_torus_point(theta)
    if theta.p != params.p:
        raise DimensionMismatchError(f"theta has length {theta.p}, expected p={params.p}")
    delta = theta.angles - params.mu.angles
    if spec.collapsed is not None:
        delta = delta[spec._conditional[0]]
    return min(float(np.exp(_exponent(params, spec, delta)[0])), 1.0)


# ---------------------------------------------------------------------------
# rejection sampler


def _sample_block(
    params: MvmParams, spec: ProposalSpec, seed_seq: np.random.SeedSequence
) -> tuple[np.ndarray, np.ndarray]:
    """One block of the proposal stream: ``BLOCK_SIZE`` von Mises rows,
    then ``BLOCK_SIZE`` uniforms, then, for a collapsed spec, the
    conditional draws of the accepted rows, from ``PCG64(seed_seq)``;
    returns the accepted rows, in the mean-zero frame, and their indices in
    the block."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    props = _raw_proposals(spec, BLOCK_SIZE, rng)
    log_acc, b, r = _exponent(params, spec, props)
    hits = np.flatnonzero(rng.random(BLOCK_SIZE) <= np.exp(log_acc))
    if b is None:
        return props[hits], hits
    keep, _, kappa_q, _ = spec._conditional
    # padded to a multiple of 256: at most 8 lengths (module docstring)
    n_hits = len(hits)
    concentration = np.full(-(-n_hits // 256) * 256, kappa_q)
    concentration[:n_hits] = r[hits]
    theta_q = rng.vonmises(0.0, concentration)[:n_hits]
    # the mean m* = atan2(b, kappa_q) from sin and cos, which the block has
    # loaded already: Newton on sin(m - m*) = cos m* sin m - sin m* cos m
    # takes an error e to e^3 / 3, here from under 0.01 at m = 2t / (1 +
    # 0.28 t^2), t = tan(m*/2)
    cos_q, sin_q = kappa_q / r[hits], b[hits] / r[hits]
    t = sin_q / (1.0 + cos_q)
    m = 2.0 * t / (1.0 + 0.28 * t * t)
    for _ in range(2):
        sin_m, cos_m = np.sin(m), np.cos(m)
        m -= (cos_q * sin_m - sin_q * cos_m) / (cos_q * cos_m + sin_q * sin_m)
    rows = np.empty((len(hits), spec.p))
    rows[:, keep] = props[hits]
    rows[:, spec.collapsed] = theta_q + m
    return rows, hits


def _diagonal(matrix: np.ndarray, bound: float) -> np.ndarray:
    """bound*1 for a positive definite ``matrix`` whose eigenvalues are at
    least ``bound`` > 0, or the Jacobi-scaled t*diag(matrix) where that
    lowers log C by more than ``TIE_LOG_GAIN`` per coordinate."""
    m = len(matrix)
    # None only for a subnormal diagonal entry; the scalar is kept then
    scaled = spectral._jacobi_scaled(matrix)
    t = -1.0 if scaled is None else spectral._eigh(scaled, vectors=False)[0] - ENVELOPE_SLACK
    if t > 0.0:
        jacobi = t * np.diag(matrix)
        # log C = sum(kappa) + sum(log 2 pi + _log_i0e(d))
        if m * _log_i0e(np.asarray(bound)) - np.sum(_log_i0e(jacobi)) > m * TIE_LOG_GAIN:
            return tuple(jacobi)
    return (bound,) * m


def _collapsed_matrix(p_matrix: np.ndarray, column: np.ndarray, q: int) -> np.ndarray:
    """P_q for ``column`` = column q of Lambda.  Each factor of the outer
    product carries sqrt(A/kappa_q), which keeps it below sqrt(kappa_i) for
    a positive definite P, so nothing overflows."""
    keep = [i for i in range(len(p_matrix)) if i != q]
    scaled = math.sqrt(_slope(p_matrix[q, q])) * column[keep]
    return p_matrix[keep][:, keep] - np.outer(scaled, scaled)


def _resolve_spec(
    params: MvmParams, lambda_min: float | None = None
) -> tuple[ProposalSpec, np.ndarray]:
    """The spec that :meth:`ProposalSpec.from_params` describes, built and
    checked, and the eigenvalues of P, ascending (the smallest may be <= 0
    on a nearly singular P).

    P must certify (``spectral.certify_unimodal``), else
    ``NotPositiveDefiniteError``.  The spec must have 0 < b <=
    lambda_min(P), and P - diag(d), or P_q - diag(d without q) for a
    collapsed spec, must pass the Cholesky test at -ENVELOPE_SLACK *
    max(1, inf-norm of P), which absorbs the rounding of the eigen-solver
    that built d."""
    cert = spectral.certify_unimodal(params)
    p_matrix, eigenvalues = cert.p_matrix, cert.p_eigenvalues
    smallest = float(eigenvalues[0])
    if not cert.prop1_holds:
        raise NotPositiveDefiniteError(
            "P is not certified positive definite (computed smallest eigenvalue "
            f"{smallest:.6g}); see spectral.certify_unimodal"
        )
    norm = float(spectral.norm_inf(p_matrix))
    bound, d, collapsed = lambda_min, None, None
    if lambda_min is None:
        slack = ENVELOPE_SLACK * min(1.0, norm)
        bound = smallest - slack
        if bound <= 0.0:
            raise ValueError(
                f"lambda_min(P) = {smallest:.6g} does not exceed the envelope "
                f"slack {slack:.6g}: P is too close to singular to sample"
            )
        d = _diagonal(p_matrix, bound)
        best = np.sum(_log_i0e(np.asarray(d)))
        # p - 1 = 0 proposed coordinates would leave no envelope
        for q in range(params.p if params.p >= 2 else 0):
            p_q = _collapsed_matrix(p_matrix, params.lam[:, q], q)
            slack = ENVELOPE_SLACK * min(1.0, float(spectral.norm_inf(p_q)))
            bound_q = spectral._eigh(p_q, vectors=False)[0] - slack
            if bound_q > 0.0:
                sub = _diagonal(p_q, bound_q)
                candidate = sub[:q] + (params.kappa[q],) + sub[q:]
                log_sum = np.sum(_log_i0e(np.asarray(candidate)))
                if best - log_sum > params.p * TIE_LOG_GAIN:
                    d, best, collapsed = candidate, log_sum, q
    if not 0.0 < bound <= smallest:
        raise ValueError(f"lambda_min bound must lie in (0, {smallest:.6g}], got {bound:.6g}")
    column = None if collapsed is None else params.lam[:, collapsed]
    spec = ProposalSpec(float(bound), params.p, d, collapsed, column)
    gap, kept = p_matrix, np.asarray(spec.d)
    if collapsed is not None:
        gap, kept = _collapsed_matrix(p_matrix, column, collapsed), kept[spec._conditional[0]]
    tol = -ENVELOPE_SLACK * max(1.0, norm)
    if not spectral.is_positive_definite(gap - np.diag(kept), tol=tol):
        raise ValueError(
            f"spec envelope d = {spec.d} does not bound these parameters: "
            "P - diag(d) is not positive semidefinite"
        )
    return spec, eigenvalues


def sample_blocks(
    params: MvmParams,
    n: int,
    lambda_min: float | None = None,
    seed: int = 0,
    workers: int = 1,
) -> Iterator[tuple[np.ndarray, int]]:
    """n exact draws from MVM(mu, kappa, Lambda), one block at a time;
    requires positive definite P.

    The envelope is built and checked by :meth:`ProposalSpec.from_params`
    from ``lambda_min``, and then the other arguments are checked, before
    this returns.  The iterator then yields ``(draws, trials)`` for each
    block of ``BLOCK_SIZE`` proposals (see the module docstring), in order,
    up to the block that holds draw n: its accepted draws, shifted by mu
    and wrapped to [0, 2*pi), in pieces of at most ``PIECE_ROWS`` rows (one
    empty piece for a block with none), the first piece with the block's
    proposals, the last block's only up to and including the one that gave
    draw n, and the others with 0.  ``workers`` > 1 runs up to
    that many blocks (and ``os.cpu_count()``) at once and never changes
    the output.  A run whose trials exceed ``STALL_FACTOR`` * (draws + 1)
    raises ``AcceptanceStallError``.
    """
    return _blocks(params, ProposalSpec.from_params(params, lambda_min), n, seed, workers)


def _blocks(params: MvmParams, spec: ProposalSpec, n: int, seed: int, workers: int):
    """:func:`sample_blocks` for a ``spec`` that ``from_params`` built."""
    if n <= 0:
        raise ValueError(f"n must be >= 1, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    workers = min(workers, os.cpu_count() or 1)
    root = np.random.SeedSequence(seed)

    def block(i: int):
        # the i-th child that root.spawn() would give, built from its key alone
        child = np.random.SeedSequence(root.entropy, spawn_key=(i,), pool_size=root.pool_size)
        return _sample_block(params, spec, child)

    stream = (block(i) for i in count()) if workers == 1 else _in_flight(block, workers)
    return _first_draws(stream, params.mu.angles, n)


def _first_draws(stream, mu: np.ndarray, n: int):
    """The first n draws of the block ``stream``, shifted by ``mu``, one
    block at a time in pieces of at most ``PIECE_ROWS`` rows, the first
    with the block's trials; closing ``stream`` when it ends cancels the
    blocks started past draw n."""
    draws = trials = 0
    try:
        for rows, hits in stream:
            rows, hits = rows[: n - draws], hits[: n - draws]
            draws += len(rows)
            # the last block counts its proposals up to the one that gave draw n
            block_trials = int(hits[-1]) + 1 if draws == n else BLOCK_SIZE
            trials += block_trials
            rows = wrap_angles(rows + mu)
            for start in range(0, max(len(rows), 1), PIECE_ROWS):
                yield rows[start : start + PIECE_ROWS], 0 if start else block_trials
            if draws == n:
                return
            if trials > STALL_FACTOR * (draws + 1):
                raise AcceptanceStallError(f"{trials} proposals produced only {draws}/{n} draws")
    finally:
        stream.close()


def _in_flight(block, workers: int):
    """``block(i)`` for i = 0, 1, 2, ..., in order, with at most ``workers``
    blocks submitted and not yet consumed; closing the iterator cancels the
    ones not started."""
    # imported here so that runs without worker threads never load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(block, i) for i in range(workers))
        try:
            for i in count(workers):
                yield pending.popleft().result()
                pending.append(pool.submit(block, i))
        finally:
            for future in pending:
                future.cancel()


def sample_mvm(
    params: MvmParams,
    n: int,
    lambda_min: float | None = None,
    seed: int = 0,
    workers: int = 1,
) -> SampleBatch:
    """n exact draws from MVM(mu, kappa, Lambda) in one batch; requires
    positive definite P.  The blocks of :func:`sample_blocks`, written in
    order into one preallocated (n, p) array, with their trials summed."""
    draws = np.empty((n, params.p))
    got = trials = 0
    for block, block_trials in sample_blocks(params, n, lambda_min, seed, workers):
        draws[got : got + len(block)] = block
        got += len(block)
        trials += block_trials
    return SampleBatch(draws=draws, trials=trials, seed=seed)


def forecast_acceptance(
    params: MvmParams,
    lambda_min: float | None = None,
    n_per_dim: int | None = None,
) -> AcceptanceForecast:
    """Predict the acceptance rate of :func:`sample_mvm` with the same
    ``lambda_min``, whose envelope is built and checked as there, and
    report its b and d.

    The asymptotic rate is exact in the high-concentration limit; the
    exact rate integrates the density by quadrature with ``n_per_dim``
    nodes (at least 16, checked at every p), and is computed wherever
    ``oracle._node_count`` gives a node count (p <= 4; None above).  An
    exact rate above 1 + ``EXACT_RATE_TOL`` means the grid missed the
    peak, and raises ``ValueError``.
    """
    # imported here so that sampling alone never loads the quadrature
    from . import oracle

    spec, eigenvalues = _resolve_spec(params, lambda_min)
    # in log space: prod(d) and |P| both underflow for tiny kappa
    with np.errstate(divide="ignore"):
        log_ratio = np.sum(np.log(spec.d)) - np.sum(np.log(eigenvalues))
    asymptotic = float(np.exp(0.5 * log_ratio))
    exact = None
    n = oracle._node_count(params.p, n_per_dim)
    if n is not None:
        log_z = oracle.log_partition(params, n)
        exact = float(np.exp(log_z - log_envelope_constant(params, spec)))
        if exact > 1.0 + EXACT_RATE_TOL:
            raise ValueError(
                f"quadrature failed: exact acceptance rate {exact:.6g} exceeds 1, "
                f"so {n} nodes per dimension miss the density peak; "
                "raise n_per_dim (--n-per-dim)"
            )
    return AcceptanceForecast(asymptotic, exact, spec.lambda_min_bound, spec.d, spec.collapsed)
