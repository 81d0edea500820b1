"""Exact rejection sampling for the multivariate von Mises distribution in
the regime where ``spectral.certify_unimodal`` certifies P positive definite;
the computed lambda_min(P) only sizes the envelope.

Proposal: coordinate i independently follows the von Mises density

    g_i(t) = exp(d_i cos t) / (2 pi I0(d_i)),

where d >= 0 is a vector with P - diag(d) positive semidefinite (which
implies d_i <= kappa_i); a draw is one numpy von Mises variate VM(0, d_i).
Above d_i = 1e6 numpy draws a wrapped normal with variance 1/d_i instead,
which differs from VM(0, d_i) by O(1/d_i).
The paper's inequality kappa_i (c_i - 1) <= -kappa_i s_i^2 / 2, applied
only to the kappa - d part of kappa, gives

    sum (kappa_i - d_i)(c_i - 1) + s^T Lambda s / 2 <= -s^T (P - diag(d)) s / 2 <= 0,

so exp(f) <= exp(sum(kappa) - sum(d)) prod_i exp(d_i c_i) = C g with

    log C = sum(kappa) - sum(d) + sum_i log(2 pi I0(d_i)),

and accepting a proposal theta with probability
exp(sum (kappa_i - d_i)(c_i - 1) + 0.5 s^T Lambda s) yields exact draws;
accepted proposals are shifted by mu on output.  ``_log_acceptance`` forms
that exponent and is the one run-time test of the envelope; ``_log_i0e``,
log I0(x) - x, is the one Bessel routine.  In the high-concentration
limit the acceptance rate tends to sqrt(prod(d) / |P|) <= 1, with equality
only when Lambda = 0.

The source paper bounds f with the same condition on d but proposes from
the doubled-angle density exp(-d_i sin^2(t) / 2), which puts a copy of the
mode at the antipode.  Because d (c - 1) <= -d s^2 / 2, the envelope here
lies pointwise below that one, so its log C is smaller for every d.

The source paper uses d = b*1 with b a lower bound on the eigenvalues of
P.  :meth:`ProposalSpec.from_params` also tries the Jacobi-scaled
d = t*diag(P), t = lambda_min(diag(P)^-1/2 P diag(P)^-1/2), and keeps the
one with the smaller log C; with a constant diagonal the two coincide and
the scalar is kept.

Reproducibility contract: the proposal stream is cut into blocks of
``BLOCK_SIZE`` = 2048 proposals.  Block i draws from its own generator, the
i-th child of ``SeedSequence(seed).spawn()``, worked out from i when the
block starts, and consumes, in order, (1) one von Mises block of 2048 x p
rows, (2) 2048 uniforms; a proposal is accepted when its uniform is at
most its acceptance probability.  A run of n draws keeps the first n
accepted proposals of the stream, in order, and ends with the block that
holds draw n.  Worker threads only run whole blocks, at most ``workers``
(and the CPU count) of them in flight: the next is submitted only when the
consumer asks for another, and pending blocks are cancelled once draw n
is found or the consumer stops early.  So output is bit-identical for a
fixed seed whatever the worker count, the draws of n are the first n rows
of any longer run, and memory is O(``BLOCK_SIZE`` * p * workers) whatever
n is.

The error types are defined in :mod:`mvmtorus.model` and re-exported here.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
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
#: stall guard: a run raises ``AcceptanceStallError`` once its trials exceed
#: STALL_FACTOR * (draws + 1), checked after each block, so a run with no
#: draw stops within STALL_FACTOR + BLOCK_SIZE proposals whatever n is
STALL_FACTOR = 1e6
#: slack subtracted from computed eigenvalues when building an envelope,
#: so eigen-solver rounding cannot push diag(d) past P; scaled by
#: min(1, inf-norm of P) so a P with tiny entries keeps a positive bound
ENVELOPE_SLACK = 1e-12
#: per-coordinate drop in log C below which the Jacobi envelope counts as
#: a tie with the scalar one (a constant diagonal gives the scalar back up
#: to rounding) and the scalar is kept
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
    small = np.minimum(x, LOG_I0_SWITCH)
    big = np.maximum(x, LOG_I0_SWITCH)
    inv = 1.0 / big
    series = inv * (1 / 8 + inv * (9 / 128 + inv * (225 / 3072 + inv * 11025 / 98304)))
    large = np.log1p(series) - 0.5 * np.log(TWO_PI * big)
    return np.where(x <= LOG_I0_SWITCH, np.log(np.i0(small)) - small, large)


@dataclass(frozen=True)
class ProposalSpec:
    """Product of von Mises proposals with per-coordinate concentrations
    d_i.

    ``lambda_min_bound`` is a positive lower bound b on the eigenvalues of
    P; ``d`` is the envelope diagonal, a vector with P - diag(d) positive
    semidefinite, and defaults to the paper's scalar envelope b*1."""

    lambda_min_bound: float
    p: int
    d: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        d = (self.lambda_min_bound,) * self.p if self.d is None else self.d
        d = tuple(float(x) for x in d)
        if len(d) != self.p or not all(np.isfinite(x) and x >= 0.0 for x in d):
            raise ValueError(f"d must hold {self.p} finite values >= 0, got {d}")
        object.__setattr__(self, "d", d)

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
        that slack raises ``ValueError``.  d is the
        better (smaller log C) of b*1 and the Jacobi-scaled t*diag(P),
        where t is the smallest eigenvalue of diag(P)^-1/2 P diag(P)^-1/2
        minus ``ENVELOPE_SLACK``.  A drop in log C of at most
        ``TIE_LOG_GAIN`` per coordinate keeps the scalar.  (At low
        concentration the larger sum of log d_i can be the worse choice:
        d = (0.2, 2, 2) beats (1, 1, 1).)  The spec returned has passed the
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
    ``lambda_min_bound``): the high-concentration asymptote sqrt(prod(d) /
    |P|), and the exact rate Z/C with Z from quadrature (None above p = 4)."""

    asymptotic_rate: float
    exact_rate: float | None
    lambda_min_bound: float
    proposal_d: tuple[float, ...]


# ---------------------------------------------------------------------------
# generators


def _raw_proposals(spec: ProposalSpec, m: int, rng: np.random.Generator):
    """m proposal rows in the mean-zero frame, on [-pi, pi]: one von Mises
    block."""
    d = np.asarray(spec.d)
    # a shared concentration takes numpy's faster scalar-kappa path; the
    # stream is the same either way
    kappa = d[0] if np.all(d == d[0]) else d
    return rng.vonmises(0.0, kappa, size=(m, spec.p))


def sample_proposal_batch(
    spec: ProposalSpec, p: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """m independent draws from the proposal density g, wrapped to
    [0, 2*pi), shape (m, p); ``p`` must equal ``spec.p``.  The benchmark's
    micro-timings call this by name; remove it, and the ``p`` argument,
    with the next change to the benchmark."""
    if p != spec.p:
        raise ValueError(f"p = {p} does not match the proposal's p = {spec.p}")
    return wrap_angles(_raw_proposals(spec, m, rng))


def log_proposal_density(spec: ProposalSpec, thetas) -> np.ndarray:
    """log g at points with shape (..., p) in the mean-zero frame."""
    thetas = np.asarray(thetas, dtype=float)
    d = np.asarray(spec.d)
    per_coord = d * (np.cos(thetas) - 1.0) - (np.log(TWO_PI) + _log_i0e(d))
    return np.sum(per_coord, axis=-1)


def log_envelope_constant(params: MvmParams, spec: ProposalSpec) -> float:
    """log C = sum(kappa) - sum(d) + sum_i log(2 pi I0(d_i)) for the bound
    exp(f) <= C g."""
    return float(
        np.sum(params.kappa) + np.sum(np.log(TWO_PI) + _log_i0e(np.asarray(spec.d)))
    )


def _log_acceptance(params: MvmParams, spec: ProposalSpec, c, s) -> np.ndarray:
    """log acceptance probability from cos and sin (shape (..., p)) in the
    mean-zero frame; <= 0 when P - diag(d) is positive semidefinite, and a
    value above 1e-12 raises ``BoundViolationError``."""
    log_acc = (c - 1.0) @ (params.kappa - np.asarray(spec.d)) + _half_quadratic(params.lam, s)
    if np.any(log_acc > 1e-12):
        raise BoundViolationError(
            f"acceptance exponent {np.max(log_acc):.6g} is positive: envelope "
            f"d = {spec.d} is not below P"
        )
    return log_acc


def acceptance_probability(params: MvmParams, spec: ProposalSpec, theta) -> float:
    """Probability of accepting proposal ``theta``,
    exp(sum (kappa_i - d_i)(c_i - 1) + 0.5 s^T Lambda s) clamped to <= 1; an
    exponent above 1e-12 raises ``BoundViolationError``."""
    theta = as_torus_point(theta)
    if theta.p != params.p:
        raise DimensionMismatchError(f"theta has length {theta.p}, expected p={params.p}")
    delta = theta.angles - params.mu.angles
    log_acc = _log_acceptance(params, spec, np.cos(delta), np.sin(delta))
    return min(float(np.exp(log_acc)), 1.0)


# ---------------------------------------------------------------------------
# rejection sampler


def _sample_block(
    params: MvmParams, spec: ProposalSpec, seed_seq: np.random.SeedSequence
) -> tuple[np.ndarray, np.ndarray]:
    """One block of the proposal stream: ``BLOCK_SIZE`` von Mises rows,
    then ``BLOCK_SIZE`` uniforms, from ``PCG64(seed_seq)``; returns the
    accepted rows, in the mean-zero frame, and their indices in the block."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    props = _raw_proposals(spec, BLOCK_SIZE, rng)
    log_acc = _log_acceptance(params, spec, np.cos(props), np.sin(props))
    hits = np.flatnonzero(rng.random(BLOCK_SIZE) <= np.exp(log_acc))
    return props[hits], hits


def _resolve_spec(
    params: MvmParams, lambda_min: float | None = None
) -> tuple[ProposalSpec, np.ndarray]:
    """The spec that :meth:`ProposalSpec.from_params` describes, built and
    checked, and the eigenvalues of P, ascending (the smallest may be <= 0
    on a nearly singular P).

    P must certify (``spectral.certify_unimodal``), else
    ``NotPositiveDefiniteError``.  The spec must have 0 < b <=
    lambda_min(P), and P - diag(d) must pass the Cholesky test at
    -ENVELOPE_SLACK * max(1, inf-norm of P), which absorbs the rounding of
    the eigen-solver that built d."""
    cert = spectral.certify_unimodal(params)
    p_matrix, eigenvalues = cert.p_matrix, cert.p_eigenvalues
    smallest = float(eigenvalues[0])
    if not cert.prop1_holds:
        raise NotPositiveDefiniteError(
            "P is not certified positive definite (computed smallest eigenvalue "
            f"{smallest:.6g}); see spectral.certify_unimodal"
        )
    norm = float(spectral.norm_inf(p_matrix))
    bound, d = lambda_min, None
    if lambda_min is None:
        slack = ENVELOPE_SLACK * min(1.0, norm)
        bound = smallest - slack
        if bound <= 0.0:
            raise ValueError(
                f"lambda_min(P) = {smallest:.6g} does not exceed the envelope "
                f"slack {slack:.6g}: P is too close to singular to sample"
            )
        # None only for a subnormal diagonal entry; the scalar is kept then
        scaled = spectral._jacobi_scaled(p_matrix)
        t = -1.0 if scaled is None else spectral._eigh(scaled, vectors=False)[0] - ENVELOPE_SLACK
        if t > 0.0:
            jacobi = t * np.diag(p_matrix)
            # log C = sum(kappa) + sum(log 2 pi + _log_i0e(d))
            gain = params.p * _log_i0e(np.asarray(bound)) - np.sum(_log_i0e(jacobi))
            if gain > params.p * TIE_LOG_GAIN:
                d = tuple(jacobi)
    if not 0.0 < bound <= smallest:
        raise ValueError(f"lambda_min bound must lie in (0, {smallest:.6g}], got {bound:.6g}")
    spec = ProposalSpec(lambda_min_bound=float(bound), p=params.p, d=d)
    tol = -ENVELOPE_SLACK * max(1.0, norm)
    if not spectral.is_positive_definite(p_matrix - np.diag(spec.d), tol=tol):
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
    this returns.  The iterator then yields ``(draws, trials)`` per block
    of ``BLOCK_SIZE`` proposals (see the module docstring), in order, up to
    the block that holds draw n: its accepted draws, shifted by mu and
    wrapped to [0, 2*pi), and its proposals, the last block's only up to
    and including the one that gave draw n.  ``workers`` > 1 runs up to
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
    block at a time with its trials; closing ``stream`` when it ends
    cancels the blocks started past draw n."""
    draws = trials = 0
    try:
        for rows, hits in stream:
            rows, hits = rows[: n - draws], hits[: n - draws]
            draws += len(rows)
            # the last block counts its proposals up to the one that gave draw n
            block_trials = int(hits[-1]) + 1 if draws == n else BLOCK_SIZE
            trials += block_trials
            yield wrap_angles(rows + mu), block_trials
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
    return AcceptanceForecast(asymptotic, exact, spec.lambda_min_bound, spec.d)
