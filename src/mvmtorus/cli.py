"""Command-line front-end.

Subcommands: ``certify``, ``modes``, ``sample``, ``forecast``, ``cube``,
``grid``.  Parameters are read from a JSON file.  Every finished run
(exit 0 or 2) leaves exactly one run record, the manifest: command,
version, seed, resolved configuration (parameters under ``params``) and
wall time, plus ``trials`` and ``empirical_acceptance`` for ``sample``.
With the seed it records, any run can be replayed bit-for-bit.  All six
commands place their output by one rule:

* ``--json``: stdout gets the payload ``{"manifest": ..., <body>}``, and
  so does ``--out`` when given;
* otherwise ``certify``, ``modes`` and ``forecast`` print a text summary
  (``--out`` gets the payload), and ``sample``, ``cube`` and ``grid``
  write CSV to ``--out`` or stdout;
* when no payload is written anywhere, the manifest goes to
  ``<out>.manifest.json`` beside the CSV, or as one JSON line on stderr.

The body is ``certificate`` for ``certify``, ``report`` for ``modes`` and
``forecast`` for ``forecast``: each is its report object's fields in
declaration order, converted by :func:`_plain`.  ``cube`` gives ``vertices``,
``best_vertices`` and ``top_eigenvalue``, ``grid`` gives ``values`` and
``sample`` gives ``draws``.

The record is formatted after the payload or CSV is produced, so it can
count what was produced (``sample`` streams its CSV block by block and
learns ``trials`` only at the end) and its ``wall_time_s`` includes the
writing.

Exit codes: 0 success / certified, 1 input error (usage errors included),
2 inconclusive certification, 3 sampler precondition failure (P not
positive definite, or the envelope fails at run time: an acceptance
exponent above 0 or a stalled rejection loop).  An output path that
cannot be written is an input error, as are two of ``--params``, ``--out``,
``<out>.manifest.json`` and ``--criticals-csv`` that name one file.  Runs
that exit 1 or 3 write no record and no file: what a run wrote before it
failed is removed (CSV rows already printed on stdout stay).

Each command imports the modules it uses when it runs (``spectral`` for
``certify``, ``modes`` for ``modes``, ``sampler`` for ``sample`` and
``forecast``, ``oracle`` for ``cube``, ``grid`` and, through ``sampler``,
``forecast``), so a run does not pay to load the others.  The sampler's
errors come from :mod:`mvmtorus.model`; it refuses P (exit 3) exactly where
``certify`` does not certify, since both run
:func:`mvmtorus.spectral.certify_unimodal`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import TYPE_CHECKING, TextIO

import numpy as np

from . import __version__
from .model import (
    AcceptanceStallError,
    BoundViolationError,
    MvmParams,
    NotPositiveDefiniteError,
    TorusPoint,
)

if TYPE_CHECKING:
    from . import modes

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_SAMPLER_PRECONDITION = 3

#: coupling matrix of the six-mode benchmark family used by the ``eta``
#: parameter-file key (kappa = sin(eta) * 1 breaks its flat ring of maxima
#: into six isolated modes)
RING_COUPLING = ((0.0, -1.0, 1.0), (-1.0, 0.0, 1.0), (1.0, 1.0, 0.0))


#: what a JSON value that is not a number is, by its Python type, in the
#: singular and the plural (true and false load as Python ints)
_NOT_NUMBERS = {
    bool: ("a boolean", "booleans"),
    str: ("a string", "strings"),
    list: ("an array", "arrays"),
    dict: ("an object", "objects"),
    type(None): ("null", "nulls"),
}


def _as_float(value, key: str, plural: bool = False) -> float:
    """``value`` as a float if it is a JSON number, else a ValueError that
    names ``key``; ``plural`` words it for a member of an array."""
    if type(value) in _NOT_NUMBERS:
        what = "contain numbers" if plural else "be a number"
        raise ValueError(f"field '{key}' must {what}, not {_NOT_NUMBERS[type(value)][plural]}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"field '{key}': {exc}") from None


def _as_float_list(value, key: str, length: int | None = None) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"field '{key}' must be an array")
    out = [_as_float(v, key, plural=True) for v in value]
    if length is not None and len(out) != length:
        raise ValueError(f"field '{key}' must have length {length}, got {len(out)}")
    return out


def load_param_file(path: str, degrees: bool = False) -> tuple[MvmParams, int | None]:
    """Parse a parameter file into (MvmParams, optional seed).

    Keys: ``p`` (optional, checked), ``mu`` (optional, default 0),
    ``kappa``, ``lambda``, ``seed`` (optional), or the convenience key
    ``eta`` which expands to the six-mode benchmark family (p=3,
    kappa = sin(eta) * 1, the fixed ring coupling), then parsed as those
    fields.  With ``degrees`` the angular fields (mu, eta) are converted on
    ingestion.  Every problem with the file, the checks of
    :class:`MvmParams` included, raises ``ValueError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read parameter file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ValueError("parameter file must contain a JSON object")

    known = {"p", "mu", "kappa", "lambda", "seed", "eta"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown field(s): {', '.join(unknown)}")

    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise ValueError("field 'seed' must be a non-negative integer")
    for key in ("p", "eta"):
        if key in doc:
            _as_float(doc[key], key)

    if "eta" in doc:
        if "kappa" in doc or "lambda" in doc:
            raise ValueError("field 'eta' replaces 'kappa' and 'lambda'")
        if doc.get("p", 3) != 3:
            raise ValueError("field 'eta' implies p=3")
        eta = float(doc["eta"])
        if not np.isfinite(eta):
            raise ValueError(f"field 'eta' must be finite, got {eta}")
        kappa = float(np.sin(np.deg2rad(eta) if degrees else eta))
        doc = {**doc, "kappa": [kappa] * 3, "lambda": RING_COUPLING}

    if "kappa" not in doc:
        raise ValueError("missing required field 'kappa'")
    if "lambda" not in doc:
        raise ValueError("missing required field 'lambda'")
    kappa = _as_float_list(doc["kappa"], "kappa")
    p = len(kappa)
    if not p:
        raise ValueError("field 'kappa' must hold at least one number")
    if "p" in doc and doc["p"] != p:
        raise ValueError(f"field 'p' = {doc['p']} but 'kappa' has length {p}")
    lam_doc = doc["lambda"]
    if not isinstance(lam_doc, (list, tuple)) or len(lam_doc) != p:
        raise ValueError(f"field 'lambda' must be a {p}x{p} array of arrays")
    lam = [_as_float_list(row, f"lambda[{i}]", p) for i, row in enumerate(lam_doc)]
    mu = _as_float_list(doc.get("mu", [0.0] * p), "mu", p)
    if degrees:
        mu = list(np.deg2rad(mu))
    params = MvmParams(mu=np.asarray(mu), kappa=np.asarray(kappa), lam=np.asarray(lam))
    return params, seed


# ---------------------------------------------------------------------------
# serialization helpers


def _plain(value):
    """A report object as JSON data: a ``TorusPoint`` as its angle list,
    another dataclass as a dict of its fields in declaration order, a list
    or tuple item by item, an ``Enum`` as its value and a numpy array or
    scalar by ``tolist()``.  So the ``certify``, ``modes`` and ``forecast``
    bodies are their report objects' fields, and a field added there
    reaches ``--json`` unchanged."""
    if isinstance(value, TorusPoint):
        return value.angles.tolist()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _json_text(doc: dict) -> str:
    """Indented standard JSON; a NaN or infinity raises ``ValueError``
    before anything is written."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# the run record


@dataclass(frozen=True)
class _Run:
    """What one command computed, for :func:`_emit` to place: the resolved
    config beside ``params``, a payload body and a text summary, each built
    only when written, or a CSV writer, extra files (flag, path and writer), the
    seed (None if nothing is drawn), extra manifest fields (read once the
    payload or CSV is produced) and the exit code."""

    config: dict
    body: Callable[[], dict]
    text: Callable[[], str] = str
    csv: Callable[[TextIO], None] | None = None
    files: tuple[tuple[str, str, Callable[[TextIO], None]], ...] = ()
    seed: int | None = None
    extras: Callable[[], dict] = dict
    code: int = EXIT_OK


def _emit(args, params: MvmParams, run: _Run, started: float) -> int:
    """Write the outputs of ``run`` and then its one record by the rule in
    the module docstring; return the run's exit code.  Paths that name one
    file are rejected before anything is written.  If anything fails,
    formatting the record included, every file opened so far is removed,
    the one whose writer raised (say, a grid too large to allocate)
    among them."""

    def record() -> dict:
        params_doc = {
            "p": params.p,
            "mu": params.mu.angles.tolist(),
            "kappa": params.kappa.tolist(),
            "lambda": params.lam.tolist(),
        }
        return {
            "command": args.command,
            "version": __version__,
            "seed": run.seed,
            "config": {"params": params_doc, **run.config},
            "wall_time_s": time.perf_counter() - started,
            **run.extras(),
        }

    manifest = bool(args.out) and not args.json and run.csv is not None
    named = [("--params", args.params), *((flag, path) for flag, path, _ in run.files)]
    if args.out:
        named.append(("--out", args.out))
    if manifest:
        named.append(("the manifest beside --out", args.out + ".manifest.json"))
    seen: dict[str, str] = {}
    for flag, path in named:
        first = seen.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ValueError(f"{first} and {flag} name the same file: {path}")

    written = []

    def write(path: str, writer: Callable[[TextIO], None]) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            written.append(path)
            writer(fh)

    try:
        for _, path, writer in run.files:
            write(path, writer)
        if manifest:
            write(args.out, run.csv)
            text = _json_text(record())
            write(args.out + ".manifest.json", lambda fh: fh.write(text))
        elif args.json or args.out:
            body = run.body()
            payload = _json_text({"manifest": record(), **body})
            if args.out:
                write(args.out, lambda fh: fh.write(payload))
            sys.stdout.write(payload if args.json else run.text())
        else:
            if run.csv is None:
                sys.stdout.write(run.text())
            else:
                run.csv(sys.stdout)
            print(json.dumps(record(), allow_nan=False), file=sys.stderr)
    except BaseException:
        for path in written:
            os.remove(path)
        raise
    return run.code


# ---------------------------------------------------------------------------
# commands: each takes the parsed flags, the loaded parameters and the
# resolved seed, and returns a _Run; each imports the modules it uses


def _cmd_certify(args, params: MvmParams, seed: int) -> _Run:
    from . import spectral

    cert = spectral.certify_unimodal(params)

    def text() -> str:
        lines = [
            f"verdict: {cert.verdict.value}",
            f"P positive definite (unique maximum at mu): {cert.prop1_holds}",
            f"row dominance kappa_i > sum_j |lambda_ij|:   {cert.cor1_holds}",
            f"P eigenvalues: {np.array2string(cert.p_eigenvalues, separator=', ')}",
            "Gershgorin rows (center, radius):",
        ]
        for c, r in zip(cert.gershgorin.centers, cert.gershgorin.radii):
            lines.append(f"  {c:.12g}  {r:.12g}")
        return "\n".join(lines) + "\n"

    inconclusive = cert.verdict is spectral.Verdict.INCONCLUSIVE
    return _Run(
        config={},
        body=lambda: {"certificate": _plain(cert)},
        text=text,
        code=EXIT_INCONCLUSIVE if inconclusive else EXIT_OK,
    )


#: ``modes`` flags, their types and the SearchConfig fields they set (and
#: that argparse stores them under)
_SEARCH_FLAGS = (
    ("--starts-per-dim", int, "starts_per_dim"),
    ("--n-random", int, "n_random_starts"),
    ("--grad-tol", float, "grad_tol"),
    ("--max-iter", int, "max_iter"),
    ("--dedup-radius", float, "dedup_radius"),
    ("--degeneracy-tol", float, "degeneracy_tol"),
)


def _criticals_csv(report: modes.ModeReport, p: int) -> str:
    header = (
        ["kind", "f_value", "grad_norm"]
        + [f"theta{i + 1}" for i in range(p)]
        + [f"eig{i + 1}" for i in range(p)]
    )
    lines = [",".join(header) + "\n"]
    for c in report.criticals:
        values = [float(c.f_value), float(c.grad_norm)] + c.theta.angles.tolist()
        values += c.hessian_eigenvalues.tolist()
        lines.append(",".join([c.kind.value] + list(map(repr, values))) + "\n")
    return "".join(lines)


def _cmd_modes(args, params: MvmParams, seed: int) -> _Run:
    from . import modes

    names = [name for _, _, name in _SEARCH_FLAGS]
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    cfg = modes.SearchConfig(seed=seed, **given)
    report = modes.critical_points(params, cfg)

    def text() -> str:
        lines = [
            f"critical points found: {len(report.criticals)} "
            f"(from {report.search_meta.starts_used} starts, "
            f"{report.search_meta.converged} converged)",
            f"maxima: {report.n_maxima}",
            f"extended mode suspected: {report.extended_mode_suspected}",
            f"{'kind':<11} {'f':>14} {'|grad|':>10}  theta",
        ]
        for c in report.criticals:
            theta = np.array2string(c.theta.angles, precision=6, separator=", ")
            lines.append(
                f"{c.kind.value:<11} {c.f_value:>14.8f} {c.grad_norm:>10.2e}  {theta}"
            )
        return "\n".join(lines) + "\n"

    files = ()
    if args.criticals_csv:
        table = _criticals_csv(report, params.p)
        files = (("--criticals-csv", args.criticals_csv, lambda fh: fh.write(table)),)
    return _Run(
        config={"search": {name: getattr(cfg, name) for name in names}},
        body=lambda: {"report": _plain(report)},
        text=text,
        files=files,
        seed=seed,
    )


def _write_sample_csv(fh, blocks: Iterable[np.ndarray]) -> None:
    """The header with the first block of rows, then one block at a time,
    so neither the draws nor the CSV text sit in memory whole.  A run
    whose first block fails writes nothing, not even the header."""
    # '%r' of a float is its repr, which never needs CSV quoting, so one
    # C-level format per block gives the csv.writer bytes
    for i, block in enumerate(blocks):
        n, p = block.shape
        text = (("%r," * (p - 1) + "%r\n") * n) % tuple(block.ravel().tolist())
        if i == 0:
            text = ",".join(f"theta{j + 1}" for j in range(p)) + "\n" + text
        fh.write(text)


def _cmd_sample(args, params: MvmParams, seed: int) -> _Run:
    from . import sampler

    spec = sampler.ProposalSpec.from_params(params, args.lambda_min)
    blocks = sampler._blocks(params, spec, args.n, seed, args.shards)
    trials = []

    def draws():
        for block, block_trials in blocks:
            trials.append(block_trials)
            yield block

    return _Run(
        config={
            "n": args.n,
            "lambda_min_bound": spec.lambda_min_bound,
            "proposal_d": list(spec.d),
            "shards": args.shards,
        },
        body=lambda: {"draws": [row for block in draws() for row in block.tolist()]},
        csv=lambda fh: _write_sample_csv(fh, draws()),
        seed=seed,
        extras=lambda: {"trials": sum(trials), "empirical_acceptance": args.n / sum(trials)},
    )


def _cmd_forecast(args, params: MvmParams, seed: int) -> _Run:
    from . import sampler

    forecast = sampler.forecast_acceptance(params, args.lambda_min, args.n_per_dim)

    def text() -> str:
        lines = [f"asymptotic acceptance rate: {forecast.asymptotic_rate:.12g}"]
        if forecast.exact_rate is not None:
            lines.append(f"exact acceptance rate (quadrature): {forecast.exact_rate:.12g}")
        lines.append(f"lambda_min bound: {forecast.lambda_min_bound:.12g}")
        lines.append(f"proposal d: [{', '.join(f'{x:.12g}' for x in forecast.proposal_d)}]")
        return "\n".join(lines) + "\n"

    return _Run(
        config={
            "lambda_min_bound": forecast.lambda_min_bound,
            "proposal_d": list(forecast.proposal_d),
            "n_per_dim": args.n_per_dim,
        },
        body=lambda: {"forecast": _plain(forecast)},
        text=text,
    )


def _cmd_cube(args, params: MvmParams, seed: int) -> _Run:
    from . import oracle

    # faces exist only at p = 3; elsewhere a negative value still meets the check
    analysis = oracle.kappa_zero_analysis(
        params.lam, grid_n=args.grid_n if params.p == 3 else min(args.grid_n, 0)
    )
    if np.any(params.kappa != 0.0):
        print(
            "notice: cube analysis assumes kappa = 0; the kappa in the "
            "parameter file is ignored",
            file=sys.stderr,
        )
    return _Run(
        config={"grid_n": args.grid_n},
        body=lambda: {
            "vertices": {
                ",".join(str(x) for x in k): v
                for k, v in sorted(analysis.vertex_values.items())
            },
            "best_vertices": [list(v) for v in analysis.best_vertices],
            "top_eigenvalue": analysis.top_eigenpair[0],
        },
        csv=lambda fh: oracle.write_cube_surface_csv(fh, analysis),
    )


def _cmd_grid(args, params: MvmParams, seed: int) -> _Run:
    from . import oracle

    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError:
        raise ValueError("--dims must be comma-separated integers") from None
    slice_point = None
    if args.slice:
        try:
            slice_point = np.asarray([float(x) for x in args.slice.split(",")])
        except ValueError:
            raise ValueError("--slice must be comma-separated angles") from None
        if args.degrees:
            slice_point = np.deg2rad(slice_point)
    grid = (params, dims, args.n, slice_point)
    return _Run(
        config={"dims": list(dims), "n": args.n, "slice": _plain(slice_point)},
        body=lambda: {"values": oracle.density_grid(*grid).tolist()},
        csv=lambda fh: oracle.write_density_grid_csv(fh, *grid),
    )


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse without flag abbreviations (``--n`` must not stand for
    ``--n-per-dim``), whose usage errors exit with ``EXIT_INPUT_ERROR``:
    argparse's own code 2 means an inconclusive certificate here.
    Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


_LAMBDA_MIN_HELP = "force the scalar envelope d = B*1, for B in (0, lambda_min(P)]"
_SEED_HELP = "override the file seed"


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--params", required=True, help="JSON parameter file")
    common.add_argument("--out", default=None, help="write the main artifact here")
    common.add_argument("--json", action="store_true", help="machine-readable stdout")
    common.add_argument(
        "--degrees", action="store_true", help="angular inputs are in degrees"
    )

    parser = _Parser(
        prog="mvmtorus",
        description="Multivariate von Mises (sine) distributions on the torus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "certify", parents=[common], help="sufficient unimodality tests on P"
    ).set_defaults(func=_cmd_certify)

    p_modes = sub.add_parser(
        "modes", parents=[common], help="locate and classify all critical points"
    )
    p_modes.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    for flag, kind, name in _SEARCH_FLAGS:
        p_modes.add_argument(flag, type=kind, default=None, dest=name)
    p_modes.add_argument("--criticals-csv", default=None, help="CSV of critical points")
    p_modes.set_defaults(func=_cmd_modes)

    p_sample = sub.add_parser(
        "sample", parents=[common], help="exact rejection sampling (CSV rows)"
    )
    p_sample.add_argument("--n", type=int, required=True, help="number of draws")
    p_sample.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p_sample.add_argument(
        "--lambda-min", type=float, default=None, metavar="B", help=_LAMBDA_MIN_HELP
    )
    p_sample.add_argument("--shards", type=int, default=1, help="worker threads")
    p_sample.set_defaults(func=_cmd_sample)

    p_forecast = sub.add_parser(
        "forecast", parents=[common], help="acceptance-rate forecast"
    )
    p_forecast.add_argument(
        "--lambda-min", type=float, default=None, metavar="B", help=_LAMBDA_MIN_HELP
    )
    p_forecast.add_argument("--n-per-dim", type=int, default=None)
    p_forecast.set_defaults(func=_cmd_forecast)

    p_cube = sub.add_parser(
        "cube", parents=[common], help="kappa=0 cube vertex table and face grids (CSV)"
    )
    p_cube.add_argument("--grid-n", type=int, default=25, help="points per face edge")
    p_cube.set_defaults(func=_cmd_cube)

    p_grid = sub.add_parser(
        "grid", parents=[common], help="exponent values on a coordinate grid (CSV)"
    )
    p_grid.add_argument("--dims", default="0,1", help="comma-separated coordinate pair")
    p_grid.add_argument("--n", type=int, default=64, help="nodes per axis")
    p_grid.add_argument("--slice", default=None, help="fixed angles for other coords")
    p_grid.set_defaults(func=_cmd_grid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        params, file_seed = load_param_file(args.params, args.degrees)
        seed = getattr(args, "seed", None)  # only modes and sample take --seed
        seed = (file_seed or 0) if seed is None else seed
        return _emit(args, params, args.func(args, params, seed), started)
    except (NotPositiveDefiniteError, BoundViolationError, AcceptanceStallError) as exc:
        print(
            f"error: {exc}\nhint: run `mvmtorus certify --params {args.params}`",
            file=sys.stderr,
        )
        return EXIT_SAMPLER_PRECONDITION
    except (ValueError, OSError) as exc:
        # OSError: an output path that cannot be written (read errors are ValueErrors)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        # a size flag too large for this machine (numpy's message names
        # the allocation it could not make)
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
