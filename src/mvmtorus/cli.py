"""Command-line front-end.

Subcommands: ``certify``, ``modes``, ``sample``, ``forecast``, ``cube``,
``grid``.  Parameters are read from a JSON file; outputs are plain text,
JSON (``--json``) or CSV, each accompanied by a run manifest that records
the resolved configuration and seed so any run can be replayed
bit-for-bit.

Exit codes: 0 success / certified, 1 input error (usage errors included),
2 inconclusive certification, 3 sampler precondition failure (P not
positive definite, or the envelope fails at run time: an acceptance
exponent above 0 or a stalled rejection loop).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

import numpy as np

from . import __version__, modes, oracle, sampler
from .model import MvmParams, TWO_PI

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_SAMPLER_PRECONDITION = 3

#: coupling matrix of the six-mode benchmark family used by the ``eta``
#: parameter-file key (kappa = sin(eta) * 1 breaks its flat ring of maxima
#: into six isolated modes)
RING_COUPLING = ((0.0, -1.0, 1.0), (-1.0, 0.0, 1.0), (1.0, 1.0, 0.0))


class InputError(Exception):
    """Parameter-file or flag problem; maps to exit code 1."""


def _as_float_list(value, key: str, length: int | None = None) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"field '{key}' must be an array")
    try:
        out = [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise InputError(f"field '{key}' must contain numbers: {exc}") from None
    if length is not None and len(out) != length:
        raise InputError(f"field '{key}' must have length {length}, got {len(out)}")
    return out


def load_param_file(path: str, degrees: bool = False) -> tuple[MvmParams, int | None]:
    """Parse a parameter file into (MvmParams, optional seed).

    Keys: ``p`` (optional, checked), ``mu`` (optional, default 0),
    ``kappa``, ``lambda``, ``seed`` (optional), or the convenience key
    ``eta`` which expands to the six-mode benchmark family (p=3,
    kappa = sin(eta) * 1, the fixed ring coupling).  With ``degrees`` the
    angular fields (mu, eta) are converted on ingestion.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read parameter file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise InputError("parameter file must contain a JSON object")

    known = {"p", "mu", "kappa", "lambda", "seed", "eta"}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise InputError(f"unknown field(s): {', '.join(unknown)}")

    seed = doc.get("seed")
    if seed is not None:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise InputError("field 'seed' must be a non-negative integer")

    if "eta" in doc:
        if "kappa" in doc or "lambda" in doc:
            raise InputError("field 'eta' replaces 'kappa' and 'lambda'")
        try:
            eta = float(doc["eta"])
        except (TypeError, ValueError):
            raise InputError("field 'eta' must be a number") from None
        if degrees:
            eta = np.deg2rad(eta)
        if doc.get("p", 3) != 3:
            raise InputError("field 'eta' implies p=3")
        kappa = [float(np.sin(eta))] * 3
        lam = [list(row) for row in RING_COUPLING]
        mu = _as_float_list(doc.get("mu", [0.0, 0.0, 0.0]), "mu", 3)
    else:
        if "kappa" not in doc:
            raise InputError("missing required field 'kappa'")
        if "lambda" not in doc:
            raise InputError("missing required field 'lambda'")
        kappa = _as_float_list(doc["kappa"], "kappa")
        p = len(kappa)
        if "p" in doc and doc["p"] != p:
            raise InputError(f"field 'p' = {doc['p']} but 'kappa' has length {p}")
        lam_doc = doc["lambda"]
        if not isinstance(lam_doc, (list, tuple)) or len(lam_doc) != p:
            raise InputError(f"field 'lambda' must be a {p}x{p} array of arrays")
        lam = [_as_float_list(row, f"lambda[{i}]", p) for i, row in enumerate(lam_doc)]
        mu = _as_float_list(doc.get("mu", [0.0] * p), "mu", p)

    if degrees:
        mu = list(np.deg2rad(mu))
    try:
        params = MvmParams(mu=np.asarray(mu), kappa=np.asarray(kappa), lam=np.asarray(lam))
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return params, seed


# ---------------------------------------------------------------------------
# serialization helpers


def _matrix(a: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.asarray(a)]


def _vector(a: np.ndarray) -> list[float]:
    return [float(x) for x in np.asarray(a)]


def params_dict(params: MvmParams) -> dict:
    return {
        "p": params.p,
        "mu": _vector(params.mu.angles),
        "kappa": _vector(params.kappa),
        "lambda": _matrix(params.lam),
    }


def certificate_dict(cert: modes.UnimodalityCertificate) -> dict:
    return {
        "verdict": cert.verdict.value,
        "prop1_holds": cert.prop1_holds,
        "cor1_holds": cert.cor1_holds,
        "p_matrix": _matrix(cert.p_matrix),
        "p_eigenvalues": _vector(cert.p_eigenvalues),
        "gershgorin": {
            "centers": _vector(cert.gershgorin.centers),
            "radii": _vector(cert.gershgorin.radii),
            "excludes_zero": cert.gershgorin.excludes_zero,
        },
    }


def critical_dict(point: modes.CriticalPoint) -> dict:
    return {
        "theta": _vector(point.theta.angles),
        "f_value": float(point.f_value),
        "grad_norm": float(point.grad_norm),
        "hessian_eigenvalues": _vector(point.hessian_eigenvalues),
        "kind": point.kind.value,
    }


def mode_report_dict(report: modes.ModeReport) -> dict:
    return {
        "n_maxima": report.n_maxima,
        "extended_mode_suspected": report.extended_mode_suspected,
        "search_meta": {
            "starts_used": report.search_meta.starts_used,
            "converged": report.search_meta.converged,
            "seed": report.search_meta.seed,
        },
        "criticals": [critical_dict(c) for c in report.criticals],
    }


def _manifest(command: str, seed, config: dict, started: float, **extra) -> dict:
    doc = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "wall_time_s": time.perf_counter() - started,
    }
    doc.update(extra)
    return doc


def _json_text(doc: dict) -> str:
    """Indented standard JSON; a NaN or infinity raises ``ValueError``
    before anything is written."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _emit(args, payload: dict, text: str) -> None:
    """Print text or JSON to stdout; write JSON to --out when given."""
    body = _json_text(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    sys.stdout.write(body if args.json else text)


def _check_count(value: int | None, flag: str, minimum: int = 1) -> None:
    """Reject a size or count flag below ``minimum`` (None means unset)."""
    if value is not None and value < minimum:
        raise InputError(f"{flag} must be >= {minimum}, got {value}")


def _write_text(path_or_stdout, body: str) -> None:
    if path_or_stdout:
        with open(path_or_stdout, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# commands


def _cmd_certify(args) -> int:
    started = time.perf_counter()
    params, _ = load_param_file(args.params, args.degrees)
    cert = modes.certify_unimodal(params)
    payload = {
        "manifest": _manifest("certify", None, params_dict(params), started),
        "certificate": certificate_dict(cert),
    }
    lines = [
        f"verdict: {cert.verdict.value}",
        f"P positive definite (unique maximum at mu): {cert.prop1_holds}",
        f"row dominance kappa_i > sum_j |lambda_ij|:   {cert.cor1_holds}",
        f"P eigenvalues: {np.array2string(cert.p_eigenvalues, separator=', ')}",
        "Gershgorin rows (center, radius):",
    ]
    for c, r in zip(cert.gershgorin.centers, cert.gershgorin.radii):
        lines.append(f"  {c:.12g}  {r:.12g}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK if cert.verdict is not modes.Verdict.INCONCLUSIVE else EXIT_INCONCLUSIVE


def _search_config(args, seed: int) -> modes.SearchConfig:
    kwargs = {"seed": seed}
    if args.starts_per_dim is not None:
        kwargs["starts_per_dim"] = args.starts_per_dim
    if args.n_random is not None:
        kwargs["n_random_starts"] = args.n_random
    if args.grad_tol is not None:
        kwargs["grad_tol"] = args.grad_tol
    if args.max_iter is not None:
        kwargs["max_iter"] = args.max_iter
    if args.dedup_radius is not None:
        kwargs["dedup_radius"] = args.dedup_radius
    if args.degeneracy_tol is not None:
        kwargs["degeneracy_tol"] = args.degeneracy_tol
    return modes.SearchConfig(**kwargs)


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


def _cmd_modes(args) -> int:
    started = time.perf_counter()
    params, file_seed = load_param_file(args.params, args.degrees)
    seed = args.seed if args.seed is not None else (file_seed or 0)
    cfg = _search_config(args, seed)
    report = modes.critical_points(params, cfg)
    config = {
        "params": params_dict(params),
        "search": {
            "starts_per_dim": cfg.starts_per_dim,
            "n_random_starts": cfg.n_random_starts,
            "grad_tol": cfg.grad_tol,
            "max_iter": cfg.max_iter,
            "dedup_radius": cfg.dedup_radius,
            "degeneracy_tol": cfg.degeneracy_tol,
        },
    }
    payload = {
        "manifest": _manifest("modes", seed, config, started),
        "report": mode_report_dict(report),
    }
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
    if args.criticals_csv:
        _write_text(args.criticals_csv, _criticals_csv(report, params.p))
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def _write_sample_csv(fh, draws: np.ndarray) -> None:
    """Header, then the rows one sampler block at a time, so the CSV text
    never sits in memory whole."""
    # repr of a float never needs CSV quoting, so plain joins give the
    # csv.writer bytes at a fraction of the cost
    fh.write(",".join(f"theta{i + 1}" for i in range(draws.shape[1])) + "\n")
    for start in range(0, draws.shape[0], sampler.BLOCK_SIZE):
        rows = draws[start : start + sampler.BLOCK_SIZE].tolist()
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def _cmd_sample(args) -> int:
    started = time.perf_counter()
    params, file_seed = load_param_file(args.params, args.degrees)
    seed = args.seed if args.seed is not None else (file_seed or 0)
    try:
        spec = sampler.ProposalSpec.from_params(params, args.lambda_min)
        batch = sampler.sample_mvm(params, args.n, spec, seed=seed, workers=args.shards)
    except (
        sampler.NotPositiveDefiniteError,
        sampler.BoundViolationError,
        sampler.AcceptanceStallError,
    ) as exc:
        print(
            f"error: {exc}\nhint: run `mvmtorus certify --params {args.params}`",
            file=sys.stderr,
        )
        return EXIT_SAMPLER_PRECONDITION
    config = {
        "params": params_dict(params),
        "n": args.n,
        "lambda_min_bound": spec.lambda_min_bound,
        "proposal_d": list(spec.d),
        "shards": args.shards,
    }
    manifest = _manifest(
        "sample",
        seed,
        config,
        started,
        trials=batch.trials,
        empirical_acceptance=batch.empirical_acceptance,
    )
    if args.json:
        payload = {"manifest": manifest, "draws": _matrix(batch.draws)}
        sys.stdout.write(_json_text(payload))
        return EXIT_OK
    if args.out:
        manifest_text = _json_text(manifest)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_sample_csv(fh, batch.draws)
        _write_text(args.out + ".manifest.json", manifest_text)
    else:
        manifest_line = json.dumps(manifest, allow_nan=False)
        _write_sample_csv(sys.stdout, batch.draws)
        print(manifest_line, file=sys.stderr)
    return EXIT_OK


def _cmd_forecast(args) -> int:
    started = time.perf_counter()
    params, _ = load_param_file(args.params, args.degrees)
    try:
        spec = sampler.ProposalSpec.from_params(params, args.lambda_min)
        forecast = sampler.forecast_acceptance(
            params,
            spec,
            with_exact=params.p <= oracle.MAX_QUADRATURE_DIM,
            n_per_dim=args.n_per_dim,
        )
    except sampler.NotPositiveDefiniteError as exc:
        print(
            f"error: {exc}\nhint: run `mvmtorus certify --params {args.params}`",
            file=sys.stderr,
        )
        return EXIT_SAMPLER_PRECONDITION
    envelope = {"lambda_min_bound": spec.lambda_min_bound, "proposal_d": list(spec.d)}
    config = {"params": params_dict(params), **envelope}
    payload = {
        "manifest": _manifest("forecast", None, config, started),
        "forecast": {
            "asymptotic_rate": forecast.asymptotic_rate,
            "exact_rate": forecast.exact_rate,
            **envelope,
        },
    }
    lines = [f"asymptotic acceptance rate: {forecast.asymptotic_rate:.12g}"]
    if forecast.exact_rate is not None:
        lines.append(f"exact acceptance rate (quadrature): {forecast.exact_rate:.12g}")
    lines.append(f"lambda_min bound: {spec.lambda_min_bound:.12g}")
    lines.append(f"proposal d: [{', '.join(f'{x:.12g}' for x in spec.d)}]")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_cube(args) -> int:
    started = time.perf_counter()
    _check_count(args.grid_n, "--grid-n", minimum=0)
    params, _ = load_param_file(args.params, args.degrees)
    if np.any(params.kappa != 0.0):
        print(
            "notice: cube analysis assumes kappa = 0; the kappa in the "
            "parameter file is ignored",
            file=sys.stderr,
        )
    analysis = oracle.kappa_zero_analysis(
        params.lam, grid_n=args.grid_n if params.p == 3 else 0
    )
    if args.json:
        payload = {
            "manifest": _manifest(
                "cube", None, {"params": params_dict(params), "grid_n": args.grid_n}, started
            ),
            "vertices": {
                ",".join(str(x) for x in k): v
                for k, v in sorted(analysis.vertex_values.items())
            },
            "best_vertices": [list(v) for v in analysis.best_vertices],
            "top_eigenvalue": analysis.top_eigenpair[0],
        }
        sys.stdout.write(_json_text(payload))
        return EXIT_OK
    buf = io.StringIO()
    oracle.write_cube_surface_csv(buf, analysis)
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def _cmd_grid(args) -> int:
    started = time.perf_counter()
    _check_count(args.n, "--n")
    params, _ = load_param_file(args.params, args.degrees)
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
    except ValueError:
        raise InputError("--dims must be comma-separated integers") from None
    slice_point = None
    if args.slice:
        try:
            slice_point = np.asarray([float(x) for x in args.slice.split(",")])
        except ValueError:
            raise InputError("--slice must be comma-separated angles") from None
        if args.degrees:
            slice_point = np.deg2rad(slice_point)
    try:
        if args.json:
            values = oracle.density_grid(params, dims, args.n, slice_point)
        else:
            buf = io.StringIO()
            oracle.write_density_grid_csv(buf, params, dims, args.n, slice_point)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if args.json:
        payload = {
            "manifest": _manifest(
                "grid",
                None,
                {"params": params_dict(params), "dims": list(dims), "n": args.n},
                started,
            ),
            "values": values.tolist(),
        }
        sys.stdout.write(_json_text(payload))
        return EXIT_OK
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--params", required=True, help="JSON parameter file")
    common.add_argument("--seed", type=int, default=None, help="override the file seed")
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
    p_modes.add_argument("--starts-per-dim", type=int, default=None)
    p_modes.add_argument("--n-random", type=int, default=None)
    p_modes.add_argument("--grad-tol", type=float, default=None)
    p_modes.add_argument("--max-iter", type=int, default=None)
    p_modes.add_argument("--dedup-radius", type=float, default=None)
    p_modes.add_argument("--degeneracy-tol", type=float, default=None)
    p_modes.add_argument("--criticals-csv", default=None, help="CSV of critical points")
    p_modes.set_defaults(func=_cmd_modes)

    p_sample = sub.add_parser(
        "sample", parents=[common], help="exact rejection sampling (CSV rows)"
    )
    p_sample.add_argument("--n", type=int, required=True, help="number of draws")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        # a size flag too large for this machine (numpy's message names
        # the allocation it could not make)
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
