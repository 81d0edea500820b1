"""Workload definitions: seeded parameter files, CLI steps, output checks.

Nothing here imports numpy or the package under test, so the process that
spawns the timed CLI children stays small (a child's ``ru_maxrss`` can
never read lower than the spawning parent's peak RSS).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

TWO_PI = 2.0 * math.pi

#: the paper's reference set: kappa = 3*1 and a coupling with eigenvalues
#: {-4, 2, 2}, so P = diag(kappa) - Lambda has eigenvalues {1, 1, 7}
REF_KAPPA = [3.0, 3.0, 3.0]
REF_COUPLING = [[0.0, -2.0, 2.0], [-2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]
REF_P_EIGENVALUES = [1.0, 1.0, 7.0]
#: six-mode family (``eta`` key of the parameter file)
SIX_MODE_ETA = 0.1
#: heterogeneous p = 4 set for the rare-acceptance workload; couplings are
#: bounded by RARE_COUPLING so every row stays dominant (certifiable)
RARE_KAPPA = [2.0, 8.0, 8.0, 30.0]
RARE_COUPLING = 0.5

WORKLOADS = ("explore", "sample_bulk", "sample_rare")

#: per-scale sizes; ``pass_s`` is the nominal pass length on a 2-core
#: Xeon host, which fixes how many passes a run of ``--seconds`` makes
SIZES = {
    "full": {"grid_n": 256, "bulk_n": 100_000, "rare_n": 8000},
    "tiny": {"grid_n": 16, "bulk_n": 2000, "rare_n": 200},
}
PASS_S = {"explore": 7.0, "sample_bulk": 4.0, "sample_rare": 5.0}
MIN_PASSES = 2


def pass_count(workload: str, seconds: float) -> int:
    """Fixed number of passes for a run, so both sides of a comparison
    measure the same work."""
    return max(MIN_PASSES, int(seconds // PASS_S[workload]))


# ---------------------------------------------------------------------------
# parameter files


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _symmetric(rng: random.Random, p: int, bound: float) -> list[list[float]]:
    lam = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            lam[i][j] = lam[j][i] = rng.uniform(-bound, bound)
    return lam


def _angles(rng: random.Random, p: int) -> list[float]:
    return [rng.uniform(0.0, TWO_PI) for _ in range(p)]


def param_docs(workload: str, seed: int, pass_index: int) -> dict[str, dict]:
    """Parameter documents for one pass, keyed by file stem.

    Every value derives from ``seed``.  The random explore sets also derive
    from ``pass_index``, so the passes of one run cover several landscapes
    and the per-run median does not hinge on a single draw.
    """

    def rng(tag: str) -> random.Random:
        return random.Random(f"{workload}:{tag}:{seed}")

    docs: dict[str, dict] = {}
    if workload in ("explore", "sample_bulk"):
        docs["ref"] = {
            "mu": _angles(rng("ref"), 3),
            "kappa": REF_KAPPA,
            "lambda": REF_COUPLING,
            "seed": seed,
        }
    if workload == "explore":
        docs["six"] = {"eta": SIX_MODE_ETA, "mu": _angles(rng("six"), 3), "seed": seed}
        for p in (6, 8):
            r = rng(f"rand{p}:{pass_index}")
            docs[f"rand{p}"] = {
                "mu": _angles(r, p),
                "kappa": [r.uniform(0.0, 5.0) for _ in range(p)],
                "lambda": _symmetric(r, p, 2.0),
                "seed": seed,
            }
    if workload == "sample_rare":
        r = rng("rare")
        docs["rare"] = {
            "mu": _angles(r, 4),
            "kappa": RARE_KAPPA,
            "lambda": _symmetric(r, 4, RARE_COUPLING),
            "seed": seed,
        }
    return docs


def write_params(workdir: Path, docs: dict[str, dict]) -> dict[str, str]:
    """Write ``<stem>.json`` files; return their sha256 digests."""
    digests = {}
    for stem, doc in docs.items():
        path = workdir / f"{stem}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        digests[path.name] = sha256_file(path)
    return digests


# ---------------------------------------------------------------------------
# steps


@dataclass(frozen=True)
class Step:
    """One CLI invocation.  ``name`` is ``<command>.<param stem>``; argv
    paths are relative to the work directory."""

    name: str
    argv: tuple[str, ...]
    out: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def stem(self) -> str:
        return self.name.split(".", 1)[1]

    @property
    def stdout(self) -> str:
        return f"{self.name}.stdout"


def steps(workload: str, sizes: dict) -> list[Step]:
    if workload == "explore":
        out = [Step("certify.ref", ("certify", "--params", "ref.json", "--json"))]
        for stem in ("ref", "six", "rand6", "rand8"):
            out.append(Step(f"modes.{stem}", ("modes", "--params", f"{stem}.json", "--json")))
        n = str(sizes["grid_n"])
        out.append(
            Step("grid.six", ("grid", "--params", "six.json", "--n", n, "--out", "grid.six.csv"),
                 out="grid.six.csv")
        )
        return out
    stem, n = ("ref", sizes["bulk_n"]) if workload == "sample_bulk" else ("rare", sizes["rare_n"])
    csv_name = f"sample.{stem}.csv"
    return [
        Step(f"forecast.{stem}", ("forecast", "--params", f"{stem}.json", "--json")),
        Step(f"sample.{stem}",
             ("sample", "--params", f"{stem}.json", "--n", str(n), "--out", csv_name),
             out=csv_name),
    ]


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Checks:
    """Pass/fail record of every correctness check in a run."""

    items: list[dict] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.items if not c["ok"])


#: what a check raises on output that is missing or not in the documented
#: layout; the caller records it as a failed check
OUTPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError, ArithmeticError)


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_certify(checks: Checks, stdout: Path) -> None:
    values = sorted(_load_json(stdout)["certificate"]["p_eigenvalues"])
    err = (
        max(abs(a - b) for a, b in zip(values, REF_P_EIGENVALUES))
        if len(values) == 3 else math.inf
    )
    checks.add("certify.ref eigenvalues (1, 1, 7) to 1e-10", err <= 1e-10, f"max error {err:.3g}")


def morse_counts(criticals: list[dict]) -> list[int]:
    """Points per Morse index (number of negative Hessian eigenvalues)."""
    p = len(criticals[0]["theta"]) if criticals else 0
    counts = [0] * (p + 1)
    for c in criticals:
        counts[sum(1 for e in c["hessian_eigenvalues"] if e < 0.0)] += 1
    return counts


def check_modes(checks: Checks, step: Step, stdout: Path) -> dict:
    """Gate on n_maxima (reference: 1, six-mode: 6) and on every reported
    gradient norm; return the search summary (counts, Morse counts)."""
    doc = _load_json(stdout)
    report = doc["report"]
    crit = report["criticals"]
    tol = doc["manifest"]["config"]["search"]["grad_tol"]
    worst = max((c["grad_norm"] for c in crit), default=0.0)
    checks.add(f"{step.name} grad_norm < grad_tol", bool(crit) and worst < tol,
               f"max {worst:.3g} vs {tol:.0e} over {len(crit)} points")
    expected = {"ref": 1, "six": 6}.get(step.stem)
    if expected is not None:
        checks.add(f"{step.name} n_maxima = {expected}", report["n_maxima"] == expected,
                   f"got {report['n_maxima']}")
    counts = morse_counts(crit)
    return {
        "unique": len(crit),
        "starts": report["search_meta"]["starts_used"],
        "converged": report["search_meta"]["converged"],
        "n_maxima": report["n_maxima"],
        "morse_counts": counts,
        "euler_char": sum((-1) ** k * n for k, n in enumerate(counts)),
    }


def check_csv(checks: Checks, name: str, path: Path, rows: int, angles_only: bool) -> None:
    """Row count and finiteness; sample draws must also lie in [0, 2*pi)."""
    got = 0
    bad = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            next(fh)  # header
            for line in fh:
                got += 1
                values = [float(x) for x in line.split(",")]
                if not angles_only:
                    values = values[2:]  # i, j node indices
                if not all(math.isfinite(v) for v in values):
                    bad += 1
                elif angles_only and not all(0.0 <= v < TWO_PI for v in values):
                    bad += 1
    except (OSError, StopIteration, ValueError) as exc:  # unreadable or not numeric
        checks.add(f"{name} csv readable", False, str(exc))
        return
    what = "finite angles in [0, 2pi)" if angles_only else "finite values"
    checks.add(f"{name} csv has {rows} rows of {what}", got == rows and bad == 0,
               f"{got} rows, {bad} bad")


def forecast_z(accepted: int, trials: int, rate: float) -> float:
    """Binomial z of ``accepted`` out of ``trials`` against ``rate``."""
    return (accepted - trials * rate) / math.sqrt(trials * rate * (1.0 - rate))


def check_sample(checks: Checks, forecast_stdout: Path, out_csv: Path, n: int) -> dict:
    """Sample CSV shape and range, plus the forecast z-score gate."""
    check_csv(checks, out_csv.name, out_csv, n, angles_only=True)
    forecast = _load_json(forecast_stdout)
    manifest = _load_json(Path(str(out_csv) + ".manifest.json"))
    rate = forecast["forecast"]["exact_rate"]
    trials = manifest["trials"]
    z = forecast_z(n, trials, rate)
    checks.add("|sampler.forecast_z| <= 5", abs(z) <= 5.0, f"z = {z:.3f}")
    return {"trials": trials, "accepted": n, "forecast_exact": rate, "forecast_z": z}
