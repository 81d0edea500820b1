import contextlib
import dataclasses
import io
import json
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_COUPLING, RING_COUPLING, TWO_MODE_COUPLING, csv_writer_text
import mvmtorus
from mvmtorus import MvmParams, ProposalSpec, cli, modes, oracle, sampler, spectral


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mvmtorus"] + list(argv),
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_params(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.fixture
def reference_file(tmp_path):
    return write_params(
        tmp_path / "reference.json",
        kappa=[3.0, 3.0, 3.0],
        **{"lambda": [list(r) for r in REFERENCE_COUPLING]},
    )


@pytest.fixture
def ring_file(tmp_path):
    return write_params(
        tmp_path / "ring.json",
        kappa=[0.0, 0.0, 0.0],
        **{"lambda": [list(r) for r in RING_COUPLING]},
    )


@pytest.fixture
def univariate_file(tmp_path):
    return write_params(
        tmp_path / "vm1.json", kappa=[2.0], **{"lambda": [[0.0]]}, seed=99
    )


@pytest.fixture
def heterogeneous_file(tmp_path):
    return write_params(
        tmp_path / "hetero.json",
        kappa=[2.0, 8.0, 30.0],
        mu=[1.0, 2.0, 3.0],
        seed=5,
        **{"lambda": [[0.0, 0.4, -0.3], [0.4, 0.0, 0.2], [-0.3, 0.2, 0.0]]},
    )


# ---------------------------------------------------------------------------
# certify


def test_certify_reference_is_certified(reference_file):
    out = run_cli("certify", "--params", reference_file, "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    cert = doc["certificate"]
    assert cert["verdict"] == "CertifiedUnimodal"
    assert cert["p_eigenvalues"] == pytest.approx([1.0, 1.0, 7.0], abs=1e-10)
    assert cert["gershgorin"]["radii"] == [4.0, 4.0, 4.0]


def test_certify_ring_is_inconclusive(ring_file):
    out = run_cli("certify", "--params", ring_file)
    assert out.returncode == 2
    assert "Inconclusive" in out.stdout
    # an inconclusive certificate is a finished run: it leaves its record
    (record,) = [json.loads(line) for line in out.stderr.splitlines()]
    assert record["command"] == "certify"
    assert record["config"]["params"]["kappa"] == [0.0, 0.0, 0.0]


def test_certify_and_sample_agree_on_a_badly_scaled_p(tmp_path, capsys):
    # kappa_1 = 1e10 puts an inf-norm of 1e10 on P, whose smallest
    # eigenvalue is still ~1; the definiteness test must not depend on that
    path = write_params(
        tmp_path / "scaled.json",
        kappa=[1e10, 1.0, 1.0],
        **{"lambda": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    )
    assert cli.main(["certify", "--params", path]) == 0
    assert "P positive definite (unique maximum at mu): True" in capsys.readouterr().out
    assert cli.main(["certify", "--params", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["verdict"] == "CertifiedUnimodal"
    out_csv = tmp_path / "draws.csv"
    assert cli.main(["sample", "--params", path, "--n", "100", "--out", str(out_csv)]) == 0
    assert len(out_csv.read_text().splitlines()) == 101


def test_certify_rejects_asymmetric_coupling(tmp_path):
    path = write_params(
        tmp_path / "bad.json",
        kappa=[1.0, 1.0],
        **{"lambda": [[0.0, 0.5], [0.25, 0.0]]},
    )
    out = run_cli("certify", "--params", path)
    assert out.returncode == 1
    assert "symmetric" in out.stderr


def test_certify_text_output_lists_rows(reference_file):
    out = run_cli("certify", "--params", reference_file)
    assert out.returncode == 0
    assert "verdict: CertifiedUnimodal" in out.stdout
    assert "Gershgorin" in out.stdout


# ---------------------------------------------------------------------------
# input validation


def test_missing_field_reports_name(tmp_path):
    path = write_params(tmp_path / "nolambda.json", kappa=[1.0, 1.0])
    out = run_cli("certify", "--params", path)
    assert out.returncode == 1
    assert "lambda" in out.stderr


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kappa": [1.0,,]}')
    out = run_cli("certify", "--params", str(path))
    assert out.returncode == 1
    assert "line" in out.stderr


def test_unknown_field_rejected(tmp_path):
    path = write_params(
        tmp_path / "extra.json", kappa=[1.0], **{"lambda": [[0.0]], "kapa": 1}
    )
    out = run_cli("certify", "--params", str(path))
    assert out.returncode == 1
    assert "kapa" in out.stderr


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"kappa": [True, 1.0], "lambda": [[0.0, 0.0], [0.0, 0.0]]},
         "field 'kappa' must contain numbers, not booleans"),
        ({"kappa": [1.0, 1.0], "lambda": [[0.0, False], [False, 0.0]]},
         "field 'lambda[0]' must contain numbers, not booleans"),
        ({"mu": [True], "kappa": [1.0], "lambda": [[0.0]]},
         "field 'mu' must contain numbers, not booleans"),
        ({"eta": True}, "field 'eta' must be a number, not a boolean"),
        ({"p": True, "kappa": [1.0], "lambda": [[0.0]]},
         "field 'p' must be a number, not a boolean"),
        ({"kappa": [], "lambda": []}, "field 'kappa' must hold at least one number"),
        ({"kappa": ["3", "3", "3e0"], "lambda": [list(r) for r in REFERENCE_COUPLING]},
         "field 'kappa' must contain numbers, not strings"),
        ({"kappa": [3, 3, 3], "lambda": [[0, -2, 2], [-2, 0, 2], [2, 2, "0"]]},
         "field 'lambda[2]' must contain numbers, not strings"),
        ({"mu": ["0"], "kappa": [1.0], "lambda": [[0.0]]},
         "field 'mu' must contain numbers, not strings"),
        ({"eta": "0.1"}, "field 'eta' must be a number, not a string"),
        ({"eta": None}, "field 'eta' must be a number, not null"),
        ({"p": "1", "kappa": [1.0], "lambda": [[0.0]]},
         "field 'p' must be a number, not a string"),
        ({"kappa": [None], "lambda": [[0.0]]}, "field 'kappa' must contain numbers, not nulls"),
        ({"kappa": [[1.0]], "lambda": [[0.0]]},
         "field 'kappa' must contain numbers, not arrays"),
        ({"kappa": [10**400], "lambda": [[0.0]]},
         "field 'kappa': int too large to convert to float"),
    ],
)
def test_booleans_and_empty_kappa_are_input_errors(tmp_path, capsys, fields, message):
    # JSON true is a Python int, so without the check it would run as 1;
    # float() would read a string such as "3e0" as a number
    path = write_params(tmp_path / "bad.json", **fields)
    assert cli.main(["certify", "--params", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_degrees_flag_converts_mu(tmp_path):
    rad = write_params(
        tmp_path / "rad.json",
        kappa=[2.0],
        mu=[np.pi / 2.0],
        **{"lambda": [[0.0]]},
    )
    deg = write_params(
        tmp_path / "deg.json", kappa=[2.0], mu=[90.0], **{"lambda": [[0.0]]}
    )
    a = run_cli("grid", "--params", rad, "--dims", "0", "--n", "8")
    b = run_cli("grid", "--params", deg, "--degrees", "--dims", "0", "--n", "8")
    assert a.returncode == b.returncode == 0
    for la, lb in zip(a.stdout.splitlines()[1:], b.stdout.splitlines()[1:]):
        va, vb = float(la.split(",")[-1]), float(lb.split(",")[-1])
        assert va == pytest.approx(vb, abs=1e-12)


# ---------------------------------------------------------------------------
# modes


def test_modes_six_mode_family(tmp_path):
    path = write_params(tmp_path / "sixmode.json", eta=0.05)
    out = run_cli("modes", "--params", path, "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["report"]["n_maxima"] == 6
    kinds = {c["kind"] for c in doc["report"]["criticals"]}
    assert "Maximum" in kinds


def test_modes_two_mode_family(tmp_path):
    path = write_params(
        tmp_path / "twomode.json",
        kappa=[0.0, 0.0, 0.0],
        **{"lambda": [list(r) for r in TWO_MODE_COUPLING]},
    )
    out = run_cli("modes", "--params", path, "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["report"]["n_maxima"] == 2


def test_modes_ring_flags_extended_mode(ring_file, tmp_path):
    csv_path = tmp_path / "criticals.csv"
    out = run_cli(
        "modes", "--params", ring_file, "--json", "--criticals-csv", str(csv_path)
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["report"]["extended_mode_suspected"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("kind,f_value,grad_norm,theta1")
    assert len(lines) == 1 + len(doc["report"]["criticals"])


def test_modes_json_builds_no_text_summary(tmp_path, capsys, monkeypatch):
    # the text summary formats one line per critical point; --json drops it
    def fail(*args, **kwargs):
        raise AssertionError("np.array2string called")

    path = write_params(tmp_path / "sixmode.json", eta=0.1)
    monkeypatch.setattr(np, "array2string", fail)
    assert cli.main(["modes", "--params", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["n_maxima"] == 6


@pytest.mark.parametrize("coupling", [RING_COUPLING, REFERENCE_COUPLING])
def test_criticals_csv_matches_csv_writer(coupling):
    params = MvmParams(mu=np.array([0.5, 6.0, 3.0]), kappa=np.full(3, 0.1), lam=coupling)
    report = modes.critical_points(params)
    header = (
        ["kind", "f_value", "grad_norm"] + [f"theta{i}" for i in (1, 2, 3)]
        + [f"eig{i}" for i in (1, 2, 3)]
    )
    rows = [
        [c.kind.value, c.f_value, c.grad_norm, *c.theta.angles, *c.hessian_eigenvalues]
        for c in report.criticals
    ]
    assert len(rows) > 1
    assert cli._criticals_csv(report, 3) == csv_writer_text([header] + rows)


@pytest.mark.parametrize(
    "flag,value,field",
    [
        ("--starts-per-dim", "0", "starts_per_dim"),
        ("--n-random", "-1", "n_random_starts"),
        ("--max-iter", "-1", "max_iter"),
        ("--grad-tol", "-1", "grad_tol"),
        ("--dedup-radius", "-1", "dedup_radius"),
        ("--dedup-radius", "nan", "dedup_radius"),
        ("--degeneracy-tol", "nan", "degeneracy_tol"),
        # above pi every point of the torus would merge into one
        ("--dedup-radius", "10", "dedup_radius"),
    ],
)
def test_modes_rejects_bad_search_flags(reference_file, capsys, flag, value, field):
    assert cli.main(["modes", "--params", reference_file, flag, value]) == 1
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {field} must be")
    assert out.out == ""


def test_modes_runs_at_p_32_with_default_flags(tmp_path, capsys):
    # 4**32 lattice points, more than an int64 index reaches: the
    # subsample draws digit rows and forms no lattice index
    params = write_params(tmp_path / "p32.json", kappa=[5.0] * 32, **{"lambda": [[0.0] * 32] * 32})
    assert cli.main(["modes", "--params", params, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["search_meta"]["starts_used"] == 256 + 256
    # Lambda = 0: the maximum at mu is among the points found
    assert doc["report"]["criticals"][0]["kind"] == "Maximum"
    assert doc["report"]["criticals"][0]["f_value"] == 160.0


def test_modes_runs_where_the_lattice_cannot_be_stacked(tmp_path, capsys):
    # 4**16 lattice rows: stacking them (and meshgrid's 16 copies) would
    # take about 1.1 TB; the start set holds only the rows it uses
    rng = np.random.default_rng(16)
    p = 16
    lam = np.triu(rng.uniform(-2.0, 2.0, size=(p, p)), k=1)
    params = write_params(
        tmp_path / "p16.json",
        kappa=rng.uniform(0.0, 5.0, size=p).tolist(),
        mu=rng.uniform(0.0, 2.0 * np.pi, size=p).tolist(),
        **{"lambda": (lam + lam.T).tolist()},
    )
    assert cli.main(["modes", "--params", params, "--max-iter", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["search_meta"]["starts_used"] == 512


def test_modes_on_a_subnormal_kappa_divides_by_no_small_eigenvalue(tmp_path, capsys):
    # the polish's pseudo-inverse drops the subnormal Hessian eigenvalue
    # before it inverts, so 1/w cannot overflow (a RuntimeWarning fails the
    # suite)
    path = write_params(
        tmp_path / "sub.json", mu=[0, 0], kappa=[1.0, 5e-324], **{"lambda": [[0, 0], [0, 0]]}
    )
    assert cli.main(["modes", "--params", path, "--json"]) == 0
    assert capsys.readouterr().err == ""



@pytest.mark.parametrize(
    "family,scale,maxima,certify_code",
    [("six", 1e-4, 6, 2), ("six", 1e-8, 6, 2), ("ref", 1e-6, 1, 0)],
)
def test_modes_counts_maxima_at_any_scale_of_f(tmp_path, capsys, family, scale, maxima,
                                               certify_code):
    # c * f has the critical points of f, but the search's levels are
    # absolute: below an f range of 1 it runs on f scaled by a power of two,
    # or these sets lose maxima, the six-mode x 1e-8 set every point
    kappa, coupling = {"six": (np.sin(0.1), RING_COUPLING), "ref": (3.0, REFERENCE_COUPLING)}[family]
    path = write_params(
        tmp_path / f"{family}.json",
        kappa=[kappa * scale] * 3,
        **{"lambda": (np.asarray(coupling) * scale).tolist()},
    )
    assert cli.main(["certify", "--params", path, "--json"]) == certify_code
    verdict = json.loads(capsys.readouterr().out)["certificate"]["verdict"]
    assert cli.main(["modes", "--params", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["n_maxima"] == maxima
    assert report["extended_mode_suspected"] is False
    assert (verdict != "Inconclusive") == (maxima == 1)


#: P has entries of 1e300 beside subnormal and 1e-300 ones: LAPACK's eigh
#: does not converge on it until it is scaled by a power of two
_EIGH_FAILS = {
    "mu": [0, 0, 0, 0, 0],
    "kappa": [1e-08, 1, 0.3, 50, 5e-324],
    "lambda": [
        [0, -1e-300, -0.3, -1e4, 1e300],
        [-1e-300, 0, -3, 3, -1e-300],
        [-0.3, -3, 0, 50, -1e4],
        [-1e4, 3, 50, 0, 1],
        [1e300, -1e-300, -1e4, 1, 0],
    ],
}


@pytest.mark.parametrize(
    "command,code",
    [(["certify"], 2), (["modes"], 0), (["forecast"], 3), (["sample", "--n", "10"], 3)],
)
def test_an_eigen_solve_that_does_not_converge_is_retried_scaled(
    tmp_path, capsys, command, code
):
    # certify is inconclusive, forecast and sample refuse P as not
    # positive definite, and modes reports, all with no warning
    path = write_params(tmp_path / "wild.json", **_EIGH_FAILS)
    out = tmp_path / "out.txt"
    assert cli.main([command[0], "--params", path, *command[1:], "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "did not converge" not in err
    if code == 3:
        assert err.startswith("error: P is not certified positive definite")


#: magnitudes of the adversarial parameter files: zero, subnormal, tiny,
#: moderate and near overflow
_MAGNITUDES = (0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 3.0, 50.0, 1e4, 1e8, 1e150, 1e300)

#: every command, cut to its cheapest run, and the exit codes it may give
_EVERY_COMMAND = (
    (("certify",), {0, 1, 2}),
    (("modes",), {0, 1}),
    (("sample", "--n", "2"), {0, 1, 3}),
    (("forecast", "--n-per-dim", "16"), {0, 1, 3}),
    (("grid", "--n", "4", "--dims", "0"), {0, 1}),
    (("cube", "--grid-n", "0"), {0, 1}),
)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_every_command_handles_adversarial_magnitudes(tmp_path_factory, data):
    # finite extremes must end in a documented exit code: exit 0 output
    # holds no NaN or Infinity, exit 1 prints exactly one error line (not
    # the JSON encoder's refusal of a NaN), and nothing warns or escapes
    p = data.draw(st.integers(1, 5), label="p")
    n = p * (p - 1) // 2
    kappa = data.draw(st.lists(st.sampled_from(_MAGNITUDES), min_size=p, max_size=p))
    coupling = data.draw(st.lists(st.sampled_from(_MAGNITUDES), min_size=n, max_size=n))
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    lam = np.zeros((p, p))
    lam[np.triu_indices(p, 1)] = np.multiply(coupling, signs)
    path = tmp_path_factory.mktemp("adversarial") / "params.json"
    write_params(path, kappa=kappa, **{"lambda": (lam + lam.T).tolist()})
    for argv, codes in _EVERY_COMMAND:
        out, err = io.StringIO(), io.StringIO()
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            warnings.simplefilter("error")
            code = cli.main([argv[0], "--params", str(path), *argv[1:], "--json"])
        out, err = out.getvalue(), err.getvalue()
        assert code in codes, (argv, err)
        if code == 0:
            assert "NaN" not in out and "Infinity" not in out, argv
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert "JSON compliant" not in err, argv


def test_cli_import_leaves_the_thread_pool_unloaded():
    code = "import sys, mvmtorus.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


# ---------------------------------------------------------------------------
# sample


def test_sample_deterministic_csv(univariate_file, tmp_path):
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    a = run_cli(
        "sample", "--params", univariate_file, "--n", "10000", "--out", str(a_path)
    )
    b = run_cli(
        "sample", "--params", univariate_file, "--n", "10000", "--out", str(b_path)
    )
    assert a.returncode == b.returncode == 0
    assert a_path.read_bytes() == b_path.read_bytes()
    lines = a_path.read_text().splitlines()
    assert lines[0] == "theta1"
    assert len(lines) == 1 + 10000
    values = np.array([float(x) for x in lines[1:]])
    assert np.all((values >= 0.0) & (values < 2.0 * np.pi))
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["trials"] >= 10000
    assert manifest["empirical_acceptance"] == pytest.approx(
        10000 / manifest["trials"]
    )


def test_sample_sharded_equals_unsharded(univariate_file, tmp_path):
    a_path = tmp_path / "seq.csv"
    b_path = tmp_path / "par.csv"
    run_cli("sample", "--params", univariate_file, "--n", "9000", "--out", str(a_path))
    run_cli(
        "sample",
        "--params",
        univariate_file,
        "--n",
        "9000",
        "--shards",
        "4",
        "--out",
        str(b_path),
    )
    assert a_path.read_bytes() == b_path.read_bytes()


def test_sample_seed_flag_overrides_file_seed(univariate_file, tmp_path):
    a = run_cli("sample", "--params", univariate_file, "--n", "64", "--seed", "7")
    b = run_cli("sample", "--params", univariate_file, "--n", "64", "--seed", "8")
    assert a.stdout != b.stdout


def _csv_writer_text(draws):
    """The sample CSV as csv.writer with repr(float) cells writes it."""
    header = [f"theta{i + 1}" for i in range(draws.shape[1])]
    return csv_writer_text([header] + list(draws))


def _blocks(draws):
    """``draws`` cut into sampler blocks, as ``sampler.sample_blocks`` yields
    them (an empty array gives one empty block)."""
    size = sampler.BLOCK_SIZE
    return [draws[i : i + size] for i in range(0, max(len(draws), 1), size)]


def _streamed_csv(draws):
    buf = io.StringIO()
    cli._write_sample_csv(buf, _blocks(draws))
    return buf.getvalue()


def test_sample_csv_matches_csv_writer():
    tiny = np.finfo(float).tiny
    edge = np.array(
        [
            [0.0, np.nextafter(2.0 * np.pi, 0.0), 5e-324],
            [tiny / 2.0, tiny, 3.0],
            [1e-300, 6.283185307179586, 0.1 + 0.2],
            [np.pi, 1.0, 2.5e-17],
        ]
    )
    assert _streamed_csv(edge) == _csv_writer_text(edge)
    # rows on both sides of each block boundary
    rows = 2 * sampler.BLOCK_SIZE + 3
    draws = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=(rows, 4))
    assert _streamed_csv(draws) == _csv_writer_text(draws)
    assert _streamed_csv(draws[:0]) == "theta1,theta2,theta3,theta4\n"


#: sampler angles: any float in [0, 2*pi), plus the subnormal and near-2*pi edges
_ANGLES = st.one_of(
    st.floats(0.0, 2.0 * np.pi, exclude_max=True),
    st.sampled_from([5e-324, np.finfo(float).tiny / 2.0, np.nextafter(2.0 * np.pi, 0.0)]),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sample_csv_matches_csv_writer_on_any_block_partition(data):
    p = data.draw(st.integers(1, 8), label="p")
    rows = data.draw(st.lists(st.lists(_ANGLES, min_size=p, max_size=p), max_size=30))
    draws = np.array(rows, dtype=float).reshape(len(rows), p)
    # cut points may repeat and may be 0, so empty blocks (the first too) occur
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4), label="cuts"))
    bounds = [0, *cuts, len(rows)]
    buf = io.StringIO()
    cli._write_sample_csv(buf, [draws[a:b] for a, b in zip(bounds, bounds[1:])])
    assert buf.getvalue() == _csv_writer_text(draws)


def test_sample_csv_writes_at_most_1024_rows_at_once(tmp_path):
    # the sampler yields whole blocks, about 1870 draws each on the p = 4
    # set at acceptance 0.91; the writer formats and writes each in pieces
    # of at most 1024 rows, so its text stays bounded as acceptance nears
    # 1, and the bytes are those of one csv.writer pass
    class Spy:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    path = write_params(
        tmp_path / "het4.json",
        kappa=[2.0, 8.0, 8.0, 30.0],
        mu=[0.3, 1.1, 2.5, 5.0],
        **{"lambda": [[0.0, 0.4, -0.3, 0.2], [0.4, 0.0, 0.5, -0.1],
                      [-0.3, 0.5, 0.0, 0.3], [0.2, -0.1, 0.3, 0.0]]},
    )
    params, _ = cli.load_param_file(path)
    n = 3 * sampler.BLOCK_SIZE + 5
    blocks = [draws for draws, _ in sampler.sample_blocks(params, n, seed=3)]
    assert max(map(len, blocks)) > 1024
    spy = Spy()
    cli._write_sample_csv(spy, blocks)
    rows = [text.count("\n") for text in spy.writes]
    assert max(rows) <= 1024 and sum(rows) == n + 1
    assert "".join(spy.writes) == _csv_writer_text(sampler.sample_mvm(params, n, seed=3).draws)


def test_sample_csv_streams_in_bounded_memory():
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    draws = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, size=(100_000, 3))
    sink = Sink()
    tracemalloc.start()
    try:
        cli._write_sample_csv(sink, _blocks(draws))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole text is ~6 MB; one block of rows as Python floats and text
    # stays near 1 MB
    assert sink.size > 5_000_000
    assert peak < 4_000_000


@pytest.mark.parametrize("shards", [1, 2])
def test_sample_command_memory_is_bounded_in_n(univariate_file, tmp_path, shards):
    # draws are written block by block as they are accepted, so 128 blocks
    # peak where 2 do, while holding all of them would add 4.2 MB per copy.
    # How far the worker threads' blocks overlap moves the peak by up to
    # ~1.7 MB from run to run, so the bound is additive: 2 MB over the
    # highest of five 2-block runs
    out = tmp_path / "draws.csv"

    def peak(blocks):
        n = blocks * sampler.BLOCK_SIZE
        argv = ["sample", "--params", univariate_file, "--n", str(n),
                "--shards", str(shards), "--out", str(out)]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(out) as fh:
            assert sum(1 for _ in fh) == 1 + n
        return traced

    small = max(peak(2) for _ in range(5))
    assert peak(128) <= small + 2_000_000


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_sample_stream_equals_the_stacked_batch(heterogeneous_file, tmp_path, capsys, shards):
    # rows on both sides of each block boundary, and a short last block
    n = 2 * sampler.BLOCK_SIZE + 17
    out = tmp_path / "draws.csv"
    argv = ["sample", "--params", heterogeneous_file, "--n", str(n), "--shards", str(shards)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    params, seed = cli.load_param_file(heterogeneous_file)
    batch = sampler.sample_mvm(params, n, seed=seed)
    assert out.read_text() == _csv_writer_text(batch.draws)
    manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
    assert manifest["trials"] == batch.trials
    assert manifest["empirical_acceptance"] == batch.empirical_acceptance
    assert cli.main([*argv, "--json"]) == 0
    draws = json.loads(capsys.readouterr().out)["draws"]
    assert np.array_equal(draws, np.loadtxt(out, delimiter=",", skiprows=1))
    assert np.array_equal(draws, batch.draws)


def test_sample_manifest_records_proposal_d(heterogeneous_file, tmp_path):
    out_path = tmp_path / "draws.csv"
    assert cli.main(
        ["sample", "--params", heterogeneous_file, "--n", "200", "--out", str(out_path)]
    ) == 0
    manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
    params, _ = cli.load_param_file(heterogeneous_file)
    spec = ProposalSpec.from_params(params)
    assert manifest["config"]["proposal_d"] == list(spec.d)
    assert manifest["config"]["lambda_min_bound"] == spec.lambda_min_bound
    assert len(set(spec.d)) > 1  # the per-coordinate envelope is in use
    # the record names the coordinate drawn from its conditional, and null
    # under --lambda-min's product envelope
    assert manifest["config"]["collapsed"] == spec.collapsed == 0
    argv = ["sample", "--params", heterogeneous_file, "--n", "20", "--lambda-min", "0.5"]
    assert cli.main([*argv, "--out", str(out_path)]) == 0
    manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
    assert manifest["config"]["collapsed"] is None


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["forecast"],
    ["forecast", "--lambda-min", "0.5"],
    ["sample", "--n", "10"],
    ["sample", "--n", "10", "--lambda-min", "0.5"],
])
def test_each_run_resolves_the_envelope_once(reference_file, capsys, monkeypatch, argv):
    # the certificate and the eigendecomposition of P behind the envelope
    # are worked out once per run, not again for the spec already built
    specs = _count_calls(monkeypatch, sampler, "_resolve_spec")
    certificates = _count_calls(monkeypatch, spectral, "certify_unimodal")
    assert cli.main([*argv, "--params", reference_file]) == 0
    assert len(certificates) == 1
    assert len(specs) == (argv[0] != "certify")


def test_sample_rejects_indefinite_p(ring_file):
    out = run_cli("sample", "--params", ring_file, "--n", "10")
    assert out.returncode == 3
    assert "certify" in out.stderr


def test_sample_envelope_failure_is_a_precondition_error(
    reference_file, tmp_path, capsys, monkeypatch
):
    def fail(*args, **kwargs):
        raise sampler.BoundViolationError("acceptance exponent positive")

    monkeypatch.setattr(sampler, "_blocks", fail)
    out_csv = tmp_path / "draws.csv"
    argv = ["sample", "--params", reference_file, "--n", "100", "--out", str(out_csv)]
    assert cli.main(argv) == cli.EXIT_SAMPLER_PRECONDITION == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: acceptance exponent positive\nhint: check the envelope: run "
        f"`mvmtorus forecast --params {reference_file}`\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.json"]


def test_sample_huge_kappa_concentrates_at_mu(tmp_path):
    # kappa_1 = 1e200 puts the first coordinate at mu_1 to ~1e-100; the
    # acceptance exponent (c - 1) @ (kappa - d) has no 1e200-sized
    # cancellation, so sampling runs normally
    path = write_params(
        tmp_path / "huge.json",
        kappa=[1e200, 1.0, 1.0],
        mu=[0.0, 0.0, 0.0],
        **{"lambda": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    )
    out_csv = tmp_path / "draws.csv"
    assert cli.main(["sample", "--params", path, "--n", "500", "--out", str(out_csv)]) == 0
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert rows.shape == (500, 3)
    first = rows[:, 0]
    assert np.max(np.minimum(first, 2.0 * np.pi - first)) <= 1e-90
    assert np.std(np.cos(rows[:, 2])) > 0.1  # the other coordinates still vary


def test_sample_stall_is_a_precondition_error(reference_file, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise sampler.AcceptanceStallError("simulated")

    monkeypatch.setattr(sampler, "_blocks", fail)
    for out in ([], ["--out", str(tmp_path / "draws.csv")]):
        assert cli.main(["sample", "--params", reference_file, "--n", "10", *out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # the error and its hint, and no run record
        assert captured.err == (
            "error: simulated\nhint: check the envelope: run "
            f"`mvmtorus forecast --params {reference_file}`\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.json"]


def test_a_real_stall_points_at_forecast(tmp_path, capsys, monkeypatch):
    # P certifies, but the forced envelope d = 0.5 * 1 proposes the first
    # coordinate far wider than kappa_1 = 1e200 lets a draw land, so the
    # rejection loop stalls; forecast, not certify, shows why
    path = write_params(
        tmp_path / "huge.json",
        kappa=[1e200, 1.0, 1.0],
        **{"lambda": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    )
    monkeypatch.setattr(sampler, "STALL_FACTOR", 10.0)
    argv = ["sample", "--params", path, "--n", "10", "--lambda-min", "0.5"]
    assert cli.main(argv) == cli.EXIT_SAMPLER_PRECONDITION == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: \d+ proposals produced only 0/10 draws\nhint: check the envelope: run "
        + re.escape(f"`mvmtorus forecast --params {path} --lambda-min 0.5`\n"),
        captured.err,
    )
    assert cli.main(["certify", "--params", path]) == 0


def test_sample_stall_before_any_draw_prints_nothing(tmp_path, capsys, monkeypatch):
    # blocks that accept nothing reach the CSV writer as empty blocks; the
    # header waits for the first draw, so a run that stalls first prints
    # nothing on stdout
    path = write_params(tmp_path / "sharp.json", kappa=[1e16], **{"lambda": [[0.0]]})
    monkeypatch.setattr(sampler, "STALL_FACTOR", 1e4)
    argv = ["sample", "--params", path, "--n", "5", "--lambda-min", "1e-12"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 10240 proposals produced only 0/5 draws\n")


@pytest.mark.parametrize("shards", [1, 2])
def test_sample_stall_after_the_first_block(
    univariate_file, tmp_path, capsys, monkeypatch, shards
):
    real = sampler._sample_block
    first = []

    def later_blocks_accept_nothing(params, spec, seed_seq):
        rows, hits = real(params, spec, seed_seq)
        if seed_seq.spawn_key == (0,):
            first.append(len(rows))
            return rows, hits
        return rows[:0], hits[:0]

    monkeypatch.setattr(sampler, "_sample_block", later_blocks_accept_nothing)
    # at one proposal per draw the guard trips once the second, empty,
    # block has been drawn
    monkeypatch.setattr(sampler, "STALL_FACTOR", 1.0)
    argv = ["sample", "--params", univariate_file, "--n", str(sampler.BLOCK_SIZE + 1),
            "--shards", str(shards)]
    out_csv = tmp_path / "draws.csv"
    assert cli.main([*argv, "--out", str(out_csv)]) == 3
    assert capsys.readouterr().out == ""
    # the first block's rows were written, then removed with the file
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vm1.json"]

    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    # the rows printed before the failure stay; no record follows them
    lines = captured.out.splitlines()
    assert lines[0] == "theta1" and len(lines) == 1 + first[-1] > 1
    stall = rf"error: \d+ proposals produced only \d+/{sampler.BLOCK_SIZE + 1} draws\nhint: "
    assert re.match(stall, captured.err)
    assert not any(line.startswith("{") for line in captured.err.splitlines())


def test_runs_without_scipy(tmp_path, reference_file):
    # importing any scipy module raises once sys.modules["scipy"] is None
    p4 = write_params(
        tmp_path / "p4.json",
        kappa=[2.0, 8.0, 8.0, 30.0],
        mu=[0.5, 1.0, 1.5, 2.0],
        **{"lambda": [[0.0, 0.3, -0.2, 0.1], [0.3, 0.0, 0.2, -0.1],
                      [-0.2, 0.2, 0.0, 0.3], [0.1, -0.1, 0.3, 0.0]]},
    )
    code = f"""
import sys
sys.modules["scipy"] = None
import mvmtorus
from mvmtorus import cli
loaded = [name for name, mod in sys.modules.items()
          if name.startswith("scipy") and mod is not None]
assert not loaded, loaded
assert cli.main(["forecast", "--params", {p4!r}, "--json"]) == 0
assert cli.main(["sample", "--params", {reference_file!r}, "--n", "2000",
                 "--out", {str(tmp_path / "draws.csv")!r}]) == 0
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert 0.0 < doc["forecast"]["exact_rate"] < 1.0
    assert len((tmp_path / "draws.csv").read_text().splitlines()) == 2001


# ---------------------------------------------------------------------------
# forecast


def test_forecast_isotropic(tmp_path):
    path = write_params(
        tmp_path / "iso.json",
        kappa=[5.0, 5.0, 5.0],
        **{"lambda": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    )
    out = run_cli("forecast", "--params", path, "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["forecast"]["asymptotic_rate"] == pytest.approx(1.0, rel=1e-9)
    assert doc["forecast"]["exact_rate"] == pytest.approx(1.0, rel=1e-9)


def test_forecast_reference(reference_file):
    out = run_cli("forecast", "--params", reference_file, "--json")
    doc = json.loads(out.stdout)
    # one coordinate drawn from its conditional: d_q = kappa_q = 3 beside
    # d' = 1, so the asymptote is sqrt(3/7); the scalar envelope's is 1/sqrt(7)
    assert doc["forecast"]["asymptotic_rate"] == pytest.approx(np.sqrt(3.0 / 7.0), abs=1e-12)
    assert doc["forecast"]["exact_rate"] >= 0.38
    assert doc["forecast"]["collapsed"] == 0


def test_lambda_min_runs_keep_the_product_envelope_stream(tmp_path, capsys):
    # --lambda-min forces the paper's scalar envelope over all p
    # coordinates, which draws no coordinate from its conditional: the text
    # forecast, the sample draws and trials are those pinned before the
    # default envelope began to collapse a coordinate (draws to 1e-12,
    # since libm last bits can differ between hosts); --json adds only
    # "collapsed": null to the forecast
    path = write_params(
        tmp_path / "ref.json",
        kappa=[3.0, 3.0, 3.0],
        mu=[0.5, 4.0, 2.0],
        **{"lambda": [list(r) for r in REFERENCE_COUPLING]},
    )
    assert cli.main(["forecast", "--params", path, "--lambda-min", "0.5"]) == 0
    assert capsys.readouterr().out == (
        "asymptotic acceptance rate: 0.133630620956\n"
        "exact acceptance rate (quadrature): 0.0750383976608\n"
        "lambda_min bound: 0.5\n"
        "proposal d: [0.5, 0.5, 0.5]\n"
    )
    doc = _json_payload(capsys, "forecast", "--params", path, "--lambda-min", "0.5")
    assert list(doc["forecast"]) == [
        "asymptotic_rate", "exact_rate", "lambda_min_bound", "proposal_d", "collapsed",
    ]
    assert doc["forecast"]["collapsed"] is None
    out = tmp_path / "draws.csv"
    argv = ["sample", "--params", path, "--lambda-min", "0.5", "--n", "4", "--seed", "3"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    np.testing.assert_allclose(
        np.loadtxt(out, delimiter=",", skiprows=1),
        [
            [0.05939881436646566, 3.652717203973003, 1.5596667785349112],
            [0.35398514778351364, 4.311673781023874, 1.7004745156280099],
            [5.355055035211989, 3.8976178362581417, 1.0927142820321993],
            [0.9022782524366288, 3.4215170893824167, 1.8623037742498254],
        ],
        rtol=0.0,
        atol=1e-12,
    )
    manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
    assert manifest["trials"] == 53
    assert manifest["config"]["proposal_d"] == [0.5, 0.5, 0.5]


def test_forecast_reports_proposal_d(heterogeneous_file, capsys):
    params, _ = cli.load_param_file(heterogeneous_file)
    spec = ProposalSpec.from_params(params)
    assert cli.main(["forecast", "--params", heterogeneous_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for section in (doc["forecast"], doc["manifest"]["config"]):
        assert section["proposal_d"] == list(spec.d)
        assert section["lambda_min_bound"] == spec.lambda_min_bound
    assert cli.main(["forecast", "--params", heterogeneous_file]) == 0
    text = capsys.readouterr().out
    assert f"proposal d: [{', '.join(f'{x:.12g}' for x in spec.d)}]" in text
    # the scalar override puts b in every coordinate
    argv = ["forecast", "--params", heterogeneous_file, "--lambda-min", "1", "--json"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["forecast"]["proposal_d"] == [1.0, 1.0, 1.0]
    assert doc["forecast"]["lambda_min_bound"] == 1.0


def test_forecast_manifest_records_n_per_dim(reference_file, capsys):
    # the node count changes the exact rate, so the record must hold it
    default = _json_payload(capsys, "forecast", "--params", reference_file)
    coarse = _json_payload(capsys, "forecast", "--params", reference_file, "--n-per-dim", "16")
    assert default["manifest"]["config"]["n_per_dim"] is None
    assert coarse["manifest"]["config"]["n_per_dim"] == 16
    assert coarse["forecast"]["exact_rate"] != default["forecast"]["exact_rate"]
    assert list(coarse["manifest"]["config"]) == [
        "params", "lambda_min_bound", "proposal_d", "collapsed", "n_per_dim",
    ]
    assert coarse["manifest"]["config"]["collapsed"] == coarse["forecast"]["collapsed"] == 0


def test_forecast_rejects_indefinite_p(ring_file):
    out = run_cli("forecast", "--params", ring_file)
    assert out.returncode == 3


@pytest.mark.parametrize("command", [["forecast"], ["sample", "--n", "10"]])
def test_near_singular_certified_p_is_an_input_error(tmp_path, capsys, command):
    # certifies with exit 0, but lambda_min(P) = 1e-13 is below the
    # envelope slack; the error must not name --lambda-min, which was not passed
    near = 1.0 - 1e-13
    path = write_params(
        tmp_path / "near.json", kappa=[1.0, 1.0], **{"lambda": [[0.0, near], [near, 0.0]]}
    )
    assert cli.main(["certify", "--params", path]) == 0
    capsys.readouterr()
    out = tmp_path / "out.txt"
    assert cli.main([command[0], "--params", path, *command[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lambda_min(P) = 1.00031e-13 does not exceed the envelope slack")
    assert "bound must lie in" not in err
    assert not out.exists()


#: certified by the Cholesky test on the Jacobi-scaled P, while eigh on the
#: badly scaled P itself puts lambda_min at about -4e-11
_SCALED_NEAR_SINGULAR = {
    "kappa": [4061.450207216311, 1.2238248127455177e-05, 301898.57448126934],
    "lambda": [
        [0.0, -0.2188400849438606, 21727.83424092381],
        [-0.2188400849438606, 0.0, 0.8827774169416511],
        [21727.83424092381, 0.8827774169416511, 0.0],
    ],
}


@pytest.mark.parametrize("command", [["forecast"], ["sample", "--n", "10"]])
def test_sampler_gate_agrees_with_certify(tmp_path, capsys, command):
    # one definiteness test: a P that certify certifies is never refused as
    # not positive definite (exit 3); too close to singular to sample, it is
    # an input error naming the envelope slack
    path = write_params(tmp_path / "scaled.json", **_SCALED_NEAR_SINGULAR)
    assert cli.main(["certify", "--params", path]) == 0
    assert "verdict: CertifiedUnimodal\n" in capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert cli.main([command[0], "--params", path, *command[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lambda_min(P) = ")
    assert "does not exceed the envelope slack" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scaled.json"]


# ---------------------------------------------------------------------------
# cube and grid


def test_cube_two_mode_vertex_table(tmp_path):
    path = write_params(
        tmp_path / "twomode.json",
        kappa=[0.0, 0.0, 0.0],
        **{"lambda": [list(r) for r in TWO_MODE_COUPLING]},
    )
    out = run_cli("cube", "--params", path, "--grid-n", "5")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    vertex_rows = [l.split(",") for l in lines[1:] if l.startswith("vertex")]
    values = {tuple(int(x) for x in r[4:7]): float(r[7]) for r in vertex_rows}
    top = max(values.values())
    best = {v for v, g in values.items() if g == top}
    assert best == {(1, 1, 1), (-1, -1, -1)}
    assert top == pytest.approx(2.58, abs=1e-12)


def test_cube_ring_has_six_tied_vertices(ring_file):
    out = run_cli("cube", "--params", ring_file, "--json")
    doc = json.loads(out.stdout)
    assert len(doc["best_vertices"]) == 6


def test_cube_zero_coupling_all_zero(tmp_path):
    path = write_params(
        tmp_path / "flat.json",
        kappa=[0.0, 0.0, 0.0],
        **{"lambda": [[0.0] * 3 for _ in range(3)]},
    )
    out = run_cli("cube", "--params", path, "--grid-n", "4")
    rows = [l for l in out.stdout.splitlines()[1:]]
    assert all(float(r.split(",")[-1]) == 0.0 for r in rows)


def test_cube_records_that_it_ignores_kappa(reference_file, ring_file):
    # the analysis assumes kappa = 0: the run record, the one stderr line,
    # says whether the file's kappa was ignored
    for path, ignored in ((reference_file, True), (ring_file, False)):
        out = run_cli("cube", "--params", path, "--grid-n", "2")
        assert out.returncode == 0
        (line,) = out.stderr.splitlines()
        assert json.loads(line)["config"]["kappa_ignored"] is ignored


def test_grid_csv_matches_library(tmp_path):
    path = write_params(
        tmp_path / "pair.json",
        kappa=[1.0, 2.0],
        **{"lambda": [[0.0, 0.7], [0.7, 0.0]]},
    )
    out = run_cli("grid", "--params", path, "--dims", "0,1", "--n", "6")
    assert out.returncode == 0
    from mvmtorus import MvmParams
    from mvmtorus.oracle import density_grid

    params = MvmParams(
        mu=np.zeros(2), kappa=np.array([1.0, 2.0]), lam=np.array([[0.0, 0.7], [0.7, 0.0]])
    )
    values = density_grid(params, (0, 1), 6)
    lines = out.stdout.splitlines()
    assert lines[0] == "i,j,theta1,theta2,value"
    for line in lines[1:]:
        parts = line.split(",")
        i, j = int(parts[0]), int(parts[1])
        assert float(parts[4]) == values[i, j]


def test_grid_json_matches_csv_and_evaluates_once(tmp_path, capsys, monkeypatch):
    path = write_params(
        tmp_path / "pair.json",
        kappa=[1.0, 2.0],
        **{"lambda": [[0.0, 0.7], [0.7, 0.0]]},
    )
    calls = []
    original = oracle.density_grid

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, "density_grid", counted)
    argv = ["grid", "--params", path, "--n", "7"]
    assert cli.main(argv + ["--json"]) == 0
    assert len(calls) == 1
    values = json.loads(capsys.readouterr().out)["values"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 49
    for line in rows:
        i, j, _, _, value = line.split(",")
        assert float(value) == values[int(i)][int(j)]


def test_grid_rejects_bad_dims(tmp_path, capsys):
    # the input is checked before the CSV header: nothing reaches stdout
    path = write_params(tmp_path / "p1.json", kappa=[1.0], **{"lambda": [[0.0]]})
    out = tmp_path / "grid.csv"
    for flags, message in (
        (["--dims", "0,5"], "coordinate index 5 out of range for p=1"),
        (["--dims", "0,0,0"], "dims must name one or two coordinates"),
        (["--dims", "0", "--n", "0"], "n must be >= 1, got 0"),
    ):
        for extra in ([], ["--out", str(out)], ["--json"]):
            assert cli.main(["grid", "--params", path, "--n", "8", *flags, *extra]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["p1.json"]


@pytest.mark.parametrize(
    "given,flags,point",
    [
        ("0,0,0.5", [], [0.0, 0.0, 0.5]),
        ("0,0,30", ["--degrees"], [0.0, 0.0, np.pi / 6]),
        ("1,0,-2", ["--dims", "1,2"], [1.0, 0.0, -2.0]),
    ],
)
def test_grid_slice_matches_library(reference_file, tmp_path, given, flags, point):
    params, _ = cli.load_param_file(reference_file)
    dims = (1, 2) if "--dims" in flags else (0, 1)
    out = tmp_path / "grid.csv"
    argv = ["grid", "--params", reference_file, "--n", "5", "--slice", given, *flags]
    assert cli.main([*argv, "--out", str(out)]) == 0
    values = oracle.density_grid(params, dims, 5, slice_point=np.array(point))
    assert not np.array_equal(values, oracle.density_grid(params, dims, 5))
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 25
    for line in rows:
        i, j, _, _, value = line.split(",")
        assert float(value) == values[int(i), int(j)]
    # the record replays the run: the slice in radians
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["config"]["slice"] == pytest.approx(point, abs=1e-15)
    assert cli.main(["grid", "--params", reference_file, "--n", "5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["config"]["slice"] is None


@pytest.mark.parametrize(
    "given,message",
    [
        ("0,0.5", "slice point dimension mismatch"),
        ("0,0,0,1", "slice point dimension mismatch"),
        ("0,x,1", "--slice must be comma-separated angles"),
        ("0,,1", "--slice must be comma-separated angles"),
    ],
)
def test_grid_bad_slice_is_an_input_error(reference_file, tmp_path, capsys, given, message):
    out = tmp_path / "grid.csv"
    for flags in ([], ["--out", str(out)], ["--json"]):
        argv = ["grid", "--params", reference_file, "--n", "4", "--slice", given, *flags]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.json"]


# ---------------------------------------------------------------------------
# JSON round-trips


@pytest.mark.parametrize(
    "argv",
    [
        ("certify",),
        ("modes",),
        ("forecast",),
    ],
)
def test_json_reports_round_trip(reference_file, argv):
    out = run_cli(*argv, "--params", reference_file, "--json")
    doc = json.loads(out.stdout)
    assert json.loads(json.dumps(doc)) == doc


def _field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _json_payload(capsys, *argv):
    assert cli.main([*argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc)[0] == "manifest"
    return doc


# the body keys are pinned twice: to the report object's fields in order,
# and to the literal keys, so a renamed field cannot rename a key unseen


def test_certify_json_keys_are_the_certificate_fields(reference_file, capsys):
    cert = _json_payload(capsys, "certify", "--params", reference_file)["certificate"]
    assert list(cert) == _field_names(spectral.UnimodalityCertificate) == [
        "verdict", "prop1_holds", "cor1_holds", "p_matrix", "p_eigenvalues", "gershgorin",
    ]
    assert list(cert["gershgorin"]) == _field_names(spectral.GershgorinReport) == [
        "centers", "radii", "excludes_zero",
    ]
    assert cert["verdict"] == "CertifiedUnimodal"


def test_modes_json_keys_are_the_report_fields(reference_file, capsys):
    report = _json_payload(capsys, "modes", "--params", reference_file)["report"]
    assert list(report) == _field_names(modes.ModeReport) == [
        "n_maxima", "extended_mode_suspected", "search_meta", "criticals",
    ]
    assert list(report["search_meta"]) == _field_names(modes.SearchMeta) == [
        "starts_used", "converged", "seed",
    ]
    assert len(report["criticals"]) > 1
    for point in report["criticals"]:
        assert list(point) == _field_names(modes.CriticalPoint) == [
            "theta", "f_value", "grad_norm", "hessian_eigenvalues", "kind",
        ]
        assert len(point["theta"]) == 3


def test_forecast_json_keys_are_the_forecast_fields(reference_file, capsys):
    forecast = _json_payload(capsys, "forecast", "--params", reference_file)["forecast"]
    assert list(forecast) == _field_names(sampler.AcceptanceForecast) == [
        "asymptotic_rate", "exact_rate", "lambda_min_bound", "proposal_d", "collapsed",
    ]


@dataclasses.dataclass(frozen=True)
class _NumpyReport:
    flag: np.bool_
    count: np.int64
    value: np.float64
    kind: modes.PointKind
    point: mvmtorus.TorusPoint
    inner: list


def test_plain_gives_json_data_for_numpy_scalars():
    report = _NumpyReport(
        flag=np.bool_(True),
        count=np.int64(3),
        value=np.float64(0.25),
        kind=modes.PointKind.SADDLE,
        point=mvmtorus.TorusPoint(np.array([1.0, 2.0])),
        inner=[modes.SearchMeta(starts_used=np.int64(4), converged=2, seed=0)],
    )
    doc = cli._plain(report)
    assert json.loads(json.dumps(doc, allow_nan=False)) == {
        "flag": True,
        "count": 3,
        "value": 0.25,
        "kind": "Saddle",
        "point": [1.0, 2.0],
        "inner": [{"starts_used": 4, "converged": 2, "seed": 0}],
    }
    assert [type(doc[k]) for k in ("flag", "count", "value")] == [bool, int, float]


def test_eta_conflicts_with_explicit_coupling(tmp_path):
    path = write_params(
        tmp_path / "conflict.json", eta=0.1, kappa=[1.0], **{"lambda": [[0.0]]}
    )
    out = run_cli("certify", "--params", path)
    assert out.returncode == 1
    assert "eta" in out.stderr


def _parsed(path, degrees):
    """The parsed arrays' bytes, or the input error's message."""
    try:
        params, _ = cli.load_param_file(path, degrees)
    except ValueError as exc:
        return str(exc)
    return [a.tobytes() for a in (params.mu.angles, params.kappa, params.lam)]


@pytest.mark.parametrize("degrees", [False, True])
@pytest.mark.parametrize("eta", [0.1, -0.7, 2.0])
def test_eta_file_parses_as_its_explicit_kappa_and_lambda(tmp_path, eta, degrees):
    # a negative eta gives a negative kappa, refused alike in both files
    mu = [0.5, 200.0, -3.0]
    angle = np.deg2rad(eta) if degrees else eta
    explicit = write_params(
        tmp_path / "explicit.json",
        mu=mu,
        kappa=[float(np.sin(angle))] * 3,
        **{"lambda": [list(r) for r in RING_COUPLING]},
    )
    eta_file = write_params(tmp_path / "eta.json", eta=eta, mu=mu)
    assert _parsed(eta_file, degrees) == _parsed(explicit, degrees)
    assert isinstance(_parsed(eta_file, degrees), str) == (eta < 0)


def test_eta_file_accepts_p_3_as_a_float(tmp_path):
    params, _ = cli.load_param_file(write_params(tmp_path / "eta.json", eta=0.1, p=3.0))
    assert params.p == 3


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"eta": 0.1, "kappa": [1.0, 1.0, 1.0]}, "field 'eta' replaces 'kappa' and 'lambda'"),
        ({"eta": 0.1, "p": 4}, "field 'eta' implies p=3"),
        ({"eta": 0.1, "mu": [0.0, 1.0]}, "field 'mu' must have length 3, got 2"),
    ],
)
def test_eta_file_input_errors(tmp_path, capsys, fields, message):
    path = write_params(tmp_path / "eta.json", **fields)
    assert cli.main(["certify", "--params", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# non-finite input


@pytest.mark.parametrize(
    "argv,bad",
    [
        (("certify",), float("nan")),
        (("certify",), float("inf")),
        (("modes",), float("nan")),
        (("forecast",), float("nan")),
        (("sample", "--n", "10"), float("nan")),
        (("grid", "--n", "4"), float("nan")),
    ],
)
def test_non_finite_mu_is_an_input_error(tmp_path, capsys, argv, bad):
    path = write_params(
        tmp_path / "nan_mu.json",
        mu=[bad, 0.0, 0.0],
        kappa=[3.0, 3.0, 3.0],
        **{"lambda": [list(r) for r in REFERENCE_COUPLING]},
    )
    out_path = tmp_path / "out"
    for out_flag in (["--out", str(out_path)], []):
        assert cli.main([*argv, "--params", path, *out_flag]) == 1
        out = capsys.readouterr()
        # the one error line: no run record on stderr or beside --out
        assert out.err.startswith("error: mu: angles must be finite")
        assert out.err.count("\n") == 1
        assert out.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nan_mu.json"]


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
@pytest.mark.parametrize(
    "body,message",
    [
        ('"kappa": [3, %s, 3], "lambda": [[0, -2, 2], [-2, 0, 2], [2, 2, 0]]',
         "kappa entries must be finite"),
        ('"kappa": [3, 3, 3], "lambda": [[0, %s, 2], [-2, 0, 2], [2, 2, 0]]',
         "lambda entries must be finite"),
        ('"eta": %s', "field 'eta' must be finite, got "),
    ],
    ids=["kappa", "lambda", "eta"],
)
def test_non_finite_parameters_are_input_errors(tmp_path, capsys, bad, body, message):
    # Python's JSON parser reads NaN and Infinity, and 1e400 overflows to
    # an infinity; eta is refused before its sine can warn
    path = tmp_path / "bad.json"
    path.write_text("{" + body % bad + "}")
    out_path = tmp_path / "out"
    for argv in (["certify"], ["forecast"], ["sample", "--n", "10", "--out", str(out_path)]):
        assert cli.main([*argv, "--params", str(path)]) == 1
        out = capsys.readouterr()
        # the one error line: no warning, no run record, no file
        assert out.err.startswith(f"error: {message}")
        assert out.err.count("\n") == 1
        assert out.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


# ---------------------------------------------------------------------------
# size and count flags


# every command passes the value on and reports the library's check
@pytest.mark.parametrize(
    "argv,message",
    [
        (("sample", "--n", "10", "--shards", "-3"), "workers must be >= 1, got -3"),
        (("sample", "--n", "10", "--shards", "0"), "workers must be >= 1, got 0"),
        (("sample", "--n", "0"), "n must be >= 1, got 0"),
        (("grid", "--n", "0"), "n must be >= 1, got 0"),
        (("grid", "--n", "-3"), "n must be >= 1, got -3"),
        (("cube", "--grid-n", "-2"), "grid_n must be >= 0, got -2"),
        (("forecast", "--n-per-dim", "0"), "n_per_dim must be >= 16, got 0"),
        (("forecast", "--n-per-dim", "15"), "n_per_dim must be >= 16, got 15"),
        (("sample", "--n", "10", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("modes", "--seed", "-1"), "seed must be >= 0, got -1"),
    ],
)
def test_size_flags_below_minimum_are_input_errors(
    reference_file, tmp_path, capsys, argv, message
):
    out_path = tmp_path / "out"
    assert cli.main([*argv, "--params", reference_file, "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.json"]


def _isotropic_file(directory, p):
    return write_params(
        directory / f"iso{p}.json", kappa=[2.0] * p, **{"lambda": [[0.0] * p for _ in range(p)]}
    )


# the node floor holds at every p, above p = 4 too, where no quadrature runs
@pytest.mark.parametrize("p", [4, 5])
@pytest.mark.parametrize("n_per_dim", ["0", "15", "-7"])
def test_forecast_node_floor_holds_at_every_p(tmp_path, capsys, p, n_per_dim):
    path = _isotropic_file(tmp_path, p)
    out_path = tmp_path / "out"
    argv = ["forecast", "--params", path, "--n-per-dim", n_per_dim, "--out", str(out_path)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: n_per_dim must be >= 16, got {n_per_dim}\n"
    assert captured.out == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == [f"iso{p}.json"]


def test_forecast_above_p_4_runs_no_quadrature(tmp_path, capsys):
    path = _isotropic_file(tmp_path, 5)
    doc = _json_payload(capsys, "forecast", "--params", path, "--n-per-dim", "32")
    assert doc["forecast"]["exact_rate"] is None
    assert doc["forecast"]["asymptotic_rate"] == pytest.approx(1.0, rel=1e-9)
    assert doc["manifest"]["config"]["n_per_dim"] == 32


@pytest.mark.parametrize(
    "argv", [["certify"], ["sample", "--n", "10"], ["grid", "--n", "3"], ["modes"]]
)
def test_unwritable_out_is_an_input_error(reference_file, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    extra = ["--criticals-csv", str(tmp_path / "crit.csv")] if argv == ["modes"] else []
    assert cli.main([*argv, "--params", reference_file, "--out", str(out), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert captured.out == ""
    # nothing is left, not even the criticals CSV written before --out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.json"]


def test_unwritable_out_removes_the_six_mode_criticals_csv(tmp_path, capsys):
    # the criticals CSV is written first; --out cannot be opened after it
    params = write_params(tmp_path / "six.json", eta=0.1)
    crit, out = tmp_path / "c.csv", tmp_path / "missing" / "o.json"
    argv = ["modes", "--params", params, "--criticals-csv", str(crit), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["six.json"]


@pytest.mark.parametrize("argv", [["sample", "--n", "10"], ["grid", "--n", "3"]])
def test_unwritable_manifest_removes_the_csv(reference_file, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    (tmp_path / "out.csv.manifest.json").mkdir()
    assert cli.main([*argv, "--params", reference_file, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno ") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.csv.manifest.json", "reference.json"
    ]


def test_unwritable_criticals_csv_is_an_input_error(reference_file, tmp_path, capsys):
    crit = tmp_path / "missing" / "crit.csv"
    argv = ["modes", "--params", reference_file, "--criticals-csv", str(crit)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: '{crit}'\n"
    assert captured.out == ""


def test_criticals_csv_on_the_out_file_is_an_input_error(reference_file, tmp_path, capsys):
    same = str(tmp_path / "same.json")
    argv = ["modes", "--params", reference_file, "--out", same, "--criticals-csv", same]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --criticals-csv and --out name the same file: {same}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reference.json"]


@pytest.mark.parametrize(
    "argv,params_name,out_name,message",
    [
        (["certify"], "p.json", "./p.json", "--params and --out"),
        (["sample", "--n", "10", "--json"], "p.json", "p.json", "--params and --out"),
        (
            ["grid", "--n", "3"],
            "g.csv.manifest.json",
            "g.csv",
            "--params and the manifest beside --out",
        ),
    ],
    ids=["certify", "sample-json", "grid-manifest"],
)
def test_out_over_the_params_file_is_an_input_error(
    tmp_path, capsys, argv, params_name, out_name, message
):
    params = write_params(
        tmp_path / params_name,
        kappa=[3.0, 3.0, 3.0],
        **{"lambda": [list(r) for r in REFERENCE_COUPLING]},
    )
    before = (tmp_path / params_name).read_bytes()
    out = f"{tmp_path}/{out_name}"
    assert cli.main([*argv, "--params", params, "--out", out]) == 1
    captured = capsys.readouterr()
    clobbered = out + (".manifest.json" if argv[0] == "grid" else "")
    assert captured.err == f"error: {message} name the same file: {clobbered}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == [params_name]
    assert (tmp_path / params_name).read_bytes() == before


def test_out_of_memory_is_an_input_error(reference_file, tmp_path, capsys, monkeypatch):
    # stands in for `grid --json --n 200000`, whose 2e5 x 2e5 result numpy
    # cannot allocate (the CSV streams its rows, so only --json holds the
    # grid); the test does not try the allocation itself
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB")

    monkeypatch.setattr(oracle, "density_grid", fail)
    out_path = tmp_path / "grid.json"
    argv = ["grid", "--params", reference_file, "--n", "200000", "--json", "--out", str(out_path)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: Unable to allocate 298. GiB\n"
    assert captured.out == ""
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# overflow, tiny concentration and impossible rates


@pytest.mark.parametrize(
    "command,lam12",
    [("certify", 1.0), ("modes", 1.0), ("forecast", 1.0), ("certify", 1e308)],
)
def test_overflowing_parameters_are_input_errors(tmp_path, capsys, command, lam12):
    path = write_params(
        tmp_path / "huge.json", kappa=[1e308, 1e308], **{"lambda": [[0.0, lam12], [lam12, 0.0]]}
    )
    assert cli.main([command, "--params", path, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: kappa and lambda are too large: the range of f, sum(kappa) + "
        "0.5 * sum |lambda_ij|, overflows a float\n"
    )
    assert captured.out == ""


def test_tiny_kappa_samples_and_forecasts(tmp_path, capsys):
    path = write_params(
        tmp_path / "tiny.json", kappa=[1e-300, 1e-300], **{"lambda": [[0.0, 0.0], [0.0, 0.0]]}
    )
    assert cli.main(["forecast", "--params", path, "--json"]) == 0
    forecast = json.loads(capsys.readouterr().out)["forecast"]
    assert forecast["asymptotic_rate"] == pytest.approx(1.0, abs=1e-9)
    assert forecast["exact_rate"] == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < forecast["lambda_min_bound"] <= 1e-300
    out_csv = tmp_path / "draws.csv"
    assert cli.main(["sample", "--params", path, "--n", "200", "--out", str(out_csv)]) == 0
    assert len(out_csv.read_text().splitlines()) == 201


def test_forecast_rejects_an_exact_rate_above_one(tmp_path, capsys):
    # 128 nodes alias exp(1e4 cos t): the trapezoid sum overshoots Z ~4x
    path = write_params(
        tmp_path / "sharp.json", kappa=[1e4, 1e4], **{"lambda": [[0.0, 1.0], [1.0, 0.0]]}
    )
    assert cli.main(["forecast", "--params", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: quadrature failed: exact acceptance rate 3.8")
    assert "128 nodes per dimension" in captured.err
    assert "--n-per-dim" in captured.err
    assert captured.out == ""
    assert cli.main(["forecast", "--params", path, "--n-per-dim", "4096", "--json"]) == 0
    assert 0.999 < json.loads(capsys.readouterr().out)["forecast"]["exact_rate"] <= 1.0


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "argv,message",
    [
        (("forecast", "--n", "1000"), "unrecognized arguments: --n 1000"),
        (("modes", "--n", "5"), "unrecognized arguments: --n 5"),
        (("sample", "--n", "ten"), "argument --n: invalid int value: 'ten'"),
        (("sample",), "the following arguments are required: --n"),
        (("grid", "--dim", "0,1"), "unrecognized arguments: --dim 0,1"),
        # --seed belongs to the two commands that draw: modes and sample
        (("certify", "--seed", "3"), "unrecognized arguments: --seed 3"),
        (("forecast", "--seed", "3"), "unrecognized arguments: --seed 3"),
        (("cube", "--seed", "3"), "unrecognized arguments: --seed 3"),
        (("grid", "--seed", "3"), "unrecognized arguments: --seed 3"),
    ],
)
def test_usage_errors_exit_1_without_abbreviations(reference_file, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--params", reference_file, *argv[1:]])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: mvmtorus")
    assert captured.err.rstrip().endswith(f"error: {message}")
    assert captured.out == ""


def test_usage_error_exit_code_from_the_shell():
    out = run_cli("no-such-command")
    assert out.returncode == 1
    assert "invalid choice: 'no-such-command'" in out.stderr
    assert run_cli("--version").returncode == 0


def test_cube_json_formats_no_csv(ring_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the surface CSV was formatted on the JSON path")

    monkeypatch.setattr(oracle, "write_cube_surface_csv", fail)
    assert cli.main(["cube", "--params", ring_file, "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["best_vertices"]) == 6


# ---------------------------------------------------------------------------
# the run record


#: small runs of every subcommand on the reference file
RECORD_ARGV = {
    "certify": [],
    "modes": [],
    "forecast": [],
    "sample": ["--n", "50"],
    "cube": ["--grid-n", "2"],
    "grid": ["--n", "4"],
}


def _records(captured, directory):
    """Every run record a run left, with where it was found: each stderr
    line, which must parse as JSON, and each JSON document on stdout or in
    a new file (a payload's record is its ``manifest``)."""
    found = [("stderr", json.loads(l)) for l in captured.err.splitlines()]
    texts = [("stdout", captured.out)] + [
        (p.name, p.read_text()) for p in sorted(directory.iterdir()) if p.name != "reference.json"
    ]
    for place, text in texts:
        try:
            doc = json.loads(text)
        except ValueError:
            continue
        found.append((place, doc.get("manifest", doc)))
    return found


@pytest.mark.parametrize("mode", ["text", "json", "out"])
@pytest.mark.parametrize("command", sorted(RECORD_ARGV))
def test_every_run_leaves_one_record(reference_file, tmp_path, capsys, command, mode):
    csv_command = command in ("sample", "cube", "grid")
    out = "out.csv" if csv_command else "out.json"
    flags = {"text": [], "json": ["--json"], "out": ["--out", str(tmp_path / out)]}[mode]
    assert cli.main([command, "--params", reference_file, *RECORD_ARGV[command], *flags]) == 0
    captured = capsys.readouterr()
    expected_place = {
        "text": "stderr",
        "json": "stdout",
        "out": out + ".manifest.json" if csv_command else out,
    }[mode]
    ((place, record),) = _records(captured, tmp_path)
    assert place == expected_place
    keys = ["command", "version", "seed", "config", "wall_time_s"]
    if command == "sample":
        keys += ["trials", "empirical_acceptance"]
    assert list(record) == keys
    assert record["command"] == command
    assert record["version"] == mvmtorus.__version__
    # the reference file has no seed key: the drawing commands use seed 0
    assert record["seed"] == (0 if command in ("modes", "sample") else None)
    assert record["config"]["params"]["kappa"] == [3.0, 3.0, 3.0]
    assert record["wall_time_s"] > 0.0


@pytest.mark.parametrize(
    "argv,body", [(["sample", "--n", "20"], "draws"), (["grid", "--n", "3"], "values")]
)
def test_json_with_out_writes_the_payload_to_both(reference_file, tmp_path, capsys, argv, body):
    out = tmp_path / "payload.json"
    assert cli.main([*argv, "--params", reference_file, "--json", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert out.read_text() == captured.out
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert list(doc) == ["manifest", body]
    assert doc["manifest"]["command"] == argv[0]
