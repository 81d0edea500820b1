import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    REFERENCE_COUPLING,
    RING_COUPLING,
    TWO_MODE_COUPLING,
    bessel_i0_series,
    csv_writer_text,
    dense_log_partition,
    dense_marginal_density,
    density_grid_oracle,
    random_params,
    random_symmetric_coupling,
)
from mvmtorus import (
    DimensionMismatchError,
    MvmParams,
    TorusPoint,
    certify_unimodal,
    exponent_f,
    log_density,
    oracle,
    spectral,
)
from mvmtorus.oracle import (
    MAX_QUADRATURE_DIM,
    density_grid,
    high_concentration_log_partition,
    kappa_zero_analysis,
    log_partition,
    marginal_density,
    write_cube_surface_csv,
    write_density_grid_csv,
)

TWO_PI = 2.0 * np.pi


def _params(kappa, lam, mu=None):
    kappa = np.asarray(kappa, dtype=float)
    mu = np.zeros(kappa.size) if mu is None else np.asarray(mu)
    return MvmParams(mu=mu, kappa=kappa, lam=lam)


# ---------------------------------------------------------------------------
# partition function


def test_log_partition_univariate_matches_bessel():
    params = _params([2.0], np.zeros((1, 1)))
    expected = np.log(TWO_PI * bessel_i0_series(2.0))
    assert log_partition(params, 64) == pytest.approx(expected, abs=1e-12)


def test_log_partition_uniform_case():
    params = _params([0.0, 0.0], np.zeros((2, 2)))
    assert log_partition(params, 32) == pytest.approx(2.0 * np.log(TWO_PI), rel=1e-13)


def test_log_partition_approaches_high_concentration_form():
    params = _params([8.0, 8.0, 8.0], REFERENCE_COUPLING)
    exact = log_partition(params, 128)
    approx = high_concentration_log_partition(params)
    assert abs(exact - approx) / abs(exact) < 0.02


def test_log_partition_rejects_large_dimension():
    params = _params([1.0] * 5, np.zeros((5, 5)))
    with pytest.raises(ValueError, match="p <="):
        log_partition(params, 32)
    assert MAX_QUADRATURE_DIM == 4


def test_zero_nodes_per_dim_is_rejected_not_defaulted():
    params = _params([1.0, 2.0], np.array([[0.0, 0.5], [0.5, 0.0]]))
    for n in (0, 8):
        with pytest.raises(ValueError, match=f"n_per_dim must be >= 16, got {n}$"):
            log_partition(params, n)
        with pytest.raises(ValueError, match=f"n_per_dim must be >= 16, got {n}$"):
            marginal_density(params, 0, [0.5], n)


def test_one_gate_checks_the_floor_then_the_dimension():
    # the floor holds at every p, so p = 5 with 8 nodes names the floor;
    # marginal_density checks dim before any quadrature
    params = _params([1.0] * 5, np.zeros((5, 5)))
    with pytest.raises(ValueError, match="n_per_dim must be >= 16, got 8$"):
        log_partition(params, 8)
    assert oracle._node_count(5, 32) is None
    with pytest.raises(ValueError, match=r"dim must be in \[0, 5\), got 5$"):
        marginal_density(params, 5, [0.5], 8)
    with pytest.raises(ValueError, match="quadrature supports p <= 4, got p=5$"):
        marginal_density(params, 0, [0.5], 32)


def test_quadrature_converged_at_paper_scale():
    for params in (
        _params([3.0, 3.0, 3.0], REFERENCE_COUPLING),
        _params([0.0, 0.0, 0.0], TWO_MODE_COUPLING),
    ):
        assert abs(log_partition(params, 64) - log_partition(params, 128)) < 1e-10


# ---------------------------------------------------------------------------
# high-concentration closed form


def test_high_concentration_univariate_limit():
    params = _params([50.0], np.zeros((1, 1)))
    # sqrt(2 pi kappa) e^-kappa I0(kappa) -> 1, so both forms agree to ~1%
    exact = log_partition(params, 256)
    approx = high_concentration_log_partition(params)
    assert abs(np.exp(approx - exact) - 1.0) < 0.01


def test_high_concentration_reference_value():
    params = _params([3.0, 3.0, 3.0], REFERENCE_COUPLING)
    expected = 1.5 * np.log(TWO_PI) - 0.5 * np.log(7.0) + 9.0
    # the closed form gates on the one certificate, built once
    with mock.patch.object(
        spectral, "certify_unimodal", wraps=spectral.certify_unimodal
    ) as certify:
        assert high_concentration_log_partition(params) == pytest.approx(
            expected, abs=1e-9
        )
    assert certify.call_count == 1


def test_high_concentration_requires_definite_p():
    with pytest.raises(ValueError):
        high_concentration_log_partition(_params([0.0, 0.0, 0.0], RING_COUPLING))


@pytest.mark.parametrize("p, expected", [(300, 869.459), (400, 1159.279)])
def test_high_concentration_survives_an_underflowing_determinant(p, expected):
    # pairs (2b, 2b+1) coupled at 0.99: eig(P) = 0.01 and 1.99, p/2 times
    # each, so sum(log eig) = -783.4 at p = 400, where their product, |P|,
    # underflows to 0.0 although P certifies
    lam = np.zeros((p, p))
    pairs = np.arange(0, p, 2)
    lam[pairs, pairs + 1] = lam[pairs + 1, pairs] = 0.99
    params = _params(np.ones(p), lam)
    assert certify_unimodal(params).prop1_holds
    assert high_concentration_log_partition(params) == pytest.approx(expected, abs=1e-3)


def test_high_concentration_ratio_improves_with_scale():
    gaps = []
    for scale in (1.0, 2.0, 4.0, 8.0, 16.0):
        params = _params([3.0 * scale] * 3, REFERENCE_COUPLING)
        ratio = np.exp(
            high_concentration_log_partition(params) - log_partition(params, 128)
        )
        gaps.append(abs(ratio - 1.0))
    assert all(b < a * 1.001 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01


# ---------------------------------------------------------------------------
# marginals


def test_marginal_univariate_equals_density():
    params = _params([2.0], np.zeros((1, 1)), mu=[0.7])
    log_z = log_partition(params, 128)
    for angle in (0.0, 0.7, 2.0, 5.5):
        direct = np.exp(log_density(params, TorusPoint(np.array([angle])), log_z))
        assert marginal_density(params, 0, angle, 128) == pytest.approx(
            direct, rel=1e-12
        )


def test_marginal_exchange_symmetry():
    params = _params([2.0, 2.0], np.array([[0.0, 1.2], [1.2, 0.0]]))
    for angle in (0.0, 1.0, 3.0, 6.0):
        a = marginal_density(params, 0, angle, 96)
        b = marginal_density(params, 1, angle, 96)
        assert a == pytest.approx(b, abs=1e-10)


def test_marginal_integrates_to_one():
    params = _params([5.0, 5.0], np.array([[0.0, 2.0], [2.0, 0.0]]), mu=[1.0, 2.0])
    n = 128
    nodes = TWO_PI * np.arange(n) / n
    values = marginal_density(params, 0, nodes, n)
    assert float(np.sum(values) * TWO_PI / n) == pytest.approx(1.0, abs=1e-8)


def test_marginal_vectorized_matches_scalar():
    params = _params([3.0, 1.0], np.array([[0.0, -0.8], [-0.8, 0.0]]))
    angles = np.array([0.3, 2.1, 4.4])
    batch = marginal_density(params, 1, angles, 64)
    singles = [marginal_density(params, 1, float(a), 64) for a in angles]
    assert batch == pytest.approx(singles, rel=1e-14)


# ---------------------------------------------------------------------------
# streamed quadrature against the dense-grid oracle


@st.composite
def _quadrature_cases(draw):
    p = draw(st.integers(1, 4))
    n = draw(st.sampled_from([16, 32, 48]))
    angles = st.floats(0.0, TWO_PI, exclude_max=True)
    upper = draw(st.lists(st.floats(-3.0, 3.0), min_size=p * p, max_size=p * p))
    lam = np.triu(np.reshape(upper, (p, p)), k=1)
    params = MvmParams(
        mu=np.array(draw(st.lists(angles, min_size=p, max_size=p))),
        kappa=np.array(draw(st.lists(st.floats(0.0, 40.0), min_size=p, max_size=p))),
        lam=lam + lam.T,
    )
    thetas = np.array(draw(st.lists(angles, min_size=1, max_size=5)))
    return params, n, thetas


@settings(max_examples=100, deadline=None)
@given(_quadrature_cases())
def test_streamed_quadrature_matches_dense_oracle(case):
    params, n, thetas = case
    expected = dense_log_partition(params, n)
    assert abs(log_partition(params, n) - expected) <= 1e-13 * abs(expected)
    for dim in range(params.p):
        got = marginal_density(params, dim, thetas, n)
        want = dense_marginal_density(params, dim, thetas, n)
        assert got.shape == thetas.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_log_partition_workspace_is_one_slab():
    # p = 4, n = 48: the dense grid alone is 48**4 doubles (42 MB); the
    # streamed reduction keeps a few 48**3 slabs (under 1 MB each)
    params = _params(
        [2.0, 8.0, 8.0, 30.0],
        random_symmetric_coupling(np.random.default_rng(3), 4, 1.0),
    )
    tracemalloc.start()
    try:
        log_partition(params, 48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# kappa = 0 cube analysis


def test_cube_two_mode_coupling():
    analysis = kappa_zero_analysis(TWO_MODE_COUPLING)
    assert set(analysis.best_vertices) == {(1, 1, 1), (-1, -1, -1)}
    assert analysis.vertex_values[(1, 1, 1)] == pytest.approx(2.58, abs=1e-12)


def test_cube_ring_coupling_has_six_tied_vertices():
    analysis = kappa_zero_analysis(RING_COUPLING)
    expected = {
        (1, 1, 1),
        (1, -1, 1),
        (1, -1, -1),
        (-1, 1, 1),
        (-1, 1, -1),
        (-1, -1, -1),
    }
    assert set(analysis.best_vertices) == expected
    for vertex in expected:
        assert analysis.vertex_values[vertex] == pytest.approx(1.0, abs=1e-12)
    # the two remaining vertices sit at the ridge's antipodal valleys
    assert analysis.vertex_values[(1, 1, -1)] == pytest.approx(-3.0, abs=1e-12)
    assert analysis.vertex_values[(-1, -1, 1)] == pytest.approx(-3.0, abs=1e-12)


def test_cube_zero_coupling_is_flat():
    analysis = kappa_zero_analysis(np.zeros((3, 3)))
    assert all(v == 0.0 for v in analysis.vertex_values.values())
    assert len(analysis.best_vertices) == 8


def test_cube_values_even_under_sign_flip(rng):
    for _ in range(10):
        lam = random_symmetric_coupling(rng, 3)
        analysis = kappa_zero_analysis(lam)
        for vertex, value in analysis.vertex_values.items():
            flipped = tuple(-x for x in vertex)
            assert analysis.vertex_values[flipped] == value
        best = set(analysis.best_vertices)
        assert {tuple(-x for x in v) for v in best} == best


def test_cube_top_eigenpair_witnesses_positive_maximum(rng):
    for _ in range(10):
        lam = random_symmetric_coupling(rng, 3)
        if np.max(np.abs(lam)) < 1e-12:
            continue
        value, vector = kappa_zero_analysis(lam).top_eigenpair
        assert value > 0.0  # zero trace and lam != 0 force a positive eigenvalue
        s = vector / np.max(np.abs(vector))
        assert 0.5 * s @ lam @ s > 0.0


def test_cube_surface_grid_layout():
    analysis = kappa_zero_analysis(RING_COUPLING, grid_n=9)
    faces = analysis.surface_grid
    assert [f.label for f in faces] == ["+3", "-2", "+1", "+2", "-1", "-3"]
    for face in faces:
        assert face.values.shape == (9, 9)
        axis = int(face.label[1]) - 1
        sign = 1.0 if face.label[0] == "+" else -1.0
        assert np.all(face.s[..., axis] == sign)
        direct = 0.5 * np.einsum("ijk,kl,ijl->ij", face.s, RING_COUPLING, face.s)
        assert face.values == pytest.approx(direct, abs=1e-14)


def test_cube_surface_grid_requires_p3():
    with pytest.raises(ValueError, match="p=3"):
        kappa_zero_analysis(np.zeros((2, 2)), grid_n=5)


# ---------------------------------------------------------------------------
# kappa = 0 lemmas: vertex maxima and boundary concentration


def test_vertex_grid_attains_global_maximum(rng):
    n = 64
    nodes = TWO_PI * np.arange(n) / n
    grid = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1)
    from mvmtorus import exponent_many

    for _ in range(50):
        lam = random_symmetric_coupling(rng, 3, scale=1.5)
        params = _params([0.0, 0.0, 0.0], lam)
        values = exponent_many(params, grid)
        grid_max = float(np.max(values))
        vertex_max = max(kappa_zero_analysis(lam).vertex_values.values())
        # the +-pi/2 vertex angles are grid nodes, so the two maxima agree
        # to roundoff: the global maximum sits on the vertex set
        assert grid_max == pytest.approx(vertex_max, abs=1e-12)

        near = np.abs(values - grid_max) < 1e-9
        s_inf = np.max(np.abs(np.sin(grid)), axis=-1)
        assert np.all(s_inf[near] > 1.0 - TWO_PI / n)


# ---------------------------------------------------------------------------
# density grids


def test_density_grid_flat_case():
    params = _params([0.0, 0.0], np.zeros((2, 2)))
    values = density_grid(params, (0, 1), 4)
    assert values.shape == (4, 4)
    assert np.all(values == 0.0)


def test_density_grid_univariate_reproduces_cosine():
    params = _params([2.0], np.zeros((1, 1)), mu=[0.7])
    values = density_grid(params, 0, 16)
    nodes = TWO_PI * np.arange(16) / 16
    assert values == pytest.approx(2.0 * np.cos(nodes - 0.7), abs=1e-14)


def test_density_grid_exchange_symmetry():
    params = _params([2.0, 2.0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    values = density_grid(params, (0, 1), 32)
    assert values == pytest.approx(values.T, abs=1e-13)


def test_density_grid_slice_and_errors():
    params = _params([1.0, 2.0, 3.0], np.zeros((3, 3)))
    values = density_grid(params, (0, 2), 8, slice_point=np.array([0.0, np.pi, 0.0]))
    assert values.shape == (8, 8)
    with pytest.raises(ValueError):
        density_grid(params, (0, 3), 8)
    with pytest.raises(ValueError):
        density_grid(params, (0, 1, 2), 8)


@pytest.mark.parametrize("point", [[0.0, 0.5], [0.0, 0.0, 0.0, 1.0]])
def test_slice_point_of_another_p_is_a_dimension_mismatch(point):
    params = _params([1.0, 2.0, 3.0], np.zeros((3, 3)))
    buf = io.StringIO()
    for dims in ((0, 2), 1):
        with pytest.raises(DimensionMismatchError, match="^slice point dimension mismatch$"):
            density_grid(params, dims, 4, slice_point=point)
        with pytest.raises(DimensionMismatchError, match="^slice point dimension mismatch$"):
            write_density_grid_csv(buf, params, dims, 4, slice_point=point)
    assert buf.getvalue() == ""


def test_density_grid_matches_pointwise_exponent():
    params = _params([1.0, 0.5], np.array([[0.0, 0.7], [0.7, 0.0]]), mu=[0.2, 0.9])
    n = 8
    values = density_grid(params, (0, 1), n)
    nodes = TWO_PI * np.arange(n) / n
    for i in range(n):
        for j in range(n):
            theta = TorusPoint(np.array([nodes[i], nodes[j]]))
            assert values[i, j] == pytest.approx(exponent_f(params, theta), abs=1e-13)


_SLICES = st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_density_grid_matches_whole_lattice_oracle(data):
    # the blocks give the values of the whole lattice evaluated at once, bit
    # for bit: pairs in either order, single and repeated indices, any slice
    p = data.draw(st.integers(1, 8), label="p")
    n = data.draw(st.integers(1, 40), label="n")
    index = st.integers(0, p - 1)
    dims = data.draw(
        st.one_of(index, st.tuples(index, index), st.lists(index, min_size=2, max_size=2)),
        label="dims",
    )
    slice_point = data.draw(st.one_of(st.none(), _SLICES.map(lambda a: a[:p])), label="slice")
    params = random_params(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), p)
    values = density_grid(params, dims, n, slice_point=slice_point)
    expected = density_grid_oracle(params, dims, n, slice_point)
    assert values.shape == expected.shape
    assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "p,dims,n",
    [
        (3, (0, 2), 300),
        (8, (5, 3), 300),
        (4, 1, 3 * oracle._GRID_BLOCK + 1),
        (8, 7, 2 * oracle._GRID_BLOCK + 7),
    ],
)
def test_density_grid_spanning_blocks_matches_whole_lattice_oracle(rng, p, dims, n):
    # several blocks of whole rows, and 1-d sweeps whose last chunk holds
    # one point or seven
    params = random_params(rng, p)
    point = rng.uniform(0.0, TWO_PI, size=p)
    checked = (dims,) if np.isscalar(dims) else dims
    assert len(list(oracle._grid_blocks(params, checked, n, point))) > 1
    values = density_grid(params, dims, n, slice_point=point)
    assert values.tobytes() == density_grid_oracle(params, dims, n, point).tobytes()


@pytest.mark.parametrize(
    "p,dims,n", [(3, (0, 2), 300), (8, (5, 3), 100), (4, 1, 4097), (8, 7, 4097)]
)
def test_grid_block_size_changes_no_byte(rng, p, dims, n):
    # blocks of one point or one row, of 5 and of 333 points give the
    # values of the default blocks: the block size bounds memory only
    params = random_params(rng, p)
    point = rng.uniform(0.0, TWO_PI, size=p)
    expected = density_grid(params, dims, n, slice_point=point).tobytes()
    for block in (1, 5, 333):
        with mock.patch.object(oracle, "_GRID_BLOCK", block):
            assert density_grid(params, dims, n, slice_point=point).tobytes() == expected


# ---------------------------------------------------------------------------
# CSV emission


def test_density_grid_csv_round_trips():
    params = _params([1.0, 2.0], np.array([[0.0, 0.5], [0.5, 0.0]]))
    buf = io.StringIO()
    write_density_grid_csv(buf, params, (0, 1), 4)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "i,j,theta1,theta2,value"
    assert len(lines) == 1 + 16
    values = density_grid(params, (0, 1), 4)
    first = lines[1].split(",")
    assert float(first[4]) == values[0, 0]  # repr round-trip is lossless


@pytest.mark.parametrize("dims,n", [((0, 2), 37), ((2, 1), 16), (1, 50), ((0, 0), 9)])
def test_density_grid_csv_matches_csv_writer(rng, dims, n):
    params = random_params(rng, 3)
    buf = io.StringIO()
    write_density_grid_csv(buf, params, dims, n, slice_point=[0.0, np.pi, 6.0])
    dims = (dims,) if np.isscalar(dims) else tuple(dict.fromkeys(dims))
    values = density_grid(params, dims, n, slice_point=[0.0, np.pi, 6.0])
    nodes = 2.0 * np.pi * np.arange(n) / n
    if len(dims) == 1:
        rows = [["i", f"theta{dims[0] + 1}", "value"]]
        rows += [[i, nodes[i], values[i]] for i in range(n)]
    else:
        rows = [["i", "j", f"theta{dims[0] + 1}", f"theta{dims[1] + 1}", "value"]]
        rows += [
            [i, j, nodes[i], nodes[j], values[i, j]] for i in range(n) for j in range(n)
        ]
    assert buf.getvalue() == csv_writer_text(rows)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_density_grid_csv_matches_csv_writer_on_any_values(data):
    # the writer's formatting alone: the block generator is replaced by one
    # that yields arbitrary floats (subnormals, signed zeros, infinities and
    # NaN included) in blocks of any height, n up to past one real block
    n = data.draw(st.integers(1, 70), label="n")
    dims = data.draw(st.sampled_from([(0, 1), (2, 0), 1]), label="dims")
    shape = (n,) if np.isscalar(dims) else (n, n)
    pool = data.draw(hnp.arrays(float, st.integers(1, 64), elements=st.floats()), label="pool")
    values = np.resize(pool, shape)
    step = data.draw(st.integers(1, n), label="rows per block")

    def blocks(params, checked, size, point):
        assert (checked, size) == ((dims,) if np.isscalar(dims) else dims, n)
        for a in range(0, n, step):
            yield values[a : a + step]

    buf = io.StringIO()
    with mock.patch.object(oracle, "_grid_blocks", blocks):
        write_density_grid_csv(buf, random_params(np.random.default_rng(0), 3), dims, n)
    nodes = 2.0 * np.pi * np.arange(n) / n
    if np.isscalar(dims):
        rows = [["i", f"theta{dims + 1}", "value"]]
        rows += [[i, nodes[i], values[i]] for i in range(n)]
    else:
        rows = [["i", "j", f"theta{dims[0] + 1}", f"theta{dims[1] + 1}", "value"]]
        rows += [
            [i, j, nodes[i], nodes[j], values[i, j]] for i in range(n) for j in range(n)
        ]
    assert buf.getvalue() == csv_writer_text(rows)


@pytest.mark.parametrize(
    "p,dims,n", [(3, (0, 1), 512), (8, (3, 5), 512), (3, 2, 100_000), (8, 3, 10**6)]
)
def test_density_grid_csv_streams_in_bounded_memory(rng, p, dims, n):
    # each text is over 4 MB (16 MB for the 512 x 512 grids); one block of
    # points, its trig and its text peak near 0.6 MB at p = 3 and 1.2 MB at
    # p = 8, and a sweep builds the node angles of each block alone.
    # Evaluating the whole grid first peaked at 25, 67 and 23 MB, and whole
    # node vectors took the 1e6-point sweep to 24 MB
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    params = random_params(rng, p)
    sink = Sink()
    tracemalloc.start()
    try:
        write_density_grid_csv(sink, params, dims, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 4_000_000
    assert peak < 4_000_000


def test_cube_surface_csv_layout():
    analysis = kappa_zero_analysis(RING_COUPLING, grid_n=5)
    buf = io.StringIO()
    write_cube_surface_csv(buf, analysis)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "record,face,row,col,s1,s2,s3,value"
    vertex_lines = [l for l in lines[1:] if l.startswith("vertex")]
    face_lines = [l for l in lines[1:] if l.startswith("face")]
    assert len(vertex_lines) == 8
    assert len(face_lines) == 6 * 25
    parts = vertex_lines[0].split(",")
    key = tuple(int(x) for x in parts[4:7])
    assert float(parts[7]) == analysis.vertex_values[key]


@pytest.mark.parametrize("p", range(1, 17))
def test_kappa_zero_vertex_table_is_built_in_sorted_order(rng, p):
    # write_cube_surface_csv and `cube --json` write the table in this order
    vertices = list(kappa_zero_analysis(random_symmetric_coupling(rng, p)).vertex_values)
    assert len(vertices) == 2**p
    assert vertices == sorted(vertices)


@pytest.mark.parametrize("p,grid_n", [(3, 7), (3, 0), (4, 0), (3, 1), (8, 0), (12, 0), (16, 0)])
def test_cube_surface_csv_matches_csv_writer(rng, p, grid_n):
    analysis = kappa_zero_analysis(random_symmetric_coupling(rng, p), grid_n=grid_n)
    buf = io.StringIO()
    write_cube_surface_csv(buf, analysis)
    rows = [["record", "face", "row", "col"] + [f"s{i + 1}" for i in range(p)] + ["value"]]
    for vertex in sorted(analysis.vertex_values):
        rows.append(
            ["vertex", "", "", ""] + [str(x) for x in vertex] + [analysis.vertex_values[vertex]]
        )
    for face in analysis.surface_grid or []:
        for i in range(grid_n):
            for j in range(grid_n):
                rows.append(["face", face.label, i, j, *face.s[i, j], face.values[i, j]])
    assert buf.getvalue() == csv_writer_text(rows)


def test_cube_surface_csv_writes_a_hand_built_table_in_its_dict_order():
    analysis = oracle.CubeAnalysis(
        vertex_values={(1, 1): 2.5, (-1, 1): -0.5, (1, -1): 0.1},
        best_vertices=[(1, 1)],
        top_eigenpair=(1.0, np.ones(2)),
        surface_grid=None,
    )
    buf = io.StringIO()
    write_cube_surface_csv(buf, analysis)
    assert buf.getvalue() == (
        "record,face,row,col,s1,s2,value\n"
        "vertex,,,,1,1,2.5\nvertex,,,,-1,1,-0.5\nvertex,,,,1,-1,0.1\n"
    )


def test_cube_surface_csv_streams_each_face_in_bounded_memory():
    # one face row (256 cells, their floats and their text) peaks near
    # 0.1 MB; converting each face to Python floats whole peaked at 12.1 MB
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    analysis = kappa_zero_analysis(REFERENCE_COUPLING, grid_n=256)
    sink = Sink()
    tracemalloc.start()
    try:
        write_cube_surface_csv(sink, analysis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 6 * 256**2 * 40
    assert peak < 1_000_000
