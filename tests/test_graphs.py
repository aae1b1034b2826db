import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from krgraph.errors import (ConvergenceError, DataFormatError,
                            InvalidGraphError, KrgraphError)
from krgraph.graphs import (
    Graph,
    Laplacian,
    barabasi_albert,
    build_laplacian,
    eigh_psd,
    erdos_renyi,
    geodesic_adjacency,
    graph_from_edge_json,
    graph_to_edge_json,
    load_graph_json,
    load_json,
    load_matrix_csv,
    save_csv_rows,
    save_json,
    save_json_lines,
    save_matrix_csv,
    spectral_rescale,
)
from oracles import (edge_sum_quadratic_form, null_space_laplacians,
                     null_space_projector, random_graph_adjacency,
                     random_laplacian_matrix)

K3 = Graph(np.ones((3, 3)) - np.eye(3))
NULL_SPACE_CASES = null_space_laplacians()


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        A = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidGraphError):
            Graph(A)

    def test_negative_weight_rejected(self):
        A = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidGraphError):
            Graph(A)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidGraphError):
            Graph(np.eye(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_weight_rejected(self, value):
        with pytest.raises(InvalidGraphError,
                           match="adjacency has NaN or infinite entries"):
            Graph(np.array([[0.0, value], [value, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_laplacian_rejected(self, value):
        # [[inf, -inf], [-inf, inf]] passed every other check (each compares
        # against NaN) and fit_krg then returned an all-NaN psi
        with pytest.raises(InvalidGraphError,
                           match="Laplacian has NaN or infinite entries"):
            Laplacian(np.array([[value, -value], [-value, value]]))


class TestBuildLaplacian:
    def test_empty_graph(self):
        L = build_laplacian(Graph(np.zeros((3, 3))))
        assert np.array_equal(L.matrix, np.zeros((3, 3)))

    def test_single_edge(self):
        L = build_laplacian(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.array_equal(L.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_k3_eigenvalues(self):
        L = build_laplacian(K3)
        assert np.array_equal(np.diag(L.matrix), [2, 2, 2])
        # direct eigensolve of the 3x3 matrix gives {0, 3, 3}
        np.testing.assert_allclose(np.linalg.eigvalsh(L.matrix), [0, 3, 3],
                                   atol=1e-12)

    def test_eigendecomposition_computed_once_and_read_only(self, monkeypatch):
        L = build_laplacian(K3)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, **kw: calls.append(1) or eigh(a, **kw))
        lam, V = L.eigendecomposition()
        again = L.eigendecomposition()
        assert len(calls) == 1
        assert again[0] is lam and again[1] is V
        np.testing.assert_allclose(lam, [0, 3, 3], atol=1e-12)
        np.testing.assert_allclose(V @ np.diag(lam) @ V.T, L.matrix, atol=1e-12)
        with pytest.raises(ValueError):
            lam[0] = 1.0
        with pytest.raises(ValueError):
            V[0, 0] = 1.0

    def test_random_graphs_satisfy_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = rng.integers(2, 12)
            L = build_laplacian(Graph(random_graph_adjacency(rng, M)))
            lam = np.linalg.eigvalsh(L.matrix)
            assert lam.min() >= -1e-8 * max(np.abs(lam).max(), 1.0)
            assert np.abs(L.matrix.sum(axis=1)).max() <= \
                1e-10 * max(np.linalg.norm(L.matrix, "fro"), 1.0)


class TestLaplacianNullSpace:
    """L's eigenvalue 0 is exact, once per connected component, and its
    eigenvectors span the component indicators."""

    @pytest.mark.parametrize("case", NULL_SPACE_CASES)
    def test_zeros_are_the_components(self, case):
        L = NULL_SPACE_CASES[case]
        projector, components = null_space_projector(L)
        lam, V = Laplacian(L).eigendecomposition()
        assert np.count_nonzero(lam == 0) == components
        assert lam[components] > 0
        null = V[:, :components]
        np.testing.assert_allclose(null @ null.T, projector, rtol=0, atol=1e-13)

    def test_roundoff_eigenvalues_of_any_sign_become_0(self, monkeypatch):
        """The threshold is relative to the spectral radius."""
        def eigh(a, **kw):
            return np.array([-3e-9, 2e-9, 40.0]), np.eye(3)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        lam, _ = build_laplacian(K3).eigendecomposition()
        np.testing.assert_array_equal(lam, [0.0, 0.0, 40.0])


class TestQuadraticForm:
    """x^T L x, the graph roughness of a signal x."""

    def test_constant_signal_is_null(self):
        L = build_laplacian(K3)
        x = 7.5 * np.ones(3)
        assert x @ L.matrix @ x == pytest.approx(0, abs=1e-12)

    def test_k3_indicator(self):
        L = build_laplacian(K3)
        x = np.array([1.0, 0, 0])
        assert x @ L.matrix @ x == pytest.approx(2.0)

    def test_zero_laplacian(self):
        L = Laplacian(np.zeros((4, 4)))
        x = np.arange(4.0)
        assert x @ L.matrix @ x == 0.0

    def test_matches_edge_sum_on_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            M = int(rng.integers(3, 50))
            A = random_graph_adjacency(rng, M)
            L = build_laplacian(Graph(A))
            x = rng.standard_normal(M)
            expected = edge_sum_quadratic_form(A, x)
            assert x @ L.matrix @ x == pytest.approx(expected, rel=1e-10)

    def test_nonnegative_on_random_vectors(self):
        rng = np.random.default_rng(2)
        L = build_laplacian(Graph(random_graph_adjacency(rng, 10)))
        for _ in range(1000):
            x = rng.standard_normal(10)
            assert x @ L.matrix @ x >= -1e-10


class TestGenerators:
    def test_er_p0_empty(self):
        g = erdos_renyi(10, 0.0, seed=3)
        assert np.count_nonzero(np.triu(g.adjacency, 1)) == 0

    def test_er_p1_complete(self):
        g = erdos_renyi(10, 1.0, seed=3)
        assert np.count_nonzero(np.triu(g.adjacency, 1)) == 45

    def test_er_edge_count_within_binomial_bound(self):
        # mean 1225 * 0.1 = 122.5, sd = sqrt(1225 * .1 * .9)
        g = erdos_renyi(50, 0.1, seed=4)
        sd = np.sqrt(1225 * 0.1 * 0.9)
        assert abs(np.count_nonzero(np.triu(g.adjacency, 1)) - 122.5) < 4 * sd

    def test_er_reproducible(self):
        a = erdos_renyi(30, 0.3, seed=5).adjacency
        b = erdos_renyi(30, 0.3, seed=5).adjacency
        c = erdos_renyi(30, 0.3, seed=6).adjacency
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ba_minimal(self):
        g = barabasi_albert(2, 1, seed=0)
        assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])

    def test_ba_edge_count(self):
        # clique on m+1 nodes plus m edges per later node
        g = barabasi_albert(50, 2, seed=7)
        assert np.count_nonzero(np.triu(g.adjacency, 1)) == 3 + 2 * 47

    def test_ba_connected_and_reproducible(self):
        g = barabasi_albert(40, 3, seed=8)
        lam = np.linalg.eigvalsh(build_laplacian(g).matrix)
        assert np.sum(lam < 1e-8) == 1  # single zero eigenvalue: connected
        assert np.array_equal(g.adjacency, barabasi_albert(40, 3, seed=8).adjacency)

    def test_ba_heavier_tail_than_er(self):
        # at equal expected edge count, BA max degree dominates on average
        M, m = 50, 2
        ba_edges = 3 + 2 * 47
        p = ba_edges / (M * (M - 1) / 2)
        ba_max = [barabasi_albert(M, m, seed=s).degrees().max() for s in range(100)]
        er_max = [erdos_renyi(M, p, seed=s).degrees().max() for s in range(100)]
        assert np.mean(ba_max) > np.mean(er_max)

    def test_ba_precondition(self):
        with pytest.raises(InvalidGraphError):
            barabasi_albert(5, 5, seed=0)


class TestGeodesicAdjacency:
    def test_two_nodes(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = geodesic_adjacency(D)
        assert g.adjacency[0, 1] == pytest.approx(np.exp(-0.5))

    def test_all_equal_distances(self):
        M, d = 5, 3.0
        D = d * (np.ones((M, M)) - np.eye(M))
        g = geodesic_adjacency(D)
        expected = np.exp(-1.0 / (M * M - M))
        off = g.adjacency[~np.eye(M, dtype=bool)]
        np.testing.assert_allclose(off, expected, rtol=1e-12)

    def test_larger_distance_smaller_weight(self):
        D = np.array([[0, 1, 9.0], [1, 0, 1], [9.0, 1, 0]])
        g = geodesic_adjacency(D)
        assert g.adjacency[0, 2] < g.adjacency[0, 1]
        assert g.adjacency[0, 2] < g.adjacency[1, 2]

    def test_asymmetric_rejected(self):
        D = np.array([[0, 1.0], [2.0, 0]])
        with pytest.raises(InvalidGraphError):
            geodesic_adjacency(D)


class TestSpectralRescale:
    def test_single_edge(self):
        L = build_laplacian(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        out = spectral_rescale(L)
        np.testing.assert_allclose(out.matrix, L.matrix / 2.0)

    def test_idempotent_at_unit_radius(self):
        L = build_laplacian(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        once = spectral_rescale(L)
        twice = spectral_rescale(once)
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)
        assert np.linalg.norm(once.matrix, 2) == pytest.approx(1.0, abs=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(InvalidGraphError):
            spectral_rescale(Laplacian(np.zeros((3, 3))))

    def test_radius_is_the_top_eigenvalue_of_the_one_decomposition(self):
        """Here the SVD's 2-norm differs from L's top eigenvalue in the last
        bit; the rescale divides by the eigenvalue, read from the cache."""
        L = Laplacian(random_laplacian_matrix(np.random.default_rng(0), 8))
        top = L.eigendecomposition()[0][-1]
        assert top != np.linalg.norm(L.matrix, 2)
        assert np.array_equal(spectral_rescale(L).matrix, L.matrix / top)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_generated_laplacians_pass_invariants(M, seed):
    g = erdos_renyi(M, 0.5, seed)
    L = build_laplacian(g)  # constructor re-validates all invariants
    x = np.random.default_rng(seed).standard_normal(M)
    assert x @ L.matrix @ x >= -1e-10


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    mat = rng.standard_normal((4, 3))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, mat)
    assert np.array_equal(load_matrix_csv(path), mat)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_matrix_csv_rejects_nonfinite(tmp_path, token):
    path = tmp_path / "m.csv"
    path.write_text(f"1.0,2.0\n\n3.0,{token}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"m\.csv: .*line 3"):
        load_matrix_csv(path)


def test_matrix_csv_header_skipped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\n\n3.0,4.5\n", encoding="utf-8")
    assert load_matrix_csv(path, header=True).tolist() == [[1.0, 2.0], [3.0, 4.5]]
    with pytest.raises(DataFormatError, match=r"m\.csv: .*line 1"):
        load_matrix_csv(path)


@pytest.mark.parametrize("text, where", [
    ("h\n1.0,2.0\n3.0,\n", "line 3"),         # missing value
    ("h\n1.0,2.0\n3.0,x\n", "line 3"),        # non-numeric
    ("h\n1.0,2.0\n3.0,nan\n", "line 3"),      # non-finite
    ("h\n1.0,2.0\n\n3.0\n", "line 4"),        # ragged
    ("h\n\n", "no data|empty"),               # empty
    (b"h\n\xff\xfe,1\n", "cannot read"),       # unreadable
], ids=["missing", "non_numeric", "non_finite", "ragged", "empty", "unreadable"])
def test_matrix_csv_rejections_name_file(tmp_path, text, where):
    path = tmp_path / "table.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match=rf"table\.csv: .*({where})"):
        load_matrix_csv(path, header=True)


def test_edge_json_roundtrip():
    rng = np.random.default_rng(13)
    g = Graph(random_graph_adjacency(rng, 6))
    doc = json.loads(json.dumps(graph_to_edge_json(g)))
    assert np.allclose(graph_from_edge_json(doc).adjacency, g.adjacency)


@pytest.mark.parametrize("edges, message", [
    ([[0, 1, 1.0], [0, 1]], "edge [0, 1] is not [i, j, weight]"),
    ([[0, 1, 1.0], 5], "edge 5 is not [i, j, weight]"),
    ([[0, 1, 1.0, 2.0]], "edge [0, 1, 1.0, 2.0] is not [i, j, weight]"),
    ([[0, 1.5, 1.0]], "edge [0, 1.5, 1.0]: endpoints must be integers in 0..3"),
    ([[0, "1", 1.0]], "edge [0, '1', 1.0]: endpoints must be integers in 0..3"),
    ([[True, 1, 1.0]], "edge [True, 1, 1.0]: endpoints must be integers in 0..3"),
    ([[0, [1], 1.0]], "edge [0, [1], 1.0]: endpoints must be integers in 0..3"),
    ([[0, 4, 1.0]], "edge [0, 4, 1.0]: endpoints must be integers in 0..3"),
    ([[-1, 2, 1.0]], "edge [-1, 2, 1.0]: endpoints must be integers in 0..3"),
    ([[0, 10**30, 1.0]],
     f"edge [0, {10**30}, 1.0]: endpoints must be integers in 0..3"),
    ([[0, 1, True]], "edge [0, 1, True]: weight must be a finite number"),
    ([[0, 1, "1.0"]], "edge [0, 1, '1.0']: weight must be a finite number"),
    ([[0, 1, float("nan")]], "edge [0, 1, nan]: weight must be a finite number"),
    ([[0, 1, float("-inf")]], "edge [0, 1, -inf]: weight must be a finite number"),
    ([[0, 1, 10**400]], "weight must be a finite number"),  # 1e400 as an int
    # the first malformed edge is named, whatever the later ones hold
    ([[0, 1, 1.0], [0, 9, 1.0], [1]], "edge [0, 9, 1.0]: endpoints"),
], ids=["arity_short", "not_a_list", "arity_long", "fractional_endpoint",
        "string_endpoint", "bool_endpoint", "list_endpoint", "endpoint_high",
        "endpoint_negative", "endpoint_huge", "bool_weight", "string_weight",
        "nan_weight", "inf_weight", "huge_int_weight", "first_bad_edge"])
def test_edge_json_rejections_name_the_edge(edges, message):
    with pytest.raises(DataFormatError) as info:
        graph_from_edge_json({"nodes": 4, "edges": edges})
    assert message in str(info.value)


def test_edge_json_last_repeated_edge_sets_the_weight():
    edges = [[0, 1, 1.0], [2, 3, 4], [1, 0, 2.5], [3, 2, 0.5]]
    A = graph_from_edge_json({"nodes": 4, "edges": edges}).adjacency
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 2.5
    expected[2, 3] = expected[3, 2] = 0.5
    assert np.array_equal(A, expected)


@pytest.mark.parametrize("M", [1, 2, 7])
def test_edge_json_lists_upper_triangle_row_major(M):
    A = random_graph_adjacency(np.random.default_rng(M), M)
    expected = [[int(i), int(j), float(A[i, j])]
                for i, j in zip(*np.triu_indices(M, 1)) if A[i, j] != 0]
    assert graph_to_edge_json(Graph(A)) == {"nodes": M, "edges": expected}


# The file writers replaced a csv.writer loop and json.dump calls; those
# expressions stay here as the byte-for-byte reference.

def _csv_writer_bytes(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


def _json_dump_bytes(path, doc, **kwargs):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, **kwargs)
        fh.write("\n")
    return path.read_bytes()


@pytest.mark.parametrize("mat", [
    [[-0.0, 1.7976931348623157e308, -1.7976931348623157e308],
     [2.2250738585072014e-308, 1e16, 5e-324], [0.1, -2.5e-300, 1.0]],
    [[-0.0], [1.7976931348623157e308], [-5e-324], [1e16], [5e-324]],
    np.random.default_rng(14).standard_normal((7, 5)),
], ids=["special_values", "one_column", "random"])
def test_matrix_csv_bytes_equal_csv_writer(tmp_path, mat):
    mat = np.asarray(mat, dtype=float)
    save_matrix_csv(tmp_path / "new.csv", mat)
    reference = _csv_writer_bytes(
        tmp_path / "ref.csv", ([repr(float(v)) for v in row] for row in mat))
    assert (tmp_path / "new.csv").read_bytes() == reference


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_matrix_csv_with_non_finite_entry_is_not_written(tmp_path, value):
    """No command writes a NaN or an infinity into a CSV file: the writer
    rejects it before the file is opened."""
    path = tmp_path / "out.csv"
    with pytest.raises(KrgraphError, match="out.csv: not written: it has NaN"):
        save_matrix_csv(path, [[1.0, value], [0.5, 2.0]])
    assert not path.exists()


def test_csv_rows_bytes_equal_csv_writer(tmp_path):
    rows = [["snr_db", "KR", "KRG"], ["5.0", "-3.25", ""], ["10.0", "", ""],
            ["KR", "50", "inf", "test", "-0.0", "20", "2026"]]
    save_csv_rows(tmp_path / "new.csv", rows)
    assert ((tmp_path / "new.csv").read_bytes()
            == _csv_writer_bytes(tmp_path / "ref.csv", rows))


def test_json_bytes_equal_json_dump(tmp_path):
    doc = {"z": {"b": [1, 2.5, -0.0], "a": {"y": None, "x": "text"}},
           "a": [{"k": 1e16, "j": 5e-324}], "m": -1.7976931348623157e308}
    save_json(tmp_path / "pretty.json", doc, pretty=True)
    assert ((tmp_path / "pretty.json").read_bytes() == _json_dump_bytes(
        tmp_path / "ref.json", doc, indent=2, sort_keys=True))
    save_json(tmp_path / "compact.json", doc)
    assert ((tmp_path / "compact.json").read_bytes()
            == _json_dump_bytes(tmp_path / "ref.json", doc))
    assert load_json(tmp_path / "compact.json") == doc


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("save", [save_json, save_json_lines])
def test_json_writers_refuse_non_finite_numbers(tmp_path, save, value):
    """Strict JSON has no NaN or Infinity token: the writer names the file
    and does not open it."""
    docs = [{"ok": 1.0}, {"cost": [0.5, value]}]
    path = tmp_path / "out.json"
    with pytest.raises(KrgraphError, match=r"out\.json: not written"):
        save(path, docs)
    assert not path.exists()


@pytest.mark.parametrize("load", [load_json, load_graph_json])
@pytest.mark.parametrize("data", [b"\xff\xfe", b"{not json", None],
                         ids=["not_utf8", "not_json", "missing"])
def test_json_reader_names_file(tmp_path, load, data):
    path = tmp_path / "doc.json"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(DataFormatError, match=r"doc\.json: cannot read JSON"):
        load(path)


class TestEighPsd:
    def test_sets_only_roundoff_negatives_to_zero(self, monkeypatch):
        vals = np.array([-1e-9, -1e-10, -1e-12, 0.0, 2.0])
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, **kw: (vals.copy(), np.eye(5)))
        lam, V = eigh_psd(np.eye(5))
        assert lam.tolist() == [-1e-9, 0.0, 0.0, 0.0, 2.0]
        assert np.array_equal(V, np.eye(5))

    @pytest.mark.parametrize("kind", ["gram", "laplacian", "asymmetric"])
    @pytest.mark.parametrize("n", [2, 7, 40, 150])
    def test_bitwise_equal_to_numpy_eigh(self, kind, n):
        """Both calls read the lower triangle, also of a matrix that is
        symmetric only to roundoff, as a precomputed kernel may be, and
        leave it unchanged."""
        rng = np.random.default_rng(n)
        if kind != "laplacian":  # rank-deficient for n > 5: a repeated zero
            X = rng.standard_normal((n, 5))
            A = X @ X.T
            if kind == "asymmetric":
                A += 1e-12 * np.abs(A).max() * rng.standard_normal((n, n))
        else:  # sparse enough for repeated eigenvalues
            A = build_laplacian(erdos_renyi(n, 2.0 / n, seed=n)).matrix
        ref_lam, ref_V = np.linalg.eigh(A)
        B = A.copy()
        lam, V = eigh_psd(B)
        assert np.array_equal(V, ref_V) and V.flags.c_contiguous
        assert np.array_equal(B, A)
        assert np.array_equal(lam, np.where(
            (ref_lam < 0) & (ref_lam >= -1e-10), 0.0, ref_lam))

    def test_equals_numpy_eigh_on_a_laplacian(self):
        L = build_laplacian(erdos_renyi(12, 0.4, seed=3)).matrix
        lam, V = eigh_psd(L)
        ref_lam, ref_V = np.linalg.eigh(L)
        assert np.array_equal(V, ref_V)
        assert np.array_equal(lam, np.where(
            (ref_lam < 0) & (ref_lam >= -1e-10), 0.0, ref_lam))

    def test_nonconvergence_is_convergence_error(self, monkeypatch):
        def fail(a, **kw):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match=r"\(4, 4\).*converge"):
            eigh_psd(np.eye(4))
        with pytest.raises(ConvergenceError, match=r"\(3, 3\)"):
            build_laplacian(K3).eigendecomposition()
