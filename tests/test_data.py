"""Dataset construction, standardization and CSV ingestion tests."""

import os
import urllib.request
import warnings

import numpy as np
import pytest

from slicesdr import (
    Dataset,
    directions_to_x_scale,
    inv_sqrt,
    load_csv,
    standardize,
)
from slicesdr import data
from slicesdr.errors import (
    CsvFormatError,
    DegenerateDirection,
    InsufficientData,
    SingularCovariance,
)
from oracles import trace_correlation


class TestStandardize:
    def test_two_point_closed_form(self):
        d = Dataset(x=np.array([[0.0], [2.0]]), y=np.array([0.0, 1.0]))
        sd = standardize(d)
        assert sd.mean[0] == pytest.approx(1.0)
        assert sd.cov[0, 0] == pytest.approx(2.0)
        np.testing.assert_allclose(
            sd.z[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12
        )

    def test_already_standard_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        # force exact sample mean 0 / covariance I, then re-standardize
        x = x - x.mean(axis=0)
        cov = x.T @ x / (len(x) - 1)
        x = x @ inv_sqrt(cov)
        sd = standardize(Dataset(x=x, y=np.arange(40.0)))
        np.testing.assert_allclose(sd.z, x, atol=1e-8)

    def test_output_moments(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 3)) @ np.diag([1.0, 3.0, 0.5]) + [1, -2, 7]
        sd = standardize(Dataset(x=x, y=np.zeros(50)))
        np.testing.assert_allclose(sd.z.mean(axis=0), np.zeros(3), atol=1e-8)
        cov_z = sd.z.T @ sd.z / 49
        np.testing.assert_allclose(cov_z, np.eye(3), atol=1e-6)

    def test_affine_equivariance_via_gram(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 4))
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        y = np.zeros(30)
        z_old = standardize(Dataset(x=x, y=y)).z
        z_new = standardize(Dataset(x=x @ a.T + 5.0, y=y)).z
        np.testing.assert_allclose(z_new @ z_new.T, z_old @ z_old.T, atol=1e-6)

    def test_requires_more_rows_than_columns(self):
        with pytest.raises(InsufficientData):
            standardize(Dataset(x=np.eye(3), y=np.zeros(3)))

    def test_singular_covariance_rejected(self):
        x = np.ones((10, 2))
        x[:, 0] = np.arange(10.0)
        with pytest.raises(SingularCovariance):
            standardize(Dataset(x=x, y=np.zeros(10)))

    @pytest.mark.parametrize("p", [1, 3, 10, 40])
    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_row_blocks_bitwise_equal_one_product(self, p, offset):
        # z is formed in row blocks small enough for one BLAS thread; the
        # blocks must give the bits of the single product, at the first
        # split (block size + 1 rows) and at the benchmark's 10007 rows
        block = max(1, data._WHITEN_BLOCK // p**2)
        n = 10007 if offset is None else block + offset
        if n <= p:
            pytest.skip("standardizing needs n > p")
        rng = np.random.default_rng(p * 100 + n)
        x = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p) + 2.0
        before = x.copy()
        d = Dataset(x=x, y=np.zeros(n))
        sd = standardize(d)
        np.testing.assert_array_equal(sd.z, (x - sd.mean) @ sd.cov_inv_sqrt)
        # z is whitened in a buffer of its own: the caller's x is untouched
        assert d.x.tobytes() == before.tobytes()
        assert not np.shares_memory(sd.z, d.x)


class TestDirectionsToXScale:
    def test_identity_covariance(self):
        b = np.array([[0.6], [0.8]])
        np.testing.assert_allclose(directions_to_x_scale(b, np.eye(2)), b)

    def test_axis_aligned_diag(self):
        out = directions_to_x_scale(
            np.array([[0.0], [1.0]]), np.diag([1.0, 0.5])
        )
        np.testing.assert_allclose(out, [[0.0], [1.0]])

    def test_round_trip_span(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + 4 * np.eye(4)
        root_inv = inv_sqrt(cov)
        bz = rng.standard_normal((4, 1))
        bz /= np.linalg.norm(bz)
        bx = directions_to_x_scale(bz, root_inv)
        back = np.linalg.inv(root_inv) @ bx
        back /= np.linalg.norm(back)
        assert abs(abs(back[:, 0] @ bz[:, 0]) - 1.0) < 1e-8

    def test_respan_recovers_subspace(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 3)) @ (np.eye(3) + 0.3)
        sd = standardize(Dataset(x=x, y=np.zeros(60)))
        bz = rng.standard_normal((3, 2))
        bx = directions_to_x_scale(bz, sd.cov_inv_sqrt)
        bz_back = np.linalg.inv(sd.cov_inv_sqrt) @ bx  # undo the x-scale map
        assert trace_correlation(bz_back, bz).r2 == pytest.approx(1.0, abs=1e-8)

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateDirection):
            directions_to_x_scale(np.zeros((2, 1)), np.eye(2))


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_basic_parse(self, tmp_path):
        path = self.write(tmp_path, "y,x1,x2\n1,2,3\n4,5,6\n7,8,9\n")
        d = load_csv(path, "y")
        assert (d.n, d.p) == (3, 2)
        np.testing.assert_array_equal(d.y, [1, 4, 7])
        np.testing.assert_array_equal(d.x, [[2, 3], [5, 6], [8, 9]])

    def test_name_and_index_agree(self, tmp_path):
        path = self.write(tmp_path, "y,x1,x2\n1,2,3\n4,5,6\n7,8,9\n")
        by_name = load_csv(path, "y")
        by_index = load_csv(path, 0)
        np.testing.assert_array_equal(by_name.y, by_index.y)
        np.testing.assert_array_equal(by_name.x, by_index.x)

    def test_nan_cell_names_location(self, tmp_path):
        path = self.write(tmp_path, "y,x1\n1,2\n3,NaN\n5,6\n")
        with pytest.raises(CsvFormatError, match=r"row 3.*'x1'"):
            load_csv(path, "y")

    def test_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "y,x1\n1,2\n3,oops\n")
        with pytest.raises(CsvFormatError, match=r"row 3.*'x1'.*oops"):
            load_csv(path, "y")

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "y,x1\n1,2\n3,4\n")
        with pytest.raises(CsvFormatError, match="no column named"):
            load_csv(path, "target")

    def test_too_few_rows(self, tmp_path):
        path = self.write(tmp_path, "y,x1\n1,2\n")
        with pytest.raises(CsvFormatError, match="at least 2"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="cannot open"):
            load_csv(str(tmp_path / "nope.csv"), "y")

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "y,x1,x2\n1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path, "y")

    @pytest.mark.parametrize(
        "text",
        [
            "y,x1,x2\r\n1,2,3\r\n4,5,6.5\r\n7,8,9\r\n",
            # a whitespace-only line sends the file through the per-cell scan
            "y,x1,x2\n1,2,3\n   \n4,5,6.5\n7,8,9\n",
        ],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want = load_csv(str(plain), "y")
        for y_column in ("y", 0):
            got = load_csv(str(marked), y_column)
            np.testing.assert_array_equal(got.x, want.x)
            np.testing.assert_array_equal(got.y, want.y)

    def test_file_descriptor(self, tmp_path):
        path = self.write(tmp_path, "y,x1,x2\n1,2,3\n4,5,6\n")
        d = load_csv(os.open(path, os.O_RDONLY), "y")  # load_csv closes it
        np.testing.assert_array_equal(d.x, [[2, 3], [5, 6]])

    def test_pipe_is_read_whole(self, tmp_path):
        # about 20 KiB, more than one buffered read; a pipe cannot be opened
        # twice or rewound, so every row must come from the one read
        rows = b"".join(b"%d,%d.5\n" % (i, i) for i in range(2000))
        for tail, want in [(b"", None), (b"7,x\n", "row 2002, column 'x1'"),
                           (b"7,\xff\n", f"0xff at offset {5 + len(rows) + 2} ")]:
            r, w = os.pipe()
            try:
                os.write(w, b"y,x1\n" + rows + tail)
                os.close(w)
                if want is None:
                    d = load_csv(f"/dev/fd/{r}", "y")
                    np.testing.assert_array_equal(d.y, np.arange(2000.0))
                    np.testing.assert_array_equal(d.x[:, 0], np.arange(2000.0) + 0.5)
                else:
                    with pytest.raises(CsvFormatError, match=want):
                        load_csv(f"/dev/fd/{r}", "y")
            finally:
                os.close(r)

    def test_header_name_wins_over_index(self, tmp_path):
        path = self.write(tmp_path, "1,0,y,2\n10,20,30,40\n11,21,31,41\n")
        np.testing.assert_array_equal(load_csv(path, "1").y, [10, 11])
        np.testing.assert_array_equal(load_csv(path, "0").y, [20, 21])
        np.testing.assert_array_equal(load_csv(path, 1).y, [20, 21])
        np.testing.assert_array_equal(load_csv(path, "3").y, [40, 41])


class TestLoadCsvFormats:
    """The vectorized parse against a per-cell ``float`` oracle."""

    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        return str(path)

    def vectorized_only(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the per-cell scan ran")

        monkeypatch.setattr(data, "_scan_rows", no_scan)

    def test_bitwise_equal_to_float_per_cell(self, tmp_path, monkeypatch):
        self.vectorized_only(monkeypatch)
        rng = np.random.default_rng(13)
        scales = 10.0 ** rng.integers(-300, 300, (200, 4))
        values = rng.standard_normal((200, 4)) * scales
        formats = ("{!r}", "{:.17g}", "{:.3e}", "{:.6f}", "{:.0f}")
        cells = [
            [formats[(i + j) % 5].format(float(v)) for j, v in enumerate(row)]
            for i, row in enumerate(values)
        ]
        text = "y,a,b,c\n" + "".join(",".join(row) + "\n" for row in cells)
        d = load_csv(self.write(tmp_path, text), "y")
        want = np.array([[float(c) for c in row] for row in cells])
        np.testing.assert_array_equal(d.y, want[:, 0])
        np.testing.assert_array_equal(d.x, want[:, 1:])

    def test_quoted_padded_and_crlf_cells(self, tmp_path, monkeypatch):
        self.vectorized_only(monkeypatch)
        text = 'y,x1,x2\r\n"1.5", 2 ,"-3e2"\r\n  4,5.25 ,6\r\n7,"8", 9\r\n'
        d = load_csv(self.write(tmp_path, text), "y")
        np.testing.assert_array_equal(d.y, [1.5, 4.0, 7.0])
        np.testing.assert_array_equal(d.x, [[2.0, -300.0], [5.25, 6.0], [8.0, 9.0]])

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        d = load_csv(self.write(tmp_path, "y,x1\n1,2\n   \n3,4\n\n5,6\n"), "y")
        np.testing.assert_array_equal(d.x[:, 0], [2.0, 4.0, 6.0])

    def test_underscore_literal_accepted_as_float_does(self, tmp_path):
        d = load_csv(self.write(tmp_path, "y,x1\n1_0,2\n3,4_000.5\n"), "y")
        np.testing.assert_array_equal(d.y, [10.0, 3.0])
        np.testing.assert_array_equal(d.x[:, 0], [2.0, 4000.5])

    def test_hash_is_not_a_comment(self, tmp_path):
        path = self.write(tmp_path, "y,x1\n1,2\n#3,4\n5,6\n")
        with pytest.raises(CsvFormatError, match=r"row 3.*'y'.*'#3'"):
            load_csv(path, "y")

    def test_infinite_cell_names_location(self, tmp_path):
        path = self.write(tmp_path, "y,x1\n1,2\n3,4\n5,-inf\n")
        with pytest.raises(CsvFormatError, match=r"row 4.*'x1'.*non-finite"):
            load_csv(path, "y")

    def test_rows_narrower_than_header(self, tmp_path):
        path = self.write(tmp_path, "y,x1,x2\n1,2\n3,4\n")
        with pytest.raises(CsvFormatError, match="row 2 has 2 fields, expected 3"):
            load_csv(path, "y")

    def test_header_only(self, tmp_path):
        # numpy warns that the input held no data; the warning must not leak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in ("y,x1\n", "y,x1\n\n\n", "y,x1", "y\n"):
                with pytest.raises(CsvFormatError, match="got 0"):
                    load_csv(self.write(tmp_path, text), "y")

    def test_header_with_a_quoted_newline(self, tmp_path, monkeypatch):
        self.vectorized_only(monkeypatch)
        path = self.write(tmp_path, 'y,"x\none"\n1,2\n3,4\n5,6\n')
        d = load_csv(path, "y")
        np.testing.assert_array_equal(d.y, [1.0, 3.0, 5.0])
        np.testing.assert_array_equal(d.x[:, 0], [2.0, 4.0, 6.0])
        assert load_csv(path, "x\none").y.tolist() == [2.0, 4.0, 6.0]

    def test_byte_order_mark_and_crlf(self, tmp_path, monkeypatch):
        self.vectorized_only(monkeypatch)
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x1\r\n1,2\r\n3,4.5\r\n")
        d = load_csv(str(path), "y")
        np.testing.assert_array_equal(d.y, [1.0, 3.0])
        np.testing.assert_array_equal(d.x[:, 0], [2.0, 4.5])

    def test_blank_lines_before_the_first_row(self, tmp_path, monkeypatch):
        self.vectorized_only(monkeypatch)
        d = load_csv(self.write(tmp_path, "y,x1\n\n\r\n1,2\n\n3,4\n"), "y")
        np.testing.assert_array_equal(d.y, [1.0, 3.0])
        np.testing.assert_array_equal(d.x[:, 0], [2.0, 4.0])

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_under_a_compression_suffix(self, tmp_path, suffix):
        # numpy opens the name as compressed and fails; the scan reads it as text
        path = tmp_path / f"data.csv{suffix}"
        path.write_text("y,x1\n1,2\n3,4\n", encoding="utf-8")
        d = load_csv(str(path), "y")
        np.testing.assert_array_equal(d.y, [1.0, 3.0])
        np.testing.assert_array_equal(d.x[:, 0], [2.0, 4.0])

    def test_bare_compressed_stream_header(self, tmp_path):
        # numpy's bz2 reader ends in EOFError; the scan sees a header-only file
        path = tmp_path / "data.csv.bz2"
        path.write_text("BZh9", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="got 0"):
            load_csv(str(path), 0)

    def test_url_like_relative_path_is_read_locally(self, tmp_path, monkeypatch):
        self.vectorized_only(monkeypatch)

        def no_fetch(*args, **kwargs):
            raise AssertionError("a local path was fetched as a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "d.csv").write_text("y,x1\n1,2\n3,4\n")
        monkeypatch.chdir(tmp_path)
        assert load_csv("http://host/d.csv", "y").y.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize(
        "raw, offset",
        [
            (b"y,\xffx1\n1,2\n3,4\n", 2),
            (b"y,x1\n1,2\n3,\xff4\n5,6\n", 11),
            # past the header read's first chunk: the chunked read meets it
            (b"y,x1\n" + b"1,2\n" * 5000 + b"3,4\xff\n", 5 + 4 * 5000 + 3),
        ],
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, raw, offset):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        with pytest.raises(CsvFormatError, match=f"0xff at offset {offset} is not UTF-8"):
            load_csv(str(path), "y")
