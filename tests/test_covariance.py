"""Covariance pipeline: sample covariance, suite construction, CSV format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsparsity import (
    CsvParseError,
    Dataset,
    InputError,
    InsufficientSampleError,
    SingularityError,
    build_suite,
    analytic_normalized_precision,
    normalized_precision_eigen,
    random_dag,
    read_csv,
    sample_covariance,
    suite_from_covariance,
    write_csv,
)
from conftest import chain_dag, unit_noise, gaussian_dataset
from oracles import float_csv


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Dataset(values=np.array([[1.0, np.inf]]))

    def test_rejects_bad_names(self):
        with pytest.raises(InputError):
            Dataset(values=np.ones((3, 2)), variable_names=["a"])

    def test_default_names(self):
        assert Dataset(values=np.ones((2, 3))).names() == ["x1", "x2", "x3"]


class TestSampleCovariance:
    def test_two_point_example(self):
        data = Dataset(values=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_array_equal(
            sample_covariance(data), [[1.0, 0.0], [0.0, 0.0]]
        )

    def test_constant_dataset(self):
        data = Dataset(values=np.full((4, 3), 7.0))
        np.testing.assert_array_equal(sample_covariance(data), np.zeros((3, 3)))

    def test_constant_column_whose_mean_rounds(self, rng):
        # the mean of sixty 0.1s is not 0.1 in double precision
        values = np.column_stack([rng.standard_normal((60, 2)), np.full(60, 0.1)])
        assert values[:, 2].mean() != 0.1
        cov = sample_covariance(Dataset(values=values))
        np.testing.assert_array_equal(cov[2], 0.0)
        np.testing.assert_array_equal(cov[:, 2], 0.0)

    def test_requires_two_samples(self):
        with pytest.raises(InputError):
            sample_covariance(Dataset(values=np.ones((1, 2))))

    def test_divisor_is_n(self):
        data = Dataset(values=np.array([[0.0], [2.0]]))
        # mean 1, squared deviations 1 + 1, divided by n = 2
        np.testing.assert_array_equal(sample_covariance(data), [[1.0]])

    def test_monte_carlo_recovery(self, rng):
        sigma = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        data = gaussian_dataset(rng, sigma, 5000)
        assert np.abs(sample_covariance(data) - sigma).max() <= 0.1


class TestSuite:
    def test_precision_normalization_example(self):
        precision = np.array([[4.0, 2.0], [2.0, 4.0]])
        suite = suite_from_covariance(np.linalg.inv(precision))
        np.testing.assert_allclose(suite.precision, precision, atol=1e-12)
        np.testing.assert_allclose(
            suite.normalized_precision, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12
        )

    def test_diagonal_covariance_gives_identity(self):
        suite = suite_from_covariance(np.diag([4.0, 0.25, 9.0]))
        np.testing.assert_allclose(suite.normalized_precision, np.eye(3), atol=1e-12)

    def test_three_node_chain_analytic(self):
        dag = chain_dag(3)
        omega, values = analytic_normalized_precision(dag, unit_noise(3))
        # adjacent entries -1/2 and -1/sqrt(2), zero corner
        assert omega[0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert omega[1, 2] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)
        assert omega[0, 2] == pytest.approx(0.0, abs=1e-12)
        expected = [1.0 + np.sqrt(3.0) / 2.0, 1.0, 1.0 - np.sqrt(3.0) / 2.0]
        np.testing.assert_allclose(values, expected, atol=1e-10)
        # the same truth through data: sigma from the model, suite from sigma
        b_inv = np.linalg.inv(np.eye(3) - dag.adjacency.T)
        sigma = b_inv @ b_inv.T
        suite = suite_from_covariance(sigma)
        np.testing.assert_allclose(suite.normalized_precision, omega, atol=1e-10)

    def test_requires_more_samples_than_variables(self):
        with pytest.raises(InsufficientSampleError):
            build_suite(Dataset(values=np.random.default_rng(0).standard_normal((5, 5))))

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            suite_from_covariance(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_condition_guard(self):
        # ill-conditioned at the correlation scale; a scale-only case such
        # as diag(1, 1e-14) is accepted
        almost = 1.0 - 1e-13
        with pytest.raises(SingularityError):
            suite_from_covariance(np.array([[1.0, almost], [almost, 1.0]]))

    def test_unit_diagonal_and_symmetry(self, rng):
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            suite = suite_from_covariance(m @ m.T + 4 * np.eye(4))
            assert np.abs(np.diag(suite.normalized_precision) - 1.0).max() <= 1e-12
            omega = suite.normalized_precision
            assert np.abs(omega - omega.T).max() <= 1e-10


class TestOmegaEigenvalues:
    def test_identity(self):
        suite = suite_from_covariance(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            normalized_precision_eigen(suite).values, np.ones(3), atol=1e-12
        )

    def test_analytic_2x2(self):
        suite = suite_from_covariance(np.linalg.inv(np.array([[4.0, 2.0], [2.0, 4.0]])))
        np.testing.assert_allclose(
            normalized_precision_eigen(suite).values, [1.5, 0.5], atol=1e-12
        )

    def test_eigenvalue_sum_is_p(self, rng):
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            suite = suite_from_covariance(m @ m.T + 5 * np.eye(5))
            eig = normalized_precision_eigen(suite)
            assert abs(eig.values.sum() - 5.0) <= 1e-9

    def test_column_rescaling_invariance(self, rng):
        values = rng.standard_normal((60, 4))
        suite_a = build_suite(Dataset(values=values))
        scaled = values.copy()
        scaled[:, 2] *= 37.5
        suite_b = build_suite(Dataset(values=scaled))
        assert np.abs(
            suite_a.normalized_precision - suite_b.normalized_precision
        ).max() <= 1e-9

    def test_tree_top_eigenvalue_bounded(self, rng):
        # light version of the tree bound; the acceptance suite runs 500
        for _ in range(20):
            dag = random_dag(6, 1, rng=rng)
            _, values = analytic_normalized_precision(dag, unit_noise(6))
            assert values[0] <= 2.0 + 1e-9


class TestCsv:
    def test_round_trip(self, tmp_path, rng):
        extremes = np.array(
            [[0.0, -0.0], [5e-324, 2.2250738585072014e-309],
             [1.7976931348623157e308, -1.7976931348623157e308], [0.1, -0.1]]
        )
        for values in (rng.standard_normal((7, 2)), extremes):
            data = Dataset(values=values, variable_names=["alpha", "beta"])
            path = tmp_path / "d.csv"
            write_csv(data, path)
            back = read_csv(path)
            assert back.values.tobytes() == data.values.tobytes()
            assert back.variable_names == data.variable_names

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            read_csv(path)
        assert err.value.row == 3 and err.value.column == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CsvParseError):
            read_csv(path)

    @pytest.mark.filterwarnings("error")
    def test_header_only(self, tmp_path):
        # np.loadtxt warns on a body without data; read_csv must not
        path = tmp_path / "h.csv"
        for body in ("", "\n", "\r\n\n\r"):
            path.write_text("a,b\n" + body, encoding="utf-8", newline="")
            with pytest.raises(CsvParseError, match="no data rows after the header"):
                read_csv(path)


# Files on which read_csv is checked against the float() reading: line
# ends, blank lines, quoting, spellings numpy's tokenizer reads as float()
# does and spellings only float() reads, and every kind of failure.
CSV_EDGE_CASES = {
    "lf": b"a,b\n1,2\n3,4\n",
    "crlf": b"a,b\r\n1,2\r\n3,4\r\n",
    "cr": b"a,b\r1,2\r3,4\r",
    "mixed_line_ends": b"a,b\n1,2\r\n3,4\r5,6",
    "no_final_newline": b"a,b\n1,2\n3,4",
    "blank_lines": b"a,b\n\n1,2\n\n\n3,4\n\n",
    "blank_crlf_lines": b"a,b\r\n\r\n1,2\r\n\r\n\r\n",
    "whitespace_line": b"a,b\n1,2\n  \n3,4\n",
    "whitespace_line_one_column": b"a\n1\n \n2\n",
    "tab_line_one_column": b"a\n1\n\t\n",
    "quoted_cells": b'a,b\n"1.5","-2"\n3,"4e1"\n',
    "quoted_header": b'"a","b c"\n1,2\n',
    "quoted_header_comma_newline": b'"a,x","b\nc"\n1,2\n',
    "quoted_empty_one_column": b'a\n1\n""\n',
    "text_after_closing_quote": b'a,b\n"1"e5,"2" \n',
    "quote_inside_cell": b'a\n1"2"\n',
    "doubled_quote": b'a\n"1""2"\n',
    "unclosed_quote_at_end": b'a\n"1.5',
    "quoted_newline_in_cell": b'a\n"1\n2"\n',
    "bom": b"\xef\xbb\xbfa,b\n1,2\n",
    "nan": b"a,b\n1,nan\n",
    "minus_infinity": b"a,b\n-Infinity,2\n",
    "overflow_1e400": b"a,b\n1e400,2\n",
    "subnormals": b"a,b\n5e-324,2.2250738585072014e-309\n4.9e-324,1e-320\n",
    "underflow_to_zero": b"a\n1e-400\n",
    "signed_zeros": b"a,b\n-0.0,0\n+0,-0e5\n",
    "spellings": b"a,b\n1E5,.5\n-.5e-3,+7.\n0.1,1e22\n",
    "hex": b"a\n0x10\n",
    "underscore": b"a,b\n1_000,2\n3,4\n",
    "double_underscore": b"a\n1__0\n",
    "fullwidth_digits": "a,b\n\uff11\uff12.\uff15,1\n".encode(),
    "arabic_indic_digits": "a\n\u0661\u0662\n".encode(),
    "nul_inside_cell": b"a\n1\x002\n",
    "nul_after_cell": b"a,b\n1\x00,2\n",
    "surrounding_whitespace": b"a,b\n  1.5\t, -2 \n\x0c3\x0b,4\x1c\n",
    "unit_separator_after_cell": b"a\n1\x1f\n",
    "unicode_whitespace": "a,b\n1\xa0,\u20032\u2028\n3\x85,4\n".encode(),
    "bad_cell": b"a,b\n1,2\n3,oops\n",
    "empty_cell": b"a,b\n1,\n",
    "space_inside_number": b"a\n1 2\n",
    "incomplete_exponent": b"a\n1e\n",
    "ragged_long_row": b"a,b\n1,2,3\n",
    "ragged_short_row": b"a,b\n1,2\n3\n4,5\n",
    "every_row_too_long": b"a,b\n1,2,3\n4,5,6\n",
    "trailing_comma": b"a,b\n1,2,\n",
    "not_utf8_in_body": b"a,b\n1,2\n3,\xff\n",
    "bad_cell_before_late_non_utf8": b"a,b\nx,2\n" + b"1,2\n" * 4000 + b"\xff\n",
    "not_utf8_in_header": b"a,\xfe\n1,2\n",
    "empty_file": b"",
    "header_only": b"a,b\n",
    "blank_body": b"a,b\n\n\r\n\r",
    "empty_header_name": b"a,\n1,2\n",
    "cell_over_field_limit": b"a\n" + b"0" * 140_000 + b"1\n",
    "one_cell": b"a\n7\n",
    "one_row": b"a,b,c,d\n1,2,3,4\n",
}


def _csv_outcome(read, path):
    """What a reader makes of ``path``: the values' bytes and shape and the
    names, or the error's type, message, row and column."""
    try:
        data = read(path)
    except InputError as err:
        return type(err).__name__, str(err), getattr(err, "row", None), getattr(err, "column", None)
    return data.values.tobytes(), data.values.shape, data.variable_names


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", CSV_EDGE_CASES)
def test_read_csv_matches_float_reading_on_edge_cases(tmp_path, name):
    path = tmp_path / "d.csv"
    path.write_bytes(CSV_EDGE_CASES[name])
    assert _csv_outcome(read_csv, path) == _csv_outcome(float_csv, path)


_SPELLINGS = (repr, "%.17g".__mod__, "%e".__mod__, "%.3e".__mod__)
# Whitespace both readings strip from a cell.
_PADDING = ("", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2003")
# Non-ASCII decimal digits float() reads: full-width, Arabic-Indic, Devanagari.
_DIGIT_ZEROS = (0xFF10, 0x0660, 0x0966)
_SPECIAL_CELLS = ("nan", "-inf", "1e400", "-0", "5e-324", "0x10", "1__0", "", "x", " ", "1\x1c")


@st.composite
def csv_files(draw):
    """CSV bytes with random float spellings, padding, quoting, line ends
    and blank lines. A file is plain, or has cells only float() reads
    (underscores, non-ASCII digits), or has one special or broken cell."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["plain", "plain", "float_only", "special"]))
    names = [f'"x{j}"' if draw(st.booleans()) else f"x{j}" for j in range(p)]
    rows = []
    for _ in range(n):
        cells = []
        for _ in range(p):
            x = draw(st.floats(width=64, allow_nan=False, allow_infinity=False))
            text = draw(st.sampled_from(_SPELLINGS))(x)
            if kind == "float_only" and draw(st.booleans()):
                spots = [i for i in range(1, len(text)) if (text[i - 1] + text[i]).isdigit()]
                if spots:
                    i = draw(st.sampled_from(spots))
                    text = text[:i] + "_" + text[i:]
            if kind == "float_only" and draw(st.booleans()):
                zero = draw(st.sampled_from(_DIGIT_ZEROS))
                text = text.translate({ord("0") + k: zero + k for k in range(10)})
            text = draw(st.sampled_from(_PADDING)) + text + draw(st.sampled_from(_PADDING))
            if draw(st.booleans()):
                text = f'"{text}"'
            cells.append(text)
        rows.append(cells)
    if kind == "special":
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))
        rows[row][col] = draw(st.sampled_from(_SPECIAL_CELLS))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(names)]
    for cells in rows:
        lines.extend([""] * draw(st.sampled_from([0, 0, 1, 2])))
        lines.append(",".join(cells))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text.encode("utf-8")


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(csv_files())
def test_read_csv_matches_float_reading_on_random_files(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "random_file.csv"
    path.write_bytes(content)
    assert _csv_outcome(read_csv, path) == _csv_outcome(float_csv, path)
