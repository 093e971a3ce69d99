import numpy as np
import pytest

from mtgp.data import (
    CSV_BLOCK_ROWS,
    MultiTaskDataset,
    read_query_csv,
    read_task_csv,
    task_scaling,
)
from mtgp.errors import ShapeError, ValidationError
from mtgp.kernels import SQUARED_EXPONENTIAL
from mtgp.multitask import ExactGPLayout

# row counts around the reader's block boundaries
BLOCK_EDGE_ROWS = [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]


class TestMultiTaskDataset:
    def test_basic_properties(self):
        ds = MultiTaskDataset(
            (np.zeros((3, 2)), np.ones((1, 2))), (np.zeros(3), np.ones(1))
        )
        assert ds.num_tasks == 2
        assert ds.input_dim == 2
        assert ds.counts == (3, 1)
        assert ds.total_count == 4
        np.testing.assert_array_equal(ds.task_indices(), [0, 0, 0, 1])
        assert ds.stacked_inputs().shape == (4, 2)

    def test_one_dimensional_inputs_promoted(self):
        ds = MultiTaskDataset((np.array([1.0, 2.0]),), (np.array([0.0, 1.0]),))
        assert ds.inputs[0].shape == (2, 1)

    def test_empty_task_allowed_if_any_nonempty(self):
        ds = MultiTaskDataset(
            (np.zeros((2, 1)), np.zeros((0, 1))), (np.zeros(2), np.zeros(0))
        )
        assert ds.counts == (2, 0)
        with pytest.raises(ShapeError):
            MultiTaskDataset(
                (np.zeros((0, 1)), np.zeros((0, 1))), (np.zeros(0), np.zeros(0))
            )

    def test_dimension_mismatch_between_tasks(self):
        with pytest.raises(ShapeError):
            MultiTaskDataset(
                (np.zeros((2, 1)), np.zeros((2, 2))), (np.zeros(2), np.zeros(2))
            )

    def test_non_finite_targets_rejected(self):
        with pytest.raises(ValueError):
            MultiTaskDataset((np.zeros((2, 1)),), (np.array([1.0, np.nan]),))


def standardized(dataset):
    """Each task's working targets under the dataset's standardization, as a
    fit's layout scales them, with the ``means`` and ``stds``."""
    layout = ExactGPLayout([SQUARED_EXPONENTIAL], [1], dataset, True, False)
    layout.scale(*task_scaling(dataset, True))
    targets = [layout.y[layout.tasks == d] for d in range(dataset.num_tasks)]
    return targets, layout.means, layout.stds


class TestStandardizeTargets:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        ds = MultiTaskDataset(
            (rng.uniform(0, 1, (20, 1)), rng.uniform(0, 1, (10, 1))),
            (5 + 3 * rng.normal(size=20), -2 + 0.1 * rng.normal(size=10)),
        )
        out, means, stds = standardized(ds)
        for Y in out:
            assert abs(np.mean(Y)) < 1e-12
            assert np.std(Y) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(means, [np.mean(t) for t in ds.targets])

    def test_degenerate_tasks_keep_unit_std(self):
        ds = MultiTaskDataset(
            (np.zeros((1, 1)), np.zeros((2, 1)), np.zeros((0, 1))),
            (np.array([7.0]), np.array([4.0, 4.0]), np.zeros(0)),
        )
        out, means, stds = standardized(ds)
        np.testing.assert_array_equal(stds, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(out[0], [0.0])
        np.testing.assert_array_equal(out[1], [0.0, 0.0])


class TestReadTaskCsv(object):
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            "x1,x2,task,y\n0.1,0.2,0,1.5\n0.3,0.4,1,2.5\n0.5,0.6,0,3.5\n",
        )
        ds, xcols = read_task_csv(path)
        assert xcols == ["x1", "x2"]
        assert ds.num_tasks == 2
        assert ds.counts == (2, 1)
        np.testing.assert_array_equal(ds.targets[0], [1.5, 3.5])

    def test_column_order_free(self, tmp_path):
        path = self.write(tmp_path, "y,task,x1\n1.0,0,0.5\n")
        ds, xcols = read_task_csv(path)
        assert xcols == ["x1"]
        np.testing.assert_array_equal(ds.inputs[0], [[0.5]])

    def test_task_gap_named_in_error(self, tmp_path):
        path = self.write(tmp_path, "x1,task,y\n0.1,0,1.0\n0.2,2,2.0\n")
        with pytest.raises(ValidationError, match="missing \\[1\\]"):
            read_task_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,task,y,color\n0.1,0,1.0,red\n")
        with pytest.raises(ValidationError, match="color"):
            read_task_csv(path)

    def test_non_contiguous_x_columns_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,x3,task,y\n0.1,0.2,0,1.0\n")
        with pytest.raises(ValidationError, match=f"^{path}: input columns .* not contiguous"):
            read_task_csv(path)

    @pytest.mark.parametrize("reader", [read_task_csv, read_query_csv])
    def test_missing_input_columns_name_the_file(self, tmp_path, reader):
        path = self.write(tmp_path, "task,y\n0,1.0\n")
        with pytest.raises(ValidationError, match=f"^{path}: no input columns found"):
            reader(path)

    def test_leading_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" starts with the byte-order mark EF BB BF
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx1,task,y\n0.1,0,1.0\n")
        ds, xcols = read_task_csv(path)
        assert xcols == ["x1"]
        np.testing.assert_array_equal(ds.inputs[0], [[0.1]])
        query = tmp_path / "bom_query.csv"
        query.write_bytes(b"\xef\xbb\xbfx1,task\n0.1,0\n")
        X, tasks, xcols = read_query_csv(query)
        assert xcols == ["x1"]
        np.testing.assert_array_equal(X, [[0.1]])

    @pytest.mark.parametrize("reader", [read_task_csv, read_query_csv])
    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path, reader):
        header, row = ("x1,task,y\n", ",0,1.0\n") if reader is read_task_csv else ("x1,task\n", ",0\n")
        path = self.write(tmp_path, header + "0.1" + row + "1" * 200_000 + row)
        with pytest.raises(ValidationError, match=f"^{path}: line 3: field larger than field limit"):
            reader(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = self.write(tmp_path, "x1,task,y\n0.1,0,1.0\nabc,0,2.0\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_task_csv(path)

    @pytest.mark.parametrize("reader", [read_task_csv, read_query_csv])
    @pytest.mark.parametrize("rows", [1, 2 * CSV_BLOCK_ROWS])
    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, reader, rows):
        # with 2 * CSV_BLOCK_ROWS rows the bad byte is decoded after the first block
        header = "x1,task,y\n" if reader is read_task_csv else "x1,task\n"
        row = "0.1,0,1.0\n" if reader is read_task_csv else "0.1,0\n"
        path = tmp_path / "data.csv"
        path.write_bytes((header + row * rows).encode() + b"0.2,0\xff\n")
        with pytest.raises(ValidationError, match=f"^{path}: not UTF-8 text: byte 0xff"):
            reader(path)

    def test_fractional_task_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,task,y\n0.1,0.5,1.0\n")
        with pytest.raises(ValidationError, match="task"):
            read_task_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ValidationError):
            read_task_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,task,y\n")
        with pytest.raises(ValidationError, match="no data rows"):
            read_task_csv(path)


class TestReadQueryCsv:
    def test_rows_kept_in_order(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1,task\n0.9,1\n0.1,0\n", encoding="utf-8")
        X, tasks, xcols = read_query_csv(path)
        np.testing.assert_array_equal(X[:, 0], [0.9, 0.1])
        np.testing.assert_array_equal(tasks, [1, 0])

    def test_empty_query_ok(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1,task\n", encoding="utf-8")
        X, tasks, xcols = read_query_csv(path)
        assert X.shape == (0, 1)
        assert tasks.shape == (0,)

    def test_y_column_rejected(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1,task,y\n0.1,0,1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="y"):
            read_query_csv(path)


def edge_values(n, seed):
    """n floats mixing the formatting edge cases with random magnitudes."""
    special = [-0.0, 5e-324, 1e16, 1.0, 0.1 + 0.2, 3.0, -7.0, 1e-300, 2.0**53 + 2]
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    values[: min(n, len(special))] = special[:n]
    return values


class TestBlockBoundaries:
    @pytest.mark.parametrize("n", [0] + BLOCK_EDGE_ROWS)
    def test_query_round_trip_is_exact(self, tmp_path, n):
        X = np.column_stack([edge_values(n, 1), edge_values(n, 2)])
        tasks = np.arange(n) % 3
        path = tmp_path / "q.csv"
        lines = ["x2,task,x1"] + [f"{b!r},{t},{a!r}" for (a, b), t in zip(X.tolist(), tasks.tolist())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        X_read, tasks_read, xcols = read_query_csv(path)
        assert xcols == ["x1", "x2"]
        assert X_read.shape == (n, 2) and X_read.flags.c_contiguous
        np.testing.assert_array_equal(X_read, X)
        assert np.array_equal(np.signbit(X_read), np.signbit(X))  # -0.0 survives
        np.testing.assert_array_equal(tasks_read, tasks)

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    def test_task_data_round_trip_is_exact(self, tmp_path, n):
        x, y = edge_values(n, 3), edge_values(n, 4)
        tasks = np.arange(n) % 2 if n > 1 else np.zeros(n, dtype=int)
        path = tmp_path / "d.csv"
        lines = ["y,x1,task"] + [f"{b!r},{a!r},{t}" for a, b, t in zip(x.tolist(), y.tolist(), tasks.tolist())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ds, xcols = read_task_csv(path)
        assert xcols == ["x1"]
        for d in range(ds.num_tasks):
            np.testing.assert_array_equal(ds.inputs[d][:, 0], x[tasks == d])
            np.testing.assert_array_equal(ds.targets[d], y[tasks == d])

    def blank_padded(self, header, rows, bad_at, bad_row):
        """Rows with a blank line after every 1000th; returns (text, file line of bad_at)."""
        lines = [header]
        for i, row in enumerate(rows):
            if i == bad_at:
                row = bad_row
                bad_line = len(lines) + 1
            lines.append(row)
            if i % 1000 == 999:
                lines.append("")
        return "\n".join(lines) + "\n", bad_line

    @pytest.mark.parametrize("bad_row,needle", [("abc,0", "non-numeric value"), ("0.5,-1", "task index must be non-negative"), ("0.5,0,1", "3 fields")])
    def test_query_error_in_second_block_names_file_line(self, tmp_path, bad_row, needle):
        n = CSV_BLOCK_ROWS + 500
        text, line = self.blank_padded("x1,task", ["0.5,0"] * n, CSV_BLOCK_ROWS + 100, bad_row)
        path = tmp_path / "q.csv"
        path.write_text(text, encoding="utf-8")
        assert line > CSV_BLOCK_ROWS + 100 + 2  # the blank lines count
        with pytest.raises(ValidationError, match=f"line {line}: {needle}"):
            read_query_csv(path)

    @pytest.mark.parametrize("bad_row,needle", [("abc,0,1.0", "non-numeric value"), ("0.5,0,inf", "non-finite value"), ("0.5,x,1.0", "task 'x' is not an integer")])
    def test_task_data_error_in_second_block_names_file_line(self, tmp_path, bad_row, needle):
        n = CSV_BLOCK_ROWS + 500
        text, line = self.blank_padded("x1,task,y", ["0.5,0,1.0"] * n, CSV_BLOCK_ROWS + 100, bad_row)
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"line {line}: {needle}"):
            read_task_csv(path)

    def test_non_finite_query_value_in_later_block_names_file_line(self, tmp_path):
        n = CSV_BLOCK_ROWS + 500
        text, line = self.blank_padded("x1,task", ["0.5,0"] * n, CSV_BLOCK_ROWS + 10, "nan,0")
        path = tmp_path / "q.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"line {line}: non-finite value"):
            read_query_csv(path)

    def test_query_non_numeric_value_is_reported_before_an_earlier_non_finite_one(self, tmp_path):
        rows = ["0.5,0"] * (CSV_BLOCK_ROWS + 10)
        rows[3] = "inf,0"
        text, line = self.blank_padded("x1,task", rows, CSV_BLOCK_ROWS + 5, "abc,0")
        path = tmp_path / "q.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"line {line}: non-numeric value"):
            read_query_csv(path)

    def test_task_data_reports_the_first_bad_row_across_blocks(self, tmp_path):
        rows = ["0.5,0,1.0"] * (CSV_BLOCK_ROWS + 10)
        rows[3] = "0.5,0,nan"
        rows[CSV_BLOCK_ROWS + 5] = "abc,0,1.0"
        path = tmp_path / "d.csv"
        path.write_text("\n".join(["x1,task,y"] + rows) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 5: non-finite value"):
            read_task_csv(path)


class TestMalformedRows:
    """Blank lines, ragged rows and repeated header names."""

    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_query_error_names_file_line_after_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "x1,task\n0.1,0\n\n\n0.2,0\nabc,0\n")
        with pytest.raises(ValidationError, match="line 6: non-numeric value"):
            read_query_csv(path)

    def test_query_non_finite_names_file_line_after_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "x1,task\n\n0.1,0\n\ninf,0\n")
        with pytest.raises(ValidationError, match="line 5: non-finite value"):
            read_query_csv(path)

    def test_task_data_error_names_file_line_after_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "x1,task,y\n0.1,0,1.0\n\n\n0.2,0,2.0\nabc,0,3.0\n")
        with pytest.raises(ValidationError, match="line 6: non-numeric value"):
            read_task_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        X, tasks, _ = read_query_csv(self.write(tmp_path, "x1,task\n\n0.1,0\n\n0.2,1\n\n"))
        np.testing.assert_array_equal(X[:, 0], [0.1, 0.2])
        np.testing.assert_array_equal(tasks, [0, 1])

    def test_query_extra_fields_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,task\n0.1,0\n0.2,0,7\n")
        with pytest.raises(ValidationError, match="line 3: 3 fields, the header has 2"):
            read_query_csv(path)

    def test_task_data_extra_fields_rejected(self, tmp_path):
        path = self.write(tmp_path, "x1,task,y\n0.1,0,1.0\n0.2,0,2,9\n")
        with pytest.raises(ValidationError, match="line 3: 4 fields, the header has 3"):
            read_task_csv(path)

    @pytest.mark.parametrize(
        "reader,text,needle",
        [
            (read_query_csv, "x1,task\n0.2\n", "line 2: task '' is not an integer"),
            (read_query_csv, "task,x1\n0\n", "line 2: non-numeric value"),
            (read_task_csv, "x1,y,task\n0.2,1.0\n", "line 2: task '' is not an integer"),
            (read_task_csv, "x1,task,y\n0.2,0\n", "line 2: non-numeric value"),
        ],
    )
    def test_short_rows_keep_their_messages(self, tmp_path, reader, text, needle):
        with pytest.raises(ValidationError, match=needle):
            reader(self.write(tmp_path, text))

    @pytest.mark.parametrize(
        "reader,text,needle",
        [
            (read_query_csv, "x1,task,task\n0.1,0,1\n", "repeated columns \\['task'\\]"),
            (read_task_csv, "x1,task,task,y\n0.1,0,1,1.0\n", "repeated columns \\['task'\\]"),
            (read_task_csv, "x1,task,y, y\n0.1,0,1.0,2.0\n", "repeated columns \\['y'\\]"),
            (read_query_csv, "x1,x1,task\n0.1,0.2,0\n", "not contiguous"),
        ],
    )
    def test_repeated_columns_rejected(self, tmp_path, reader, text, needle):
        with pytest.raises(ValidationError, match=needle):
            reader(self.write(tmp_path, text))
