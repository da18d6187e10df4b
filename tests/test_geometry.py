import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injflow._util import CSV_BLOCK_ROWS, write_csv
from injflow.errors import InvalidArgumentError
from injflow.geometry import (
    load_points_csv,
    planar_circle_target,
    sample_circle,
    save_points_csv,
    trefoil,
    trefoil_target,
)


class TestSampleCircle:
    def test_four_grid_points_are_quarter_turns(self):
        pts = sample_circle(4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        np.testing.assert_allclose(pts, expected, atol=1e-15)

    def test_single_grid_point_at_angle_zero(self):
        pts = sample_circle(1)
        np.testing.assert_allclose(pts, [[1.0, 0.0]], atol=1e-15)

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_circle(0)


class TestTrefoil:
    def test_theta_zero(self):
        np.testing.assert_allclose(trefoil(0.0), [0.0, -1.0, 0.0], atol=1e-15)

    def test_theta_pi(self):
        np.testing.assert_allclose(trefoil(np.pi), [0.0, -3.0, 0.0], atol=1e-12)

    def test_two_pi_periodic(self):
        np.testing.assert_allclose(trefoil(2 * np.pi), trefoil(0.0), atol=1e-12)

    def test_injectivity_witness_on_grid(self):
        theta = 2 * np.pi * np.arange(500) / 500
        pts = trefoil(theta)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        d[np.arange(500), np.arange(500)] = np.inf
        assert d.min() > 0.0


class TestPushforward:
    """`ManifoldTarget.map_points` pushes parameter samples onto the curve."""

    def test_trefoil_coordinate_bound(self):
        params = np.random.default_rng(11).uniform(0.0, 2 * np.pi, size=(100, 1))
        points = trefoil_target().map_points(params)
        assert points.shape == (100, 3)
        # |sin t + 2 sin 2t| <= 3 per coordinate bounds the norm's components.
        assert np.abs(points).max() <= 3.0 + 1e-9

    def test_dimension_mismatch_rejected(self):
        params = sample_circle(8)  # dim 2
        with pytest.raises(InvalidArgumentError):
            planar_circle_target().map_points(params)


# Cells whose formatting is easy to get wrong: signed zero, the least
# subnormal, the non-finite values, and the neighbours of 1e16 and 1e17,
# where 17 significant digits switch from positional to exponent notation.
_CSV_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan] + [
    float(v) for x in (1e16, 1e17, -1e17)
    for v in (np.nextafter(x, 0.0), x, np.nextafter(x, 2.0 * x))]


def _reference_csv(columns, rows) -> bytes:
    """The bytes of a table written one `"%.17g" % tuple(row)` per row."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return (",".join(columns) + "\n"
            + "".join(line % tuple(row) for row in rows)).encode()


class TestCsv:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_write_csv_matches_per_row_reference(self, data):
        # Rows as traces pass them: an int step, float cells, a bool flag.
        width = data.draw(st.integers(1, 4))
        cells = st.lists(st.one_of(st.floats(), st.sampled_from(_CSV_EDGE_VALUES)),
                         min_size=width, max_size=width)
        drawn = data.draw(st.lists(st.tuples(st.integers(0, 10**6), cells, st.booleans()),
                                   min_size=1, max_size=20))
        rows = [[step, *values, tie] for step, values, tie in drawn]
        columns = ["step", *(f"v{i}" for i in range(width)), "tie_flag"]
        table = np.array(rows, dtype=float) if data.draw(st.booleans()) else rows
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_csv(path, columns, table)
            assert path.read_bytes() == _reference_csv(columns, rows)

    @pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                        CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3])
    def test_write_csv_block_edges(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        table = (rng.normal(size=(n_rows, 3))
                 * 10.0 ** rng.integers(-320, 300, size=(n_rows, 3)))
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b", "c"], table)
        assert path.read_bytes() == _reference_csv(["a", "b", "c"], table)

    def test_roundtrip_and_header(self, tmp_path):
        theta = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, size=12)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        path = tmp_path / "pts.csv"
        save_points_csv(path, pts)
        text = path.read_text().splitlines()
        assert text[0] == "x0,x1"
        np.testing.assert_array_equal(load_points_csv(path), pts)

    def test_17_significant_digits_roundtrip_exactly(self, tmp_path):
        pts = np.array([[np.pi, 1.0 / 3.0], [2.0 / 7.0, np.e]])
        path = tmp_path / "p.csv"
        save_points_csv(path, pts)
        assert (load_points_csv(path) == pts).all()

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        save_points_csv(path, np.array([[0.0, 1.0], [np.nan, 0.0]]))
        with pytest.raises(InvalidArgumentError, match="data row 2"):
            load_points_csv(path)
