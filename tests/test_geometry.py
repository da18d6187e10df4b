import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injflow._util import CSV_BLOCK_ROWS, write_csv
from injflow.errors import InvalidArgumentError
from injflow.geometry import (
    CompactSampleSet,
    circle_target,
    knotted_ribbon,
    pushforward_samples,
    sample_annulus,
    sample_circle,
    sample_interval,
    trefoil,
    trefoil_normal,
    trefoil_tangent,
    trefoil_target,
)


class TestSampleCircle:
    def test_four_grid_points_are_quarter_turns(self):
        pts = sample_circle(4, mode="grid").points
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        np.testing.assert_allclose(pts, expected, atol=1e-15)

    def test_single_grid_point_at_angle_zero(self):
        pts = sample_circle(1, mode="grid").points
        np.testing.assert_allclose(pts, [[1.0, 0.0]], atol=1e-15)

    def test_random_points_lie_on_unit_circle(self):
        pts = sample_circle(1000, mode="random", seed=7).points
        norms = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_circle(0)

    def test_seeded_determinism_byte_for_byte(self, tmp_path):
        a = sample_circle(64, mode="random", seed=3)
        b = sample_circle(64, mode="random", seed=3)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()


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

    def test_tangent_matches_finite_differences(self):
        theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        h = 1e-6
        fd = (trefoil(theta + h) - trefoil(theta - h)) / (2 * h)
        fd /= np.linalg.norm(fd, axis=1, keepdims=True)
        np.testing.assert_allclose(trefoil_tangent(theta), fd, atol=1e-8)


class TestKnottedRibbon:
    def test_r_one_collapses_to_core(self):
        theta = np.linspace(0, 2 * np.pi, 17)
        np.testing.assert_allclose(knotted_ribbon(np.ones_like(theta), theta),
                                   trefoil(theta), atol=1e-15)

    def test_unit_normal_scaling(self):
        p = knotted_ribbon(1.5, 0.0, a=0.1)
        assert abs(np.linalg.norm(p - trefoil(0.0)) - 0.05) <= 1e-10

    def test_normal_orthogonal_to_fd_tangent(self):
        # Independent oracle: central-difference tangent of the core curve.
        theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        h = 1e-6
        fd_tangent = (trefoil(theta + h) - trefoil(theta - h)) / (2 * h)
        fd_tangent /= np.linalg.norm(fd_tangent, axis=1, keepdims=True)
        dots = np.sum(trefoil_normal(theta) * fd_tangent, axis=1)
        assert np.abs(dots).max() <= 1e-8

    def test_normal_is_unit_and_continuous(self):
        theta = np.linspace(0, 2 * np.pi, 720)
        v = trefoil_normal(theta)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        steps = np.linalg.norm(np.diff(v, axis=0), axis=1)
        assert steps.max() < 0.1

    def test_radial_range_enforced(self):
        with pytest.raises(InvalidArgumentError):
            knotted_ribbon(0.3, 0.0)
        with pytest.raises(InvalidArgumentError):
            knotted_ribbon(1.7, 0.0)

    def test_ribbon_within_half_width_of_core(self):
        params = sample_annulus(400, seed=5).points
        pts = knotted_ribbon(params[:, 0], params[:, 1], a=0.1)
        dense = trefoil(np.linspace(0, 2 * np.pi, 8000, endpoint=False))
        d2 = ((pts[:, None, :] - dense[None, :, :]) ** 2).sum(axis=2)
        dmin = np.sqrt(d2.min(axis=1))
        assert dmin.max() <= 0.05 + 1e-3  # half-width plus curve discretization


class TestPushforward:
    def test_circle_grid_uniform_weights(self):
        base = sample_interval(4, 0.0, 2 * np.pi * 3 / 4, mode="grid")
        measure = pushforward_samples(circle_target(), base)
        np.testing.assert_allclose(measure.weights, 0.25)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        np.testing.assert_allclose(measure.points, expected, atol=1e-12)

    def test_empty_base_rejected(self):
        with pytest.raises(InvalidArgumentError):
            CompactSampleSet(np.zeros((0, 1)))

    def test_trefoil_coordinate_bound(self):
        base = sample_interval(100, 0.0, 2 * np.pi, mode="random", seed=11)
        measure = pushforward_samples(trefoil_target(), base)
        assert measure.points.shape == (100, 3)
        # |sin t + 2 sin 2t| <= 3 per coordinate bounds the norm's components.
        assert np.abs(measure.points).max() <= 3.0 + 1e-9

    def test_dimension_mismatch_rejected(self):
        base = sample_circle(8)  # dim 2
        with pytest.raises(InvalidArgumentError):
            pushforward_samples(circle_target(), base)


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
        s = sample_annulus(12, seed=1)
        path = tmp_path / "pts.csv"
        s.to_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "x0,x1"
        loaded = CompactSampleSet.from_csv(path)
        np.testing.assert_array_equal(loaded.points, s.points)

    def test_17_significant_digits_roundtrip_exactly(self, tmp_path):
        pts = np.array([[np.pi, 1.0 / 3.0], [2.0 / 7.0, np.e]])
        path = tmp_path / "p.csv"
        CompactSampleSet(pts).to_csv(path)
        loaded = CompactSampleSet.from_csv(path)
        assert (loaded.points == pts).all()

    def test_sample_set_immutable(self):
        s = sample_circle(4)
        with pytest.raises(ValueError):
            s.points[0, 0] = 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            CompactSampleSet(np.array([[np.nan, 0.0]]))
