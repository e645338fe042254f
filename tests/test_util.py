import numpy as np
import pytest

from disciter.util import (format_value, geometric_grid, json_dumps, linear_fit,
                           sample_disk, tail_fit_mask, write_csv, write_svg_series)


class TestGrids:
    def test_geometric_grid_shape(self):
        g = geometric_grid(10 ** 6)
        assert g[0] == 1
        assert g[-1] == 10 ** 6
        assert np.all(np.diff(g) > 0)
        # dense prefix and geometric tail
        assert set(range(1, 33)).issubset(set(g.tolist()))
        ratios = g[g >= 64][1:] / g[g >= 64][:-1].astype(float)
        assert float(ratios.max()) < 1.6

    def test_geometric_grid_includes_n_max(self):
        assert 999 in geometric_grid(999).tolist()

    def test_invalid_n_max(self):
        with pytest.raises(ValueError):
            geometric_grid(0)


class TestFits:
    def test_linear_fit_recovers_line(self):
        x = np.linspace(0, 10, 50)
        fit = linear_fit(x, 3.0 * x - 2.0)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(-2.0, abs=1e-11)
        assert fit.residual == pytest.approx(0.0, abs=1e-10)

    def test_residual_reported(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 100)
        fit = linear_fit(x, x + 0.01 * rng.standard_normal(100))
        assert fit.residual > 0.0

    def test_tail_mask_widens_when_sparse(self):
        ns = np.array([1, 2, 1000])
        mask = tail_fit_mask(ns, np.ones(3, dtype=bool))
        assert mask.sum() == 2
        assert mask[-1]

    def test_tail_mask_needs_two_points(self):
        with pytest.raises(ValueError):
            tail_fit_mask(np.array([5]), np.array([True]))


class TestSampling:
    def test_disk_sampling_inside(self):
        rng = np.random.default_rng(1)
        z = sample_disk(rng, 10 ** 4, rmax=0.97)
        assert float(np.max(np.abs(z))) < 0.97

    def test_area_uniformity_rough(self):
        rng = np.random.default_rng(2)
        z = sample_disk(rng, 10 ** 5, rmax=1.0)
        inner = np.mean(np.abs(z) < 0.5)  # quarter of the area
        assert inner == pytest.approx(0.25, abs=0.01)


class TestWriters:
    def test_csv_bytes_deterministic(self, tmp_path):
        cols = (["n", "v"], [np.arange(3), np.array([0.1, 0.2, 1.0 / 3.0])])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, *cols)
        write_csv(b, *cols)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[3] == f"2,{1.0 / 3.0!r}"

    def test_json_sorted_and_typed(self):
        text = json_dumps({"b": np.float64(1.5), "a": np.bool_(True),
                           "c": 1 + 2j, "d": np.arange(2)})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert '"re": 1.0' in text

    def test_svg_deterministic_and_selfcontained(self, tmp_path):
        xs, ys = np.arange(10.0), np.sqrt(np.arange(10.0))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_svg_series(a, xs, ys, title="t", xlabel="x", ylabel="y")
        write_svg_series(b, xs, ys, title="t", xlabel="x", ylabel="y")
        assert a.read_bytes() == b.read_bytes()
        body = a.read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
        assert "http" not in body.replace("http://www.w3.org/2000/svg", "")

    def test_csv_matches_per_cell_loop(self, tmp_path):
        # the writer before column-at-a-time formatting, kept as the oracle
        def per_cell(path, header, columns):
            nrows = len(columns[0]) if header else 0
            lines = [",".join(header)]
            for i in range(nrows):
                lines.append(",".join(format_value(col[i]) for col in columns))
            with open(path, "w", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")

        rng = np.random.default_rng(11)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 0.1, 1.0 / 3.0]
        k = len(special)
        columns = [
            np.array(special),
            np.arange(k, dtype=np.int64) - 3,
            np.arange(k, dtype=np.int32),
            np.arange(k) % 3 == 0,
            np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-45, -1e-45, 3e38, 0.1, 1.0 / 3.0],
                     dtype=np.float32),
            np.array(special) + 1j * np.arange(k),
            [True, False, 1, -2, 0.5, -0.0, np.float64(5e-324), np.int64(7), np.bool_(False),
             "arc"],
            list(special),
            rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k),
        ]
        header = [f"c{i}" for i in range(len(columns))]
        for head, cols in ((header, columns), (header[:1], [np.array([])]), ([], [])):
            new, old = tmp_path / "new.csv", tmp_path / "old.csv"
            write_csv(new, head, cols)
            per_cell(old, head, cols)
            assert new.read_bytes() == old.read_bytes()

    def test_csv_unequal_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], [np.arange(3.0), [1, 2]])
        with pytest.raises(ValueError):
            write_csv(path, ["a"], [np.arange(3.0), [1, 2, 3]])
        assert not path.exists()

    def test_format_value(self):
        assert format_value(np.bool_(False)) == "false"
        assert format_value(np.int64(7)) == "7"
        assert format_value(0.1) == repr(0.1)
