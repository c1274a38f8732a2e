"""File format roundtrips and header validation."""

import json

import numpy as np
import pytest

from npspec.asymptotics import AsymptoticReport
from npspec.io import (
    read_counting_csv,
    read_eigenvalues_csv,
    read_npmat,
    write_counting_csv,
    write_eigenvalues_csv,
    write_npmat,
    write_report_json,
)


class TestNpmat:
    def test_real_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(7, 4))
        path = tmp_path / "m.npmat"
        write_npmat(path, mat)
        back = read_npmat(path)
        assert back.dtype.kind == "f"
        assert np.array_equal(back, mat)

    def test_complex_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        path = tmp_path / "m.npmat"
        write_npmat(path, mat)
        back = read_npmat(path)
        assert back.dtype.kind == "c"
        assert np.array_equal(back, mat)

    def test_deterministic_bytes(self, tmp_path):
        mat = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        p1, p2 = tmp_path / "a.npmat", tmp_path / "b.npmat"
        write_npmat(p1, mat)
        write_npmat(p2, mat.copy())
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_per_entry_formatting(self, tmp_path):
        def per_entry(mat):
            lines = ["NPMAT v1 %d %d %s" % (mat.shape + (
                "complex" if np.iscomplexobj(mat) else "real",))]
            for row in mat:
                if np.iscomplexobj(mat):
                    toks = [
                        t for v in row for t in ("%.17g" % v.real, "%.17g" % v.imag)
                    ]
                else:
                    toks = ["%.17g" % v for v in row]
                lines.append(" ".join(toks))
            return ("\n".join(lines) + "\n").encode()

        real = np.array([[-0.0, 1e-300, 1e300], [3.0, -7.0, -2.5e-8]])
        cplx = np.array([[1.0 - 0.0j, -1e-300 + 2.0j], [1e300j, -3.25 + 4.0j]])
        for mat in (real, cplx, np.asfortranarray(cplx)):
            path = tmp_path / "m.npmat"
            write_npmat(path, mat)
            assert path.read_bytes() == per_entry(mat)

    def test_header_line(self, tmp_path):
        path = tmp_path / "m.npmat"
        write_npmat(path, np.eye(2))
        assert path.read_text().splitlines()[0] == "NPMAT v1 2 2 real"

    def test_rejects_vectors(self, tmp_path):
        with pytest.raises(ValueError):
            write_npmat(tmp_path / "v.npmat", np.arange(4.0))

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.npmat"
        path.write_text("NPMAT v2 2 2 real\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            read_npmat(path)
        path.write_text("NPMAT v1 2 2 quaternion\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            read_npmat(path)

    def test_rejects_token_mismatch(self, tmp_path):
        path = tmp_path / "short.npmat"
        path.write_text("NPMAT v1 2 2 real\n1 0 0\n")
        with pytest.raises(ValueError):
            read_npmat(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.npmat"
        path.write_text("NPMAT v1 2 2 real\n1 0 0\n1\n")
        with pytest.raises(ValueError):
            read_npmat(path)


class TestEigenvalueCsv:
    def test_roundtrip_and_header(self, tmp_path):
        vals = np.array([-0.25, 0.0, 1.0 / 3.0, 0.5])
        path = tmp_path / "ev.csv"
        write_eigenvalues_csv(path, vals)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,value"
        assert lines[1].startswith("1,")
        assert np.array_equal(read_eigenvalues_csv(path), vals)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_eigenvalues_csv(path)


class TestCountingCsv:
    def _records(self):
        return [
            {
                "root": -1.0 / 6.0,
                "tau": np.array([0.01, 0.02, 0.04]),
                "n_plus": np.array([9, 4, 1]),
                "n_minus": np.array([0, 0, 0]),
            },
            {
                "root": 0.0,
                "tau": np.array([0.01, 0.02]),
                "n_plus": np.array([25, 6]),
                "n_minus": np.array([2, 1]),
            },
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "counting.csv"
        write_counting_csv(path, self._records())
        back = read_counting_csv(path)
        assert [r["root"] for r in back] == [-1.0 / 6.0, 0.0]
        assert np.array_equal(back[0]["tau"], [0.01, 0.02, 0.04])
        assert np.array_equal(back[0]["n_plus"], [9, 4, 1])
        assert np.array_equal(back[1]["n_minus"], [2, 1])
        assert path.read_text().splitlines()[0] == "tau,n_plus,n_minus,root"

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("index,value\n1,0.5\n")
        with pytest.raises(ValueError):
            read_counting_csv(path)


class TestReportJson:
    def test_roundtrip(self, tmp_path):
        reports = [
            AsymptoticReport(
                root=0.0, side="plus", c=0.5625, d=2.0,
                route="symbol", err_estimate=1e-9,
            ),
            AsymptoticReport(
                root=1.0 / 6.0, side="minus", c=0.0, d=2.0,
                route="counting", err_estimate=0.01,
                extra={"points_used": 12},
            ),
        ]
        path = tmp_path / "report.json"
        write_report_json(path, reports)
        with open(path) as f:
            back = json.load(f)
        assert len(back["reports"]) == 2
        first = back["reports"][0]
        assert first["route"] == "symbol" and first["C"] == 0.5625
        assert back["reports"][1]["points_used"] == 12

    def test_deterministic_bytes(self, tmp_path):
        reports = [
            AsymptoticReport(
                root=0.0, side="plus", c=1.0, d=2.0,
                route="symbol", err_estimate=0.0,
            )
        ]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(p1, reports)
        write_report_json(p2, list(reports))
        assert p1.read_bytes() == p2.read_bytes()
