"""Command line interface tests.

The CLI writes machine-readable artifacts; tests drive main() in
process (fast paths only) and check outputs, exit codes and the
documented byte-determinism of reruns.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import npspec
from npspec import cli
from npspec import io as npio
from npspec.cli import load_config, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg["surface"]["kind"] == "sphere"
        assert cfg["material"]["mu"] == 1.0

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mesh": {"n": 6}}))
        cfg = load_config(str(path), [("material.mu", "2.5"), ("out.dir", "x")])
        assert cfg["mesh"]["n"] == 6
        assert cfg["material"]["mu"] == 2.5
        assert cfg["out"]["dir"] == "x"

    def test_override_parses_json_values(self):
        cfg = load_config(None, [("surface.harmonics", "[[2, 0, -0.6]]")])
        assert cfg["surface"]["harmonics"] == [[2, 0, -0.6]]

    def test_dangling_override_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["essential", "--material.mu"])


class TestEssential:
    def test_roots_json(self, capsys):
        code, out = run(capsys, "essential")
        assert code == 0
        roots = json.loads(out)["roots"]
        assert roots == [-0.166667, 0.0, 0.166667]

    def test_material_override(self, capsys):
        code, out = run(capsys, "essential", "--material.lambda", "2.0")
        kk = 1.0 / (2.0 * (2.0 + 2.0))
        roots = json.loads(out)["roots"]
        assert abs(roots[2] - round(kk, 6)) < 1e-12

    def test_fresh_process_imports_no_scipy(self):
        # every CLI stage is its own process, so its start-up cost is
        # paid per stage; scipy alone would add most of it
        script = (
            "import sys, npspec.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(npspec.cli.main(['essential']))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(npspec.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, roots = proc.stdout.splitlines()
        assert loaded == "[]"
        assert json.loads(roots)["roots"] == [-0.166667, 0.0, 0.166667]


class TestSphereExact:
    def test_table_rows(self, capsys):
        code, out = run(capsys, "sphere-exact", "--kmax", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,lam_zero,lam_minus,lam_plus"
        row1 = [float(t) for t in lines[1].split(",")]
        row2 = [float(t) for t in lines[2].split(",")]
        assert row1[:3] == [1.0, 0.5, 0.5]
        assert abs(row1[3] + 1.0 / 18.0) < 1e-15
        assert row2[0] == 2.0 and row2[1] == 0.3
        assert abs(row2[3] - 1.0 / 6.0) < 1e-15


class TestPipeline:
    def test_assemble_spectrum_count_fit(self, capsys, tmp_path):
        out_args = ["--out.dir", str(tmp_path), "--mesh.n", "8"]
        code, out = run(capsys, "assemble", *out_args)
        assert code == 0
        info = json.loads(out)
        assert info["nodes"] == 128
        k_mat = npio.read_npmat(tmp_path / "np_matrix.npmat")
        s_mat = npio.read_npmat(tmp_path / "single_layer.npmat")
        assert k_mat.shape == (384, 384) and s_mat.shape == (384, 384)

        code, out = run(capsys, "spectrum", *out_args)
        assert code == 0
        summary = json.loads(out)
        assert summary["count"] == 384
        for key in ("plemelj_residual", "symmetry_defect", "clipped_modes",
                    "p_min_ratio"):
            assert key in summary
        assert summary["p_min_ratio"] > 0.0
        vals = npio.read_eigenvalues_csv(tmp_path / "eigenvalues.csv")
        assert vals.size == 384
        # head of the exact table: 0.5 with multiplicity 6
        assert abs(np.sort(vals)[-6:].mean() - 0.5) < 0.03

        code, out = run(capsys, "count", *out_args)
        assert code == 0
        recs = npio.read_counting_csv(tmp_path / "counting.csv")
        assert [round(r["root"], 4) for r in recs] == [-0.1667, 0.0, 0.1667]

        code, out = run(capsys, "fit", *out_args)
        assert code == 0
        rep = npio.read_report_json(tmp_path / "fit.json")
        assert all(r["route"] == "counting" for r in rep["reports"])
        assert len(rep["reports"]) + len(rep["skipped"]) == 6

    def test_fit_records_skipped_sides(self, capsys, tmp_path):
        # n_plus has too few nonzero samples to fit; n_minus fits
        tau = np.geomspace(1e-3, 1e-1, 24)
        record = {
            "root": 0.0,
            "tau": tau,
            "n_plus": np.where(np.arange(24) < 3, 5, 0),
            "n_minus": np.round(10.0 * tau**-2.0).astype(int),
        }
        path = tmp_path / "counting.csv"
        npio.write_counting_csv(path, [record])
        code, out = run(
            capsys, "fit", "--no-prune", "--counting", str(path),
            "--out.dir", str(tmp_path),
        )
        assert code == 0
        rep = npio.read_report_json(tmp_path / "fit.json")
        assert [r["side"] for r in rep["reports"]] == ["minus"]
        assert rep["skipped"] == [
            {
                "root": 0.0,
                "side": "plus",
                "reason": "too few nonzero counting samples: 3",
            }
        ]

    def test_spectrum_reads_assembled_matrices(self, capsys, tmp_path):
        # spectrum reads what assemble wrote; --matrix names K, and S is
        # read from beside it
        a, b = tmp_path / "a", tmp_path / "b"
        code, _ = run(capsys, "assemble", "--out.dir", str(a), "--mesh.n", "6")
        assert code == 0
        code, out = run(capsys, "spectrum", "--out.dir", str(a), "--mesh.n", "6")
        assert code == 0
        assert json.loads(out)["count"] == 216
        code, _ = run(
            capsys, "spectrum", "--matrix", str(a / "np_matrix.npmat"),
            "--out.dir", str(b), "--mesh.n", "6",
        )
        assert code == 0
        assert (b / "eigenvalues.csv").read_bytes() == (a / "eigenvalues.csv").read_bytes()

    def test_spectrum_without_single_layer_rejected(self, capsys, tmp_path):
        code, _ = run(capsys, "assemble", "--out.dir", str(tmp_path), "--mesh.n", "4")
        assert code == 0
        (tmp_path / "single_layer.npmat").unlink()
        with pytest.raises(SystemExit, match="single_layer.npmat.*run assemble first"):
            main(["spectrum", "--out.dir", str(tmp_path), "--mesh.n", "4"])
        assert not (tmp_path / "eigenvalues.csv").exists()

    def test_spectrum_mesh_mismatch_rejected(self, capsys, tmp_path):
        code, _ = run(capsys, "assemble", "--out.dir", str(tmp_path), "--mesh.n", "4")
        assert code == 0
        with pytest.raises(SystemExit, match="96x96; the configured mesh needs 150x150"):
            main(["spectrum", "--out.dir", str(tmp_path), "--mesh.n", "5"])
        assert not (tmp_path / "eigenvalues.csv").exists()

    def test_rerun_bytes_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, _ = run(capsys, "assemble", "--out.dir", str(d), "--mesh.n", "6")
            assert code == 0
        assert (a / "np_matrix.npmat").read_bytes() == (
            b / "np_matrix.npmat"
        ).read_bytes()
        assert (a / "single_layer.npmat").read_bytes() == (
            b / "single_layer.npmat"
        ).read_bytes()


class TestCoeff:
    def test_sphere_coefficients_and_rerun(self, capsys, tmp_path):
        # C+ = kk^2 = 1/36 at +-kk and 9/16 at 0 from the exact ball
        # spectrum; C- vanishes
        kk = 1.0 / 6.0
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code, out = run(capsys, "coeff", "--mesh.n", "4", "--out.dir", str(d))
            assert code == 0
            summary = json.loads(out)
            assert summary["reports"] == 6
            assert summary["k0_max_err"] < 1e-12
            assert summary["ladder_drift"] < 1e-10
            assert 0.0 <= summary["angle_drift"] < 1e-8
        reps = npio.read_report_json(a / "coeff.json")["reports"]
        assert len(reps) == 6
        want = ((-kk, kk**2), (0.0, 9.0 / 16.0), (kk, kk**2))
        for j, (root, c_plus) in enumerate(want):
            plus, minus = reps[2 * j], reps[2 * j + 1]
            assert (plus["side"], minus["side"]) == ("plus", "minus")
            assert plus["root"] == minus["root"] == pytest.approx(root, abs=1e-15)
            assert plus["route"] == minus["route"] == "symbol"
            assert plus["C"] == pytest.approx(c_plus, rel=1e-6)
            assert abs(minus["C"]) < 1e-9
        assert (a / "coeff.json").read_bytes() == (b / "coeff.json").read_bytes()


class TestVerify:
    def test_exit_zero_and_all_ok(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_failure_is_explicit(self, capsys, monkeypatch):
        def broken(params, xi):
            raise ValueError("inverse identity violated")

        monkeypatch.setattr(cli, "symmetrizer_symbols", broken)
        monkeypatch.setattr(cli, "sphere_exact_eigenvalues", lambda p, k: ([0.0] * 2,) * 3)
        code, out = run(capsys, "verify")
        assert code == 1
        lines = out.strip().splitlines()
        assert (
            "FAIL symmetrizer_identities: ValueError: inverse identity violated"
            in lines
        )
        assert "FAIL sphere_first_modes: returned False" in lines
        assert lines[-1] == "6/8 checks passed"
