"""Command line interface tests.

The CLI writes machine-readable artifacts; tests drive main() in
process (fast paths only) and check outputs, exit codes and the
documented byte-determinism of reruns.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import npspec
from npspec import cli, elasticity
from npspec import io as npio
from npspec.cli import load_config, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _benchmark_checks():
    """perfbench/checks.py, the benchmark's own checks of stage outputs."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STAGE_CHECKS = _benchmark_checks().STAGE_CHECKS


def assert_stage_checks(stage, outdir, nodes, lam=1.0, mu=1.0):
    checks, _ = STAGE_CHECKS[stage](str(outdir), nodes, lam, mu)
    assert checks and [c for c in checks if not c[1]] == []


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

    def test_negative_value_in_exponent_form(self, capsys):
        # the token after a --section.key flag is its value, whatever its
        # first character (-Infinity: test_rejected_values_name_their_keys)
        code, out = run(capsys, "essential", "--material.lambda", "-1e-3")
        assert code == 0
        assert json.loads(out) == {"roots": [-0.250125, 0.0, 0.250125]}

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        # a misspelt key must not run with the default it meant to replace
        for key in ("mesh.N", "matrial.mu", "extract.eps_ladder", "mesh", "mesh.n.x"):
            with pytest.raises(SystemExit, match=repr(key)):
                load_config(None, [(key, "16")])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mesh": {"n": 6}, "matrial": {"mu": 2}}))
        with pytest.raises(SystemExit, match="'matrial.mu'"):
            load_config(str(path))
        path.write_text(json.dumps({"mesh": 6}))
        with pytest.raises(SystemExit, match="'mesh'"):
            load_config(str(path))
        # counting windows are the library's; there is no windows section.
        # On the command line argparse stops an unknown flag by name
        for argv in (["assemble", "--mesh.N", "16"], ["count", "--windows.guard", "0.1"]):
            with pytest.raises(SystemExit):
                main([*argv, "--out.dir", str(tmp_path)])
            assert "unrecognized arguments: %s %s" % tuple(argv[1:]) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_bad_file_value_stops_even_when_overridden(self, tmp_path):
        # each value is checked where it is set, not only the last one
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mesh": {"n": 4.5}}))
        with pytest.raises(SystemExit, match="^config key 'mesh.n' is not an integer: 4.5$"):
            load_config(str(path), [("mesh.n", "6")])

    def test_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["essential", "--help"])
        assert exc.value.code == 0
        flags = re.findall(r"^  (--[a-z]+\.[a-z]+) ", capsys.readouterr().out, re.M)
        keys = ["--%s.%s" % (s, k) for s in cli.DEFAULT_CONFIG for k in cli.DEFAULT_CONFIG[s]]
        assert flags == keys and len(keys) == 11

    def test_every_default_type_is_checked(self):
        # a key whose default's type had no entry would take any value
        types = {type(v) for section in cli.DEFAULT_CONFIG.values() for v in section.values()}
        assert types <= set(cli._KINDS)

    @pytest.mark.parametrize("stage", ["assemble", "coeff"])
    @pytest.mark.parametrize("value", ["5", "null", '{"2": 0.1}'])
    def test_harmonics_must_be_a_list(self, capsys, tmp_path, stage, value):
        # 5 and null would end in a TypeError traceback, not a message
        with pytest.raises(SystemExit, match="^config key 'surface.harmonics' is not a list: "):
            run(capsys, stage, "--surface.kind", "radial_graph", "--surface.harmonics", value,
                "--mesh.n", "4", "--out.dir", str(tmp_path))
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, key, kind",
        [(["assemble", "--surface.kind", "sphere", "--surface.a", "3"], "a", "sphere"),
         (["coeff", "--surface.kind", "radial_graph", "--surface.radius", "5"], "radius",
          "radial_graph")],
        ids=["sphere a", "radial_graph radius"],
    )
    def test_surface_key_the_kind_does_not_read_is_refused(
        self, capsys, tmp_path, argv, key, kind
    ):
        # the sphere would run at radius 1 and ignore a = 3
        with pytest.raises(SystemExit, match="^config key 'surface.%s' is not read by kind '%s'$"
                           % (key, kind)):
            run(capsys, *argv, "--mesh.n", "4", "--out.dir", str(tmp_path))
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().out == ""
        # a key at its default changes nothing and is accepted
        cfg = load_config(None, [("surface.a", "1"), ("surface.harmonics", "[]")])
        assert cli._surface(cfg).params == {"radius": 1.0}


    @pytest.mark.parametrize(
        "key, value",
        [
            ("material.mu", "true"),
            ("material.lambda", "false"),
            ("material.mu", "abc"),
            ("surface.radius", "[1]"),
            ("surface.c", '"0.8"'),
        ],
    )
    def test_numbers_must_be_numbers(self, capsys, key, value):
        # float() would run true as 1 and fail on text without the key
        with pytest.raises(SystemExit, match="%r is not a number" % key):
            run(capsys, "essential", "--" + key, value)

    @pytest.mark.parametrize(
        "text, reason",
        [
            (None, "cannot read config file .*: No such file or directory"),
            ('{"mesh": {"n": 6}', "config file .* is not JSON: Expecting"),
            ("[1, 2]", "config file .* is not a JSON object"),
        ],
        ids=["missing", "malformed", "not_an_object"],
    )
    def test_config_file_errors_name_the_file(self, tmp_path, text, reason):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit, match=reason) as info:
            load_config(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["essential", "--material.mu", "-1"], "material.lambda, material.mu: inadmissible"),
            (["coeff", "--mesh.n", "2"], "mesh.n or surface: need at least 4 latitude nodes"),
            (
                ["assemble", "--surface.kind", "ellipsoid", "--surface.a", "0"],
                "surface.a, surface.b, surface.c: ellipsoid semi-axis a = 0 is not positive",
            ),
            (["sphere-exact", "--kmax", "0"], "--kmax: k_max must be >= 1"),
            (
                ["coeff", "--extract.angles", "62"],
                "extract.angles: need an even direction count of at least 64",
            ),
            *(
                (argv, "material.lambda, material.mu: inadmissible")
                for argv in (["essential", "--material.mu", "Infinity"],
                             ["essential", "--material.mu", "-Infinity"],
                             ["essential", "--material.lambda", "Infinity"],
                             ["count", "--material.lambda", "Infinity"],
                             ["coeff", "--material.mu", "Infinity"])
            ),
            (
                ["assemble", "--surface.radius", "Infinity"],
                "surface.radius: sphere radius inf is not positive",
            ),
            (
                ["assemble", "--surface.kind", "radial_graph",
                 "--surface.harmonics", "[[2,0,NaN]]"],
                "surface.harmonics: harmonic [2, 0, nan] is not",
            ),
            (
                ["assemble", "--surface.kind", "ellipsoid", "--surface.a", "Infinity"],
                "surface.a, surface.b, surface.c: ellipsoid semi-axis a = inf is not positive",
            ),
        ],
        ids=["material", "mesh", "surface", "kmax", "angles", "mu=inf", "mu=-inf",
             "lambda=inf", "count lambda=inf", "coeff mu=inf", "radius=inf", "coeff=nan",
             "a=inf"],
    )
    def test_rejected_values_name_their_keys(self, capsys, tmp_path, argv, reason):
        # the library's ValueError becomes a message, not a traceback
        with pytest.raises(SystemExit, match="invalid " + re.escape(reason)):
            run(capsys, *argv, "--out.dir", str(tmp_path))
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().out == ""


    @pytest.mark.parametrize("stage", ["assemble", "coeff"])
    def test_negative_radius_between_nodes_rejected(self, capsys, tmp_path, stage):
        # rho = -0.26 at both poles, where the n = 4 rule has no node
        with pytest.raises(SystemExit, match="invalid surface.harmonics: radial graph not star"):
            run(capsys, stage, "--surface.kind", "radial_graph", "--surface.harmonics",
                "[[2,0,-2.0]]", "--mesh.n", "4", "--out.dir", str(tmp_path))
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "stage, name",
        [("assemble", "npspec.spectral.assemble_operators"),
         ("coeff", "npspec.extraction.np_symbol_field"),
         ("coeff", "npspec.asymptotics.coefficient_integral")],
    )
    def test_failed_numerical_check_stops_the_stage(
        self, capsys, monkeypatch, tmp_path, stage, name
    ):
        def failing(*args, **kwargs):
            raise ValueError("check off at node 0")

        monkeypatch.setattr(name, failing)
        with pytest.raises(SystemExit, match="^invalid mesh.n or surface: check off at node 0$"):
            run(capsys, stage, "--mesh.n", "4", "--out.dir", str(tmp_path))
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().out == ""

    def test_string_keys_take_override_text(self):
        # "5" stays the directory name 5, and true the kind named true
        cfg = load_config(None, [("out.dir", "5"), ("surface.kind", "true")])
        assert cfg["out"]["dir"] == "5"
        assert cfg["surface"]["kind"] == "true"

    @pytest.mark.parametrize("key, value", [("out.dir", 5), ("surface.kind", None)])
    def test_strings_in_a_config_file_must_be_strings(self, tmp_path, key, value):
        section, name = key.split(".")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {name: value}}))
        with pytest.raises(SystemExit, match="%r is not a string: %r" % (key, value)):
            load_config(str(path))

    @pytest.mark.parametrize("stage", ["assemble", "spectrum", "count", "fit", "coeff"])
    @pytest.mark.parametrize("where, reason", [("", "File exists"), ("x", "Not a directory")])
    def test_bad_output_directory_stops_before_any_work(
        self, capsys, monkeypatch, tmp_path, stage, where, reason
    ):
        # out.dir is a file, or lies under one; the stage stops with the
        # reason before it reads the surface, the material or any input
        path = tmp_path / "file"
        path.write_text("")
        out = os.path.join(str(path), where) if where else str(path)

        def no_work(*args):
            raise AssertionError("work before the output directory")

        for name in ("_surface", "_material", "_read_input"):
            monkeypatch.setattr(cli, name, no_work)
        message = "cannot create output directory %s: %s" % (re.escape(out), reason)
        with pytest.raises(SystemExit, match=message):
            run(capsys, stage, "--out.dir", out)
        assert os.listdir(tmp_path) == ["file"]
        assert capsys.readouterr().out == ""


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

    @staticmethod
    def _stage_modules(tmp_path, stage):
        """The npspec modules a fresh process holds after running stage."""
        script = (
            "import json, sys, npspec.cli\n"
            "code = npspec.cli.main(sys.argv[1:])\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'npspec')))\n"
            "sys.exit(code)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(npspec.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, stage, "--mesh.n", "4",
             "--out.dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_fresh_process_loads_only_the_stage_layers(self, tmp_path):
        # each command imports the layers it runs, and every module a
        # stage loads is compiled and run in that stage's process
        assert self._stage_modules(tmp_path, "essential") == [
            "npspec", "npspec.cli", "npspec.elasticity", "npspec.symbols"
        ]
        assert "npspec.spectral" not in self._stage_modules(tmp_path, "coeff")
        # fit writes plain report records: no symbol-route layer
        (tmp_path / "counting.csv").write_text(
            "tau,n_plus,n_minus,root\n"
            + "".join("%.17g,%d,0,0\n" % (t, 4.0 / t**2) for t in np.geomspace(0.01, 1.0, 12))
        )
        fit_modules = self._stage_modules(tmp_path, "fit")
        assert "npspec.asymptotics" not in fit_modules
        assert "npspec.extraction" not in fit_modules


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
        assert_stage_checks("assemble", tmp_path, 128)

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
        assert_stage_checks("spectrum", tmp_path, 128)

        code, out = run(capsys, "count", *out_args)
        assert code == 0
        recs = npio.read_counting_csv(tmp_path / "counting.csv")
        assert [round(r["root"], 4) for r in recs] == [-0.1667, 0.0, 0.1667]
        assert_stage_checks("count", tmp_path, 128)

        code, out = run(capsys, "fit", *out_args)
        assert code == 0
        rep = json.loads((tmp_path / "fit.json").read_text())
        assert all(r["route"] == "counting" for r in rep["reports"])
        assert len(rep["reports"]) + len(rep["skipped"]) == 6
        assert_stage_checks("fit", tmp_path, 128)

    def test_fit_records_skipped_sides(self, capsys, tmp_path):
        # fit drops the smallest-tau third (8 of 24 samples); n_plus then
        # keeps 3 nonzero samples, too few to fit, and n_minus fits
        tau = np.geomspace(1e-3, 1e-1, 24)
        record = {
            "root": 0.0,
            "tau": tau,
            "n_plus": np.where(np.arange(24) < 11, 5, 0),
            "n_minus": np.round(10.0 * tau**-2.0).astype(int),
        }
        path = tmp_path / "counting.csv"
        npio.write_counting_csv(path, [record])
        code, out = run(capsys, "fit", "--counting", str(path), "--out.dir", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "fit.json").read_text())
        assert [r["side"] for r in rep["reports"]] == ["minus"]
        assert rep["skipped"] == [
            {
                "root": 0.0,
                "side": "plus",
                "reason": "too few nonzero counting samples: 3",
            }
        ]

    def test_fit_has_no_pruning_switch(self, capsys, tmp_path):
        # fit always prunes; the removed --no-prune flag stops with a
        # message naming it before any work
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--no-prune", "--out.dir", str(tmp_path)])
        assert exc.value.code != 0
        assert "unrecognized arguments: --no-prune" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "stage, key, value",
        [
            ("coeff", "mesh.n", "4.9"),
            ("coeff", "mesh.n", "true"),
            ("assemble", "mesh.n", "4.0"),
            ("coeff", "extract.angles", "64.9"),
            ("coeff", "extract.angles", "true"),
        ],
    )
    def test_sizes_must_be_integers(self, capsys, tmp_path, stage, key, value):
        # int() would run 4.9 as 4 and true as 1
        with pytest.raises(SystemExit, match="%r is not an integer" % key):
            run(capsys, stage, "--" + key, value, "--out.dir", str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_fit_rejects_counting_csv_without_rows(self, capsys, tmp_path):
        path = tmp_path / "counting.csv"
        npio.write_counting_csv(path, [])
        with pytest.raises(SystemExit, match="counting.csv"):
            main(["fit", "--counting", str(path), "--out.dir", str(tmp_path)])
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize(
        "stage, name, text, writer",
        [
            ("count", "eigenvalues.csv", "index,value\n1,0.1\n2\n", "spectrum"),
            ("count", "eigenvalues.csv", "index,value\n1,0.1\n2,inf\n", "spectrum"),
            ("count", "eigenvalues.csv", "index,value\n1,0.1\n2,nan\n", "spectrum"),
            ("fit", "counting.csv", "tau,n_plus,n_minus,root\n0.1,3,2,0\n0.2,1,0\n", "count"),
            ("fit", "counting.csv", "tau,n_plus,n_minus,root\n0.1,3,2,0\ninf,1,0,0\n", "count"),
            ("fit", "counting.csv", "tau,n_plus,n_minus,root\n0.1,3,2,0\n0.2,1,0,nan\n", "count"),
            ("fit", "counting.csv", "tau,n_plus,n_minus,root\n0.1,3,2,0\n0,1,0,0\n", "count"),
            ("fit", "counting.csv", "tau,n_plus,n_minus,root\n0.1,3,2,0\n0.2,-100,0,0\n", "count"),
        ],
        ids=["no_comma", "inf", "nan", "three_fields", "inf_tau", "nan_root", "zero_tau",
             "negative_count"],
    )
    def test_malformed_csv_rows_are_rejected(self, capsys, tmp_path, stage, name, text, writer):
        # the bad row is line 3; nothing is counted or fitted from it
        (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit, match="%s is malformed: line 3 .*; re-run %s" % (name, writer)):
            main([stage, "--out.dir", str(tmp_path)])
        assert os.listdir(tmp_path) == [name]

    def test_count_rejects_eigenvalue_csv_without_values(self, capsys, tmp_path):
        path = tmp_path / "eigenvalues.csv"
        npio.write_eigenvalues_csv(path, [])
        with pytest.raises(SystemExit, match="eigenvalues.csv holds no eigenvalues"):
            main(["count", "--eigenvalues", str(path), "--out.dir", str(tmp_path)])
        assert not (tmp_path / "counting.csv").exists()

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

    @pytest.mark.parametrize(
        "stage, missing, writer",
        [("count", "eigenvalues.csv", "spectrum"), ("fit", "counting.csv", "count")],
    )
    def test_missing_input_names_its_stage(self, capsys, tmp_path, stage, missing, writer):
        with pytest.raises(SystemExit, match="cannot read .*%s.*; run %s first" % (missing, writer)):
            main([stage, "--out.dir", str(tmp_path)])
        assert os.listdir(tmp_path) == []

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

    def test_spectrum_rejects_truncated_single_layer(self, capsys, tmp_path):
        code, _ = run(capsys, "assemble", "--out.dir", str(tmp_path), "--mesh.n", "4")
        assert code == 0
        path = tmp_path / "single_layer.npmat"
        text = path.read_bytes()
        path.write_bytes(text[: len(text) // 2])
        with pytest.raises(SystemExit, match="single_layer.npmat is malformed: .*; re-run assemble"):
            main(["spectrum", "--out.dir", str(tmp_path), "--mesh.n", "4"])
        assert not (tmp_path / "eigenvalues.csv").exists()

    def test_spectrum_rejects_non_finite_entry(self, capsys, tmp_path):
        code, _ = run(capsys, "assemble", "--out.dir", str(tmp_path), "--mesh.n", "4")
        assert code == 0
        path = tmp_path / "np_matrix.npmat"
        lines = path.read_text().splitlines(keepends=True)
        row = lines[3].split()
        row[5] = "nan"
        lines[3] = " ".join(row) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(
            SystemExit, match="np_matrix.npmat is malformed: .*row 2, column 5 is nan"
        ):
            main(["spectrum", "--out.dir", str(tmp_path), "--mesh.n", "4"])
        assert not (tmp_path / "eigenvalues.csv").exists()

    @pytest.mark.parametrize(
        "stage, name",
        [("assemble", "np_matrix.npmat"), ("assemble", "single_layer.npmat"),
         ("spectrum", "eigenvalues.csv"), ("count", "counting.csv"), ("fit", "fit.json"),
         ("coeff", "coeff.json")],
    )
    def test_failed_write_stops_the_stage(self, capsys, tmp_path, stage, name):
        # a directory where the output goes: a message, not a traceback,
        # also when the forked child's write of S failed
        out_args = ["--out.dir", str(tmp_path), "--mesh.n", "4"]
        stages = ["assemble", "spectrum", "count", "fit"]
        for before in stages[:stages.index(stage)] if stage in stages else ():
            assert run(capsys, before, *out_args)[0] == 0
        (tmp_path / name).mkdir()
        path = re.escape(str(tmp_path / name))
        with pytest.raises(SystemExit, match="^cannot write %s: Is a directory$" % path):
            main([stage, *out_args])
        assert capsys.readouterr().out == ""

    def test_one_and_two_cores_write_identical_bytes(self, capsys, tmp_path, monkeypatch):
        # assemble writes K and S in two processes when a spare core
        # exists; spectrum reads both in its own process
        real_fork, forks = os.fork, []

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        def no_fork():
            raise AssertionError("spectrum forked")

        for ncores in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(ncores)))
            out = ["--out.dir", str(tmp_path / str(ncores)), "--mesh.n", "6"]
            monkeypatch.setattr(os, "fork", counted_fork)
            assert run(capsys, "assemble", *out)[0] == 0
            assert len(forks) == ncores - 1
            monkeypatch.setattr(os, "fork", no_fork)
            assert run(capsys, "spectrum", *out)[0] == 0
        # the one child was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        for name in ("np_matrix.npmat", "single_layer.npmat", "eigenvalues.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_dent_pipeline_passes_benchmark_checks(self, capsys, tmp_path):
        # an axisymmetric radial graph: 6 meridian rows, 12 Fourier blocks
        out_args = ["--surface.kind", "radial_graph", "--surface.harmonics", "[[2, 0, -0.3]]",
                    "--mesh.n", "6", "--out.dir", str(tmp_path)]
        outputs = {}
        for stage in ("assemble", "spectrum", "count", "fit", "coeff"):
            code, outputs[stage] = run(capsys, stage, *out_args)
            assert code == 0
            assert_stage_checks(stage, tmp_path, 72)
        assembled = json.loads(outputs["assemble"])
        assert (assembled["nodes"], assembled["rows_assembled"]) == (72, 6)
        summary = json.loads(outputs["spectrum"])
        assert (summary["count"], summary["fourier_blocks"]) == (216, 12)
        assert 0.0 <= summary["circulant_defect"] <= 1e-15

    def test_general_surface_takes_one_block(self, capsys, tmp_path):
        out_args = ["--surface.kind", "ellipsoid", "--surface.a", "1", "--surface.b", "1.2",
                    "--surface.c", "0.8", "--mesh.n", "6", "--out.dir", str(tmp_path)]
        code, out = run(capsys, "assemble", *out_args)
        assert code == 0 and json.loads(out)["rows_assembled"] == 72
        code, out = run(capsys, "spectrum", *out_args)
        assert code == 0
        summary = json.loads(out)
        assert (summary["fourier_blocks"], summary["circulant_defect"]) == (1, None)
        assert_stage_checks("spectrum", tmp_path, 72)

    def test_spectrum_rejects_matrix_that_is_not_equivariant(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "assemble", "--out.dir", str(a), "--mesh.n", "6")[0] == 0
        path = a / "np_matrix.npmat"
        k_mat = npio.read_npmat(path)
        k_mat[3 * 13 + 1, 40] += 1e-6  # a row of the node at latitude 1, longitude 1
        npio.write_npmat(path, k_mat)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--matrix", str(path), "--out.dir", str(b), "--mesh.n", "6"])
        defect = "%.3e" % (1e-6 / np.abs(k_mat).max())
        assert str(exc.value.code).endswith(
            "np_matrix.npmat is malformed: not rotation-equivariant about the z axis: "
            "circulant defect %s of max |M| exceeds 1e-10; re-run assemble" % defect
        )
        assert not (b / "eigenvalues.csv").exists()

    def test_spectrum_stops_on_indefinite_single_layer(self, capsys, tmp_path):
        out_args = ["--surface.kind", "radial_graph", "--surface.harmonics",
                    "[[2, 0, 0.3], [3, 1, 0.2]]", "--mesh.n", "6", "--out.dir", str(tmp_path)]
        assert run(capsys, "assemble", *out_args)[0] == 0
        with pytest.raises(SystemExit, match="invalid mesh.n: -S is not positive definite"):
            main(["spectrum", *out_args])
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
            assert summary["fit_residual"] < 1e-10
            assert summary["odd_defect"] < 1e-8
            assert 0.0 <= summary["angle_drift"] < 1e-8
        reps = json.loads((a / "coeff.json").read_text())["reports"]
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

    def test_dent_passes_benchmark_checks(self, capsys, tmp_path):
        code, out = run(
            capsys, "coeff", "--surface.kind", "radial_graph",
            "--surface.harmonics", "[[2, 0, -0.6]]", "--mesh.n", "4", "--out.dir", str(tmp_path),
        )
        assert code == 0
        assert_stage_checks("coeff", tmp_path, 32)
        # the dent has nodes with K < 0: no convex law to compare
        summary = json.loads(out)
        assert summary["convex"] is False and "convex_law_err" not in summary

    @pytest.mark.parametrize(
        "argv, willmore, rel_w, law_err",
        [
            # measured: W exact to the last bit, law error 6.2e-18
            (["--mesh.n", "8"], 4.0 * np.pi, 1e-15, 1e-16),
            # measured: W off TestConvexLaw's reference by 2.9e-13, law
            # error 4.0e-14
            (["--surface.kind", "ellipsoid", "--surface.a", "1", "--surface.b", "1.2",
              "--surface.c", "0.8", "--mesh.n", "32"], 13.4351959091245, 3e-12, 4e-13),
        ],
        ids=["sphere8", "ellipsoid32"],
    )
    def test_convex_surface_reports_the_convex_law(
        self, capsys, tmp_path, argv, willmore, rel_w, law_err
    ):
        code, out = run(capsys, "coeff", *argv, "--out.dir", str(tmp_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["convex"] is True
        assert summary["willmore"] == pytest.approx(willmore, rel=rel_w)
        assert 0.0 <= summary["convex_law_err"] <= law_err
        # measured 1.4e-16 on the sphere and 9.2e-14 on the ellipsoid
        assert abs(summary["gauss_bonnet_err"]) <= 1e-12


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

        monkeypatch.setattr(elasticity, "symmetrizer_symbols", broken)
        monkeypatch.setattr(elasticity, "sphere_exact_eigenvalues", lambda p, k: ([0.0] * 2,) * 3)
        code, out = run(capsys, "verify")
        assert code == 1
        lines = out.strip().splitlines()
        assert (
            "FAIL symmetrizer_identities: ValueError: inverse identity violated"
            in lines
        )
        assert "FAIL sphere_first_modes: returned False" in lines
        assert lines[-1] == "7/9 checks passed"
