"""File format roundtrips and header validation."""

import json
import os
import signal
import time

import numpy as np
import pytest

from npspec.asymptotics import AsymptoticReport
from npspec.io import (
    _fork_pair,
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

    def test_complex_matrix_rejected(self, tmp_path):
        # NPMAT is real only: the writer refuses a complex matrix, even
        # one with zero imaginary parts, and the reader a complex header
        path = tmp_path / "m.npmat"
        with pytest.raises(ValueError, match="complex"):
            write_npmat(path, np.eye(2, dtype=complex))
        assert not path.exists()
        path.write_text("NPMAT v1 1 1 complex\n1 0\n")
        with pytest.raises(ValueError, match="'complex'"):
            read_npmat(path)

    def test_deterministic_bytes(self, tmp_path):
        mat = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        p1, p2 = tmp_path / "a.npmat", tmp_path / "b.npmat"
        write_npmat(p1, mat)
        write_npmat(p2, mat.copy())
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_per_entry_formatting(self, tmp_path):
        def per_entry(mat):
            lines = ["NPMAT v1 %d %d real" % mat.shape]
            lines += [" ".join("%.17g" % v for v in row) for row in mat]
            return ("\n".join(lines) + "\n").encode()

        real = np.array([[-0.0, 1e-300, 1e300], [3.0, -7.0, -2.5e-8]])
        for mat in (real, np.asfortranarray(real)):
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
        with pytest.raises(ValueError, match="'quaternion'"):
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

    def test_writer_rejects_non_finite_entries(self, tmp_path):
        path = tmp_path / "m.npmat"
        for bad in (np.nan, np.inf, -np.inf):
            mat = np.eye(3)
            mat[2, 1] = bad
            mat[2, 2] = np.nan
            with pytest.raises(ValueError, match="row 2, column 1 is %r" % bad):
                write_npmat(path, mat)
            assert not path.exists()

    def test_reader_rejects_non_finite_entries(self, tmp_path):
        # "%.17g" writes nan and inf, and loadtxt parses them back
        path = tmp_path / "m.npmat"
        path.write_text("NPMAT v1 2 3 real\n1 0 0\n0 1 nan\n")
        with pytest.raises(ValueError, match="row 1, column 2 is nan"):
            read_npmat(path)
        path.write_text("NPMAT v1 2 2 real\n1 -inf\ninf 1\n")
        with pytest.raises(ValueError, match="row 0, column 1 is -inf"):
            read_npmat(path)


@pytest.fixture
def cores(monkeypatch):
    """Set the cores os.sched_getaffinity reports; after the test, no
    child of this process may be left."""
    yield lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_and_pid(x):
    return x * x, os.getpid()


class TestMapForked:
    """_fork_pair: the second job in a child when a spare core exists."""

    def test_results_in_order_and_equal_to_serial(self, cores):
        cores(2)
        got = _fork_pair(lambda: _square_and_pid(3), lambda: _square_and_pid(4))
        assert [v for v, _ in got] == [9, 16]
        # the first job ran in the caller, the second in a child
        assert got[0][1] == os.getpid() != got[1][1]

    @pytest.mark.parametrize(
        "exc", [ValueError("NPMAT token count mismatch"), OSError(2, "No such file", "k.npmat")]
    )
    def test_child_exception_keeps_type_and_message(self, cores, exc):
        cores(2)

        def fail():
            raise exc

        with pytest.raises(type(exc)) as info:
            _fork_pair(lambda: 0, fail)
        assert str(info.value) == str(exc)

    def test_killed_child_raises_and_does_not_hang(self, cores):
        cores(2)
        start = time.monotonic()
        with pytest.raises(ChildProcessError, match="child ended with signal 9"):
            _fork_pair(lambda: 0, lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert time.monotonic() - start < 30.0

    def test_child_exit_without_result_names_its_status(self, cores):
        cores(2)
        with pytest.raises(ChildProcessError, match="exit status 3 and sent no result"):
            _fork_pair(lambda: 0, lambda: os._exit(3))

    def test_child_reaped_when_callers_item_raises(self, cores):
        # the child's result (8 MB) does not fit the pipe: it is blocked
        # writing when the caller gives up, and must still be reaped
        cores(2)

        def fail():
            raise KeyError("caller's job")

        with pytest.raises(KeyError, match="caller's job"):
            _fork_pair(fail, lambda: np.zeros(10**6))

    def test_no_spare_core_never_forks(self, cores, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        cores(1)
        got = _fork_pair(lambda: _square_and_pid(1), lambda: _square_and_pid(2))
        assert got == ((1, os.getpid()), (4, os.getpid()))


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

    @pytest.mark.parametrize(
        "row, reason",
        [("2", "1 fields, not 2"), ("2,0.5,1", "3 fields, not 2"), ("2,x", "could not convert"),
         ("2,inf", "not finite"), ("2,-inf", "not finite"), ("2,nan", "not finite")],
    )
    def test_rejects_malformed_rows_naming_the_line(self, tmp_path, row, reason):
        path = tmp_path / "ev.csv"
        path.write_text("index,value\n1,0.5\n\n%s\n3,0.25\n" % row)
        with pytest.raises(ValueError, match="line 4 %r: .*%s" % (row, reason)):
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

    @pytest.mark.parametrize(
        "row, reason",
        [("0.1,1,0", "3 fields, not 4"), ("0.1,1,0,0,0", "5 fields, not 4"),
         ("0.1,1.5,0,0", "invalid literal"), ("inf,1,0,0", "not finite"),
         ("0.1,1,0,nan", "not finite")],
    )
    def test_rejects_malformed_rows_naming_the_line(self, tmp_path, row, reason):
        path = tmp_path / "counting.csv"
        path.write_text("tau,n_plus,n_minus,root\n0.01,2,1,0\n%s\n" % row)
        with pytest.raises(ValueError, match="line 3 %r: .*%s" % (row, reason)):
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
            ),
        ]
        path = tmp_path / "report.json"
        write_report_json(path, reports)
        with open(path) as f:
            back = json.load(f)
        assert len(back["reports"]) == 2
        first = back["reports"][0]
        assert first["route"] == "symbol" and first["C"] == 0.5625
        assert back["reports"][1] == {
            "root": 1.0 / 6.0, "side": "minus", "C": 0.0, "d": 2.0,
            "route": "counting", "err_estimate": 0.01,
        }

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
