import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import jsonschema

import jordanflow
from jordanflow.cli import SimulationContradiction, main
from jordanflow.errors import (
    GridTooLarge,
    IllConditioned,
    InputError,
    NoRealLog,
    NotNilpotent,
    RankAmbiguous,
    StiffnessSuspected,
)
from jordanflow.floquet import SAMPLE_BUDGET
from jordanflow.projective import (
    CHAIN_PAIR_BUDGET,
    MAX_GRID,
    _EDGE_BYTES,
    _chain_candidates,
)
from jordanflow.report import dumps_canonical, load_schema
from systems import random_sl, x4, x5


def write_matrix(path, mat):
    doc = {"n": len(mat), "rows": [[float(x) for x in row] for row in mat]}
    path.write_text(json.dumps(doc))
    return path


def run_cli(args):
    """Run the CLI in a child process that imports the package under test."""
    src = str(Path(jordanflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "jordanflow.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


@pytest.fixture
def x4_file(tmp_path):
    return write_matrix(tmp_path / "x4.json", x4(1, 2))


@pytest.fixture
def x5_file(tmp_path):
    return write_matrix(tmp_path / "x5.json", x5(1.0))


class TestDecompose:
    def test_x4_closed_form_factors(self, x4_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(["decompose", str(x4_file), "-o", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["factors"]["E"] == [[0, -2, 0], [2, 0, 0], [0, 0, 0]]
        assert rep["factors"]["H"] == [[-1, 0, 0], [0, -1, 0], [0, 0, 2]]
        assert np.allclose(rep["factors"]["N"], 0)
        assert max(rep["residuals"].values()) < 1e-9
        jsonschema.validate(rep, load_schema("decompose"))

    def test_identity_discrete_trivial_factors(self, tmp_path):
        f = write_matrix(tmp_path / "id.json", np.eye(3))
        out = tmp_path / "out.json"
        assert main(["decompose", str(f), "--time", "discrete", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        for key in ("e", "h", "u"):
            assert np.allclose(rep["factors"][key], np.eye(3))

    def test_random_sl_self_check(self, tmp_path):
        rng = np.random.default_rng(5)
        f = write_matrix(tmp_path / "g.json", random_sl(3, rng))
        out = tmp_path / "out.json"
        assert main(["decompose", str(f), "--time", "discrete", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert max(rep["residuals"].values()) < 1e-9
        assert not rep["warnings"]

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", str(bad)]) == 2
        bad2 = tmp_path / "bad2.json"
        bad2.write_text('{"n": 3, "rows": [[1, 2], [3, 4]]}')
        assert main(["decompose", str(bad2)]) == 2
        bad3 = tmp_path / "bad3.json"
        bad3.write_text('{"n": 2, "rows": [["1", 2], [3, 4]]}')
        assert main(["decompose", str(bad3)]) == 2

    def test_trace_violation_exit_2(self, tmp_path):
        f = write_matrix(tmp_path / "id.json", np.eye(3))
        assert main(["decompose", str(f), "--time", "continuous"]) == 2

    def test_ill_conditioned_exit_3(self, tmp_path):
        m = np.array([[1.0, 1e8, 0], [0, 1.0 + 1e-6, 0], [0, 0, 1.0]])
        f = write_matrix(tmp_path / "ill.json", m)
        assert main(["decompose", str(f), "--time", "discrete"]) == 3

    def test_discrete_residuals_computed_once(self, tmp_path, monkeypatch):
        import jordanflow.jordan as jd

        calls = []
        matrix_exp = jd.matrix_exp
        monkeypatch.setattr(
            jd, "matrix_exp", lambda a: calls.append(1) or matrix_exp(a)
        )
        rng = np.random.default_rng(5)
        f = write_matrix(tmp_path / "g.json", random_sl(3, rng))
        out = tmp_path / "out.json"
        assert main(["decompose", str(f), "--time", "discrete", "-o", str(out)]) == 0
        assert len(calls) == 1  # the exp_logH residual
        assert "exp_logH" in json.loads(out.read_text())["residuals"]

    def test_determinism_byte_identical(self, x4_file, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["decompose", str(x4_file), "-o", str(o1)])
        main(["decompose", str(x4_file), "-o", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_report_roundtrip_identity(self, x4_file, tmp_path):
        out = tmp_path / "out.json"
        main(["decompose", str(x4_file), "-o", str(out)])
        text = out.read_text()
        reparsed = json.loads(text)
        assert dumps_canonical(reparsed) + "\n" == text


class TestAnalyze:
    def test_x5_projective(self, x5_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(["analyze", str(x5_file), "--flag", "1", "-o", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert len(rep["components"]) == 2
        cls = rep["classification"]
        assert not cls["structurally_stable"] and not cls["conformal"]
        jsonschema.validate(rep, load_schema("analyze"))

    def test_regular_full_flag_stable(self, tmp_path):
        f = write_matrix(tmp_path / "reg.json", np.diag([3.0, 1.0, -4.0]))
        out = tmp_path / "out.json"
        assert main(["analyze", str(f), "--flag", "1,2", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["classification"]["structurally_stable"]
        assert len(rep["components"]) == 6
        assert all(c["dim"] == 0 for c in rep["components"])

    def test_simulation_cross_check(self, x4_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            ["analyze", str(x4_file), "--flag", "1", "--simulate", "25", "-o", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        sim = rep["simulation"]
        assert sim["forward_matches"] == 25 and sim["reverse_matches"] == 25
        assert sim["worst_defect"] < 1e-6

    def test_one_rate_filtration_per_run(self, x4_file, tmp_path, monkeypatch):
        from jordanflow.flags import RateFiltration

        built = []
        init = RateFiltration.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RateFiltration, "__init__", counting)
        out = tmp_path / "out.json"
        argv = ["analyze", str(x4_file), "--flag", "1,2", "--simulate", "2"]
        assert main(argv + ["-o", str(out)]) == 0
        assert len(built) == 1

    def test_full_space_flag_exit_2(self, x4_file):
        assert main(["analyze", str(x4_file), "--flag", "1,2,3"]) == 2

    def test_contradiction_exit_4(self, x4_file, monkeypatch):
        import jordanflow.cli as climod

        def broken(flag, component, filt):
            return 1.0  # defect never below sim_tol

        monkeypatch.setattr(climod, "component_defect", broken)
        code = main(["analyze", str(x4_file), "--flag", "1", "--simulate", "2"])
        assert code == 4

    def test_one_defect_per_start(self, tmp_path, monkeypatch):
        import jordanflow.cli as climod

        calls = []
        defect = climod.component_defect
        monkeypatch.setattr(
            climod,
            "component_defect",
            lambda *a: calls.append(1) or defect(*a),
        )
        # 20 components on Gr(3, 6); only the predicted one is scored
        f = write_matrix(tmp_path / "d.json", np.diag([2.5, 1.5, 0.5, -0.5, -1.5, -2.5]))
        out = tmp_path / "out.json"
        argv = ["analyze", str(f), "--flag", "3", "--simulate", "3", "-o", str(out)]
        assert main(argv) == 0
        rep = json.loads(out.read_text())
        assert len(rep["components"]) == 20
        assert len(calls) == 6
        sim = rep["simulation"]
        assert sim["forward_matches"] == 3 and sim["reverse_matches"] == 3

    def test_worst_defect_is_distance_to_prediction(self, x4_file, tmp_path, monkeypatch):
        import jordanflow.cli as climod

        simulate = climod.simulate_flag

        def backwards(dec, flag, ts):
            # every start runs backwards, so the forward end flag is the repeller
            return simulate(dec, flag, [-abs(t) for t in ts])

        monkeypatch.setattr(climod, "simulate_flag", backwards)
        out = tmp_path / "out.json"
        argv = ["analyze", str(x4_file), "--flag", "1", "--simulate", "2", "-o", str(out)]
        assert main(argv) == 4
        sim = json.loads(out.read_text())["simulation"]
        assert sim["forward_matches"] == 0 and sim["reverse_matches"] == 2
        assert sim["worst_defect"] >= 0.5

    def test_sim_tol_half_exit_2(self, x4_file):
        argv = ["analyze", str(x4_file), "--flag", "1", "--sim-tol", "0.5"]
        assert main(argv) == 2

    def test_classify_flag_file(self, x4_file, tmp_path):
        flag_doc = {"dims": [1], "basis": [[0.0], [0.0], [1.0]]}
        ff = tmp_path / "flag.json"
        ff.write_text(json.dumps(flag_doc))
        out = tmp_path / "out.json"
        code = main(
            ["analyze", str(x4_file), "--flag", "1", "--classify-flag", str(ff), "-o", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        fc = rep["flag_classification"]
        att = rep["classification"]["attractor_index"]
        assert fc["cell_index"] == att
        assert fc["recurrent"] and not fc["reorthonormalized"]
        jsonschema.validate(rep, load_schema("analyze"))

    def test_classify_flag_reorthonormalized_warning(self, x4_file, tmp_path):
        flag_doc = {"dims": [1], "basis": [[1.0], [1.0], [0.5]]}
        ff = tmp_path / "flag.json"
        ff.write_text(json.dumps(flag_doc))
        out = tmp_path / "out.json"
        code = main(
            ["analyze", str(x4_file), "--flag", "1", "--classify-flag", str(ff), "-o", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["flag_classification"]["reorthonormalized"]
        assert any("re-orthonormalized" in w for w in rep["warnings"])

    def test_classify_flag_dims_mismatch_exit_2(self, x4_file, tmp_path):
        flag_doc = {"dims": [2], "basis": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
        ff = tmp_path / "flag.json"
        ff.write_text(json.dumps(flag_doc))
        assert (
            main(["analyze", str(x4_file), "--flag", "1", "--classify-flag", str(ff)])
            == 2
        )

    def test_trajectory_csv(self, x4_file, tmp_path):
        out = tmp_path / "out.json"
        traj = tmp_path / "traj.csv"
        code = main(
            [
                "analyze",
                str(x4_file),
                "--flag",
                "1",
                "--trajectory-out",
                str(traj),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        with open(traj) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "x3", "dist_to_predicted"]
        dists = [float(r[-1]) for r in rows[1:]]
        assert dists[-1] < 1e-6
        for r in rows[1:]:
            vec = np.array([float(x) for x in r[1:4]])
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


class TestAnalyzeRefusals:
    """Nonsense numbers exit 2 before anything is decomposed."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--simulate", "-3"],
            ["--horizon", "inf"],
            ["--horizon=-inf"],
            ["--horizon", "nan"],
            ["--horizon", "inf", "--simulate", "1"],
            ["--time", "discrete", "--horizon", "inf", "--simulate", "1"],
            ["--time", "discrete", "--horizon", "nan", "--simulate", "1"],
            ["--horizon", "inf", "--trajectory-out", "t.csv"],
            ["--residual-tol", "inf"],
            ["--cluster-tol", "inf"],
            ["--sim-tol", "inf"],
            ["--cluster-tol", "nan"],
            ["--residual-tol", "nan"],
        ],
    )
    def test_exit_2(self, x4_file, tmp_path, monkeypatch, extra):
        import jordanflow.cli as cli

        def refuse(*args):
            raise AssertionError("decomposed before refusing the input")

        monkeypatch.setattr(cli, "_decompose", refuse)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.json"
        argv = ["analyze", str(x4_file), "--flag", "1,2", "-o", str(out), *extra]
        assert main(argv) == 2
        assert not out.exists()


class TestChainOracle:
    def test_unipotent_all_marked(self, tmp_path):
        f = write_matrix(tmp_path / "u.json", np.array([[1.0, 1], [0, 1]]))
        out = tmp_path / "out.json"
        code = main(
            [
                "chain-oracle",
                str(f),
                "--time",
                "discrete",
                "--resolution",
                "400",
                "--eps",
                "0.05",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["marked_count"] >= 0.99 * 400
        assert rep["agreement"] >= 0.99
        jsonschema.validate(rep, load_schema("chain_oracle"))

    def test_dimension_too_large_exit_5(self, tmp_path):
        f = write_matrix(tmp_path / "big.json", np.diag([2.0, 1.0, 1.0, 0.5]))
        assert main(["chain-oracle", str(f), "--time", "discrete"]) == 5

    def test_resolution_too_large_exit_5(self, tmp_path):
        f = write_matrix(tmp_path / "u.json", np.array([[1.0, 1], [0, 1]]))
        assert (
            main(
                [
                    "chain-oracle",
                    str(f),
                    "--time",
                    "discrete",
                    "--resolution",
                    "1000000",
                ]
            )
            == 5
        )


class TestChainOracleRefusals:
    """Refusals come before the grid or any pair is allocated."""

    def run_traced(self, tmp_path, *args):
        f = write_matrix(tmp_path / "u.json", np.array([[1.0, 1], [0, 1]]))
        tracemalloc.start()
        try:
            code = main(["chain-oracle", str(f), "--time", "discrete", *args])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, peak

    def test_negative_leg_doublings_exit_2(self, tmp_path):
        code, _ = self.run_traced(tmp_path, "--resolution", "400", "--leg-doublings", "-1")
        assert code == 2

    def test_nan_eps_exit_2(self, tmp_path):
        code, _ = self.run_traced(tmp_path, "--resolution", "400", "--eps", "nan")
        assert code == 2

    @pytest.mark.parametrize(
        "time, option",
        [
            ("discrete", "--min-time=inf"),
            ("continuous", "--min-time=inf"),
            ("continuous", "--min-time=nan"),
            ("continuous", "--eps=inf"),
            ("discrete", "--eps=-inf"),
            ("continuous", "--eps=0"),
        ],
    )
    def test_eps_and_min_time_not_positive_finite_exit_2(
        self, tmp_path, monkeypatch, capsys, time, option
    ):
        """Refused before the grid is built: an infinite discrete leg time
        reached int(inf), an infinite eps built every leg first."""
        import jordanflow.projective as projective

        def refuse(*args):
            raise AssertionError("built the grid before refusing the input")

        monkeypatch.setattr(projective, "projective_grid", refuse)
        mat = [[1.0, 1.0], [0.0, 1.0]] if time == "discrete" else [[0.0, 1.0], [0.0, 0.0]]
        f = write_matrix(tmp_path / "m.json", np.array(mat))
        assert main(["chain-oracle", str(f), "--time", time, option]) == 2
        assert capsys.readouterr().err == (
            "jordanflow: input error: eps and min_time must be positive and finite\n"
        )

    def test_pair_budget_plus_one_exit_5(self, tmp_path):
        """eps >= sqrt(2) makes every pair an edge: the largest grid within
        budget is the last N whose N^2 edges fit it."""
        limit = math.isqrt(CHAIN_PAIR_BUDGET // _EDGE_BYTES)
        assert limit * limit * _EDGE_BYTES <= CHAIN_PAIR_BUDGET
        assert (limit + 1) ** 2 * _EDGE_BYTES > CHAIN_PAIR_BUDGET
        res = str(limit + 1)
        code, peak = self.run_traced(tmp_path, "--resolution", res, "--eps", "2")
        assert code == 5
        assert peak < 10 * 2**20

    def test_pair_budget_counts_legs_exit_5(self, tmp_path):
        """At MAX_GRID on P^1, eps 0.0073, the 12 default legs' edges exceed
        the budget while one leg's fit it and is served."""
        eps = 0.0073
        one_leg = _chain_candidates(2, MAX_GRID, eps) * _EDGE_BYTES
        assert one_leg <= CHAIN_PAIR_BUDGET < 12 * one_leg
        args = ("--resolution", str(MAX_GRID), "--eps", str(eps))
        code, peak = self.run_traced(tmp_path, *args)
        assert code == 5
        assert peak < 10 * 2**20
        out = tmp_path / "out.json"
        code, _ = self.run_traced(tmp_path, *args, "--leg-doublings", "0", "-o", str(out))
        assert code == 0
        assert json.loads(out.read_text())["marked_count"] == MAX_GRID

    def test_point_sent_to_zero_exit_0(self, tmp_path):
        """diag(0.5, 2): by the last leg the normalized step underflows to
        diag(0, 1) and sends the grid point (1, 0) to 0.  That point gets no
        edges; the report is still written."""
        f = write_matrix(tmp_path / "h.json", np.diag([0.5, 2.0]))
        out = tmp_path / "out.json"
        with np.errstate(divide="ignore", invalid="ignore"):
            code = main(["chain-oracle", str(f), "--time", "discrete", "-o", str(out)])
        assert code == 0
        jsonschema.validate(json.loads(out.read_text()), load_schema("chain_oracle"))

    def test_cli_import_leaves_scipy_spatial_unloaded(self):
        """The k-d tree is imported inside chain_oracle, so plain CLI start-up
        does not pay for scipy.spatial."""
        src = str(Path(jordanflow.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, jordanflow.cli; print('scipy.spatial' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestFloquetCmd:
    def write_periodic(self, path, doc):
        path.write_text(json.dumps(doc))
        return path

    def test_constant_coefficients(self, tmp_path):
        doc = {
            "T": 1.0,
            "A0": [[float(x) for x in r] for r in x4(1, 2)],
            "harmonics": [],
        }
        f = self.write_periodic(tmp_path / "c.json", doc)
        out = tmp_path / "out.json"
        code = main(["floquet", str(f), "--steps", "512", "-o", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["m"] == 1
        assert np.allclose(rep["generator"], x4(1, 2), atol=1e-7)
        assert rep["residuals"]["reconstruction"] < 1e-6
        jsonschema.validate(rep, load_schema("floquet"))

    def test_scalar_modulated_closed_form(self, tmp_path):
        x0 = [[float(x) for x in r] for r in x4(1, 2)]
        half = [[0.5 * float(x) for x in r] for r in x4(1, 2)]
        zero = [[0.0] * 3 for _ in range(3)]
        doc = {"T": 1.0, "A0": x0, "harmonics": [{"k": 1, "A": half, "B": zero}]}
        f = self.write_periodic(tmp_path / "s.json", doc)
        out = tmp_path / "out.json"
        assert main(["floquet", str(f), "--flag", "1", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        # int_0^1 (1 + 0.5 cos(2 pi s)) ds = 1, so X = A0
        assert np.allclose(rep["generator"], x4(1, 2), atol=1e-7)
        assert len(rep["components"]) == 2

    def test_rotation_by_pi_monodromy(self, tmp_path):
        angle = float(np.pi)
        a0 = [[0.0, -angle, 0.0], [angle, 0.0, 0.0], [0.0, 0.0, 0.0]]
        doc = {"T": 1.0, "A0": a0, "harmonics": []}
        f = self.write_periodic(tmp_path / "rot.json", doc)
        out = tmp_path / "out.json"
        assert main(["floquet", str(f), "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["m"] == 2

    def test_generator_never_calls_logm(self, tmp_path, monkeypatch):
        import scipy.linalg

        calls = []
        logm = scipy.linalg.logm
        monkeypatch.setattr(
            scipy.linalg, "logm", lambda *a, **k: calls.append(1) or logm(*a, **k)
        )
        # rotating elliptic part: e^m is not unipotent, so a matrix log of
        # e^m would reach logm
        x0 = [[float(x) for x in r] for r in x4(1, 2)]
        quarter = [[0.25 * float(x) for x in r] for r in x4(1, 2)]
        zero = [[0.0] * 3 for _ in range(3)]
        doc = {"T": 1.0, "A0": x0, "harmonics": [{"k": 1, "A": zero, "B": quarter}]}
        f = self.write_periodic(tmp_path / "r.json", doc)
        out = tmp_path / "out.json"
        assert main(["floquet", str(f), "--flag", "1,2", "-o", str(out)]) == 0
        assert calls == []

    def test_generator_residual_not_recomputed(self, tmp_path, monkeypatch):
        matrix_power = np.linalg.matrix_power
        from_cli = []

        def counting(a, k):
            caller = sys._getframe(1).f_globals.get("__name__")
            from_cli.append(caller == "jordanflow.cli")
            return matrix_power(a, k)

        monkeypatch.setattr(np.linalg, "matrix_power", counting)
        angle = float(np.pi)
        a0 = [[0.0, -angle, 0.0], [angle, 0.0, 0.0], [0.0, 0.0, 0.0]]
        doc = {"T": 1.0, "A0": a0, "harmonics": []}
        f = self.write_periodic(tmp_path / "rot.json", doc)
        out = tmp_path / "out.json"
        assert main(["floquet", str(f), "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["m"] == 2 and rep["residuals"]["generator"] < 1e-9
        assert from_cli and not any(from_cli)

    def test_no_real_log_exit_6(self, tmp_path, monkeypatch):
        import jordanflow.cli as climod
        from jordanflow import NoRealLog as NRL

        def refuse(fund, pol=None):
            raise NRL("forced")

        monkeypatch.setattr(climod, "floquet_data", refuse)
        doc = {"T": 1.0, "A0": [[0.0, 1.0], [0.0, 0.0]], "harmonics": []}
        f = self.write_periodic(tmp_path / "n.json", doc)
        assert main(["floquet", str(f)]) == 6

    def test_bad_periodic_input_exit_2(self, tmp_path):
        f = self.write_periodic(tmp_path / "bad.json", {"T": -1.0, "A0": [[0.0]]})
        assert main(["floquet", str(f)]) == 2


class TestFloquetRefusals:
    """Periodic inputs outside the stated ranges and budgets are refused
    before anything is integrated."""

    def run(self, tmp_path, monkeypatch, doc, *extra):
        import jordanflow.cli as cli

        def refuse(*args):
            raise AssertionError("integrated before refusing the input")

        monkeypatch.setattr(cli, "integrate_fundamental", refuse)
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        code = main(["floquet", str(f), "-o", str(out), *extra])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("n", [1, 13])
    def test_dimension_outside_2_to_12_exit_2(self, tmp_path, monkeypatch, n):
        doc = {"T": 1.0, "A0": np.zeros((n, n)).tolist(), "harmonics": []}
        assert self.run(tmp_path, monkeypatch, doc) == 2

    def test_infinite_period_exit_2(self, tmp_path, monkeypatch):
        doc = {"T": math.inf, "A0": [[0.0, 1.0], [-1.0, 0.0]], "harmonics": []}
        assert "Infinity" in json.dumps(doc)
        assert self.run(tmp_path, monkeypatch, doc) == 2

    def test_integer_period_beyond_float_range_exit_2(self, tmp_path, monkeypatch):
        doc = {"T": 10**400, "A0": [[0.0, 1.0], [-1.0, 0.0]], "harmonics": []}
        assert self.run(tmp_path, monkeypatch, doc) == 2

    def test_integer_entry_beyond_float_range_exit_2(self, tmp_path, monkeypatch):
        doc = {"T": 1.0, "A0": [[0, 10**400], [-1, 0]], "harmonics": []}
        assert self.run(tmp_path, monkeypatch, doc) == 2
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"n": 2, "rows": [[0, 10**400], [-1, 0]]}))
        assert main(["decompose", str(f)]) == 2

    def test_huge_period_exit_1(self, tmp_path, capsys):
        """T = 1e308: the first RK4 step overflows, which the determinant
        check reports as stiffness instead of an SVD traceback, in one line
        and without numpy overflow warnings."""
        doc = {"T": 1e308, "A0": [[0.0, 1.0], [-1.0, 0.0]], "harmonics": []}
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        assert main(["floquet", str(f)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "jordanflow: error: determinant nan at t=9.765625e+304; step size unusable"
        ]

    def test_sample_budget_plus_one_exit_5(self, tmp_path):
        n = 12
        limit = SAMPLE_BUDGET // (2 * (n * n * 8)) - 1
        doc = {"T": 1.0, "A0": np.zeros((n, n)).tolist(), "harmonics": []}
        f = tmp_path / "p.json"
        f.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code = main(["floquet", str(f), "--steps", str(limit + 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5
        assert peak < 10 * 2**20


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc, code, err",
        [
            (InputError("bad"), 2, ["input error: bad"]),
            (
                IllConditioned("close", margins={"gap": 0.5}),
                3,
                ["ill-conditioned: close", "margins: {'gap': 0.5}"],
            ),
            (SimulationContradiction("off"), 4, ["simulation contradicts prediction: off"]),
            (GridTooLarge("big"), 5, ["input exceeds a stated budget: big"]),
            (NoRealLog("none"), 6, ["no real logarithm: none"]),
            (RankAmbiguous("near", margins={"s": 2.0}), 1, ["error: near"]),
            (StiffnessSuspected("stiff"), 1, ["error: stiff"]),
            (NotNilpotent("not"), 1, ["error: not"]),
        ],
    )
    def test_error_maps_to_code_and_label(self, monkeypatch, capsys, exc, code, err):
        import jordanflow.cli as cli

        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_decompose", fail)
        assert main(["decompose", "unread.json"]) == code
        assert capsys.readouterr().err.splitlines() == [f"jordanflow: {e}" for e in err]


class TestEntryPoint:
    def test_subprocess_runs(self, tmp_path):
        f = write_matrix(tmp_path / "x4.json", x4(1, 2))
        proc = run_cli(["decompose", str(f)])
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["schema"] == "jf-schema-1/decompose"
