import argparse
import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplexstab import brascamp_lieb as bl
from simplexstab import cli
from simplexstab import functionals as fn
from simplexstab import geometry as g
from simplexstab import isotropic as iso
from simplexstab.rng import make_rng


def run_cli(args):
    return cli.main(args)


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(["definitely-not-a-command"]) == cli.EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["transport", "constants", "--bogus"]) == cli.EXIT_USAGE

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli(["measure", "validate", "--in",
                        str(tmp_path / "missing.json")]) == cli.EXIT_USAGE

    def test_verification_failure_is_exit_two(self, tmp_path, capsys):
        bad = {"n": 2, "points": [[1.0, 0.0], [0.0, 1.0]], "weights": [1.0, 0.5]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run_cli(["measure", "validate", "--in", str(path)]) == cli.EXIT_VERIFY

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("functional", ["ell", "mass"])
    def test_workers_below_one_is_usage_error(self, workers, functional, tmp_path, capsys):
        body = tmp_path / "b.json"
        body.write_text(json.dumps(g.regular_simplex_polar(2).to_json()))
        extra = ["--t", "1.5"] if functional == "mass" else []
        assert run_cli(["functional", functional, "--body", str(body), *extra,
                        "--n-samples", "1000", "--seed", "1",
                        "--workers", workers]) == cli.EXIT_USAGE
        assert "--workers: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_workers_variable_is_usage_error(self, value, tmp_path, capsys,
                                                 monkeypatch):
        body = tmp_path / "b.json"
        body.write_text(json.dumps(g.regular_simplex_polar(2).to_json()))
        monkeypatch.setenv("SIMPLEXSTAB_WORKERS", value)
        assert run_cli(["functional", "ell", "--body", str(body),
                        "--n-samples", "1000", "--seed", "1"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "SIMPLEXSTAB_WORKERS" in err[0]

    @pytest.mark.parametrize("n_samples", ["0", "1"])
    def test_fewer_than_two_samples_is_usage_error(self, n_samples, tmp_path, capsys):
        body, out = tmp_path / "b.json", tmp_path / "ell.json"
        body.write_text(json.dumps(g.regular_simplex_polar(2).to_json()))
        assert run_cli(["functional", "ell", "--body", str(body), "--n-samples", n_samples,
                        "--seed", "1", "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "at least 2 samples" in err[0]
        assert not out.exists()

    def test_failed_reverse_certificate_is_one_error_line(self, tmp_path, capsys,
                                                          monkeypatch):
        # Newton leaves every row unsolved at its start point, so the rows of
        # the cone outside its dual miss the KKT certificate and rbl_lhs
        # raises RuntimeError; a +-P measure has many such rows
        P = make_rng(7).standard_normal((4, 2))
        P /= np.linalg.norm(P, axis=1)[:, None]
        gen = tmp_path / "m.json"
        gen.write_text(json.dumps(iso.isotropize(np.vstack([P, -P]), np.ones(8)).to_json()))
        monkeypatch.setattr(bl._NonnegTransportSolver, "_newton",
                            lambda self, X, lam: (np.array(lam, dtype=float),
                                                  np.zeros(len(X), dtype=bool)))
        assert run_cli(["bl", "verify", "--measure", str(gen), "--samples", "8000",
                        "--seed", "5"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: inner optimiser KKT residual")

    def test_seed_is_mandatory_for_stochastic_commands(self):
        assert run_cli(["measure", "generate", "--n", "2", "--k", "8"]) == cli.EXIT_USAGE


class TestReadme:
    def test_every_readme_command_parses(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = text.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines
                    if line.startswith("simplexstab ")]
        assert len(commands) >= 10
        parser = cli.build_parser()
        for argv in commands:
            args = parser.parse_args(argv)
            assert callable(args.func), argv


class TestMeasurePipeline:
    def test_generate_validate_reduce_roundtrip(self, tmp_path):
        out = tmp_path / "m.json"
        assert run_cli(["measure", "generate", "--n", "2", "--k", "30",
                        "--seed", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 3
        assert payload["tool_version"]
        mu_path = tmp_path / "mu.json"
        mu_path.write_text(json.dumps(payload["measure"]))
        assert run_cli(["measure", "validate", "--in", str(mu_path)]) == 0
        red = tmp_path / "r.json"
        assert run_cli(["measure", "reduce", "--in", str(mu_path),
                        "--out", str(red)]) == 0
        reduced = json.loads(red.read_text())
        assert reduced["k_out"] <= 6

    def test_reports_feed_the_next_command(self, tmp_path):
        # generate and reduce wrap the measure in a report; every command that
        # reads a measure takes such a report as it is
        gen, red = tmp_path / "m.json", tmp_path / "r.json"
        assert run_cli(["measure", "generate", "--n", "2", "--k", "30",
                        "--seed", "3", "--out", str(gen)]) == 0
        assert run_cli(["measure", "validate", "--in", str(gen)]) == 0
        assert run_cli(["measure", "reduce", "--in", str(gen), "--out", str(red)]) == 0
        assert run_cli(["measure", "validate", "--in", str(red)]) == 0
        for measure in (gen, red):
            assert run_cli(["bl", "verify", "--measure", str(measure), "--s", "0.1",
                            "--samples", "8000", "--seed", "5"]) == 0

    def test_reduce_takes_what_generate_writes(self, tmp_path):
        # generate promises residuals within 1e-6; reduce takes a measure
        # whose residual lies above 1e-8 but within that promise
        P = make_rng(4).standard_normal((6, 3))
        P /= np.linalg.norm(P, axis=1)[:, None]
        mu = iso.isotropize(np.vstack([P, -P]), np.ones(12))
        weights = mu.weights.copy()
        weights[0] *= 1.0 + 1e-7
        mu = iso.DiscreteMeasure(mu.points, weights)
        assert 1e-8 < mu.validate().max_residual < 1e-6
        path = tmp_path / "m.json"
        path.write_text(json.dumps(mu.to_json()))
        assert run_cli(["measure", "reduce", "--in", str(path),
                        "--out", str(tmp_path / "r.json")]) == 0

    def test_bl_verify_takes_a_generate_report_at_n10(self, tmp_path):
        # the lift needs residuals within 1e-8, which this John contact
        # measure of 40 points in R^10 meets
        gen, out = tmp_path / "m.json", tmp_path / "bl.json"
        assert run_cli(["measure", "generate", "--n", "10", "--k", "40",
                        "--seed", "0", "--out", str(gen)]) == 0
        assert run_cli(["bl", "verify", "--measure", str(gen), "--samples", "8000",
                        "--seed", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["direct_ok"] and report["reverse_ok"]

    def test_bl_verify_counts_direct_samples_in_the_cone(self, tmp_path):
        # at base n = 4 the direct side is sampled: its value is (2 pi)^(5/2)
        # times the share of the samples in the cone
        gen, out = tmp_path / "m.json", tmp_path / "bl.json"
        assert run_cli(["measure", "generate", "--n", "4", "--k", "30",
                        "--seed", "3", "--out", str(gen)]) == 0
        assert run_cli(["bl", "verify", "--measure", str(gen), "--samples", "8000",
                        "--seed", "5", "--out", str(out)]) == 0
        direct = json.loads(out.read_text())["direct"]
        assert (direct["method"], direct["samples"]) == ("mc-direct", 8000)
        in_cone = direct["value"] / (2.0 * np.pi) ** 2.5 * 8000
        assert 0 < round(in_cone) < 8000
        assert in_cone == pytest.approx(round(in_cone), abs=1e-9)
        # at n = 2 it is computed, and no sample is drawn
        assert run_cli(["measure", "generate", "--n", "2", "--k", "30",
                        "--seed", "3", "--out", str(gen)]) == 0
        assert run_cli(["bl", "verify", "--measure", str(gen), "--samples", "8000",
                        "--seed", "5", "--out", str(out)]) == 0
        direct = json.loads(out.read_text())["direct"]
        assert sorted(direct) == ["method", "samples", "stderr", "value"]
        assert (direct["method"], direct["samples"]) == ("closed-form", 0)

    def test_bl_verify_sides_carry_the_same_fields(self, tmp_path):
        # the reverse side is sampled at a quarter of --samples, 1000 at least
        gen, out = tmp_path / "m.json", tmp_path / "bl.json"
        assert run_cli(["measure", "generate", "--n", "2", "--k", "30",
                        "--seed", "3", "--out", str(gen)]) == 0
        assert run_cli(["bl", "verify", "--measure", str(gen), "--samples", "8000",
                        "--seed", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert sorted(report["direct"]) == sorted(report["reverse"]) == [
            "method", "samples", "stderr", "value"]
        assert (report["reverse"]["method"], report["reverse"]["samples"]) == ("mc-direct", 2000)

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(["measure", "generate", "--n", "3", "--k", "12",
                            "--seed", "9", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEllipsoidCommands:
    def test_mvee_on_simplex_points(self, tmp_path):
        pts = tmp_path / "p.json"
        pts.write_text(json.dumps({"points": g.regular_simplex(3).vertices.tolist()}))
        out = tmp_path / "e.json"
        assert run_cli(["ellipsoid", "mvee", "--in", str(pts), "--eps", "1e-7",
                        "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        shape = np.array(data["ellipsoid"]["shape"])
        assert np.abs(shape - np.eye(3)).max() < 1e-8
        assert data["certificate"] <= 1e-7

    def test_john_decomposition_file(self, tmp_path):
        body = tmp_path / "b.json"
        body.write_text(json.dumps(g.regular_simplex(2).to_json()))
        out = tmp_path / "jd.json"
        assert run_cli(["ellipsoid", "john", "--in", str(body),
                        "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert np.abs(np.array(data["contacts"]["weights"]) - 2.0 / 3.0).max() < 1e-6


class TestFunctionalCommands:
    def test_ell_json_schema(self, tmp_path, capsys):
        body = tmp_path / "b.json"
        body.write_text(json.dumps(g.regular_simplex_polar(2).to_json()))
        assert run_cli(["functional", "ell", "--body", str(body),
                        "--n-samples", "20000", "--seed", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) >= {"value", "stderr", "method", "samples", "seed"}
        assert data["method"] == "mc-direct"

    def test_ball_body_and_crosscheck(self, tmp_path):
        body = tmp_path / "ball.json"
        body.write_text(json.dumps({"radius": 1.0, "n": 2}))
        assert run_cli(["functional", "crosscheck", "--body", str(body),
                        "--n-samples", "50000", "--seed", "2",
                        "--out", str(tmp_path / "c.json")]) == 0


def run_twice(tmp_path, args):
    """Run a command twice with --out; return its report after checking
    that both runs wrote the same bytes."""
    outs = [tmp_path / f"run-{i}.json" for i in (1, 2)]
    for out in outs:
        assert run_cli([*args, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    return json.loads(outs[0].read_text())


class TestFunctionalEstimates:
    @pytest.mark.parametrize("functional, extra", [("mass", ["--t", "1.5"]), ("width", [])],
                             ids=["mass", "width"])
    def test_report_is_finite_and_reproducible(self, functional, extra, tmp_path):
        body = tmp_path / "b.json"
        body.write_text(json.dumps(g.regular_simplex_polar(2).to_json()))
        data = run_twice(tmp_path, ["functional", functional, "--body", str(body), *extra,
                                    "--n-samples", "20000", "--seed", "1"])
        assert np.isfinite(data["value"]) and np.isfinite(data["stderr"])
        assert data["stderr"] > 0.0 and data["samples"] == 20000

    def test_bl_identity_rows_pass_and_reproduce(self, tmp_path):
        data = run_twice(tmp_path, ["bl", "identity", "--n", "2", "--s", "0.1",
                                    "--samples", "200000", "--seed", "5"])
        rows = data["identities"]
        assert [r["variant"] for r in rows] == ["inscribed", "polar"]
        for r in rows:
            assert r["ok"] and np.isfinite(r["lhs"]) and np.isfinite(r["stderr"])


class TestOneFunctionalReport:
    """ell, mass and width report the estimate's fields; flags such as
    mass's --t stay in config_echo."""

    @pytest.mark.parametrize("functional, extra", [("ell", []), ("mass", ["--t", "1.5"]),
                                                   ("width", [])])
    def test_report_carries_the_estimate_fields(self, functional, extra, tmp_path):
        body = tmp_path / "b.json"
        body.write_text(json.dumps(g.regular_simplex_polar(2).to_json()))
        out = tmp_path / "report.json"
        assert run_cli(["functional", functional, "--body", str(body), *extra,
                        "--n-samples", "20000", "--seed", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"tool_version", "config_echo", "seed",
                             "value", "stderr", "method", "samples"}
        assert data["method"] == "mc-direct"

    def test_mass_keeps_t_in_config_echo(self, tmp_path):
        body = tmp_path / "b.json"
        body.write_text(json.dumps(g.regular_simplex_polar(2).to_json()))
        out = tmp_path / "mass.json"
        assert run_cli(["functional", "mass", "--body", str(body), "--t", "1.5",
                        "--n-samples", "20000", "--seed", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["config_echo"]["t"] == 1.5 and "t" not in data

    def test_identity_rows_carry_samples(self, tmp_path):
        out = tmp_path / "identity.json"
        assert run_cli(["bl", "identity", "--n", "2", "--s", "0.1", "--seed", "5",
                        "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["identities"]
        assert [r["samples"] for r in rows] == [0, 0]
        assert {k: v for k, v in rows[0].items() if k != "variant"} == \
            {k: v for k, v in rows[1].items() if k != "variant"}


class TestBadInputsFailFast:
    """Non-finite numbers and dimensions below 2 exit 1 with one error line
    and write no file; they are never reported as a verification verdict."""

    @staticmethod
    def _fails_with_one_error_line(args, out, capsys, message=None):
        assert run_cli([*args, "--out", str(out)]) == cli.EXIT_USAGE
        err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(err) == 1
        assert message is None or message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_mass_level(self, value, tmp_path, capsys):
        body = tmp_path / "b.json"
        body.write_text(json.dumps(g.regular_simplex_polar(2).to_json()))
        self._fails_with_one_error_line(
            ["functional", "mass", "--body", str(body), "--t", value,
             "--n-samples", "1000", "--seed", "1"], tmp_path / "mass.json", capsys,
            "--t: must be finite")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_identity_shift(self, value, tmp_path, capsys):
        self._fails_with_one_error_line(
            ["bl", "identity", "--n", "2", "--s", value, "--seed", "1"],
            tmp_path / "identity.json", capsys, "--s: must be finite")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_product_shift(self, value, tmp_path, capsys):
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps(iso.simplex_measure(2).to_json()))
        self._fails_with_one_error_line(
            ["bl", "verify", "--measure", str(measure), "--s", value,
             "--samples", "1000", "--seed", "1"], tmp_path / "bl.json", capsys,
            "--s: must be finite")

    def test_non_finite_tolerance(self, tmp_path, capsys):
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps(iso.simplex_measure(2).to_json()))
        self._fails_with_one_error_line(
            ["measure", "validate", "--in", str(measure), "--tol", "nan"],
            tmp_path / "validate.json", capsys, "--tol: must be finite")

    @pytest.mark.parametrize("command", [["measure", "validate"], ["measure", "reduce"],
                                         ["ellipsoid", "john"]])
    def test_negative_tolerance(self, command, tmp_path, capsys):
        # a usage error (exit 1), not a failed verification (exit 2)
        body = tmp_path / "in.json"
        data = (g.regular_simplex(2) if command[0] == "ellipsoid"
                else iso.simplex_measure(2)).to_json()
        body.write_text(json.dumps(data))
        self._fails_with_one_error_line(
            [*command, "--in", str(body), "--tol=-1"], tmp_path / "report.json", capsys,
            "--tol: must be nonnegative")

    def test_non_finite_eps_grid(self, tmp_path, capsys):
        self._fails_with_one_error_line(
            ["stability", "run", "--family", "vertex-added", "--n", "2",
             "--eps", "nan,1e-2,2e-2,4e-2", "--samples", "1000", "--seed", "4"],
            tmp_path / "report.csv", capsys, "eps grid must lie in (0, 0.1)")

    @pytest.mark.parametrize("samples", ["-8", "0", "1"])
    @pytest.mark.parametrize("command", ["bl verify", "bl identity", "stability run"])
    def test_fewer_than_two_samples_at_two_dimensions(self, command, samples, tmp_path,
                                                      capsys):
        # at n = 2 each value is closed form and draws no sample, yet the
        # sample count is checked as at every n
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps(iso.simplex_measure(2).to_json()))
        args = {"bl verify": ["--measure", str(measure)],
                "bl identity": ["--n", "2"],
                "stability run": ["--family", "corner-cut", "--n", "2",
                                  "--eps", "1e-3..9e-2:6"]}[command]
        self._fails_with_one_error_line(
            [*command.split(), *args, "--samples", samples, "--seed", "1"],
            tmp_path / "report.out", capsys, f"at least 2 samples, got {samples}")

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_generate_below_two_dimensions(self, n, tmp_path, capsys):
        self._fails_with_one_error_line(
            ["measure", "generate", "--n", n, "--k", "10", "--seed", "1"],
            tmp_path / "gen.json", capsys, "dimension must be at least 2")

    def test_mvee_on_a_file_without_points(self, tmp_path, capsys):
        report = tmp_path / "gen.json"
        assert run_cli(["measure", "generate", "--n", "2", "--k", "10", "--seed", "1",
                        "--out", str(report)]) == 0
        self._fails_with_one_error_line(
            ["ellipsoid", "mvee", "--in", str(report)], tmp_path / "mvee.json", capsys,
            "holds no 'points' or 'vertices' array")

    def test_mvee_on_an_empty_point_list(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": []}))
        self._fails_with_one_error_line(
            ["ellipsoid", "mvee", "--in", str(points)], tmp_path / "mvee.json", capsys,
            "points do not affinely span the space")

    def test_gaussian_mass_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fn.gaussian_mass(g.regular_simplex_polar(2), float("nan"))

    def test_report_with_nan_is_not_written(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(ValueError):
            cli._emit_json({"value": float("nan")}, argparse.Namespace(), str(out))
        assert not out.exists()


class TestIdentityVerdict:
    """A dilate-identity row passes when |gap| <= 5 stderr: the quadrature's
    stated bound at n <= 3, the standard error at n >= 4."""

    @pytest.fixture
    def quadrature_defect(self, monkeypatch):
        # the quadrature's value 1e-4 off in relative terms, its bound unchanged
        tail_mean = bl._gauge_tail_mean

        def off(V, c):
            value, bound = tail_mean(V, c)
            return value * (1.0 + 1e-4), bound

        monkeypatch.setattr(bl, "_gauge_tail_mean", off)

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_quadrature_defect_fails_the_rows(self, quadrature_defect, n, tmp_path):
        out = tmp_path / "identity.json"
        assert run_cli(["bl", "identity", "--n", n, "--s", "0.1", "--seed", "5",
                        "--out", str(out)]) == cli.EXIT_VERIFY
        rows = json.loads(out.read_text())["identities"]
        assert not any(r["ok"] for r in rows)

    def test_quadrature_defect_fails_the_suite(self, quadrature_defect, tmp_path):
        out = tmp_path / "suite.json"
        assert run_cli(["suite", "--quick", "--seed", "7",
                        "--out", str(out)]) == cli.EXIT_VERIFY
        checks = {c["check"]: c["pass"] for c in json.loads(out.read_text())["checks"]}
        assert checks["dilate-identity"] is False

    def test_small_sample_rows_pass_at_eight_dimensions(self, tmp_path):
        # the inscribed row's gap is 0.60 stderr but 1.01e-2 of the right side
        out = tmp_path / "identity.json"
        assert run_cli(["bl", "identity", "--n", "8", "--s", "0.1", "--samples", "50000",
                        "--seed", "3", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["identities"]
        assert [r["ok"] for r in rows] == [True, True]
        assert all("tol" not in r and r["method"] == "mc-direct" for r in rows)


class TestTransportCommands:
    def test_verify_csv(self, tmp_path):
        out = tmp_path / "margins.csv"
        assert run_cli(["transport", "verify-lemma61", "--grid", "80",
                        "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 15  # ten derivative bounds + five tail brackets
        assert all(row["pass"] == "True" for row in rows)

    @pytest.mark.parametrize("grid", ["-3", "0", "1"])
    def test_grid_below_two_is_one_error_line(self, grid, tmp_path, capsys):
        # a grid of 0 or 1 would leave a box endpoint unchecked and pass
        out = tmp_path / "margins.csv"
        assert run_cli(["transport", "verify-lemma61", "--grid", grid,
                        "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid must be at least 2")
        assert err[0].endswith(f"got {grid}")
        assert not out.exists()

    def test_constants_json(self, capsys):
        assert run_cli(["transport", "constants"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["constants"]) == {"alpha", "beta", "gamma", "delta", "xi"}


class TestStabilityCommand:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run_cli(["stability", "run", "--family", "vertex-added",
                        "--n", "2", "--eps", "2e-3..9e-2:6",
                        "--samples", "60000", "--seed", "4", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 6
        assert set(rows[0]) == {"eps_nominal", "eps_measured", "eps_stderr", "delta_H",
                                "delta_vol", "bound_margin", "used_in_fit"}
        assert all(float(r["bound_margin"]) > 0 for r in rows)

    def test_used_in_fit_marks_the_rows_above_the_noise_floor(self, tmp_path, capsys):
        # at n = 4 the deficits are sampled, and at 200000 samples the
        # smallest ones fall under 3 standard errors
        out = tmp_path / "report.csv"
        assert run_cli(["stability", "run", "--family", "stretched-vertex", "--n", "4",
                        "--eps", "1e-6..9e-2:9", "--samples", "200000", "--seed", "4",
                        "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        flags = [r["used_in_fit"] for r in rows]
        want = [str(float(r["eps_measured"]) > 3.0 * float(r["eps_stderr"])
                    and float(r["delta_H"]) > 0) for r in rows]
        assert flags == want
        assert "True" in flags and "False" in flags

    def test_planar_rows_ignore_the_sample_count(self, tmp_path, capsys):
        # n = 2 deficits are closed form, so only the sampled rows of n >= 4 see --samples
        self._assert_rows_ignore_the_sample_count(2, tmp_path, capsys)

    def test_three_dimensional_rows_ignore_the_sample_count(self, tmp_path, capsys):
        self._assert_rows_ignore_the_sample_count(3, tmp_path, capsys)

    @staticmethod
    def _assert_rows_ignore_the_sample_count(n, tmp_path, capsys):
        texts = []
        for samples in ("20000", "400000"):
            out = tmp_path / f"report-{n}-{samples}.csv"
            assert run_cli(["stability", "run", "--family", "corner-cut", "--n", str(n),
                            "--eps", "1e-6..9e-2:9", "--samples", samples, "--seed", "4",
                            "--out", str(out)]) == 0
            texts.append(out.read_text())
            assert "deficits=closed-form" in capsys.readouterr().err
        assert texts[0] == texts[1]
        rows = list(csv.DictReader(texts[0].splitlines()))
        # a closed-form row's stderr is the bound on its rounding
        assert all(0.0 < float(r["eps_stderr"]) <= 1e-14 for r in rows)
        assert {r["used_in_fit"] for r in rows} == {"True"}

    @pytest.mark.parametrize("eps", ["1e-3..1e-2:0", "2e-3..9e-2:3"])
    def test_empty_or_short_grid_is_one_error_line(self, eps, tmp_path, capsys):
        # an empty grid has no family; three rows are too few for a fit
        out = tmp_path / "report.csv"
        code = run_cli(["stability", "run", "--family", "vertex-added",
                        "--n", "2", "--eps", eps, "--samples", "20000",
                        "--seed", "4", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_eps_grid_parser(self):
        grid = cli._parse_eps_grid("1e-4..1e-2:5")
        assert len(grid) == 5
        assert abs(grid[0] - 1e-4) < 1e-12 and abs(grid[-1] - 1e-2) < 1e-12
        listed = cli._parse_eps_grid("0.01,0.02")
        assert listed.tolist() == [0.01, 0.02]


class TestSuite:
    def test_quick_suite_passes(self, tmp_path):
        out = tmp_path / "suite.json"
        assert run_cli(["suite", "--quick", "--seed", "7",
                        "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["all_pass"]
        assert len(data["checks"]) >= 8


def test_import_leaves_scipy_integrate_unloaded():
    # gaussian_max_mean imports scipy.integrate lazily, which keeps about 30 ms
    # and 3 MiB off every process; the test modules load it themselves, so
    # only a fresh interpreter can see a regression
    code = "import sys, simplexstab.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
