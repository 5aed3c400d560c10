import json
import math
from pathlib import Path

import numpy as np
import pytest

from cusplab.cli import main
from cusplab.geometry import Verdict


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


class TestExponentsCommand:
    def test_threshold_report(self, tmp_path):
        cfg = write_config(
            tmp_path, "[exponents]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n"
        )
        out = tmp_path / "out"
        assert main(["exponents", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["schema"] == 3
        assert rep["results"]["thm6"]["s_max"] == 6.0
        assert rep["results"]["witness"] is not None
        assert rep["config"]["parameters"]["gamma"] == 3

    def test_batch_csv(self, tmp_path):
        queries = tmp_path / "queries.csv"
        queries.write_text("n,p,alpha,gamma,m,s\n2,2,0,3,1,5\n2,2,1,3,1,\n")
        cfg = write_config(
            tmp_path,
            f"[exponents]\nn = 2\np = 2\nalpha = 0\nqueries_csv = {queries}\n",
        )
        out = tmp_path / "out"
        assert main(["exponents", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "thresholds.csv").read_text().strip().splitlines()
        assert rows[0].startswith("n,p,alpha,gamma")
        assert len(rows) == 3
        assert "6.0" in rows[1]

    @pytest.mark.parametrize(
        "table", ["n,p,alpha,sigma\n2,2,0,2\n", None], ids=["missing-column", "unreadable"]
    )
    def test_bad_queries_csv_exits_2_without_files(self, tmp_path, table):
        queries = tmp_path / "queries.csv"
        if table is not None:
            queries.write_text(table)
        cfg = write_config(
            tmp_path, f"[exponents]\nn = 2\np = 2\nalpha = 0\nqueries_csv = {queries}\n"
        )
        out = tmp_path / "out"
        assert main(["exponents", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_malformed_config_exits_2_without_files(self, tmp_path):
        cfg = write_config(tmp_path, "garbage [[[\n")
        out = tmp_path / "out"
        assert main(["exponents", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "[exponents]\nn = 2\np = 2\nalpha = 0\ngamma = 3\nbogus = 1\n"
        )
        assert main(["exponents", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "[exponents]\nn = 2\np = 2\n")
        assert main(["exponents", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestVerdictCommands:
    def test_ap_check_violated_is_success(self, tmp_path):
        cfg = write_config(tmp_path, "[ap-check]\nn = 2\np = 2\nalpha = 3\n")
        out = tmp_path / "out"
        assert main(["ap-check", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["results"]["ap"]["verdict"] == "violated"

    def test_distortion_report_and_sweeps(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[distortion]\nn = 2\np = 2\nalpha = 0\ngamma = 3\na = 0.5\nr = 3\n"
            "q = 1.2\ns = 2.0\nq_steps = 4\ns_steps = 4\n",
        )
        out = tmp_path / "out"
        assert main(["distortion", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["results"]["q_threshold"] == pytest.approx(1.6)
        assert rep["results"]["report"]["Ia"]["verdict"] == "finite"
        ia = (out / "ia_sweep.csv").read_text().splitlines()
        assert ia[0] == "q,verdict,value"
        assert len(ia) == 5
        assert (out / "ja_sweep.csv").exists()

    @pytest.mark.parametrize(
        "command,section",
        [
            ("report", "[report]\nn = 2\np = 2\nalpha = 1\ngamma = 3\n"),
            (
                "distortion",
                "[distortion]\nn = 3\np = 2\nalpha = 0.5\ngamma = 3\na = 0.8\nr = 3\nq = 1.85\n",
            ),
        ],
    )
    def test_near_threshold_distortion_succeeds(self, tmp_path, command, section):
        cfg = write_config(tmp_path, section)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_distortion_validity_violation_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[distortion]\nn = 2\np = 2\nalpha = 0\ngamma = 3\na = 0.5\nr = 3\n"
            "q = 2.5\ns = 2.0\n",
        )
        out = tmp_path / "out"
        assert main(["distortion", "--config", str(cfg), "--out", str(out)]) == 3
        assert not (out / "report.json").exists()


class TestNearCriticalExponents:
    def test_ap_check_near_window_edge_in_3d(self, tmp_path):
        # alpha + n = 0.05: the weight average is finite on every ball
        cfg = write_config(tmp_path, "[ap-check]\nn = 3\np = 2\nalpha = -2.95\n")
        out = tmp_path / "out"
        assert main(["ap-check", "--config", str(cfg), "--out", str(out)]) == 0
        ap = read_report(out)["results"]["ap"]
        assert ap["verdict"] == "satisfied"
        assert math.isfinite(ap["sup_estimate"])

    def test_solve_with_near_critical_solvability_integral(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[solve]\ndomain = square\nh = 0.125\nalpha = 1.97\n"
            "u_exact = sin(pi*x)*sin(pi*y)\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        cond = read_report(out)["results"]["solvability_condition"]
        assert cond["verdict"] == "finite"
        # ∫ |x|**-1.97 over the disc of radius sqrt(2) = 2 pi sqrt(2)**0.03 / 0.03
        exact = 2.0 * math.pi * math.sqrt(2.0) ** 0.03 / 0.03
        assert cond["value"] == pytest.approx(exact, rel=1e-3)

    def test_report_with_clipped_q_reads_divergent(self, tmp_path):
        # q above the threshold is clipped to p(1 - 1e-9): the reduced
        # integrand is t**beta with beta about -1e8
        cfg = write_config(
            tmp_path, "[report]\nn = 2\np = 1.5\nalpha = -0.5\ngamma = 4\na = 0.3\n"
        )
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        above = read_report(out)["results"]["distortion"]["Ia_above"]
        assert above["verdict"] == "divergent"
        assert above["value"] == "inf"


ACCEPTANCE_CONFIGS = {
    "exponents": "[exponents]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n",
    "ap-check": "[ap-check]\nn = 2\np = 2\nalpha = 1\n",
    "distortion": (
        "[distortion]\nn = 2\np = 2\nalpha = 0\ngamma = 3\na = 0.5\nr = 3\n"
        "q = 1.2\ns = 2.0\nq_steps = 3\ns_steps = 3\n"
    ),
    "mollify": (
        "[mollify]\nfunction = x0*(1-x0)*x1\np = 2\ndelta = 0.15\n"
        "r_max = 0.1\nn_radii = 2\ncells = 32\n"
    ),
    "solve": "[solve]\ndomain = square\nh = 0.2\nalpha = 1\nu_exact = sin(pi*x)*sin(pi*y)\n",
    "probe": "[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 7\n",
    "report": "[report]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n",
}


def _verdicts(obj):
    if isinstance(obj, dict):
        if "verdict" in obj:
            yield obj["verdict"]
        for value in obj.values():
            yield from _verdicts(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _verdicts(value)


def test_every_reported_verdict_is_a_verdict_value(tmp_path):
    # the acceptance configs, plus Ia at beta = -0.99875, too close to -1
    # for the refinement trace to decide
    configs = dict(ACCEPTANCE_CONFIGS)
    configs["distortion-inconclusive"] = (
        "[distortion]\nn = 2\np = 2\nalpha = 0\ngamma = 3\na = 0.5\nr = 3\nq = 1.5998\n"
    )
    values = {v.value for v in Verdict}
    seen = set()
    for name, text in configs.items():
        command = name.split("-inconclusive")[0]
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        out = tmp_path / name
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        verdicts = list(_verdicts(read_report(out)["results"]))
        assert set(verdicts) <= values, name
        assert (rc == 4) == ("inconclusive" in verdicts), name
        seen.update(verdicts)
    assert {"finite", "satisfied", "blow_up", "inconclusive"} <= seen


class TestNumericalCommands:
    def test_mollify_writes_convergence_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[mollify]\nfunction = x0*(1-x0)*x1\np = 2\ndelta = 0.15\n"
            "r_max = 0.1\nn_radii = 3\ncells = 32\n",
        )
        out = tmp_path / "out"
        assert main(["mollify", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "r,norm"
        assert len(lines) == 4

    def test_solve_square(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[solve]\ndomain = square\nh = 0.125\nalpha = 1\n"
            "u_exact = sin(pi*x)*sin(pi*y)\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["results"]["residual"] <= 1e-9
        assert rep["results"]["l2_error"] < 0.05
        assert (out / "solution.csv").exists()
        assert (out / "mesh.txt").exists()

    def test_probe_command(self, tmp_path):
        cfg = write_config(
            tmp_path, "[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 7\n"
        )
        out = tmp_path / "out"
        assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["results"]["probe"]["verdict"] == "blow_up"
        assert (out / "probe.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_probe_norm_overflow_exits_4(self, tmp_path):
        # the L_s power of the spike overflows at the sixth scale, and the
        # overflow is judged, so no numpy warning reaches the console
        cfg = write_config(
            tmp_path,
            "[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n"
            "family = power_spike\nbeta = 20\n",
        )
        out = tmp_path / "out"
        assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 4
        probe = read_report(out)["results"]["probe"]
        assert probe["verdict"] == "inconclusive"
        assert probe["kappa_fit"] == "nan"
        assert 0 < len(probe["ratios"]) < 9
        rows = (out / "probe.csv").read_text().splitlines()
        assert len(rows) == 1 + len(probe["ratios"])


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,section",
        [
            ("exponents", "[exponents]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n"),
            ("ap-check", "[ap-check]\nn = 2\np = 2\nalpha = 1\n"),
            (
                "distortion",
                "[distortion]\nn = 2\np = 2\nalpha = 0\ngamma = 3\na = 0.5\nr = 3\n"
                "q = 1.2\ns = 2.0\n",
            ),
        ],
    )
    def test_reports_byte_identical(self, tmp_path, command, section):
        cfg = write_config(tmp_path, section)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
        assert main([command, "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_report_embeds_config(self, tmp_path):
        cfg = write_config(tmp_path, "[ap-check]\nn = 2\np = 2\nalpha = 1\n")
        out = tmp_path / "out"
        main(["ap-check", "--config", str(cfg), "--out", str(out), "--seed", "9"])
        rep = read_report(out)
        assert rep["config"]["seed"] == 9
        assert rep["config"]["parameters"] == {"alpha": 1, "n": 2, "p": 2}

    def test_global_rng_untouched_and_no_threads_echo(self, tmp_path):
        cfg = write_config(tmp_path, "[ap-check]\nn = 2\np = 2\nalpha = 1\n")
        out = tmp_path / "out"
        np.random.seed(123)
        before = np.random.get_state()
        assert main(["ap-check", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]
        assert "threads" not in read_report(out)["config"]


class TestSolveValidation:
    def test_unknown_domain_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[solve]\ndomain = sphere\nh = 0.2\nf = 1 + 0*x0\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_rhs_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[solve]\ndomain = square\nh = 0.2\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_overflowing_solvability_integral_exits_3(self, tmp_path, capsys):
        # ∫ |x|**-300 over the disc around the square is divergent by the
        # exact rule, before its integrand can overflow; the weight itself
        # then underflows to 0 at quadrature nodes
        cfg = write_config(tmp_path, "[solve]\ndomain = square\nh = 0.25\nalpha = 300\nf = 1\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validity error") and "Traceback" not in err
        assert not out.exists()

    def test_cusp_solve_near_critical_weight(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[solve]\ndomain = cusp\ngamma = 3\nh = 0.125\nalpha = 2.95\n"
            "f = -1 + 0*x0\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["results"]["solvability_condition"]["verdict"] == "finite"

    def test_degenerate_graded_mesh_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[solve]\ndomain = cusp\ngamma = 3\nh = 0.125\ngrade = 40\nalpha = 1\n"
            "f = -1 + 0*x0\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    def test_cusp_domain_solve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[solve]\ndomain = cusp\ngamma = 3\nh = 0.1\nalpha = 1\ngrade = 2\n"
            "f = -1 + 0*x0\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["results"]["solvability_condition"]["verdict"] == "finite"


class TestProbeConfig:
    """Probe settings that are config mistakes exit 2 and write nothing."""

    @pytest.mark.parametrize(
        "extra",
        [
            "eps_min = 1e-3\n",  # span under four decades
            "points = 2\n",
            "family = nope\n",
            "family = power_spike\n",  # no beta
            "eps_min = -1e-5\n",
            "growth = 1.3\n",  # removed: the verdict is the fitted slope
            "variation = 0.2\n",
        ],
        ids=[
            "short-span", "two-points", "unknown-family", "spike-without-beta",
            "negative-scale", "removed-growth", "removed-variation",
        ],
    )
    def test_config_mistake_exits_2(self, tmp_path, extra):
        cfg = write_config(
            tmp_path, "[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n" + extra
        )
        out = tmp_path / "out"
        assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
