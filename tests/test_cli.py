import contextlib
import csv
import io
import json
import math
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusplab.cli import _ALLOWED_KEYS, _INTEGER_KEYS, _TEXT_KEYS, _jsonable, _write_solution, main
from cusplab.cuspmap import distortion_Ia, ia_exponent_q_threshold, ja_exponent_s_bound, jacobian_Ja
from cusplab.geometry import Box, CuspDomain, Verdict
from cusplab.pde import CuspSection, solve_dirichlet, triangulate, write_mesh
from cusplab.weights import Weight


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

    @pytest.mark.parametrize(
        "row",
        ["2.5,2,0,3,1,5", "2,abc,0,3,1,5", "2,2,x,3,1,5", "2,2,0,,1,5", "2,2,0,3,1.5,5", "2,2,0,3,1,inf"],
        ids=["n", "p", "alpha", "gamma", "m", "s"],
    )
    def test_unreadable_cell_exits_2_without_files(self, tmp_path, capsys, row):
        # cells are read by the kind of their column, like config values
        queries = tmp_path / "queries.csv"
        queries.write_text(f"n,p,alpha,gamma,m,s\n2,2,0,3,1,5\n{row}\n")
        cfg = write_config(
            tmp_path, f"[exponents]\nn = 2\np = 2\nalpha = 0\nqueries_csv = {queries}\n"
        )
        out = tmp_path / "out"
        assert main(["exponents", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: queries_csv line 3:") and "Traceback" not in err
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

    def test_ap_check_past_the_float_range_exits_0(self, tmp_path, capsys):
        # inside the A_p window; on 29 balls the ratio has no float value
        cfg = write_config(tmp_path, "[ap-check]\nn = 2\np = 400\nalpha = 300\n")
        out = tmp_path / "out"
        assert main(["ap-check", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        ap = read_report(out)["results"]["ap"]
        assert ap["verdict"] == "satisfied"
        assert ap["sup_estimate"] == "inf"

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
        assert cond["value"] == pytest.approx(exact, rel=1e-3, abs=0)

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

    @pytest.mark.parametrize(
        "section,clipped",
        [
            ("[report]\nn = 2\np = 2\nalpha = 0\ngamma = 3\na = 1\n", ("Ja", "s", 3.0)),
            ("[report]\nn = 2\np = 2\nalpha = -0.5\ngamma = 2\na = 1\n", ("Ia", "q", 2.0)),
        ],
        ids=["s-bound-above-r", "q-threshold-above-p"],
    )
    def test_report_at_a_equal_1_runs(self, tmp_path, section, clipped):
        # at a = 1 either q* >= p or s* >= r: both sides are clipped into
        # range, and each entry records the one exponent they share
        cfg = write_config(tmp_path, section)
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        block = read_report(out)["results"]["distortion"]
        assert block["a"] == 1.0
        assert all(block[side]["verdict"] in ("finite", "divergent") for side in ("Ia_below", "Ja_below"))
        assert all("q" in block[f"Ia_{side}"] and "s" in block[f"Ja_{side}"] for side in ("below", "above"))
        integral, key, bound = clipped
        assert block[f"{integral}_below"][key] == block[f"{integral}_above"][key] == bound * (1 - 1e-9)

    def test_report_inside_both_ranges_keeps_its_bytes(self, tmp_path):
        # at a = 0.5 no clip is active: the block is the one the unclipped
        # exponents give, byte for byte
        cfg = write_config(tmp_path, "[report]\nn = 2\np = 2\nalpha = 0\ngamma = 3\na = 0.5\n")
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
        domain = CuspDomain.isotropic(2, 3.0)
        q, s = ia_exponent_q_threshold(2, 2.0, 0.0, 3.0, 0.5), ja_exponent_s_bound(2, 3.0, 0.0, 3.0, 0.5)
        assert 1.0 < q * 0.95 and q * 1.05 < 2.0 and s * 1.05 < 3.0
        expected = {"a": 0.5, "q_threshold": q, "s_bound": s}
        for side, factor in (("below", 1 - 0.05), ("above", 1 + 0.05)):
            expected[f"Ia_{side}"] = {
                "q": q * factor, **distortion_Ia(2.0, q * factor, 0.5, 0.0, domain).to_dict()
            }
            expected[f"Ja_{side}"] = {
                "s": s * factor, **jacobian_Ja(3.0, s * factor, 0.5, 0.0, domain).to_dict()
            }
        got = read_report(out)["results"]["distortion"]
        assert json.dumps(got, sort_keys=True) == json.dumps(_jsonable(expected), sort_keys=True)


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
    # the acceptance configs, plus a power_spike probe at beta = 20 whose
    # L_s norm overflows (inconclusive), and Ia at beta = -0.99875, which the
    # closed form reads finite
    configs = dict(ACCEPTANCE_CONFIGS)
    configs["probe-inconclusive"] = (
        "[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\nfamily = power_spike\nbeta = 20\n"
    )
    configs["distortion-near-minus-1"] = (
        "[distortion]\nn = 2\np = 2\nalpha = 0\ngamma = 3\na = 0.5\nr = 3\nq = 1.5998\n"
    )
    values = {v.value for v in Verdict}
    seen = set()
    for name, text in configs.items():
        command = name.split("-inconclusive")[0].split("-near")[0]
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        out = tmp_path / name
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        verdicts = list(_verdicts(read_report(out)["results"]))
        assert set(verdicts) <= values, name
        assert (rc == 4) == ("inconclusive" in verdicts), name
        seen.update(verdicts)
    assert {"finite", "satisfied", "blow_up", "inconclusive"} <= seen
    ia = read_report(tmp_path / "distortion-near-minus-1")["results"]["Ia"]
    assert ia["verdict"] == "finite"
    assert ia["value"] == pytest.approx(800.4, rel=1e-9, abs=0)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_probe_spike_cap_past_the_float_range_exits_4(self, tmp_path, capsys):
        # eps**-beta passes the float range at the smallest scales: the cap is
        # inf, the norm overflows and is judged, and nothing reaches stderr
        rc, err, out = _run_cli(
            tmp_path,
            "probe",
            "n = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\nfamily = power_spike\nbeta = 70\n",
            capsys,
        )
        assert rc == 4 and err == ""
        assert read_report(out)["results"]["probe"]["verdict"] == "inconclusive"


#: runs each config in turn in one interpreter (the command is the file's
#: stem) and prints which of sympy, imported on first use, and
#: scipy.integrate, never imported, are loaded after the import of the CLI
#: and after each command
_COLD_START = """
import json, sys
from pathlib import Path
from cusplab.cli import main
lazy = {"sympy", "scipy.integrate"}
seen = [["import", 0, sorted(lazy & set(sys.modules))]]
for cfg in map(Path, sys.argv[1:]):
    rc = main([cfg.stem, "--config", str(cfg), "--out", str(cfg.with_suffix(""))])
    seen.append([cfg.stem, rc, sorted(lazy & set(sys.modules))])
print(json.dumps(seen))
"""


def test_no_command_loads_scipy_integrate_and_only_mollify_and_solve_load_sympy(tmp_path):
    # the commands that read no formula start without either library, and
    # the two that do load sympy alone
    sections = {
        "exponents": "n = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n",
        "ap-check": "n = 2\np = 2\nalpha = 1\n",
        "distortion": "n = 2\np = 2\nalpha = 0\ngamma = 3\na = 0.5\nr = 3\nq = 1.2\n",
        "probe": "n = 2\np = 2\nalpha = 0\ngamma = 3\ns = 7\n",
        "report": "n = 2\np = 2\nalpha = 1\ngamma = 3\n",
        "mollify": "function = x0*(1-x0)*x1\np = 2\ndelta = 0.15\nn_radii = 3\ncells = 32\n",
        "solve": "domain = square\nh = 0.25\nf = x*y\n",
    }
    configs = []
    for command, body in sections.items():
        configs.append(tmp_path / f"{command}.ini")
        configs[-1].write_text(f"[{command}]\n{body}")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = [sys.executable, "-c", _COLD_START, *map(str, configs)]
    run = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen[:-2] == [["import", 0, []]] + [[c, 0, []] for c in list(sections)[:-2]]
    assert seen[-2:] == [["mollify", 0, ["sympy"]], ["solve", 0, ["sympy"]]]


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

    def test_unreachable_tol_exits_3(self, tmp_path, capsys):
        # the solve stops near a relative residual of 1e-14, far above tol
        rc, err, out = _run_cli(
            tmp_path, "solve", "domain = square\nh = 0.0625\nf = 1\ntol = 1e-30\n", capsys
        )
        assert rc == 3
        assert err.startswith("validity error") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_tol_not_positive_exits_3_before_any_work(self, tmp_path, capsys, tol):
        # read by a range rule, before CG could run to its cap and warn
        rc, err, out = _run_cli(
            tmp_path, "solve", f"domain = square\nh = 0.0625\nf = 1\ntol = {tol}\n", capsys
        )
        assert rc == 3
        assert err == f"validity error: tol must be > 0, got {tol}\n"
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


def _write_mesh_by_lines(mesh, path):
    """``mesh.txt`` one formatted line at a time, the reference for write_mesh."""
    with open(path, "w") as fh:
        fh.write(f"mesh {len(mesh.vertices)} {len(mesh.triangles)}\n")
        for (x, y), b in zip(mesh.vertices, mesh.boundary):
            fh.write(f"v {float(x)!r} {float(y)!r} {int(b)}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"t {i} {j} {k}\n")


def _write_solution_by_rows(path, vertices, values):
    """``solution.csv`` through csv.writer, the reference for _write_solution."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "u"])
        writer.writerows([float(v[0]), float(v[1]), float(u)] for v, u in zip(vertices, values))


@pytest.mark.parametrize(
    "region, h, grade",
    [
        (Box((0.0, 0.0), (1.0, 1.0)), 1 / 16, None),
        (CuspSection(CuspDomain.isotropic(2, 3.0), eps=1e-3), 1 / 64, 2.0),
    ],
    ids=["square", "graded-cusp"],
)
def test_solve_outputs_have_the_bytes_of_the_line_writers(tmp_path, region, h, grade):
    mesh = triangulate(region, h, grade_exponent=grade)
    f = lambda x: np.sin(7.0 * x[:, 0]) + 0.1
    values = solve_dirichlet(mesh, Weight.polynomial(1.0, 2), f).values
    write_mesh(mesh, tmp_path / "mesh.txt")
    _write_mesh_by_lines(mesh, tmp_path / "mesh-ref.txt")
    _write_solution(tmp_path / "solution.csv", mesh.vertices, values)
    _write_solution_by_rows(tmp_path / "solution-ref.csv", mesh.vertices, values)
    for name, ref in (("mesh.txt", "mesh-ref.txt"), ("solution.csv", "solution-ref.csv")):
        assert (tmp_path / name).read_bytes() == (tmp_path / ref).read_bytes()
    assert (tmp_path / "solution.csv").read_bytes().count(b"\r\n") == len(mesh.vertices) + 1


class TestProbeConfig:
    """Probe settings that are config mistakes exit 2, print only their error
    line and write nothing."""

    @pytest.mark.parametrize(
        "extra",
        [
            "eps_min = 1e-3\n",  # span under four decades
            "points = 2\n",
            "family = nope\n",
            "family = power_spike\n",  # no beta
            "eps_min = -1e-5\n",
            "eps_max = 2\n",  # a support past the cusp's top
            "growth = 1.3\n",  # removed: the verdict is the fitted slope
            "variation = 0.2\n",
            "points = 1001\n",
            "points = 100000000000\n",  # its schedule would not fit in memory
            "family = power_spike\nbeta = -1\n",  # a value of 0 with a nonzero grad
            "family = power_spike\nbeta = 0\n",
        ],
        ids=[
            "short-span", "two-points", "unknown-family", "spike-without-beta",
            "negative-scale", "scale-above-one", "removed-growth", "removed-variation",
            "too-many-points", "huge-points", "spike-beta-negative", "spike-beta-zero",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_config_mistake_exits_2(self, tmp_path, extra, capsys):
        base = "n = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n"
        rc, err, out = _run_cli(tmp_path, "probe", base + extra, capsys)
        assert rc == 2
        assert err.startswith("config error") and err.count("\n") == 1
        assert not out.exists()


def _run_cli(tmp_path, command, text, capsys):
    cfg = write_config(tmp_path, f"[{command}]\n{text}")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    return rc, capsys.readouterr().err, out


FORMULA_CONFIGS = {
    "function": ("mollify", "p = 2\ndelta = 0.15\nr_max = 0.1\nn_radii = 2\ncells = 16\n"),
    "f": ("solve", "domain = square\nh = 0.25\nalpha = 1\n"),
    "u_exact": ("solve", "domain = square\nh = 0.25\nalpha = 1\n"),
}


class TestFormulaKeys:
    """Every formula key goes through SmoothField.from_string."""

    @pytest.mark.parametrize("text", ["sin(t)", "x0*"], ids=["unknown-variable", "syntax-error"])
    @pytest.mark.parametrize("key", sorted(FORMULA_CONFIGS))
    def test_unreadable_formula_exits_2(self, tmp_path, capsys, key, text):
        command, base = FORMULA_CONFIGS[key]
        rc, err, out = _run_cli(tmp_path, command, f"{base}{key} = {text}\n", capsys)
        assert rc == 2
        assert err.startswith("config error") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,text",
        [
            ("solve", "domain = square\nh = 0.25\nf = x*y\n"),
            ("solve", "domain = square\nh = 0.25\nalpha = 1\nu_exact = x*(1-x)*y*(1-y)\n"),
            ("mollify", "function = sin(x)\np = 2\ndelta = 0.15\nr_max = 0.1\nn_radii = 2\ncells = 16\n"),
        ],
        ids=["solve-f", "solve-u_exact", "mollify"],
    )
    def test_x_and_y_formulas_run(self, tmp_path, capsys, command, text):
        rc, err, out = _run_cli(tmp_path, command, text, capsys)
        assert rc == 0 and err == ""
        assert (out / "report.json").exists()

    def test_solve_with_both_u_exact_and_f_exits_2(self, tmp_path, capsys):
        text = "domain = square\nh = 0.25\nu_exact = x*y\nf = 1\n"
        rc, err, out = _run_cli(tmp_path, "solve", text, capsys)
        assert rc == 2 and err.startswith("config error")
        assert not out.exists()


class TestConfigValues:
    """Values are read once, by the kind of each key."""

    @pytest.mark.parametrize(
        "command,text",
        [
            ("exponents", "n = 2\np = abc\nalpha = 0\ngamma = 3\n"),
            ("probe", "n = 2\np = 2\nalpha = 0\ngamma = 3\ns = abc\n"),
            ("exponents", "n = 2.5\np = 2\nalpha = 0\ngamma = 3\n"),
            ("ap-check", "n = 2\np = 2\nalpha = 1\nn_radii = 1e1\n"),
            ("ap-check", "n = 2\np = 2\nalpha = nan\n"),
            ("solve", "domain = square\nh = inf\nf = 1\n"),
            ("mollify", "function = x0\np = 2\ndelta =\n"),
        ],
        ids=["letters", "probe-letters", "fractional-int", "exponent-int", "nan", "inf", "empty"],
    )
    def test_unreadable_value_exits_2(self, tmp_path, capsys, command, text):
        rc, err, out = _run_cli(tmp_path, command, text, capsys)
        assert rc == 2
        assert err.startswith("config error") and "Traceback" not in err
        assert not out.exists()

    def test_echo_keeps_number_types(self, tmp_path, capsys):
        text = "n = 2\np = 2.0\nalpha = 0\ngamma = 3e0\ns = 5\n"
        rc, _, out = _run_cli(tmp_path, "exponents", text, capsys)
        assert rc == 0
        params = read_report(out)["config"]["parameters"]
        assert params == {"n": 2, "p": 2.0, "alpha": 0, "gamma": 3.0, "s": 5}
        assert [type(params[k]) for k in ("n", "p", "alpha", "gamma")] == [int, float, int, float]


class TestRangeRules:
    """A value outside its range exits 3 where it is read; its edge runs."""

    DISTORTION = "n = 2\np = 2\nalpha = 0\ngamma = 3\nr = 3\n"
    REPORT = "n = 2\np = 2\nalpha = 0\ngamma = 3\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", ["-1", "0"])
    def test_s_not_positive_exits_3_before_any_rule(self, tmp_path, capsys, s):
        # read by run_probe's range rule, not by a Gauss rule's parameters
        # (s = -1) or a division by s (s = 0)
        rc, err, out = _run_cli(tmp_path, "probe", f"n = 2\np = 2\nalpha = 0\ngamma = 3\ns = {s}\n", capsys)
        assert rc == 3
        assert err == f"validity error: s must be > 0, got {s}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,text,code",
        [
            ("distortion", DISTORTION + "a = 0\n", 3),
            ("distortion", DISTORTION + "a = 1.5\n", 3),
            ("distortion", DISTORTION + "a = -0.5\n", 3),
            ("distortion", DISTORTION + "a = 1\n", 0),
            ("distortion", DISTORTION + "a = abc\n", 2),
            ("report", REPORT + "a = 0\n", 3),
            ("report", REPORT + "a = 1.5\n", 3),
            ("report", REPORT + "a = 0.5\n", 0),
            ("exponents", REPORT + "s = -1\n", 3),
            ("exponents", REPORT + "s = 0\n", 3),
            ("exponents", REPORT + "s = 0.5\n", 0),
            ("report", REPORT + "s = -1\n", 3),
        ],
        ids=[
            "distortion-a-0", "distortion-a-1.5", "distortion-a-negative", "distortion-a-1",
            "distortion-a-letters", "report-a-0", "report-a-1.5", "report-a-0.5",
            "exponents-s-negative", "exponents-s-0", "exponents-s-small", "report-s-negative",
        ],
    )
    def test_exit_code(self, tmp_path, capsys, command, text, code):
        rc, err, out = _run_cli(tmp_path, command, text, capsys)
        assert rc == code
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith("validity error")
        if code:
            assert not out.exists()

    @pytest.mark.parametrize(
        "command,text",
        [
            ("ap-check", "n = 0\np = 2\nalpha = 0\n"),
            ("ap-check", "n = 2\np = 2\nalpha = 0\nn_radii = 0\n"),
            ("ap-check", "n = 2\np = 2\nalpha = 0\nn_random = -1\n"),
            ("distortion", "n = 1\np = 2\nalpha = 0\ngamma = 3\na = 0.5\nr = 3\n"),
            ("distortion", DISTORTION + "a = 0.5\nq_steps = 2\ns_steps = -1\n"),
            ("distortion", DISTORTION + "a = 0.5\nq_steps = -1\n"),
            ("mollify", "function = x*y\np = 2\ndelta = 0.15\nn_radii = 0\n"),
            ("mollify", "function = x*y\np = 2\ndelta = 0.15\ncells = 0\n"),
        ],
        ids=[
            "ap-check-n", "ap-check-n_radii", "ap-check-n_random", "distortion-n",
            "distortion-s_steps", "distortion-q_steps", "mollify-n_radii", "mollify-cells",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_integer_below_its_bound_exits_3(self, tmp_path, capsys, command, text):
        rc, err, out = _run_cli(tmp_path, command, text, capsys)
        assert rc == 3
        assert err.startswith("validity error") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,text",
        [
            ("ap-check", "n = 1\np = 2\nalpha = 0\nn_radii = 1\nn_random = 0\n"),
            ("distortion", DISTORTION + "a = 0.5\nq_steps = 0\ns_steps = 0\n"),
            ("mollify", "function = x*y\np = 2\ndelta = 0.15\nn_radii = 1\ncells = 1\n"),
        ],
        ids=["ap-check", "distortion", "mollify"],
    )
    def test_integers_at_their_bounds_run(self, tmp_path, capsys, command, text):
        rc, err, out = _run_cli(tmp_path, command, text, capsys)
        assert rc == 0 and err == ""
        assert (out / "report.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "function = x*y\np = 0\ndelta = 0.15\n",
            "function = x*y\np = -1\ndelta = 0.15\n",
            "function = x*y\np = 0.5\ndelta = 0.15\n",
            "function = x*y\np = 2\ndelta = 0.15\nr_max = -0.05\n",
            "function = x*y\np = 2\ndelta = 0.15\nr_max = 0\n",
            "function = x*y\np = 2\ndelta = -0.15\n",
            # not finite on the inset nodes
            "function = log(x-0.5)\np = 2\ndelta = 0.15\ncells = 16\n",
            # finite on the inset nodes, not within r_max = 0.1 of them
            "function = log(x-0.14)\np = 2\ndelta = 0.15\ncells = 16\n",
        ],
        ids=[
            "p-0", "p-negative", "p-below-1", "r_max-negative", "r_max-0", "delta-negative",
            "log-on-inset", "log-within-r",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mollify_out_of_range_exits_3(self, tmp_path, capsys, text):
        rc, err, out = _run_cli(tmp_path, "mollify", text, capsys)
        assert rc == 3
        assert err.startswith("validity error") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        ["r_max = 1e200\n", "r_min = 2\n", "r_min = -0.001\n", "r_min = 1e-200\n", "r_min = 0\n"],
        ids=["r_max-overflows", "reversed-ladder", "r_min-negative", "volume-underflows", "r_min-0"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ball_radii_out_of_range_exit_3(self, tmp_path, capsys, extra):
        # read by BallFamily's range rule before any ball is built
        rc, err, out = _run_cli(tmp_path, "ap-check", "n = 2\np = 2\nalpha = 0.5\n" + extra, capsys)
        assert rc == 3
        assert err.startswith("validity error") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,text",
        [
            ("ap-check", "n = 2\np = 2\nalpha = 0\nn_radii = 1000000000\n"),
            ("ap-check", "n = 2\np = 2\nalpha = 0\nn_random = 1000000000\n"),
            ("ap-check", "n = 683\np = 2\nalpha = 0\n"),
            ("ap-check", "n = 2\np = 2\nalpha = 0\nn_radii = 586\n"),  # 4102 balls
            ("report", "n = 683\np = 2\nalpha = 0\ngamma = 700\n"),
        ],
        ids=["n_radii", "n_random", "dimension", "just-over", "report-dimension"],
    )
    def test_ball_family_over_the_size_cap_exits_2(self, tmp_path, capsys, command, text):
        rc, err, out = _run_cli(tmp_path, command, text, capsys)
        assert rc == 2
        assert err.startswith("config error: a ball family holds at most 4096 balls")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_batch_row_with_negative_s_exits_3(self, tmp_path, capsys):
        queries = tmp_path / "queries.csv"
        queries.write_text("n,p,alpha,gamma,s\n2,2,0,3,5\n2,2,0,3,-1\n")
        rc, err, _ = _run_cli(tmp_path, "exponents", f"n = 2\np = 2\nalpha = 0\nqueries_csv = {queries}\n", capsys)
        assert rc == 3 and err.startswith("validity error")


# one cheap, valid config per command; the fuzz test below makes one of its
# keys unreadable, so no example gets as far as a computation
FUZZ_BASES = {
    "exponents": {"n": "2", "p": "2", "alpha": "0", "gamma": "3"},
    "ap-check": {"n": "2", "p": "2", "alpha": "1", "n_radii": "2", "n_random": "1"},
    "distortion": {"n": "2", "p": "2", "alpha": "0", "gamma": "3", "a": "0.5", "r": "3"},
    "mollify": {"function": "x0", "p": "2", "delta": "0.15", "n_radii": "1", "cells": "8"},
    "solve": {"domain": "square", "h": "0.5", "f": "1"},
    "probe": {"n": "2", "p": "2", "alpha": "0", "gamma": "3", "s": "7", "points": "3"},
    "report": {"n": "2", "p": "2", "alpha": "0", "gamma": "3"},
}
_LETTERS = st.text(st.sampled_from(string.ascii_letters), min_size=1, max_size=8)
# the letter words that are formulas: the two variables and sympy's real constants
_FORMULA_WORDS = {"x", "y", "pi", "E", "EulerGamma", "Catalan", "GoldenRatio", "TribonacciConstant"}
_FORMULA_KEYS = {"function", "u_exact", "f"}


def _unreadable(key: str) -> st.SearchStrategy[str]:
    if key in _INTEGER_KEYS:
        return st.one_of(_LETTERS, st.sampled_from(["", "1e", "2.5", "1e3", "nan"]))
    if key in _FORMULA_KEYS:
        words = _LETTERS.filter(lambda w: w not in _FORMULA_WORDS)
        return st.one_of(words, st.sampled_from(["", "1e", "x0*", "sin(t)", "x0 + x2"]))
    if key in _TEXT_KEYS:
        return st.one_of(_LETTERS.filter(lambda w: w not in {"square", "cusp"}), st.just(""))
    return st.one_of(_LETTERS, st.sampled_from(["", "1e", "x0*", "1.5.2", "inf"]))


@pytest.mark.parametrize(
    "command,key",
    [(c, k) for c, spec in _ALLOWED_KEYS.items() for k in sorted(spec["required"] | spec["optional"])],
)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_unreadable_value_never_tracebacks(command, key, data):
    value = data.draw(_unreadable(key), label=key)
    params = dict(FUZZ_BASES[command])
    if key in ("u_exact", "f"):
        params.pop("f")
    with tempfile.TemporaryDirectory() as tmp:
        if key == "queries_csv" and value:
            value = str(Path(tmp) / value)  # a file that does not exist
        params[key] = value
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in params.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        assert rc in (2, 3), (params, err.getvalue())
        assert err.getvalue().startswith(("config error", "validity error"))
        assert "Traceback" not in err.getvalue()
        assert not (Path(tmp) / "out").exists()
