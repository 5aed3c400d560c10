"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from cusplab.cli import main as cli_main
from cusplab.cuspmap import CuspMap, distortion_Ia, jacobian_Ja
from cusplab.exponents import (
    EmbeddingQuery,
    ValidityError,
    besov_threshold,
    cor2_threshold,
    cor4_bound,
    lemma3_transfer,
    select_witness,
    thm6_threshold,
    thm8_threshold,
    thm9_sstar,
    witness_satisfies,
)
from cusplab.geometry import Ball, Box, CuspDomain, Verdict, h1_domain
from cusplab.mollifier import MollifySpec, SmoothField, commutation_check, convergence_test
from cusplab.pde import (
    assemble,
    convergence_rate,
    l2_error,
    manufactured_rhs,
    solve_dirichlet,
    triangulate,
    weak_residual,
)
from cusplab.probe import run_probe
from cusplab.weights import BallFamily, Weight, ap_check, ap_ratio, polynomial_ap_range


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {label}")


def test_criterion_1_formula_suite():
    with criterion(1, "closed-form exponent suite on a 1000-query rational grid"):
        t0 = time.monotonic()
        ns = (2, 3)
        ps = [F(k, 4) for k in (5, 6, 7, 8, 9, 10, 11, 12, 14, 16)]
        alphas = [F(k, 6) for k in (0, 1, 2, 3, 4, 5, 6, 8, 10, 12)]
        sigmas = [F(k, 4) for k in (4, 5, 6, 8, 12)]
        grid = list(itertools.product(ns, ps, alphas, sigmas))
        assert len(grid) == 1000
        checked = 0
        for n, p, alpha, sigma in grid:
            gamma = sigma * (n - 1) + 1
            q = EmbeddingQuery(n, p, alpha, gamma)
            t6, t8, c2, bz = (
                thm6_threshold(q),
                thm8_threshold(q),
                cor2_threshold(q),
                besov_threshold(q),
            )
            # printed closed forms, written out directly
            if t6.valid:
                assert t6.s_max == (alpha + gamma) * p / (alpha + gamma - p)
            if t8.valid:
                assert t8.s_max == (alpha + gamma) * p / (gamma - p)
            if bz.valid:
                assert bz.s_max == (n + alpha) * p / (sigma * (alpha + n - 1) - (p - 1))
            # Cor2 == Thm6 under gamma = sigma(n-1)+1, exact rational arithmetic
            assert c2.valid == t6.valid
            if t6.valid:
                assert c2.s_max == t6.s_max
            # Besov comparison: equality at sigma = 1, strictly sharper above
            q1 = EmbeddingQuery.from_sigma(n, p, alpha, 1)
            t6_1, bz_1 = thm6_threshold(q1), besov_threshold(q1)
            if t6_1.valid and bz_1.valid:
                assert t6_1.s_max == bz_1.s_max
            if t6.valid and bz.valid and sigma > 1:
                assert t6.s_max > bz.s_max
            # transfer formulas against their printed forms
            q0 = p + 1
            try:
                qt = lemma3_transfer(p, q0, p + F(1, 2))
                assert qt == 1 / (1 / (p + F(1, 2)) - 1 / p + 1 / q0)
                assert cor4_bound(p, q0, p + F(1, 2), 1) == qt
            except ValidityError:
                pass
            denom = q0 - 2 * (q0 - p)
            expected = math.inf if denom <= 0 else p * q0 / denom
            assert thm9_sstar(p, q0, 2) == expected
            checked += 1
        elapsed = time.monotonic() - t0
        assert checked == 1000
        assert elapsed < 1.0, f"formula suite took {elapsed:.2f}s"


def test_criterion_2_distortion_dichotomy():
    with criterion(2, "distortion verdicts flip at q=1.6 and s=2.25 (5% margins)"):
        t0 = time.monotonic()
        domain = CuspDomain(dim=2, exponents=(2.0,))
        p, alpha, a, r = 2.0, 0.0, 0.5, 3.0
        q_star, s_star = 1.6, 2.25
        below = distortion_Ia(p, q_star * 0.95, a, alpha, domain)
        above = distortion_Ia(p, q_star * 1.05, a, alpha, domain)
        assert below.verdict is Verdict.FINITE
        assert above.verdict is Verdict.DIVERGENT
        j_below = jacobian_Ja(r, s_star * 0.95, a, alpha, domain)
        j_above = jacobian_Ja(r, s_star * 1.05, a, alpha, domain)
        assert j_below.verdict is Verdict.FINITE
        assert j_above.verdict is Verdict.DIVERGENT
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"distortion suite took {elapsed:.2f}s"


def test_criterion_3_jacobian_consistency():
    with criterion(3, "closed-form Jacobian matches finite differences at 1e-6"):
        domain = CuspDomain(dim=2, exponents=(2.0,))
        m = CuspMap(domain, a=0.5)
        rng = np.random.default_rng(42)
        t = rng.uniform(0.02, 0.98, 1000)
        u = rng.uniform(0.02, 0.98, 1000)
        pts = np.stack([u * t, t], axis=-1)
        jac = m.jacobian(pts)
        h = 1e-6
        for x, j in zip(pts, jac):
            J = np.empty((2, 2))
            for col in range(2):
                e = np.zeros(2)
                e[col] = h
                J[:, col] = (m.apply(x + e) - m.apply(x - e)) / (2 * h)
            assert abs(np.linalg.det(J) - j) / abs(j) < 1e-6
        ident = CuspMap(h1_domain(2), a=1.0)
        assert np.all(ident.jacobian(pts) == 1.0)


def test_criterion_4_witness_certification():
    with criterion(4, "witness triples below threshold, none at or above"):
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            n = int(rng.integers(2, 4))
            p = float(rng.uniform(1.2, 3.5))
            alpha = float(rng.uniform(0.0, n * (p - 1) * 0.9))
            gamma = float(rng.uniform(n, n + 3))
            q = EmbeddingQuery(n, p, alpha, gamma)
            rep = thm6_threshold(q)
            if not rep.valid:
                continue
            s_max = float(rep.s_max)
            s_below = float(rng.uniform(1.0, s_max * 0.999))
            w = select_witness(q, s_below)
            assert w is not None, (n, p, alpha, gamma, s_below)
            assert witness_satisfies(q, s_below, w)
            assert select_witness(q, s_max) is None
            assert select_witness(q, s_max * 1.1) is None
            count += 1


def test_criterion_5_ap_suite():
    with criterion(5, "A_p verdict grid, ratio lower bound, scale invariance"):
        small = lambda n: BallFamily(dim=n, n_radii=3, n_random=2, lattice_decades=2)
        for n in (2, 3):
            for p in (1.5, 2.0, 3.0):
                lo, hi = polynomial_ap_range(n, p)
                for alpha in (lo - 0.7, lo / 2, 0.0, hi / 2, hi + 0.7):
                    rep = ap_check(Weight.polynomial(alpha, n), p, small(n))
                    inside = lo < alpha < hi
                    assert (rep.verdict == "satisfied") is inside
                    assert all(r >= 1.0 - 1e-12 for r in rep.ratios)
        w = Weight.polynomial(1.0, 2)
        origin_ratios = [
            ap_ratio(w, 2.0, Ball((0.0, 0.0), r)) for r in (1e-3, 1e-2, 1e-1, 1.0)
        ]
        assert max(origin_ratios) / min(origin_ratios) < 1.01


def test_criterion_6_mollifier_suite():
    with criterion(6, "derivative commutation < 1e-6; weighted mollification converges"):
        spec = MollifySpec(r=0.1, delta=0.15)
        samples = np.array(
            [[x, y] for x in np.linspace(0.3, 0.7, 5) for y in np.linspace(0.3, 0.7, 5)]
        )
        corpus = [
            SmoothField.from_string("x0**3 + 2*x0*x1**2 - x1**3", 2),
            SmoothField.from_string("sin(x0)*cos(x1)", 2),
            SmoothField.from_string("exp(x0/2 + x1/3)", 2),
        ]
        for f in corpus:
            for alpha in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
                assert commutation_check(f, alpha, spec, samples, step=1e-4) < 1e-6
        w = Weight.polynomial(1.0, 2)
        f_lip = lambda x0, x1: np.sqrt((x0 - 0.7) ** 2 + (x1 - 0.7) ** 2)
        seq = convergence_test(
            f_lip, w, 2.0, 0.15, [0.1, 0.05, 0.025, 0.0125], Box((0.0, 0.0), (1.0, 1.0))
        )
        norms = [v for _, v in seq]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3


def test_criterion_7_pde_suite():
    with criterion(7, "FEM order 2, weighted residual, uniqueness, SPD"):
        t0 = time.monotonic()
        square = Box((0.0, 0.0), (1.0, 1.0))
        u_fn, _, f_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "1")
        errors = [
            l2_error(solve_dirichlet(triangulate(square, h), 1.0, f_fn), u_fn)
            for h in (1 / 16, 1 / 32, 1 / 64)
        ]
        rate = convergence_rate(errors)
        assert not rate.inconclusive
        assert abs(rate.estimate - 2.0) <= 0.3
        w1 = Weight.polynomial(1.0, 2)
        uw_fn, _, fw_fn = manufactured_rhs("sin(pi*x)*sin(pi*y)", "sqrt(x**2+y**2)")
        sol = solve_dirichlet(triangulate(square, 1 / 32), w1, fw_fn, tol=1e-10)
        assert weak_residual(sol, w1, fw_fn) <= 10.0 * 1e-10
        assert l2_error(sol, uw_fn) < 5e-3
        zero = solve_dirichlet(triangulate(square, 1 / 16), 1.0, 0.0)
        assert np.all(zero.values == 0.0)
        system = assemble(triangulate(square, 1 / 8), w1, 0.0)
        K = system.stiffness
        assert (K != K.T).nnz == 0  # exactly symmetric
        assert np.linalg.eigvalsh(K.toarray()).min() > 0.0
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"pde suite took {elapsed:.2f}s"


def test_criterion_8_sharpness_probe():
    with criterion(8, "probe: bounded at s=5, blow-up at s=7, sweep consistent"):
        t0 = time.monotonic()
        q = EmbeddingQuery(2, 2, 0, 3)
        assert float(thm6_threshold(q).s_max) == 6.0
        assert run_probe(q, 5.0).verdict == "bounded"
        assert run_probe(q, 7.0).verdict == "blow_up"
        # consistency across the sweep outside the +-20% band around 6
        for s in (4.0, 4.8):
            assert run_probe(q, s).verdict == "bounded"
        for s in (7.2, 8.0):
            assert run_probe(q, s).verdict == "blow_up"
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"probe suite took {elapsed:.2f}s"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reports for every subcommand"):
        configs = {
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
            "solve": (
                "[solve]\ndomain = square\nh = 0.2\nalpha = 1\n"
                "u_exact = sin(pi*x)*sin(pi*y)\n"
            ),
            "probe": "[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 7\n",
            "report": "[report]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 5\n",
        }
        for command, text in configs.items():
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(text)
            out1 = tmp_path / f"{command}_a"
            out2 = tmp_path / f"{command}_b"
            rc1 = cli_main([command, "--config", str(cfg), "--out", str(out1), "--seed", "11"])
            rc2 = cli_main([command, "--config", str(cfg), "--out", str(out2), "--seed", "11"])
            assert rc1 == 0 and rc2 == 0, command
            b1 = (out1 / "report.json").read_bytes()
            b2 = (out2 / "report.json").read_bytes()
            assert b1 == b2, f"{command} reports differ"
            for extra in out1.iterdir():
                twin = out2 / extra.name
                assert twin.exists()
                assert extra.read_bytes() == twin.read_bytes(), extra.name
