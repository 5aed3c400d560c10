"""Probe outputs pinned bit for bit, so that a change in how the probe's
norm integrals are organised cannot move a single ratio."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cusplab.cli import main
from cusplab.exponents import EmbeddingQuery
from cusplab.geometry import CuspDomain, EvaluationError, grid
from cusplab.probe import (
    TrialFamily,
    TrialFunction,
    _ratios,
    embedding_ratio,
    run_probe,
)
from cusplab.weights import Weight

DATA = Path(__file__).parent / "data" / "readme_probe"

Q230 = EmbeddingQuery(2, 2, 0, 3)

# float.hex of every ratio of run_probe(Q230, 5.0), recorded on x86-64 with
# numpy 2.4; the sums are pairwise in a fixed order, so the BLAS thread
# count does not move them
Q230_S5 = (
    "0x1.d756fbe5f701cp-2", "0x1.b821e719701a9p-2", "0x1.8e93334eaab4ep-2",
    "0x1.6511d4959920cp-2", "0x1.3ec33d7de4fc0p-2", "0x1.1c3ee653bf528p-2",
    "0x1.fac08a9ffeb87p-3", "0x1.c3aab82eaccc8p-3", "0x1.928e1f91556adp-3",
)

# the n = 3 query (p = 2, alpha = 1/2, gamma = 9/2) at 1.25 times its
# Thm 6 ceiling 10/3, i.e. s = 25/6
Q3 = EmbeddingQuery(n=3, p=Fraction(2), alpha=Fraction(1, 2), gamma=Fraction(9, 2))
Q3_S = float(Fraction(25, 6))
Q3_RATIOS = (
    "0x1.945c3230f5aafp-1", "0x1.358a9413674f2p+0", "0x1.c7e5f19d8b66ep+0",
    "0x1.481a72346f59ap+1", "0x1.d337029471b2cp+1", "0x1.4b1ae7da949a6p+2",
    "0x1.d45e12367325cp+2", "0x1.4afdddee958bap+3", "0x1.d3a7df8011dbbp+3",
)


def test_q230_ratios_bit_identical():
    rep = run_probe(Q230, 5.0)
    assert tuple(r.hex() for _, r in rep.ratios) == Q230_S5
    assert rep.verdict == "bounded"


def test_n3_sweep_query_ratios_bit_identical():
    rep = run_probe(Q3, Q3_S)
    assert tuple(r.hex() for _, r in rep.ratios) == Q3_RATIOS
    assert rep.verdict == "blow_up"


def test_readme_probe_outputs_byte_identical(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 7\n")
    out = tmp_path / "out"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("report.json", "probe.csv"):
        assert (out / name).read_bytes() == (DATA / name).read_bytes(), name


def _masked_tip_grad(pts, eps):
    """The tip bump's gradient as zeros with ``np.divide`` where ``0 < r < eps``."""
    r = np.linalg.norm(pts, axis=-1)
    g = np.zeros_like(pts)
    np.divide(-pts, (r * eps)[:, None], out=g, where=((r < eps) & (r > 0.0))[:, None])
    return g


def _around_the_tip(n, eps):
    """Points at radii from 0 to 1000 eps, those at exactly 0 and eps among them."""
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(400, n))
    pts *= (eps * np.geomspace(1e-3, 1e3, 400) / np.linalg.norm(pts, axis=-1))[:, None]
    pts[0] = 0.0
    pts[1] = 0.0
    pts[1, -1] = eps
    return pts


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5])
def test_tip_bump_gradient_is_zero_off_its_support_and_at_the_tip(n, eps):
    pts = _around_the_tip(n, eps)
    r = np.linalg.norm(pts, axis=-1)
    off = (r >= eps) | (r == 0.0)
    assert off[0] and off[1] and 0 < np.count_nonzero(off) < len(r)
    with np.errstate(all="raise"):
        g = TrialFamily("tip_bump").member(eps).grad(pts, r)
    assert not np.isnan(g).any()
    assert np.all(np.abs(g[off]) == 0.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5])
def test_tip_bump_gradient_has_the_bits_of_the_masked_division(n, eps):
    domain = CuspDomain.isotropic(n, 3.0 if n == 2 else 4.5)
    pts = np.concatenate([_around_the_tip(n, eps), grid(domain, 6.0, 32, 12).points])
    r = np.linalg.norm(pts, axis=-1)
    inside = (r < eps) & (r > 0.0)
    assert np.count_nonzero(inside) > 100
    g = np.abs(TrialFamily("tip_bump").member(eps).grad(pts, r))
    assert np.array_equal(g.view(np.uint64), np.abs(_masked_tip_grad(pts, eps)).view(np.uint64))


def _power(b):
    # supported on the whole cusp, whose points all lie within |x| < 2
    def value(r):
        with np.errstate(over="ignore", divide="ignore"):
            return r**-b

    return TrialFunction(value, lambda pts, r: np.zeros_like(pts), (2.0,))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "second, third, error",
    [
        (_power(400.0), _power(2.0), EvaluationError),  # overflow first
        (
            TrialFunction(np.zeros_like, lambda pts, r: np.zeros_like(pts), (2.0,)),
            _power(400.0),
            ValueError,
        ),
    ],
    ids=["overflow-then-unstable", "zero-then-overflow"],
)
def test_errors_surface_scale_by_scale(second, third, error):
    # the failure of the earliest failing scale is raised, after the ratios
    # of the scales before it, as when the scales are probed one at a time
    members = [TrialFamily("tip_bump").member(1e-2), second, third]
    domain, weight = CuspDomain.isotropic(2, 3), Weight.polynomial(0.0, 2)
    ratios = []
    with pytest.raises(error):
        for r in _ratios(members, 2.0, 5.0, weight, domain):
            ratios.append(r)
    assert ratios == [embedding_ratio(members[0], 2.0, 5.0, weight, domain)]
