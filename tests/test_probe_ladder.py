"""Probe outputs pinned bit for bit, so that a change in how the probe's
norm integrals are organised cannot move a single ratio."""

import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cusplab.cli import main
from cusplab.exponents import EmbeddingQuery
from cusplab.geometry import CuspDomain, EvaluationError, grid
from cusplab.probe import (
    TrialFamily,
    TrialFunction,
    _axis_powers,
    _ratios,
    embedding_ratio,
    probe_scales,
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


# n = 3, p = 2, alpha = 0, gamma = 3 at s = 5: each transverse exponent is
# 1, so 2 gamma_i = 2, a power numpy would take as a square if the exponent
# reached it as a scalar
Q330 = EmbeddingQuery(3, 2, 0, 3)
Q330_S5 = (
    "0x1.75d081e422bcdp-2", "0x1.519b8b9776787p-2", "0x1.2e2b00ba8ebd9p-2",
    "0x1.0dab37777f2aap-2", "0x1.e0e3a25af909dp-3", "0x1.aca685fc73995p-3",
    "0x1.7e0d2618c7a68p-3", "0x1.548219d270732p-3", "0x1.2f7ac3954dd72p-3",
)

# embedding_ratio(member(eps), p = 2, s = 3, |x|**0.5) at eps = 1e-1, 1e-3,
# 1e-5 on anisotropic n = 3 cusps; the two axis orders differ in the last
# bit at eps = 1e-1, so a swapped axis shows
ANISOTROPIC = {
    ((1.0, 2.5), "tip_bump"): ("0x1.81f5a0e101d99p-3", "0x1.6f713cc9cf8aep-4", "0x1.5529ae8a624c0p-5"),
    ((1.0, 2.5), "power_spike"): ("0x1.f52924fef7911p-3", "0x1.f4be3b1d8f3d2p-3", "0x1.f4be2a06fdf08p-3"),
    ((2.5, 1.0), "tip_bump"): ("0x1.81f5a0e101d98p-3", "0x1.6f713cc9cf8aep-4", "0x1.5529ae8a624c0p-5"),
    ((2.5, 1.0), "power_spike"): ("0x1.f52924fef790fp-3", "0x1.f4be3b1d8f3d2p-3", "0x1.f4be2a06fdf08p-3"),
}


def test_q230_ratios_bit_identical():
    rep = run_probe(Q230, 5.0)
    assert tuple(r.hex() for _, r in rep.ratios) == Q230_S5
    assert rep.verdict == "bounded"


def test_n3_sweep_query_ratios_bit_identical():
    rep = run_probe(Q3, Q3_S)
    assert tuple(r.hex() for _, r in rep.ratios) == Q3_RATIOS
    assert rep.verdict == "blow_up"


def test_n3_unit_exponent_ratios_bit_identical():
    rep = run_probe(Q330, 5.0)
    assert tuple(r.hex() for _, r in rep.ratios) == Q330_S5
    assert rep.verdict == "bounded"


@pytest.mark.parametrize("exponents, kind", list(ANISOTROPIC))
def test_anisotropic_ratios_bit_identical(exponents, kind):
    family = TrialFamily(kind, beta=0.4 if kind == "power_spike" else None)
    domain, weight = CuspDomain(3, exponents), Weight.polynomial(0.5, 3)
    ratios = [embedding_ratio(family.member(eps), 2.0, 3.0, weight, domain) for eps in (1e-1, 1e-3, 1e-5)]
    assert tuple(r.hex() for r in ratios) == ANISOTROPIC[exponents, kind]


def _probe_outputs_match(tmp_path, config, data):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("report.json", "probe.csv"):
        assert (out / name).read_bytes() == (data / name).read_bytes(), name


def test_readme_probe_outputs_byte_identical(tmp_path):
    _probe_outputs_match(tmp_path, "[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 7\n", DATA)


def test_n3_unit_exponent_probe_outputs_byte_identical(tmp_path):
    # the same files are compared by CI against the installed console script
    config = "[probe]\nn = 3\np = 2\nalpha = 0\ngamma = 3\ns = 5\n"
    _probe_outputs_match(tmp_path, config, DATA.parent / "n3_gamma3_probe")


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


@pytest.mark.parametrize(
    "exponents", [(2.0,), (0.5,), (-1.0,), (3.5,), (2.0, 2.0), (2.0, 5.0), (1.0, 0.5, 2.0)]
)
def test_axis_powers_have_the_bits_of_the_broadcast_power(exponents):
    # the reference is every axis's power in one broadcast operation; numpy
    # takes one exponent by its fast paths and several by its general pow
    t = np.random.default_rng(len(exponents)).uniform(1e-6, 1.0, size=(3, 2, 256))
    exponents = np.array(exponents)
    reference = t[..., None] ** exponents
    powers = _axis_powers(t, exponents)
    assert len(powers) == len(exponents)
    for i, power in enumerate(powers):
        assert power.flags.c_contiguous
        assert np.array_equal(power.view(np.uint64), reference[..., i].view(np.uint64))


@st.composite
def _members(draw):
    """A trial function, the number of coordinates and points at radii from
    0 to past 1/2, with those at exactly 0, eps and 1/2 among them."""
    n = draw(st.integers(2, 4))
    eps = 10.0 ** draw(st.floats(-6.0, -1.0))
    if draw(st.booleans()):
        u = TrialFamily("tip_bump").member(eps)
    else:
        u = TrialFamily("power_spike", beta=draw(st.floats(0.25, 5.0))).member(eps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.abs(rng.normal(size=(300, n)))
    pts *= (np.geomspace(1e-3 * eps, 1.0, 300) / np.linalg.norm(pts, axis=-1))[:, None]
    pts[:3] = 0.0
    pts[1, -1], pts[2, 0] = eps, 0.5
    return u, n, pts


@settings(max_examples=40, deadline=None)
@given(_members(), st.booleans())
def test_grad_of_one_column_has_the_bits_of_the_full_grad(member, by_columns):
    # the probe asks each gradient integral's one column of an (M, n) array
    # laid out a coordinate at a time
    u, n, pts = member
    if by_columns:
        pts = np.asfortranarray(pts)
    r = np.linalg.norm(pts, axis=-1)
    full = u.grad(pts, r)
    for k in range(n):
        one = u.grad(pts[:, k : k + 1], r)
        assert one.shape == (len(pts), 1)
        assert np.array_equal(one[:, 0].view(np.uint64), full[:, k].view(np.uint64))


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


def _member_ratios(query, s, kind, beta, epsilons):
    """The ratio of each member on its own, up to the first that fails."""
    family = TrialFamily(kind, beta=beta)
    domain = CuspDomain.isotropic(query.n, float(query.gamma))
    weight = Weight.polynomial(float(query.alpha), query.n)
    ratios = []
    for eps in epsilons:
        try:
            ratios.append((eps, embedding_ratio(family.member(eps), float(query.p), s, weight, domain)))
        except EvaluationError:
            break
    return tuple(ratios)


@st.composite
def _probes(draw):
    n = draw(st.sampled_from([2, 3]))
    p = Fraction(draw(st.integers(5, 16)), 4)
    low, high = -n, n * (p - 1)  # the A_p window of |x|**alpha
    alpha = low + (high - low) * Fraction(draw(st.integers(1, 15)), 16)
    gamma = n + Fraction(draw(st.integers(0, 12)), 4)
    s = draw(st.integers(2, 40)) / 4
    kind = draw(st.sampled_from(["tip_bump", "power_spike"]))
    beta = draw(st.integers(1, 12)) / 4 if kind == "power_spike" else None
    return EmbeddingQuery(n, p, alpha, gamma), s, kind, beta


@settings(max_examples=20, deadline=None)
@given(_probes())
def test_stacked_scales_have_the_bits_of_each_member_alone(probe):
    query, s, kind, beta = probe
    rep = run_probe(query, s, family_kind=kind, beta=beta)
    alone = _member_ratios(query, s, kind, beta, np.geomspace(1e-1, 1e-5, 9))
    assert [(e, r.hex()) for e, r in rep.ratios] == [(e, r.hex()) for e, r in alone]


def test_steep_spike_stops_where_one_scale_at_a_time_stops():
    # at s = 2 the squared gradient and value of a beta = 70 spike pass the
    # float range from eps = 10**-2.5 on, so the probe stops there, silently,
    # as one scale at a time does
    epsilons = probe_scales(np.geomspace(1e-1, 1e-5, 9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_probe(Q230, 2.0, family_kind="power_spike", beta=70.0)
        alone = _member_ratios(Q230, 2.0, "power_spike", 70.0, epsilons)
    assert 0 < len(alone) < len(epsilons)
    assert [(e, r.hex()) for e, r in rep.ratios] == [(e, r.hex()) for e, r in alone]
    assert rep.verdict == "inconclusive"


def _plateau(a):
    """1 within ``|x| < a``, falling linearly to 0 at ``|x| = 1.05 a``: two
    break radii close enough that several members share a pass."""
    b = 1.05 * a

    def value(r):
        return np.clip((b - r) / (b - a), 0.0, 1.0)

    def grad(pts, r):
        g = np.zeros_like(pts)
        ramp = (r > a) & (r < b)
        g[ramp] = -pts[ramp] / (r[ramp, None] * (b - a))
        return g

    return TrialFunction(value, grad, (a, b))


@pytest.mark.parametrize("n, gamma", [(2, 3.0), (3, 4.5)])
def test_two_piece_members_stacked_have_the_bits_of_each_alone(n, gamma):
    members = [_plateau(a) for a in np.geomspace(1e-1, 1e-4, 7)]
    domain, weight = CuspDomain.isotropic(n, gamma), Weight.polynomial(0.5, n)
    stacked = list(_ratios(members, 2.0, 3.0, weight, domain))
    alone = [embedding_ratio(u, 2.0, 3.0, weight, domain) for u in members]
    assert [r.hex() for r in stacked] == [r.hex() for r in alone]
