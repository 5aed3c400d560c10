"""Probe outputs pinned bit for bit, so that a change in how the probe's
norm integrals are organised cannot move a single ratio."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cusplab.cli import main
from cusplab.exponents import EmbeddingQuery
from cusplab.geometry import CuspDomain, EvaluationError, Verdict, integrate
from cusplab.probe import (
    _NORM_SCHEDULE,
    _NORM_TOL,
    TrialFamily,
    TrialFunction,
    _ratios,
    embedding_ratio,
    run_probe,
)
from cusplab.weights import Weight

DATA = Path(__file__).parent / "data" / "readme_probe"

Q230 = EmbeddingQuery(2, 2, 0, 3)

# float.hex of every ratio of run_probe(Q230, 5.0)
Q230_S5 = (
    "0x1.d633055e5c2ccp-2", "0x1.b815801664d0bp-2", "0x1.8e9e500ef70a9p-2",
    "0x1.651d8e80ce5abp-2", "0x1.3ecdceabade70p-2", "0x1.1c48509b2bc63p-2",
    "0x1.fad150ed9e292p-3", "0x1.c3b9aac4eddfcp-3", "0x1.929b71cd741ccp-3",
)

# the n = 3 query (p = 2, alpha = 1/2, gamma = 9/2) at 1.25 times its
# Thm 6 ceiling 10/3, i.e. s = 25/6
Q3 = EmbeddingQuery(n=3, p=Fraction(2), alpha=Fraction(1, 2), gamma=Fraction(9, 2))
Q3_S = float(Fraction(25, 6))
Q3_RATIOS = (
    "0x1.89ef013c32166p-1", "0x1.346eed1e4a016p+0", "0x1.c812ad5976a35p+0",
    "0x1.48736c8ffa00ep+1", "0x1.d3c315135f779p+1", "0x1.4b7f9861fc231p+2",
    "0x1.d4ecb58471a6dp+2", "0x1.4b62a623d67a8p+3", "0x1.d4363c52c5597p+3",
)


def _long_dot_bits() -> str:
    x = 1.0 / np.arange(1.0, 2.0**17 + 1)
    return float(np.dot(x, np.sqrt(np.arange(2.0, 2.0**17 + 2)))).hex()


# Quadrature sums go through numpy's dot, whose BLAS splits a long sum
# across threads and SIMD lanes; the pinned bits were recorded on x86-64
# OpenBLAS summing in two threads, which gives this long dot these bits.
# Elsewhere the pins cannot hold, and the comparison against the
# one-integral-at-a-time reference below checks bit identity instead.
recorded_summation = pytest.mark.skipif(
    _long_dot_bits() != "0x1.69e659e090a96p+9",
    reason="numpy's dot sums in another order than where the bits were pinned",
)


def _reference_ratio(u, p, s, weight, domain):
    """The embedding ratio with every norm integral on its own ladder."""

    def norm(f):
        v = integrate(f, domain, schedule=_NORM_SCHEDULE, tol=_NORM_TOL)
        assert v.verdict is Verdict.FINITE
        return v.value

    value = norm(lambda pts: np.abs(u.value(pts)) ** s * weight(pts)) ** (1.0 / s)
    denom = norm(lambda pts: np.abs(u.value(pts)) ** p * weight(pts)) ** (1.0 / p)
    grads = [
        norm(lambda pts, a=a: np.abs(u.grad(pts)[:, a]) ** p * weight(pts)) ** (1.0 / p)
        for a in range(domain.dim)
    ]
    return value / (denom + sum(grads))


@pytest.mark.parametrize(
    "query, s, scales",
    [(Q230, 5.0, range(9)), (Q3, Q3_S, (0, 8))],  # the n = 3 reference is slow
    ids=["q230", "n3"],
)
def test_ratios_equal_one_ladder_per_integral(query, s, scales):
    rep = run_probe(query, s)
    domain = CuspDomain.isotropic(query.n, query.gamma)
    weight = Weight.polynomial(float(query.alpha), query.n)
    family = TrialFamily("tip_bump")
    for k in scales:
        eps, ratio = rep.ratios[k]
        expected = _reference_ratio(family.member(eps), float(query.p), s, weight, domain)
        assert ratio.hex() == expected.hex(), eps


@recorded_summation
def test_q230_ratios_bit_identical():
    rep = run_probe(Q230, 5.0)
    assert tuple(r.hex() for _, r in rep.ratios) == Q230_S5
    assert rep.verdict == "bounded"


@recorded_summation
def test_n3_sweep_query_ratios_bit_identical():
    rep = run_probe(Q3, Q3_S)
    assert tuple(r.hex() for _, r in rep.ratios) == Q3_RATIOS
    assert rep.verdict == "blow_up"


@recorded_summation
def test_readme_probe_outputs_byte_identical(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 7\n")
    out = tmp_path / "out"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("report.json", "probe.csv"):
        assert (out / name).read_bytes() == (DATA / name).read_bytes(), name


def test_probe_builds_each_level_grid_once(monkeypatch):
    import cusplab.geometry as geometry

    built = []
    real = geometry.grid

    def counting(domain, *args):
        built.append((domain, args))
        return real(domain, *args)

    monkeypatch.setattr(geometry, "grid", counting)
    run_probe(Q230, 5.0)
    # the probe's schedule has six distinct levels
    assert 0 < len(built) == len(set(built)) <= 6


def _power(b):
    def value(pts):
        with np.errstate(over="ignore", divide="ignore"):
            return np.linalg.norm(pts, axis=-1) ** -b

    return TrialFunction(value, np.zeros_like)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "second, third, error",
    [
        (_power(2.0), _power(400.0), ArithmeticError),  # unstable norm first
        (_power(400.0), _power(2.0), EvaluationError),  # overflow first
        (TrialFunction(lambda p: np.zeros(len(p)), np.zeros_like), _power(400.0), ValueError),
    ],
    ids=["unstable-then-overflow", "overflow-then-unstable", "zero-then-overflow"],
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
