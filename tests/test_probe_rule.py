"""The probe's fixed Gauss rule against exact answers: an mpmath oracle for
single ratios, the closed-form asymptote of the tip bump's ratio, the same
rule at twice the nodes, and output bytes, of probes and of A_p checks,
that do not depend on the BLAS thread count."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import beta as beta_fn

import cusplab.geometry as geometry
from cusplab.exponents import EmbeddingQuery
from cusplab.geometry import CuspDomain
from cusplab.probe import TrialFamily, embedding_ratio, run_probe
from cusplab.weights import Weight

SRC = Path(__file__).resolve().parents[1] / "src"


def _profile(kind, eps, beta):
    """Value, |radial derivative| and break radii of a family member, as
    mpmath functions of ``r``."""
    if kind == "tip_bump":
        return (lambda r: 1 - r / eps), (lambda r: 1 / eps), [eps]
    cap, outer = eps**-beta, mp.mpf(0.5) ** -beta
    value = lambda r: (cap if r < eps else r**-beta) - outer
    slope = lambda r: 0 if r < eps else beta * r ** (-beta - 1)
    return value, slope, [eps, mp.mpf(0.5)]


def _oracle_2d(p, alpha, gamma, s, kind, eps, beta=None):
    """The embedding ratio on the 2-D cusp ``0 < x_1 < t**g``, ``g = gamma - 1``,
    by ``mpmath.quad`` in ``(u, t)``, ``x_1 = u t**g``, ``x_2 = t``, with
    breakpoints at the support edge and the kinks ``|x| = b``."""
    g = mp.mpf(gamma) - 1
    value, slope, breaks = _profile(kind, mp.mpf(eps), beta)

    def norm(h):
        def inner(u):
            rho = lambda t: mp.sqrt(1 + u * u * t ** (2 * g - 2))
            tops = [mp.findroot(lambda t: t * rho(t) - b, b) for b in breaks]
            return mp.quad(lambda t: h(u, t, t * rho(t)) * (t * rho(t)) ** alpha * t**g, [0] + tops)

        return mp.quad(inner, [0, 1])

    num = norm(lambda u, t, r: abs(value(r)) ** s)
    parts = [
        norm(lambda u, t, r: abs(value(r)) ** p),
        norm(lambda u, t, r: (slope(r) * u * t**g / r) ** p),
        norm(lambda u, t, r: (slope(r) * t / r) ** p),
    ]
    return num ** (1 / mp.mpf(s)) / sum(v ** (1 / mp.mpf(p)) for v in parts)


def _oracle_3d_isotropic_p2(alpha, gamma, s, eps):
    """The tip bump's ratio at ``p = 2`` on the isotropic 3-D cusp: the
    integrands depend on ``u`` through ``q = u_1**2 + u_2**2`` alone (and
    ``u_1**2`` averages to ``q/2`` on a level set), and ``q`` has density
    ``pi/4 - acos(1/sqrt(q))^+`` on the unit square."""
    g = (mp.mpf(gamma) - 1) / 2
    value, slope, _ = _profile("tip_bump", mp.mpf(eps), None)
    density = lambda q: mp.pi / 4 - (mp.acos(1 / mp.sqrt(q)) if q > 1 else 0)

    def norm(h):
        def inner(q):
            rho = lambda t: mp.sqrt(1 + q * t ** (2 * g - 2))
            top = mp.findroot(lambda t: t * rho(t) - eps, eps)
            f = lambda t: h(q, t, t * rho(t)) * (t * rho(t)) ** alpha * t ** (gamma - 1)
            return density(q) * mp.quad(f, [0, top])

        return mp.quad(inner, [0, 1, 2])

    num = norm(lambda q, t, r: abs(value(r)) ** s)
    value_sq = norm(lambda q, t, r: value(r) ** 2)
    along_t = norm(lambda q, t, r: (slope(r) * t / r) ** 2)
    across = norm(lambda q, t, r: q / 2 * (slope(r) * t**g / r) ** 2)  # each transverse axis
    return num ** (1 / mp.mpf(s)) / (mp.sqrt(value_sq) + 2 * mp.sqrt(across) + mp.sqrt(along_t))


@pytest.mark.parametrize(
    "n, p, alpha, gamma, s, kind, eps, beta",
    [
        (2, 2.0, 0.0, 3.0, 7.0, "tip_bump", 0.1, None),  # the README query
        (2, 2.0, 0.0, 3.0, 7.0, "tip_bump", 0.01, None),
        (2, 1.5, 1.0, 4.0, 5.0, "tip_bump", 0.1, None),  # |x_1|**p holds u**1.5
        (2, 2.0, 0.0, 3.0, 5.0, "power_spike", 1e-3, 0.45),  # two pieces
        (3, 2.0, 0.5, 4.5, 4.0, "tip_bump", 0.1, None),  # the n = 3 sweep query
    ],
    ids=["readme-0.1", "readme-0.01", "p1.5", "spike", "n3"],
)
def test_ratio_matches_mpmath(n, p, alpha, gamma, s, kind, eps, beta):
    u = TrialFamily(kind, beta=beta).member(eps)
    ratio = embedding_ratio(u, p, s, Weight.polynomial(alpha, n), CuspDomain.isotropic(n, gamma))
    with mp.workdps(15):
        if n == 2:
            exact = _oracle_2d(p, alpha, gamma, s, kind, eps, beta)
        else:
            exact = _oracle_3d_isotropic_p2(alpha, gamma, s, eps)
    assert ratio == pytest.approx(float(exact), rel=1e-12)


def test_readme_query_at_the_largest_scale():
    # the value the CI smoke step checks, from mpmath at 20 digits
    assert run_probe(EmbeddingQuery(2, 2, 0, 3), 7.0).ratios[0][1] == pytest.approx(
        0.82108434789118604, rel=1e-12
    )


def test_steep_spike_matches_mpmath():
    # beta = 20 at eps = 1e-3, by _oracle_2d (too slow to run here: its L_s
    # integrand falls like t**-97 above eps)
    ratios = run_probe(EmbeddingQuery(2, 2, 0, 3), 5.0, family_kind="power_spike", beta=20).ratios
    assert ratios[4] == (pytest.approx(1e-3), pytest.approx(0.12629473083656662, rel=1e-12))


@settings(max_examples=15, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    p=st.floats(1.1, 3.0),
    alpha=st.floats(-1.0, 2.0),
    exponent=st.floats(1.5, 4.0),  # gamma_min
    s=st.floats(1.0, 10.0),
)
def test_ratio_tends_to_the_closed_form_asymptote(n, p, alpha, exponent, s):
    """As eps -> 0 the tip bump's ratio over ``eps**kappa B(c, s+1)**(1/s) /
    (eps B(c, p+1)**(1/p) + c**(-1/p))``, ``c = alpha + gamma``, tends to 1: near
    the tip ``|x| = t`` and the cross-section is ``t**(gamma-1)``.  The
    transverse gradients and ``rho - 1`` leave a gap of order
    ``eps**(gamma_min - 1)`` per transverse axis."""
    gamma = 1 + (n - 1) * exponent
    query = EmbeddingQuery(n, p, alpha, gamma)
    assume(not query.validity())
    c = alpha + gamma
    kappa = c / s - c / p + 1
    rep = run_probe(query, s, epsilons=[1e-5, 1e-7, 1e-9])
    gaps = []
    for eps, ratio in rep.ratios:
        denominator = eps * beta_fn(c, p + 1) ** (1 / p) + c ** (-1 / p)
        limit = eps**kappa * beta_fn(c, s + 1) ** (1 / s) / denominator
        gaps.append(abs(ratio / limit - 1))
    assert gaps[-1] <= 2 * (n - 1) * 1e-9 ** (exponent - 1) + 1e-12
    assert gaps[-1] <= gaps[0] + 1e-12


@pytest.mark.parametrize(
    "query, s, family, count",
    [
        (EmbeddingQuery(2, 2, 0, 3), 7.0, {}, 9),
        (EmbeddingQuery(2, Fraction(3, 2), 1, 4), 5.0, {}, 9),
        (EmbeddingQuery(3, 2, Fraction(1, 2), Fraction(9, 2)), 4.0, {}, 9),
        (EmbeddingQuery(3, Fraction(5, 2), 0, 4), 6.0, {}, 9),
        # the spike's log-mapped piece spans up to 4.7 decades at eps = 1e-5,
        # where its integrands grow like t**2 across it
        (EmbeddingQuery(2, 2, 0, 3), 5.0, {"family_kind": "power_spike", "beta": 0.45}, 9),
        # at beta = 20 its L_s integrand falls like t**-97 above eps, 223
        # e-folds per decade; the L_s power overflows from eps = 10**-3.5 on
        (EmbeddingQuery(2, 2, 0, 3), 5.0, {"family_kind": "power_spike", "beta": 20}, 5),
    ],
    ids=["readme", "p1.5", "n3", "n3-p2.5", "spike", "spike-beta20"],
)
def test_sixteen_nodes_agree_with_thirty_two(query, s, family, count, monkeypatch):
    ratios = [r for _, r in run_probe(query, s, **family).ratios]
    # the rules are cached per process: drop the 16-node ones before and the
    # 32-node ones after
    monkeypatch.setattr(geometry, "NODES", 32)
    geometry.gauss_jacobi.cache_clear()
    try:
        doubled = [r for _, r in run_probe(query, s, **family).ratios]
    finally:
        geometry.gauss_jacobi.cache_clear()
    assert len(ratios) == len(doubled) == count
    assert ratios == pytest.approx(doubled, rel=1e-12)


@pytest.mark.parametrize(
    "section",
    [
        "[probe]\nn = 2\np = 2\nalpha = 0\ngamma = 3\ns = 7\n",  # the README probe
        "[probe]\nn = 3\np = 2\nalpha = 0.5\ngamma = 4.5\ns = 4\n",
        "[ap-check]\nn = 2\np = 2\nalpha = 1\n",
        "[ap-check]\nn = 3\np = 2\nalpha = -2\n",
    ],
    ids=["readme", "n3", "ap-n2", "ap-n3"],
)
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, section):
    cfg = tmp_path / "run.ini"
    cfg.write_text(section)
    command = section[1 : section.index("]")]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        code = "import sys; from cusplab.cli import main; sys.exit(main(sys.argv[1:]))"
        args = [command, "--config", str(cfg), "--out", str(out)]
        subprocess.run([sys.executable, "-c", code, *args], env=env, check=True)
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert "report.json" in outputs[0]
