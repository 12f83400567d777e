"""Scaling a family by t > 0 changes no comparison by order.

The H1/H2 decisions, the sampled probe's violations, set membership and
extremality certificates compare quantities that all scale with the family,
so each answer is the same for every t in [1e-12, 1e12], and bit for bit the
same when t is a power of two (every float scales exactly then).

Finiteness verdicts are left out: their tolerance, ``n tol max(1,
rho_max)``, is the one the benchmark's reference recomputes and checks
(``perfbench/reference.py:212``), so it keeps its absolute floor.
"""

import math

import numpy as np
import pytest

from hourglass.alternative import (
    CertificationError,
    certify_extremal,
    hourglass_h1_iru,
    hourglass_h2_iru,
    hourglass_probe_explicit,
)
from hourglass.generate import random_iru
from hourglass.sets import (
    ExplicitSet,
    OrderedChain,
    Scale,
    Sum,
    contains_matrix,
    scale_set,
    set_equal,
)
from hourglass.spectral import spectral_simplex

POWERS = [math.ldexp(1.0, j) for j in (-40, -20, 20, 40)]  # ~1e-12 .. ~1e12
DECIMALS = [1e-12, 1e-9, 1e-6, 1e6, 1e12]
SCALES = pytest.mark.parametrize("t", POWERS + DECIMALS)

# Two members whose images cross: the probe refutes the pair at every
# magnitude (42 violations in 100 trials at seed 1).
PAIR = np.array([[[0.56, 0.36], [1.32, 1.26]], [[1.02, 1.01], [1.54, 1.21]]])


def _draw(seed):
    """A positive IRU family, a center choice and a positive u."""
    rng = np.random.default_rng(seed)
    s = random_iru(rng, 4, 4, 3, 0.1, 2)
    choice = tuple(int(rng.integers(len(rs))) for rs in s.row_sets)
    return s, choice, rng.uniform(0.1, 1.0, size=4)


@SCALES
@pytest.mark.parametrize("decide", [hourglass_h1_iru, hourglass_h2_iru])
def test_dichotomy_decisions(t, decide):
    witnesses = 0
    for seed in range(100):
        s, choice, u = _draw(seed)
        base = decide(s, choice, u)
        out = decide(scale_set(t, s), choice, u)
        assert (out.verdict, out.witness_position, out.ties) \
            == (base.verdict, base.witness_position, base.ties)
        if t in POWERS:
            assert out.slack.tobytes() == (t * base.slack).tobytes()
        witnesses += base.verdict == "witness"
    assert witnesses > 90  # the comparisons are not all one-sided


def _violations(report):
    return [(v.trial, v.direction, v.center_index, v.u.tobytes())
            for v in report.violations]


@SCALES
def test_probe_violations(t):
    rng = np.random.default_rng(8)
    for s in (ExplicitSet(PAIR, dedup=False),
              ExplicitSet(rng.uniform(0.05, 2.0, size=(6, 3, 3)))):
        want = _violations(hourglass_probe_explicit(s, 100, 1))
        assert want
        assert _violations(hourglass_probe_explicit(scale_set(t, s), 100, 1)) \
            == want


def test_probe_refutes_the_pair_far_below_one():
    # The pair's entries written at 1e-12, as a descriptor would hold them.
    tiny = ExplicitSet(np.array([[[5.6e-13, 3.6e-13], [1.32e-12, 1.26e-12]],
                                 [[1.02e-12, 1.01e-12], [1.54e-12, 1.21e-12]]]))
    report = hourglass_probe_explicit(tiny, 100, 1)
    assert not report.passed and len(report.violations) == 42
    want = hourglass_probe_explicit(ExplicitSet(PAIR), 100, 1)
    assert [v[:3] for v in _violations(report)] \
        == [v[:3] for v in _violations(want)]


@pytest.mark.parametrize("t", POWERS + DECIMALS + [1e-13])
def test_membership(t):
    a, b = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[4.0, 3.0], [2.0, 1.0]])
    s = scale_set(t, ExplicitSet([a]))
    assert not set_equal(s, scale_set(t, ExplicitSet([b])))
    assert contains_matrix(s, t * b) is None
    assert set_equal(s, ExplicitSet([t * a]))
    assert contains_matrix(s, t * a) == 0
    # The tolerance is 1e-12 times the largest entry, 4: a shift of 1e-12
    # is within it and one of 1e-11 is not, at every magnitude.
    assert contains_matrix(s, t * (a + 1e-12)) == 0
    assert contains_matrix(s, t * (a + 1e-11)) is None
    twins = scale_set(t, ExplicitSet([[[0.1 + 0.2]], [[0.3]]]))
    assert set_equal(twins, scale_set(t, ExplicitSet([[[0.3]]])))


def _signs(cert):
    """Margin signs, 0 inside the certificate's tolerance band."""
    m = cert.margins
    return np.sign(np.where(np.abs(m) <= cert.cert_tol, 0.0, m))


_IRU = random_iru(np.random.default_rng(5), 8, 8, 4, 0.1, 2)
_LEAF = random_iru(np.random.default_rng(6), 3, 3, 3, 0.1, 2)
_CHAIN = OrderedChain(np.cumsum(np.random.default_rng(7).uniform(
    0.1, 1.0, size=(3, 3, 3)), axis=0))


@SCALES
@pytest.mark.parametrize("direction", ["min", "max"])
@pytest.mark.parametrize("family, scaled, other", [
    (_IRU, scale_set, _IRU.assemble([0] * 8)),
    # A middle chain member is extremal in neither direction.
    (Sum((_LEAF, _CHAIN)), Scale, _LEAF.assemble([0] * 3) + _CHAIN.matrices[1]),
], ids=["iru", "tree"])
def test_certificates(t, direction, family, scaled, other):
    member = spectral_simplex(family, direction).certificate.extremal_matrix
    base = certify_extremal(family, member, direction)
    cert = certify_extremal(scaled(t, family), t * member, direction)
    assert cert.cert_tol == 1e-10 * cert.rho
    assert cert.worst_margin >= -cert.cert_tol
    if t in POWERS:
        assert cert.rho == t * base.rho
        assert cert.margins.tobytes() == (t * base.margins).tobytes()
    else:
        assert cert.rho == pytest.approx(t * base.rho, rel=1e-14, abs=0)
    np.testing.assert_array_equal(_signs(cert), _signs(base))
    # A member that is not extremal fails at the same row or component.
    with pytest.raises(CertificationError) as want:
        certify_extremal(family, other, direction)
    with pytest.raises(CertificationError) as got:
        certify_extremal(scaled(t, family), t * other, direction)
    assert got.value.violator == want.value.violator is not None
