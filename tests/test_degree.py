"""Splitting certificates: assembly, margins, transversality, boundary exclusion."""

import json
from fractions import Fraction

import numpy as np
import pytest

from splitcert.degree import (
    MelnikovCertificate,
    SplittingProblem,
    assemble_lemma_data,
    verify_boundary_exclusion,
    verify_practical,
    verify_transversal,
)
from splitcert.distance import DistanceOracle
from splitcert.intervals import Interval, IntervalBox, IntervalError
from splitcert.lerman import LUConfig
from splitcert.matrices import IntervalMatrix, ivec_norm_ub
from splitcert.polys import PolyMap

# Published enclosures of the worked example (same transcription as the
# linalg golden tests).
A22_ROWS = [
    [Interval(5.878219435, 5.878219454), Interval(-13.12140618, -13.12140616)],
    [Interval(4.972558758, 4.97255877), Interval(-2.358981737, -2.358981727)],
]
DELTA2_ROWS = [
    [Interval(-1.299703331, 1.286153144), Interval(-0.9977804236, 0.9891960037)],
    [Interval(-0.7568318161, 0.7534173913), Interval(-0.5842185843, 0.5818916067)],
]
YEPS = IntervalBox([-1.030549066e-05, -9.608989689e-06],
                   [1.030549066e-05, 9.608989695e-06])


def poly_distance(pm: PolyMap, k1: int, k2: int) -> DistanceOracle:
    def jet(eps: Interval, xbox: IntervalBox):
        box = IntervalBox(np.concatenate([[eps.lo], xbox.lo]),
                          np.concatenate([[eps.hi], xbox.hi]))
        return pm.jet(box)

    return DistanceOracle(jet=jet, k1=k1, k2=k2)


# y(eps, x) = (x1, eps x2)
Y_SIMPLE = poly_distance(PolyMap(3, [[(1.0, (0, 1, 0))], [(1.0, (1, 0, 1))]]), 1, 1)


def test_assemble_simple_closed_form():
    prob = SplittingProblem(k1=1, k2=1, p=[0.0, 0.0], R=0.5, eps_max=1.0, oracle=Y_SIMPLE)
    cert = assemble_lemma_data(prob)
    assert cert.A11.contains_matrix([[1.0]])
    assert cert.A11.max_width() <= 1e-12
    assert cert.A22.contains_matrix([[1.0]])
    assert cert.Delta1.contains_matrix([[0.0, 0.0]])
    assert cert.Delta1.max_width() <= 1e-12
    assert cert.Delta2.contains_matrix([[0.0, 0.0]])
    assert cert.eps_deriv_bound_1 <= 1e-12
    assert cert.eps_deriv_bound_2 <= 1e-12
    done = verify_practical(cert)
    assert done.verified
    assert abs(done.margin1 - 0.5) <= 1e-9
    assert abs(done.margin2 - 0.5) <= 1e-9


def test_assemble_eps_linear_k1_zero():
    # y = eps * (A x + c), k1 = 0: A22 = A, Delta2 ~ 0, bound2 = ||c|| at p=0
    a = [[2.0, 1.0], [0.5, 3.0]]
    c = [0.25, -0.5]
    pm = PolyMap(3, [
        [(a[0][0], (1, 1, 0)), (a[0][1], (1, 0, 1)), (c[0], (1, 0, 0))],
        [(a[1][0], (1, 1, 0)), (a[1][1], (1, 0, 1)), (c[1], (1, 0, 0))],
    ])
    oracle = poly_distance(pm, 0, 2)
    prob = SplittingProblem(k1=0, k2=2, p=[0.0, 0.0], R=1.0, eps_max=0.1, oracle=oracle)
    cert = assemble_lemma_data(prob)
    assert cert.A11 is None and cert.Delta1 is None
    assert cert.A22.contains_matrix(a)
    assert cert.Delta2.contains_matrix([[0.0, 0.0], [0.0, 0.0]])
    assert cert.Delta2.max_width() <= 1e-10
    nc = float(np.hypot(*c))
    assert cert.eps_deriv_bound_2 >= nc - 1e-12
    assert cert.eps_deriv_bound_2 <= nc + 1e-9


def test_assemble_requires_zero_at_p():
    pm = PolyMap(2, [[(1.0, (0, 1)), (0.5, (0, 0))]])  # y = x + 0.5
    oracle = poly_distance(pm, 1, 0)
    prob = SplittingProblem(k1=1, k2=0, p=[0.0], R=0.1, eps_max=0.1, oracle=oracle)
    with pytest.raises(IntervalError):
        assemble_lemma_data(prob)


def published_certificate() -> MelnikovCertificate:
    return MelnikovCertificate(
        k1=0, k2=2, p=np.zeros(2), R=1e-5, eps_max=1e-7,
        A22=IntervalMatrix.from_rows(A22_ROWS),
        Delta2=IntervalMatrix.from_rows(DELTA2_ROWS),
        eps_deriv_bound_2=ivec_norm_ub(YEPS),
    )


def test_margin_golden_published_inputs():
    cert = verify_practical(published_certificate())
    assert cert.verified
    assert 1.3810e-7 <= cert.margin2 <= 1.3812e-7
    assert cert.margin2 > 1.38e-7  # the published strict bound


def test_margin_identity_toy():
    cert = MelnikovCertificate(
        k1=0, k2=2, p=np.zeros(2), R=0.25, eps_max=1.0,
        A22=IntervalMatrix.identity(2),
        Delta2=IntervalMatrix.zeros(2, 2),
        eps_deriv_bound_2=0.0,
    )
    out = verify_practical(cert)
    assert out.verified and abs(out.margin2 - 0.25) <= 1e-12


def test_margin_fails_when_delta_dominates():
    cert = MelnikovCertificate(
        k1=0, k2=1, p=np.zeros(1), R=1.0, eps_max=1.0,
        A22=IntervalMatrix.from_rows([[Interval(1.0, 1.0)]]),
        Delta2=IntervalMatrix.from_rows([[Interval(-1.5, 1.5)]]),
        eps_deriv_bound_2=0.0,
    )
    assert verify_practical(cert).verdict == "failed"


def test_margin_is_certified_lower_bound():
    # exact rational re-evaluation is never below the reported margin
    rng = np.random.RandomState(42)
    for _ in range(20):
        m_a = float(rng.uniform(0.5, 5.0))
        nd = float(rng.uniform(0.0, 5.0))
        b = float(rng.uniform(0, 1e-3))
        r = float(rng.uniform(1e-6, 1.0))
        cert = MelnikovCertificate(
            k1=0, k2=1, p=np.zeros(1), R=r, eps_max=1.0,
            A22=IntervalMatrix.from_rows([[Interval(m_a, m_a)]]),
            Delta2=IntervalMatrix.from_rows([[Interval(-nd, nd)]]),
            eps_deriv_bound_2=b,
        )
        out = verify_practical(cert)
        exact = Fraction(out.m_A22) * Fraction(r) - Fraction(b) - Fraction(out.norm_Delta2) * Fraction(r)
        assert Fraction(out.margin2) <= exact


def test_monotone_widening_never_rescues():
    rng = np.random.RandomState(7)
    flips = 0
    for _ in range(200):
        m_a = float(rng.uniform(0.1, 3.0))
        nd = float(rng.uniform(0.0, 3.0))
        b = float(rng.uniform(0.0, 0.5))
        r = float(rng.uniform(0.01, 1.0))
        base = MelnikovCertificate(
            k1=0, k2=1, p=np.zeros(1), R=r, eps_max=1.0,
            A22=IntervalMatrix.from_rows([[Interval(m_a - 0.01, m_a + 0.01)]]),
            Delta2=IntervalMatrix.from_rows([[Interval(-nd, nd)]]),
            eps_deriv_bound_2=b,
        )
        out = verify_practical(base)
        wid = MelnikovCertificate(
            k1=0, k2=1, p=np.zeros(1), R=r, eps_max=1.0,
            A22=IntervalMatrix.from_rows([[Interval(m_a - 0.01 - rng.uniform(0, 1),
                                                    m_a + 0.01 + rng.uniform(0, 1))]]),
            Delta2=IntervalMatrix.from_rows([[Interval(-nd - rng.uniform(0, 1),
                                                       nd + rng.uniform(0, 1))]]),
            eps_deriv_bound_2=b + rng.uniform(0, 1),
        )
        wout = verify_practical(wid)
        if out.verdict == "failed" and wout.verdict == "verified":
            flips += 1
    assert flips == 0


def test_transversal_flag_and_precondition():
    cert = verify_practical(published_certificate())
    done = verify_transversal(cert)
    assert done.transversal is True
    # block inequality of the uniqueness lemma holds strictly
    assert done.m_A22 > done.norm_Delta2
    assert "jacobian_sigma_min_samples" in done.diagnostics
    bad = MelnikovCertificate(k1=0, k2=1, p=np.zeros(1), R=1.0, eps_max=1.0)
    with pytest.raises(IntervalError):
        verify_transversal(bad)


def test_certificate_json_roundtrip():
    cert = verify_transversal(verify_practical(published_certificate()))
    doc = cert.to_jsonable()
    text = json.dumps(doc)
    again = json.loads(text)
    assert again["verdict"] == "verified"
    assert again["blocks"]["A22"][0][0][0] == 5.878219435
    assert again["margins"][0] == cert.margin2
    assert again["transversal"] is True


def test_boundary_exclusion_simple_depth0():
    cert = verify_boundary_exclusion(Y_SIMPLE, IntervalBox([-1.0, -1.0], [1.0, 1.0]),
                                     eps_max=1.0, boundary_depth=0)
    assert cert.verified
    assert cert.cells_checked == 4


def test_boundary_exclusion_double_zero_rejected():
    # reference map (x1^2 - 1/4, x2) has two zeros in U
    pm = PolyMap(3, [[(1.0, (0, 2, 0)), (-0.25, (0, 0, 0))], [(1.0, (1, 0, 1))]])
    oracle = poly_distance(pm, 1, 1)
    cert = verify_boundary_exclusion(oracle, IntervalBox([-1.0, -1.0], [1.0, 1.0]), 1.0)
    assert not cert.verified
    assert "reference" in cert.reason


def test_boundary_exclusion_coupled_system():
    # y = (x1 + 0.01 x2^2, eps (x2 + 0.01 x1^2)) on [-0.5, 0.5]^2
    pm = PolyMap(3, [
        [(1.0, (0, 1, 0)), (0.01, (0, 0, 2))],
        [(1.0, (1, 0, 1)), (0.01, (1, 2, 0))],
    ])
    oracle = poly_distance(pm, 1, 1)
    u = IntervalBox([-0.5, -0.5], [0.5, 0.5])
    # brute-force boundary sampling oracle: no zero of (y1, dy2/deps) on dU
    for t in np.linspace(-0.5, 0.5, 41):
        for a, b in [(t, -0.5), (t, 0.5), (-0.5, t), (0.5, t)]:
            if abs(a) == 0.5 or abs(b) == 0.5:
                v1 = a + 0.01 * b * b
                v2 = b + 0.01 * a * a
                assert max(abs(v1), abs(v2)) > 0.2
    cert = verify_boundary_exclusion(oracle, u, eps_max=1.0, boundary_depth=3)
    assert cert.verified


def test_threads_other_than_one_rejected():
    # certificate cells run serially; threads survives only as the value 1
    u = IntervalBox([-1.0, -1.0], [1.0, 1.0])
    assert verify_boundary_exclusion(Y_SIMPLE, u, 1.0, threads=1).verified
    with pytest.raises(IntervalError):
        verify_boundary_exclusion(Y_SIMPLE, u, 1.0, threads=2)
    prob = SplittingProblem(k1=1, k2=1, p=[0.0, 0.0], R=0.5, eps_max=1.0, oracle=Y_SIMPLE)
    assemble_lemma_data(prob, threads=1)
    with pytest.raises(IntervalError):
        assemble_lemma_data(prob, threads=2)
    with pytest.raises(IntervalError):
        LUConfig(threads=2)


def test_verify_practical_cannot_enlarge_domain():
    cert = published_certificate()
    verify_practical(cert, R=0.5e-5)  # shrinking is conservative, allowed
    with pytest.raises(IntervalError):
        verify_practical(published_certificate(), R=2e-5)
    with pytest.raises(IntervalError):
        verify_practical(published_certificate(), eps_max=1e-6)
