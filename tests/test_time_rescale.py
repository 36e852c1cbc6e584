"""Answers that cannot depend on the unit of time.

`time_rescale(ring, delta)` multiplies every a_j, b_j and eigenvalue by
delta. The Hopf identity, the phase shifts, the sector labels and the
genericity conditions come from the ring topology alone, so every answer
must be the unscaled one: each tolerance scales with what it compares.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ringhopf.cli import EXIT_FOUND, main
from ringhopf.genericity import PerturbationBudgetError, detect_multiple, detect_resonance, remove_multiple
from ringhopf.hopf import NotAHopfPointError, detect_imaginary_pair, hopf_conditions_3, sign_constraints
from ringhopf.model import AdmissibleOdeFamily, RingParams, save, time_rescale
from ringhopf.phases import phase_shifts
from ringhopf.simulate import find_limit_cycle
from ringhopf.spectra import CouplingUnderflowError, Spectrum, eigenvalues

NON_HOPF_RING = RingParams(3, (1.0, -2.0, -3.0), (1.0, 1.0, -7.0))
# a Hopf pair at +-1e-3 i beside a root at -1e6: at n = 3 so low a pair needs a_2 + a_3 to cancel
CANCELLING_HOPF_RING = RingParams(3, (-1e6, -2e-3, 0.001999999995), (1.0, 1.0, -4.999999873689376))
# two rings whose roots span nine decades, so no one scale fits every root: a pair near
# -1e-3 +- i off the axis beside a root near -1e6; and a 4-node ring with a pair on the axis
# at +-1e-3 i beside a root at -1e6, its coupling product c = -A(i omega) set as in
# `construct_hopf_ring` (at n = 3 so low a pair needs a_2 + a_3 to cancel)
DAMPED_BESIDE_1E6 = RingParams(3, (-1e6, -1e-3, -1e-3), (1.0, 1.0, -1e6))
_A = (-1e6, -1e-3, -5e-4, -1e-3 / 3)
_C = -oracles.eval_A(_A, 1j * oracles.imag_axis_omegas(_A)[0]).real
AXIS_BESIDE_1E6 = oracles.ring_with_product(4, _A, _C, np.random.default_rng(7))
RINGS = {
    "reference": oracles.REFERENCE_RING,
    "second": oracles.SECOND_RING,
    "non_hopf": NON_HOPF_RING,
    "hopf_5": oracles.construct_hopf_ring(5, np.random.default_rng(5))[0],
    "grid_double": oracles.construct_grid_double_ring(6, np.random.default_rng(6))[0],
    "damped_beside_1e6": DAMPED_BESIDE_1E6,
    "axis_beside_1e6": AXIS_BESIDE_1E6,
}
DELTAS = (2.0**-40, 1e-11, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 2.0**40)


def _returns_itself(ring: RingParams) -> bool:
    try:
        return remove_multiple(ring, 1e-3).perturbed is ring
    except PerturbationBudgetError:
        return False


def answers(ring: RingParams, delta: float, omega: float | None) -> dict:
    """What the library says about `ring`, frequencies divided by delta; the phase profile is
    taken at delta * omega, omega being the unscaled ring's frequency."""
    spectrum = eigenvalues(ring)
    out = {
        "omega": None if spectrum.omega is None else spectrum.omega / delta,
        "warnings": detect_imaginary_pair(spectrum).warnings,
        "multiplicities": sorted(c.multiplicity for c in detect_multiple(spectrum)),
        "resonances": [(f.k, f.omega / delta) for f in detect_resonance(spectrum, 3)],
        "returns_itself": _returns_itself(ring),
    }
    if ring.n == 3:
        report = hopf_conditions_3(ring)
        out["hopf"] = (report.is_hopf_point, report.product_identity)
    if omega is not None:
        profile = phase_shifts(ring, delta * omega)
        out["theta"] = profile.theta
        out["sectors"] = [s.label() for s in profile.ratio_quadrant]
        out["case"] = profile.case_label
    return out


def assert_same_answers(got: dict, want: dict, rel: float) -> None:
    assert got.keys() == want.keys()
    for key in ("warnings", "multiplicities", "returns_itself", "hopf", "sectors", "case"):
        assert got.get(key) == want.get(key), key
    assert (got["omega"] is None) == (want["omega"] is None)
    if want["omega"] is not None:
        assert got["omega"] == pytest.approx(want["omega"], rel=rel, abs=0)
    assert [k for k, _ in got["resonances"]] == [k for k, _ in want["resonances"]]
    for (_, w), (_, v) in zip(got["resonances"], want["resonances"]):
        assert w == pytest.approx(v, rel=rel, abs=0)
    for t, s in zip(got.get("theta", ()), want.get("theta", ())):
        d = abs(t - s) % (2 * math.pi)
        assert min(d, 2 * math.pi - d) <= rel


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("name", RINGS)
def test_answers_do_not_depend_on_the_time_unit(name, delta):
    ring = RINGS[name]
    omega = eigenvalues(ring).omega
    want = answers(ring, 1.0, omega)
    got = answers(time_rescale(ring, delta), delta, omega)
    assert_same_answers(got, want, rel=1e-12)


def test_the_test_rings_cover_each_answer():
    want = {name: answers(ring, 1.0, eigenvalues(ring).omega) for name, ring in RINGS.items()}
    assert want["reference"]["omega"] == pytest.approx(1.0)
    assert want["reference"]["sectors"] == ["2", "1", "3"] and want["reference"]["case"] == "B"
    assert want["second"]["sectors"][0] == "pi/2" and want["second"]["case"] == "C"
    assert want["non_hopf"]["hopf"] == (False, False) and want["non_hopf"]["omega"] is None
    assert want["hopf_5"]["omega"] is not None
    assert want["grid_double"]["multiplicities"] == [2]
    assert not want["grid_double"]["returns_itself"] and want["reference"]["returns_itself"]
    assert want["damped_beside_1e6"]["omega"] is None
    assert want["axis_beside_1e6"]["omega"] == pytest.approx(1e-3, rel=1e-6)
    assert want["axis_beside_1e6"]["warnings"] == ()


@settings(max_examples=40)
@given(
    n=st.integers(3, 8),
    hopf=st.booleans(),
    log2_delta=st.integers(-40, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_answers_do_not_depend_on_a_power_of_two_time_unit(n, hopf, log2_delta, seed):
    rng = np.random.default_rng(seed)
    if hopf:
        ring = oracles.construct_hopf_ring(n, rng)[0]
    else:
        ring = RingParams(n, rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n))
    delta = 2.0**log2_delta
    omega = eigenvalues(ring).omega
    want = answers(ring, 1.0, omega)
    got = answers(time_rescale(ring, delta), delta, omega)
    assert_same_answers(got, want, rel=1e-12)
    if hopf:
        assert want["omega"] is not None


@pytest.mark.parametrize("delta", [1e-9, 1e9])
def test_analyze_finds_the_reference_pair_in_any_time_unit(capsys, tmp_path, delta):
    path = tmp_path / "ring.json"
    save(time_rescale(oracles.REFERENCE_RING, delta), path)
    assert main(["analyze", str(path)]) == EXIT_FOUND
    assert '"case_label": "B"' in capsys.readouterr().out


def test_limit_cycle_of_the_reference_ring_in_other_time_units():
    # with time in units of 1/delta the state scales by sqrt(delta) (the cubic is not rescaled),
    # so the cycle at delta * lam is the unscaled one, its period divided by delta
    family = AdmissibleOdeFamily(oracles.REFERENCE_RING)
    want = find_limit_cycle(family, lam=0.1)
    delta = 1e9
    got = find_limit_cycle(AdmissibleOdeFamily(time_rescale(oracles.REFERENCE_RING, delta)), lam=0.1 * delta)
    assert got.period * delta == pytest.approx(want.period, rel=1e-6)
    assert got.phase_diffs == pytest.approx(want.phase_diffs, abs=1e-6)


def test_hopf_conditions_at_every_power_of_two_time_unit():
    # past 2^340 the identity's size overflows and below 2^-359 its sides underflow, where
    # |lhs - rhs| <= 1e-9 * inf, or 0 <= 0, held for a ring off its Hopf point and -inf - -inf
    # failed for one on it
    keys = ("positivity", "product_identity", "is_hopf_point", "coupling_product_negative")
    for ring in (oracles.REFERENCE_RING, NON_HOPF_RING):
        report = hopf_conditions_3(ring)
        want = [getattr(report, k) for k in keys]
        for e in range(-360, 346):
            scaled = hopf_conditions_3(time_rescale(ring, 2.0**e))
            assert [getattr(scaled, k) for k in keys] == want, e
            assert scaled.omega == (report.omega and math.ldexp(report.omega, e)), e
    # a product identity past the float range is no Hopf point, so no sign class is read off it
    with pytest.raises(NotAHopfPointError):
        sign_constraints(RingParams(3, (-1e103, -2e103, -3e103), (1.0, 1.0, 1.0)))


def test_not_a_hopf_point_names_the_identity_tolerance_at_the_ring_scale():
    # PRODUCT_REL_TOL times the componentwise size (1 + 2)(1 + 3)(2 + 3) = 60, times delta^3
    ring = time_rescale(NON_HOPF_RING, 1e-6)
    with pytest.raises(NotAHopfPointError, match=r"\|lhs - rhs\| = 3\.000e-18 \(tolerance 6\.000e-26\)"):
        sign_constraints(ring)


def test_not_a_hopf_point_quotes_the_scaled_ring_where_the_identity_overflows():
    # (3e103)(4e103)(5e103) overflows, so in the ring's own units the gap and its tolerance
    # both read inf; the verdict comes from the ring scaled by 2^-344, whose numbers the
    # message quotes
    ring = RingParams(3, (-1e103, -2e103, -3e103), (1, 1, 1))
    with pytest.raises(
        NotAHopfPointError,
        match=r"^sign constraints require an n=3 Hopf point with negative trace: on the ring scaled by "
        r"2\^-344, omega\^2 = 0\.856556 \(needs > 0\), \|lhs - rhs\| = 1\.304e\+00 \(tolerance 1\.304e-09\), "
        r"trace -6e\+103$",
    ):
        sign_constraints(ring)


@pytest.mark.parametrize("delta", [1.0, 1e-3, 1024.0, 1e6])
def test_a_cancelling_pair_sum_reads_as_a_hopf_point_in_every_time_unit(delta):
    # a_2 + a_3 = -5e-12 keeps about 8 digits, so lhs and rhs differ by 2e-8 of |lhs|: more
    # than 1e-9 max(|lhs|, |rhs|), which flipped the answer with the time unit, but far less
    # than 1e-9 of the componentwise size (|a_1| + |a_2|)(|a_1| + |a_3|)(|a_2| + |a_3|)
    ring = time_rescale(CANCELLING_HOPF_RING, delta)
    assert eigenvalues(ring).omega == pytest.approx(1e-3 * delta, rel=1e-6)
    report = hopf_conditions_3(ring)
    assert report.is_hopf_point and report.product_identity
    assert report.product_size == pytest.approx(4e9 * delta**3, rel=1e-6)


def test_each_root_is_judged_on_the_axis_at_its_own_size():
    # a band set by the largest root (1e-8 * 1e6 = 1e-2) took the damped pair for an axis pair
    # and lost the true one at 1e-3 i
    s = eigenvalues(DAMPED_BESIDE_1E6)
    assert max(map(abs, s.eigenvalues)) > 1e6 and s.omega is None
    assert detect_imaginary_pair(s).omega is None
    s = eigenvalues(AXIS_BESIDE_1E6)
    assert max(map(abs, s.eigenvalues)) >= 1e6
    assert detect_imaginary_pair(s).omega == pytest.approx(1e-3, rel=1e-6)


def test_a_small_root_beside_a_large_one_is_no_zero_eigenvalue():
    # the 0:1 test measures |mu| against the pair frequency, not the spectral radius (1e6)
    def spectrum(small):
        roots = (-1e6, small, 1j, -1j)
        return Spectrum(eigenvalues=roots, residuals=(0.0,) * 4, pair_tolerance=1e-8, tau=-1e6, omega=1.0)

    assert detect_imaginary_pair(spectrum(-1e-3)).warnings == ()
    assert detect_resonance(spectrum(-1e-3), 3) == []
    assert detect_imaginary_pair(spectrum(0.0)).warnings == (
        "0:1 resonance: zero eigenvalue on the axis alongside a pair",
    )
    assert [(f.k, f.omega) for f in detect_resonance(spectrum(0.0), 3)] == [(0, 1.0)]


@pytest.mark.parametrize("delta", [1e-9, 1.0, 1e9])
def test_k_to_1_resonances_compare_frequencies_at_their_own_size(delta):
    def spectrum(w, w2):
        roots = (-delta, 1j * w, -1j * w, 1j * w2, -1j * w2)
        return Spectrum(eigenvalues=roots, residuals=(0.0,) * 5, pair_tolerance=1e-8, tau=-delta, omega=w)

    # 2:1 to 5e-10 relative is a resonance; 5:2 is none, however small the frequencies
    resonant = detect_resonance(spectrum(delta, 2 * delta * (1 + 5e-10)), 3)
    assert [(f.k, f.omega / delta) for f in resonant] == [(2, 1.0)]
    assert detect_resonance(spectrum(delta, 2.5 * delta), 3) == []


def test_a_time_unit_that_underflows_the_coupling_product_is_a_named_error():
    # at 2^-130 the Hopf pair scales with the ring; at 2^-140 c = b_1 ... b_8 underflows to 0.0,
    # which returned the a_j as the spectrum, with omega None
    ring = oracles.construct_hopf_ring(8, np.random.default_rng(3))[0]
    omega = eigenvalues(ring).omega
    assert eigenvalues(time_rescale(ring, 2.0**-130)).omega == pytest.approx(omega * 2.0**-130, rel=1e-12)
    assert math.prod(ring.b) != 0.0 == time_rescale(ring, 2.0**-140).coupling_product()
    with pytest.raises(CouplingUnderflowError, match="binary exponents of the b_j sum to -1108$"):
        eigenvalues(time_rescale(ring, 2.0**-140))
