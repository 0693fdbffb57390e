import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deeplinear import (
    AssumptionError,
    DimChain,
    Instance,
    RegParams,
    check_assumptions,
    compute_ledger,
    degenerate_sigma,
    enumerate_sigma_profiles,
    excluded_lambda,
    optimal_profile,
    phi,
    phi_prime,
    profile_from_choices,
    zero_profile,
)
from deeplinear.cli import dump_json, main
from deeplinear.constants import EbConstantsLedger, PROFILE_KEYS, _profile_constants, _profile_summaries
from conftest import random_instance


def _instance(values, depth, lam_each, hidden=None):
    d = len(values)
    hidden = hidden or d
    dims = DimChain((d,) + (hidden,) * (depth - 1) + (d,))
    reg = RegParams.uniform(lam_each, depth)
    return Instance(dims, reg, np.diag(values)), dims, reg


def test_excluded_value_two_layer():
    assert excluded_lambda(2.0, 2) == 4.0
    assert excluded_lambda(3.0, 2) == 9.0


def test_excluded_value_three_layer_exact_fraction():
    # (3^(-3/4) + 3^(1/4))^4 = 256/27, so the excluded weight for y = 2 is 27/16
    assert excluded_lambda(2.0, 3) == pytest.approx(27.0 / 16.0, rel=1e-14)


def test_assumptions_pass_and_fail():
    inst, dims, reg = _instance([2.0], 2, 1.0)
    report = check_assumptions(inst)
    assert report.ok
    assert report.margins[0] == pytest.approx(abs(1.0 - 4.0) / 4.0)

    inst, dims, reg = _instance([2.0], 2, 2.0)  # lam = 4 = y^2
    report = check_assumptions(inst)
    assert not report.assumption2
    assert report.violated_indices == [0]


def test_assumptions_three_layer_excluded():
    lam = 27.0 / 16.0
    inst, dims, reg = _instance([2.0], 3, lam ** (1.0 / 3.0))
    report = check_assumptions(inst)
    assert not report.assumption2

    inst, dims, reg = _instance([2.0], 3, 1.0)
    assert check_assumptions(inst).ok


def test_phi_two_layer_closed_form():
    # with lam = 1 and L = 2, phi(x) = x^2 + 1 and phi'(x) = 2x
    for x in (0.3, 1.0, 1.7):
        assert phi(x, 1.0, 2) == pytest.approx(x * x + 1.0, rel=1e-14)
        assert phi_prime(x, 1.0, 2) == pytest.approx(2.0 * x, rel=1e-14)
        assert phi_prime(x, 1.0, 2) > 0
    assert phi(1.0, 1.0, 2) == pytest.approx(2.0)  # consistent with root 1 for y = 2


def test_phi_prime_vanishes_at_tangential_value():
    lam = excluded_lambda(2.0, 3)
    x_star = degenerate_sigma(lam, 3)
    assert x_star == pytest.approx((lam / 3.0) ** 0.25, rel=1e-14)
    assert abs(phi_prime(x_star, lam, 3)) <= 1e-9
    # and phi maps it back onto the excluded singular value
    assert phi(x_star, lam, 3) == pytest.approx(2.0, rel=1e-12)


def test_phi_domain_error():
    with pytest.raises(ValueError):
        phi(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        phi_prime(-1.0, 1.0, 3)


def test_zero_profile_constants_two_layer():
    inst, dims, reg = _instance([2.0], 2, 1.0)
    ledger = compute_ledger(inst, zero_profile(inst))
    assert ledger.eps_zero == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-12)
    assert ledger.kappa_zero == pytest.approx(6.0, rel=1e-12)
    assert math.isnan(ledger.c1)  # per-profile block empty for the zero profile


def test_zero_profile_constants_three_layer():
    inst, dims, reg = _instance([2.0], 3, 1.0)
    ledger = compute_ledger(inst, zero_profile(inst))
    assert ledger.kappa_zero == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-12)
    expected_eps = min((1.0 / 3.0) ** 0.25, 1.0 / (3.0 * 2.0))
    assert ledger.eps_zero == pytest.approx(expected_eps, rel=1e-12)


def test_c1_hand_value():
    # L = 2, sigma_max = 1, lam = 1: c1 = 9 / (4 sqrt(2)) + 1/2
    inst, dims, reg = _instance([2.0], 2, 1.0)
    profile = optimal_profile(inst)
    assert profile.sigma_max == pytest.approx(1.0, abs=1e-12)
    ledger = compute_ledger(inst, profile)
    assert ledger.c1 == pytest.approx(9.0 / (4.0 * math.sqrt(2.0)) + 0.5, rel=1e-12)


def test_global_constants_dominate_per_profile(rng):
    target = rng.standard_normal((4, 3))
    dims = DimChain((3, 5, 4))
    reg = RegParams((0.4, 0.9))
    inst = Instance(dims, reg, target)
    enum = enumerate_sigma_profiles(inst)
    ledgers = [
        compute_ledger(inst, p)
        for p in enum.profiles
    ]
    lam = reg.lambda_prod
    for led in ledgers:
        assert led.kappa1 == pytest.approx(led.kappa * lam / reg.lambda_min, rel=1e-14)
        assert led.eps1 == pytest.approx(
            led.eps / math.sqrt(reg.lambda_max), rel=1e-14
        )
        if not math.isnan(led.kappa_sigma):
            assert led.kappa >= led.kappa_sigma * (1 - 1e-12)
            assert led.eps <= led.eps_sigma * (1 + 1e-12)
        assert led.kappa >= led.kappa_zero * (1 - 1e-12)
        assert led.eps <= led.eps_zero * (1 + 1e-12)


@pytest.mark.parametrize("depth", [2, 3, 4, 6])
def test_aggregates_equal_every_profile_ledger_bit_for_bit(depth, rng):
    # One array pass gives a profile's own constants (its row first) and
    # (kappa, eps) over every profile.  Each row equals a one-row pass, so
    # the aggregates are those of the per-profile ledgers.
    dims, reg, target = random_instance(rng, depth=depth, max_dim=5)
    inst = Instance(dims, reg, target)
    ledgers = [compute_ledger(inst, p) for p in inst.profiles.profiles]
    own = [led for led in ledgers if not math.isnan(led.kappa_sigma)]
    assert len(own) == len(ledgers) - 1  # the zero profile's entries are NaN
    for p, led in zip(inst.profiles.profiles, ledgers):
        if p.is_zero:
            continue
        row = _profile_constants(inst, **_profile_summaries(inst, np.array([p.sigma])))
        for key in PROFILE_KEYS:
            assert np.array_equal(getattr(led, key), row[key][0], equal_nan=True), key
    kappas = [ledgers[0].kappa_zero] + [led.kappa_sigma for led in own]
    epss = [ledgers[0].eps_zero] + [led.eps_sigma for led in own]
    for led in ledgers:
        assert led.kappa == max(kappas)
        assert led.eps == min(epss)


def test_zero_target_ledger_is_the_zero_profile_alone():
    # no non-zero profile: no per-profile pass, (kappa, eps) are the zero
    # profile's own
    inst = Instance(DimChain((3, 4, 2)), RegParams((0.5, 0.6)), np.zeros((2, 3)))
    ledger = compute_ledger(inst, zero_profile(inst))
    assert (ledger.kappa, ledger.eps) == (ledger.kappa_zero, ledger.eps_zero)
    assert all(math.isnan(getattr(ledger, key)) for key in PROFILE_KEYS)


def test_ledger_all_finite_positive_on_generic_instance(rng):
    target = rng.standard_normal((4, 4))
    dims = DimChain((4, 6, 5, 4))
    reg = RegParams((0.5, 0.8, 0.3))
    inst = Instance(dims, reg, target)
    profile = optimal_profile(inst)
    assert not profile.is_zero
    ledger = compute_ledger(inst, profile)
    assert ledger.enumeration_truncated is False
    for name, value in vars(ledger).items():
        if name == "enumeration_truncated":
            continue
        assert math.isfinite(value), name
        if name not in ("r_sigma", "g_max", "p"):
            assert value > 0, name


def test_ledger_reproducible_bit_for_bit(rng, tmp_path):
    target = rng.standard_normal((3, 3))
    dims = DimChain((3, 4, 3))
    reg = RegParams((0.7, 0.2))
    inst = Instance(dims, reg, target)
    profile = optimal_profile(inst)
    a = compute_ledger(inst, profile)
    b = compute_ledger(inst, profile)
    assert dump_json(vars(a), tmp_path / "a.json") == dump_json(vars(b), tmp_path / "b.json")


def test_kappa_grows_toward_excluded_weight():
    # approach the excluded weight from below: the tangential pair of roots
    # merges, min |phi'| shrinks, and the certified constant blows up
    lam_exc = 27.0 / 16.0
    kappas = []
    for rel_gap in (0.2, 0.1, 0.05, 0.02, 0.01):
        lam = lam_exc * (1.0 - rel_gap)
        inst, dims, reg = _instance([2.0], 3, lam ** (1.0 / 3.0))
        profile = optimal_profile(inst)
        ledger = compute_ledger(inst, profile)
        kappas.append(ledger.kappa_sigma)
    assert all(b > a for a, b in zip(kappas, kappas[1:]))


def test_refusal_names_degenerate_quantity():
    inst, dims, reg = _instance([2.0], 2, 2.0)  # lam = y^2
    with pytest.raises(AssumptionError, match="c3"):
        compute_ledger(inst, zero_profile(inst))
    lam = 27.0 / 16.0
    inst, dims, reg = _instance([2.0], 3, lam ** (1.0 / 3.0))
    with pytest.raises(AssumptionError, match="c5"):
        compute_ledger(inst, zero_profile(inst))


def test_refusal_on_narrow_hidden_layer():
    dims = DimChain((2, 1, 2))
    reg = RegParams((1.0, 1.0))
    inst = Instance(dims, reg, np.diag([2.0, 1.0]))
    with pytest.raises(AssumptionError, match="width"):
        compute_ledger(inst, zero_profile(inst))


def test_d_max_uses_whole_chain():
    _, _, reg = _instance([2.0, 1.5], 2, 0.5)
    dims = DimChain((2, 7, 2))
    inst = Instance(dims, reg, np.diag([2.0, 1.5]))
    ledger = compute_ledger(inst, optimal_profile(inst))
    assert ledger.d_max == 7


def test_single_block_full_rank_target_stays_finite():
    # y = c * I: no spectral gap exists, delta_y = inf, but eta5/c4/c5 use the
    # limiting prefactor and stay finite
    inst, dims, reg = _instance([2.0, 2.0], 2, 1.0)
    assert math.isinf(inst.spectrum.delta_y)
    ledger = compute_ledger(inst, optimal_profile(inst))
    assert math.isfinite(ledger.eta5)
    assert math.isfinite(ledger.c4)
    assert math.isfinite(ledger.kappa_sigma)
    assert math.isinf(ledger.delta1)


def test_tiny_roots_of_different_blocks_stay_distinct():
    # Two blocks 2e-7 apart at weight 1e-4 per layer: the small roots of their
    # equations are 5e-14 apart, far below an absolute 1e-12 floor, but
    # 1e-7 apart relative to their size.
    inst, dims, reg = _instance([2.0 * (1.0 + 1e-7), 2.0, 1.0], 3, 1e-4, hidden=4)
    assert inst.spectrum.multiplicities == (1, 1, 1) and inst.assumptions.ok
    ledger = compute_ledger(inst, profile_from_choices(inst, [1, 1, 2]))
    assert (ledger.r_sigma, ledger.p, ledger.g_max) == (3, 3, 1)


@st.composite
def _diagonal_instances(draw):
    """Diagonal targets of exactly repeated values, distinct values at least
    1e-7 * y_1 apart, and weights down to 1e-4, that pass the assumptions."""
    depth = draw(st.integers(2, 4))
    top = draw(st.sampled_from([0.3, 1.0, 2.0, 40.0]))
    values, value = [], top
    for size in draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)):
        values += [value] * size
        value -= top * draw(st.one_of(st.sampled_from([1e-7, 1e-6]), st.floats(1e-7, 0.6)))
        assume(value > 0.0)
    lam_each = draw(st.one_of(st.sampled_from([1e-4, 1e-3]), st.floats(1e-4, 3.0)))
    inst, _, _ = _instance(values, depth, lam_each, hidden=len(values) + draw(st.integers(0, 1)))
    assume(inst.assumptions.ok)
    return inst


@settings(max_examples=60, deadline=None)
@given(_diagonal_instances())
def test_distinct_value_counts_follow_block_and_root_index(inst):
    spectrum, enum = inst.spectrum, inst.profiles
    block = [b for b in range(spectrum.p_distinct) for _ in range(spectrum.multiplicities[b])]
    summary = _profile_summaries(inst, enum.sigmas)
    for k, profile in enumerate(enum.profiles):
        pairs = Counter((block[i], c) for i, c in enumerate(profile.choice) if profile.sigma_eq[i] > 0.0)
        assert (summary["p"][k], summary["gmax"][k]) == (len(pairs), max(pairs.values(), default=0))


def test_serialization_csv_and_json(tmp_path, capsys):
    inst, dims, reg = _instance([2.0], 2, 1.0)
    ledger = compute_ledger(inst, optimal_profile(inst))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "output_dir": str(tmp_path),
        "instance": {"dims": [1, 1, 1], "lambda_uniform": 1.0, "target": {"kind": "diagonal", "values": [2.0]}},
    }))
    assert main(["constants", str(config)]) == 0
    # The CSV holds every field but the truncation flag, in field order, each
    # value the ledger's own in its shortest round-trip form.
    columns = [f.name for f in dataclasses.fields(EbConstantsLedger)][:-1]
    header, row = (tmp_path / "constants.csv").read_text().splitlines()
    assert header.split(",") == columns
    assert row.split(",") == [repr(getattr(ledger, name)) for name in columns]
    text = capsys.readouterr().out
    assert (tmp_path / "constants.json").read_text() == text
    payload = json.loads(text)
    assert payload["kappa_zero"] == pytest.approx(6.0)
    assert sorted(payload) == sorted(columns + ["enumeration_truncated"])
    assert payload["enumeration_truncated"] is False
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
