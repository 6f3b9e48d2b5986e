import json
from fractions import Fraction

import pytest

from erskit import presentation
from erskit.ambient import CheckError, ConfigError, DomainError
from erskit.base_system import simple_config
from erskit.presentation import (
    RootSym,
    b_all,
    b_plus,
    elliptic_basis,
    emit_sr,
    emit_sr_sharp,
    emit_tsr,
    x_coeff,
)
from conftest import SUITE_NAMES

# node 0 doubled (c = 2; odd with g = Z, even with 2Z+1) and unequal k: the
# configs where a starred and a plain symbol pair with a factor != 1
VARIANTS = {
    "D3(2)/g0=Z": ("D3(2)", 1, {0: "Z"}),
    "D3(2)/g0=2Z+1": ("D3(2)", 1, {0: "2Z+1"}),
    "G2(1)/k=3,3,1": ("G2(1)", {0: 3, 1: 3, 2: 1}, None),
}


def _config(name):
    if name in VARIANTS:
        type_name, k, g = VARIANTS[name]
        return simple_config(type_name, k=k, g=g)
    return simple_config(name)


def _counts(rels):
    out = {}
    for label in rels.labels():
        key = label.split("[")[0]
        out[key] = out.get(key, 0) + 1
    return out


def test_symbol_idents():
    s = RootSym(0, True, -1)
    assert s.ident == "E:-a0*"
    assert s.negate().ident == "E:+a0*"
    cfg = simple_config("D3(2)")
    assert len(b_plus(cfg)) == 6
    assert len(b_all(cfg)) == 12


@pytest.mark.parametrize("name", ["A2(1)", "D3(2)", "C2(1)"])
def test_structural_counts(name):
    cfg = simple_config(name)
    rels = emit_sr(cfg)
    counts = _counts(rels)
    n_basis = cfg.space.dim
    n_b = len(b_all(cfg))
    assert counts["SR2"] == n_basis * (n_basis - 1) // 2
    assert counts["SR3"] == n_basis * n_b
    assert counts["SR4"] == len(b_plus(cfg))


@pytest.mark.parametrize("name", ["A2(1)", "D3(2)", "G2(1)", *VARIANTS])
def test_sr5_count_matches_pairing_census(name):
    # recount the nilpotency relations straight from the form: one per
    # ordered pair with strictly negative pairing
    cfg = _config(name)
    sp = cfg.space
    expected = 0
    for mu in b_all(cfg):
        for nu in b_all(cfg):
            if mu == nu:
                continue
            vm, vn = mu.vector(cfg), nu.vector(cfg)
            if all(a + b == 0 for a, b in zip(vm, vn)):
                continue
            if sp.j(vm, vn) < 0:
                x = 1 - 2 * sp.j(vm, vn) / sp.j(vm, vm)
                assert x >= 1
                expected += 1
    counts = _counts(emit_sr(cfg))
    assert counts.get("SR5", 0) == expected


@pytest.mark.parametrize("name", SUITE_NAMES + list(VARIANTS))
def test_x_coeff_matches_fraction_form(name):
    # the integer pairing from the Cartan entries against 2J(mu,nu)/J(mu,mu)
    # on the Fraction ambient vectors, over every ordered pair of B'
    cfg = _config(name)
    sp = cfg.space
    for mu in b_all(cfg):
        for nu in b_all(cfg):
            vm, vn = mu.vector(cfg), nu.vector(cfg)
            if vm == vn or all(a + b == 0 for a, b in zip(vm, vn)):
                continue
            pairing = 2 * sp.j(vm, vn) / sp.j(vm, vm)
            if pairing < 0 and pairing.denominator != 1:
                with pytest.raises(DomainError):
                    x_coeff(cfg, mu, nu)
                continue
            want = 1 - pairing if pairing < 0 else 0
            assert x_coeff(cfg, mu, nu) == want, (mu.ident, nu.ident)


def test_x_coeff_domain_errors():
    cfg = simple_config("A2(1)")
    mu = RootSym(0, False, 1)
    with pytest.raises(DomainError):
        x_coeff(cfg, mu, mu)
    with pytest.raises(DomainError):
        x_coeff(cfg, mu, mu.negate())
    # non-negative pairing contributes no relation
    assert x_coeff(cfg, mu, RootSym(0, True, 1)) == 0
    with pytest.raises(ConfigError, match="out of range"):
        x_coeff(cfg, mu, RootSym(3, True, 1))
    with pytest.raises(ConfigError, match="out of range"):
        emit_sr(cfg, pairs=[(mu, RootSym(3, False, 1))])


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_relations_parity_homogeneous(name):
    cfg = simple_config(name)
    for _, word in emit_sr(cfg).label_words:
        assert word.parity in (0, 1)


def test_sharp_is_a_restriction():
    cfg = simple_config("D3(2)")
    full = _counts(emit_sr(cfg))
    sharp = _counts(emit_sr_sharp(cfg))
    assert sharp["SR5'"] < full["SR5"]
    for key in ("SR2", "SR3", "SR4"):
        assert sharp[key] == full[key]


def test_sharp_guard_rejects_oversized_reduced_family(monkeypatch):
    # a pair set with more x != 0 pairs than the full SR5 family has
    cfg = simple_config("D3(2)")
    pi_pairs, _ = presentation.sharp_sets(cfg)
    b_prime = [
        (mu, nu) for mu in b_all(cfg) for nu in b_all(cfg)
        if mu.vector(cfg) != nu.vector(cfg)
        and any(a + b for a, b in zip(mu.vector(cfg), nu.vector(cfg)))
    ]
    monkeypatch.setattr(presentation, "sharp_sets",
                        lambda config: (pi_pairs, b_prime + b_prime))
    with pytest.raises(CheckError, match="reduced family larger"):
        emit_sr_sharp(cfg)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_pi_max_maximizes_folded_norm(name):
    cfg = simple_config(name)
    sp = cfg.space
    basis = elliptic_basis(cfg)
    marks = sp.delta_marks()
    m = [
        Fraction(cfg.c_of(i)) * sp.j(sp.alpha(i), sp.alpha(i)) * marks[i]
        / cfg.k[i]
        for i in cfg.nodes
    ]
    top = max(m)
    assert sorted(basis["pi_max"]) == [i for i in cfg.nodes if m[i] == top]


# per-family tallies of the finite-basis relation classes, frozen after
# checking each class fires exactly where its side condition holds
TSR_TALLIES = {
    # every node maximal: the starred-generator side conditions never hold
    "A2(1)": {"TSR10": 0, "TSR11a": 0, "TSR11b": 0, "TSR12": 0},
    "D3(2)": {"TSR10": 0, "TSR11a": 4, "TSR11b": 4, "TSR12": 4},
    "B3(1)": {"TSR10": 4, "TSR11a": 2, "TSR11b": 2, "TSR12": 12},
    "G2(1)": {"TSR10": 2, "TSR11a": 2, "TSR11b": 2, "TSR12": 4},
    "D4(1)": {"TSR10": 8, "TSR12": 24},
    "F4(1)": {"TSR10": 2, "TSR11a": 2, "TSR11b": 2, "TSR12": 4},
    "D4(3)": {"TSR10": 0, "TSR11a": 2, "TSR11b": 2},
}


@pytest.mark.parametrize("name", sorted(TSR_TALLIES))
def test_tsr_class_tallies(name):
    cfg = simple_config(name)
    counts = _counts(emit_tsr(cfg))
    for key, val in TSR_TALLIES[name].items():
        assert counts.get(key, 0) == val, (key, counts)


def test_tsr_symbols_confined_to_elliptic_basis():
    cfg = simple_config("D3(2)")
    basis = elliptic_basis(cfg)
    allowed = {f"h:{lab}" for lab in cfg.space.basis_labels()}
    for sym in basis["gamma"]:
        allowed.add(sym.ident)
        allowed.add(sym.negate().ident)
    for _, word in emit_tsr(cfg).label_words:
        for _, tree in word.monomials:
            stack = [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, str):
                    assert node in allowed, node
                else:
                    stack.extend(node)


def test_relation_json_deterministic():
    cfg = simple_config("D3(2)")
    assert emit_sr(cfg).to_json() == emit_sr(cfg).to_json()
    payload = json.loads(emit_tsr(cfg).to_json())
    assert isinstance(payload, list) and payload
