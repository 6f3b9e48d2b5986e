import pytest
from hypothesis import given, settings, strategies as st

from erskit.ambient import ConfigError
from erskit.base_system import (
    GClass,
    config_from_dict,
    simple_config,
    validate_qebs,
)
from conftest import SUITE_NAMES

TAGS = ["empty", "Z", "2Z", "2Z+1", "4Z", "4Z+2"]


@given(st.sampled_from(TAGS[1:]), st.integers(min_value=-50, max_value=50))
def test_gclass_contains_matches_members(tag, m):
    g = GClass(tag)
    assert g.contains(m) == (m in g.members(50))


@given(st.sampled_from(TAGS[1:]), st.integers(min_value=-50, max_value=50))
def test_gclass_progression_arithmetic(tag, m):
    g = GClass(tag)
    if g.contains(m):
        assert g.contains(m + g.modulus)
        assert g.contains(m - g.modulus)
        assert m % g.modulus == g.residue % g.modulus


def test_gclass_rejects_unknown():
    with pytest.raises(ConfigError):
        GClass("3Z")


def test_empty_gclass():
    g = GClass("empty")
    assert g.is_empty
    assert g.members(100) == []
    assert not g.contains(0)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_configs_valid(name):
    cfg = simple_config(name)
    rep = validate_qebs(cfg)
    assert rep.passed, rep.failures()


def test_c_of_tracks_doubling():
    cfg = simple_config("D3(2)", g={0: "2Z+1"})
    assert cfg.c_of(0) == 2
    assert cfg.c_of(1) == 1


def test_root_tuples():
    cfg = simple_config("D3(2)", k={0: 1, 1: 2, 2: 1}, g={0: "2Z+1"})
    assert cfg.root(1) == (0, 1, 0, 0)
    # alpha_1^* = c alpha_1 + k_1 a, with c = 1 for an empty g
    assert cfg.root(1, star=True) == (0, 1, 0, 2)
    assert cfg.root(1, star=True, sign=-1) == (0, -1, 0, -2)
    # c = 2 where g is 2Z+1
    assert cfg.root(0, star=True) == (2, 0, 0, 1)
    assert cfg.root(2, sign=-1) == (0, 0, -1, 0)


@pytest.mark.parametrize("i", [3, 4, -1])
def test_root_rejects_node_out_of_range(i):
    # index n_nodes is the marking slot of the tuple; it must not be written
    cfg = simple_config("D3(2)")
    with pytest.raises(ConfigError, match="out of range"):
        cfg.root(i)
    with pytest.raises(ConfigError, match="out of range"):
        cfg.root(i, star=True)


def test_parities():
    cfg = simple_config("D3(2)", g={0: "Z"})
    # a doubled node of class Z carries an odd generator
    assert cfg.node_parity(0) == 1
    assert cfg.node_parity(1) == 0
    cfg2 = simple_config("D3(2)", g={0: "2Z+1"})
    assert cfg2.node_parity(0) == 0
    # alpha* = 2*alpha + ka here, and 4*alpha is never a root
    assert cfg2.star_parity(0) == 0
    cfg3 = simple_config("D3(2)", g={0: "2Z"})
    assert cfg3.node_parity(0) == 1
    assert cfg3.star_parity(0) == 1


def test_config_from_dict_roundtrip():
    cfg = config_from_dict(
        {"type": "D3(2)", "k": {"a0": 1, "a1": 2, "a2": 1}, "g": {"a0": "4Z"}}
    )
    assert cfg.k == {0: 1, 1: 2, 2: 1}
    assert cfg.g[0].tag == "4Z"
    assert validate_qebs(cfg).passed


def test_config_from_dict_rejects_partial_k():
    with pytest.raises(ConfigError):
        config_from_dict({"type": "D3(2)", "k": {"a1": 2}})


def test_config_from_dict_needs_type():
    with pytest.raises(ConfigError):
        config_from_dict({"k": {"a0": 1}})


@pytest.mark.parametrize(
    "kwargs, axiom",
    [
        # Z outside the -2 panel
        ({"g": {1: "Z"}}, "KG2"),
        # 4Z without an adjacent doubled multiplicity
        ({"g": {0: "4Z"}}, "KG3"),
        # incompatible multiplicity ratio on a (-1,-1) edge
        ({"k": {0: 1, 1: 1, 2: 1}}, None),
    ],
)
def test_invalid_configs_detected(kwargs, axiom):
    if axiom is None:
        cfg = simple_config("G2(1)", k={0: 1, 1: 1, 2: 3})
        rep = validate_qebs(cfg)
        assert not rep.passed
        assert any(e.axiom.startswith("KG1") for e in rep.failures())
        return
    cfg = simple_config("D3(2)", **kwargs)
    rep = validate_qebs(cfg)
    assert not rep.passed
    assert any(e.axiom.startswith(axiom) for e in rep.failures())
