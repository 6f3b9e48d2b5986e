from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from erskit.ambient import ConfigError
from erskit.base_system import simple_config
from erskit.presentation import b_all
from erskit.roots import (
    RootWindow,
    check_ebs,
    generate,
    mirror,
    reflection_closure_oracle,
)
from erskit.unfold import root_to_ambient
from conftest import SMALL_SUITE_NAMES, SUITE_NAMES

DOUBLING_VARIANTS = [
    {"g": {0: "2Z+1"}},
    {"g": {0: "Z"}},
    {"k": {0: 1, 1: 2, 2: 1}, "g": {0: "4Z"}},
    {"k": {0: 1, 1: 2, 2: 1}, "g": {0: "2Z"}},
]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_generate_matches_reflection_oracle(name, oracle_pairs):
    generated, oracle = oracle_pairs[name]
    assert generated == oracle


@pytest.mark.parametrize("kwargs", DOUBLING_VARIANTS)
def test_oracle_equality_with_doubling(kwargs):
    cfg = simple_config("D3(2)", **kwargs)
    window = RootWindow(3, 3, 2)
    rs = generate(cfg, window)
    assert set(rs.inner) == reflection_closure_oracle(cfg, window)


def test_window_symmetry_and_membership():
    cfg = simple_config("D3(2)", g={0: "2Z+1"})
    rs = generate(cfg, RootWindow(4, 4))
    for coords, ann in rs.sorted_roots():
        neg = tuple(-x for x in coords)
        assert neg in rs.inner
        assert rs.member(coords)
        if ann["doubled"]:
            half = tuple(x // 2 for x in coords)
            assert rs.member(half)


def test_parity_flags_doubled_roots():
    cfg = simple_config("D3(2)", g={0: "Z"})
    rs = generate(cfg, RootWindow(4, 4))
    alpha0 = (1, 0, 0, 0)
    assert rs.parity(alpha0) == 1
    assert rs.parity((0, 1, 0, 0)) == 0
    assert rs.member((2, 0, 0, 1))


def test_member_rejects_non_roots():
    cfg = simple_config("A2(1)")
    rs = generate(cfg, RootWindow(3, 3, 2))
    assert not rs.member((0, 0, 0, 0))
    assert not rs.member((1, 1, 1, 0))
    assert not rs.member((2, 0, 0, 0))


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_check_ebs_suite(name, ebs_reports):
    rep, _ = ebs_reports[name]
    assert rep.passed, rep.failures()


def test_check_ebs_mutants():
    # three KG-violating pre-elliptic systems; generation is forced through
    # with validation off, then window closure must fail with a witness
    mutants = [
        ("D3(2)", {"g": {0: "Z"}, "k": {0: 1, 1: 2, 2: 1}}),
        ("D3(2)", {"g": {0: "4Z"}}),
        ("A2(1)", {"g": {0: "2Z+1"}}),
    ]
    for name, kwargs in mutants:
        cfg = simple_config(name, **kwargs)
        rs = generate(cfg, RootWindow(6, 6, 2), validate=False)
        rep = check_ebs(rs)
        assert not rep.passed, f"{name} {kwargs} unexpectedly closed"
        assert any(e.witness for e in rep.failures())


def test_levels_and_json_entries():
    cfg = simple_config("D3(2)")
    rs = generate(cfg, RootWindow(3, 3, 2))
    entries = rs.to_json_entries()
    assert len(entries) == len(rs.inner)
    assert entries == sorted(entries, key=lambda e: e["coords"])
    for e in entries[:20]:
        assert rs.level(tuple(e["coords"])) == Fraction(e["coords"][0])


def test_window_bounds_validation():
    with pytest.raises(ConfigError):
        RootWindow(0, 3)
    cfg = simple_config("D3(2)", k=3)
    # k = 3 puts alpha* outside a (1,1) window
    with pytest.raises(ConfigError):
        generate(cfg, RootWindow(1, 1))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["A2(1)", "D3(2)", "C2(1)"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
def test_reflection_stability_inside_window(name, i, j):
    # s_{alpha_i} fixes R; images of inner roots that stay inside the
    # level/marking bounds must again be members
    cfg = simple_config(name)
    rs = generate(cfg, RootWindow(3, 3, 2))
    sp = cfg.space
    cartan = sp.cartan
    for coords, _ in rs.sorted_roots()[:80]:
        c, n = coords[:-1], coords[-1]
        pair = sum(cartan[i][m] * c[m] for m in range(sp.n_nodes))
        img = list(c)
        img[i] -= pair
        assert rs.member(tuple(img) + (n,))


@pytest.mark.parametrize(
    "name, kwargs, valid",
    [(name, {}, True) for name in SMALL_SUITE_NAMES]
    + [
        ("D3(2)", {"g": {0: "Z"}}, True),
        ("D3(2)", {"g": {0: "2Z+1"}}, True),
        ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}, True),
        # c(a0) = 2 on a Cartan row with odd entries: some starred images
        # leave the lattice (valid configs put c = 2 on even rows only)
        ("A2(1)", {"g": {0: "2Z+1"}}, False),
    ],
)
def test_mirror_matches_ambient_reflect(name, kwargs, valid):
    # the integer kernel against the Fraction reflection of the ambient
    # space: equal images where the reference is integral, None exactly
    # where its a-coordinate is not
    cfg = simple_config(name, **kwargs)
    sp = cfg.space
    rs = generate(cfg, RootWindow(3, 3), validate=valid)
    nones = 0
    for sym in b_all(cfg):
        image = mirror(cfg, sym.node, sym.star)
        for coords in rs.inner:
            ref = sp.reflect(sym.vector(cfg), root_to_ambient(cfg, coords))
            assert ref[sp.idx_Ld] == ref[sp.idx_La] == 0
            got = image(coords)
            if ref[sp.idx_a].denominator == 1:
                assert all(x.denominator == 1 for x in ref)
                assert got == ref[: sp.n_nodes] + (ref[sp.idx_a],), (sym, coords)
            else:
                assert got is None, (sym, coords)
                nones += 1
    assert (nones > 0) == (not valid)


@pytest.mark.parametrize(
    "name, kwargs, window",
    [(name, {}, RootWindow(1, 1)) for name in SUITE_NAMES]
    + [("D3(2)", kwargs, RootWindow(2, 2)) for kwargs in DOUBLING_VARIANTS]
    + [("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}, RootWindow(1, 3))],
)
def test_member_beyond_kept_table(name, kwargs, window):
    # a small window keeps a short level table; a wider window reaching two
    # levels past it makes membership go through the level-period
    # extrapolation, checked against the wider window's enumeration
    cfg = simple_config(name, **kwargs)
    small = generate(cfg, window)
    M = small._vkeep // small.delta0 + 2
    inner = set(generate(cfg, RootWindow(M, 6)).inner)

    beyond = 0
    for coords in inner:
        c, n = coords[:-1], coords[-1]
        for v in (coords, tuple(2 * x for x in coords),
                  tuple(3 * x for x in coords), c + (n + 1,)):
            if abs(v[0]) <= M * small.delta0 and abs(v[-1]) <= 6:
                assert small.member(v) == (v in inner), v
                beyond += abs(v[0]) > small._vkeep
    assert beyond
