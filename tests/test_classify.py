import pytest

from erskit.ambient import CheckError, DomainError
from erskit.base_system import simple_config, validate_qebs
from erskit.classify import (
    classify_rank1,
    classify_rank2,
    classify_window,
    ears_data,
    rank2_pairs,
    twist_4z,
)
from erskit.roots import RootWindow, generate

# six configs realizing the six doubling classes at one node; the 4Z rows
# need an adjacent doubled multiplicity to be admissible
RANK1_CASES = [
    ({}, {}, "i", "A1(1)", 0),
    ({}, {0: "2Z+1"}, "ii", "A2(2)", 0),
    ({}, {0: "Z"}, "iii", "B(1)(0,1)", 1),
    ({}, {0: "2Z"}, "iv", "C(2)(2)", 1),
    ({1: 2}, {0: "4Z+2"}, "v", "A(4)(0,2)", 0),
    ({1: 2}, {0: "4Z"}, "vi", "A(4)(0,2)", 1),
]


def _d3(k, g):
    kmap = {0: 1, 1: 1, 2: 1}
    kmap.update(k)
    return simple_config("D3(2)", k=kmap, g=g)


@pytest.mark.parametrize("k, g, case, name, p", RANK1_CASES)
def test_rank1_table(k, g, case, name, p):
    cfg = _d3(k, g)
    assert validate_qebs(cfg).passed
    rec = classify_rank1(cfg, 0)
    assert (rec.case, rec.name, rec.data["p"]) == (case, name, p)


def test_rank1_cases_distinct():
    tags = {
        classify_rank1(_d3(k, g), 0).case for k, g, _, _, _ in RANK1_CASES
    }
    assert len(tags) == 6


# eleven configs realizing the eleven adjacent-pair rows; each entry is
# (constructor args, pair, expected case, expected rank-2 type)
RANK2_CASES = [
    (("A2(1)", {}, {}), (0, 1), "i", "A2(1)"),
    (("D3(2)", {}, {}), (0, 1), "ii", "C2(1)"),
    (("G2(1)", {}, {}), (2, 1), "iii", "G2(1)"),
    (("D3(2)", {1: 2}, {}), (0, 1), "iv", "D3(2)"),
    (("G2(1)", {0: 3, 1: 3}, {}), (2, 1), "v", "D4(3)"),
    (("D3(2)", {}, {0: "2Z+1"}), (0, 1), "vi", "A4(2)"),
    (("D3(2)", {}, {0: "Z"}), (0, 1), "vii", "B(1)(0,2)"),
    (("D3(2)", {}, {0: "2Z"}), (0, 1), "viii", "A(2)(0,3)"),
    (("D3(2)", {1: 2}, {0: "2Z"}), (0, 1), "ix", "C(2)(3)"),
    (("D3(2)", {1: 2}, {0: "4Z+2"}), (0, 1), "x", "A(4)(0,4)"),
    (("D3(2)", {1: 2}, {0: "4Z"}), (0, 1), "xi", "A(4)(0,4)"),
]


def _build(args):
    name, k, g = args
    cfg0 = simple_config(name)
    kmap = {i: 1 for i in cfg0.nodes}
    kmap.update(k)
    return simple_config(name, k=kmap, g=g)


@pytest.mark.parametrize("args, pair, case, name", RANK2_CASES)
def test_rank2_table(args, pair, case, name):
    cfg = _build(args)
    assert validate_qebs(cfg).passed
    rec = classify_rank2(cfg, *pair)
    assert (rec.case, rec.name) == (case, name)


def test_rank2_cases_distinct():
    tags = {
        classify_rank2(_build(a), *pair).case for a, pair, _, _ in RANK2_CASES
    }
    assert len(tags) == 11


@pytest.mark.parametrize("args, pair, case, name", RANK2_CASES)
def test_rank2_gamma_lands_in_slice(args, pair, case, name):
    # gamma must be a root, supported on the pair, in -a + Z_minus * Pi
    cfg = _build(args)
    i, j = pair
    rs = generate(cfg, RootWindow(6, 6, 2))
    rec = classify_rank2(cfg, i, j, rs)
    gamma = tuple(rec.data["gamma"])
    assert rs.member(gamma)
    assert gamma[-1] == -1
    assert all(x <= 0 for x in gamma[:-1])
    assert {m for m in cfg.nodes if gamma[m] != 0} <= {i, j}


def test_rank2_rejects_non_adjacent():
    cfg = simple_config("D3(2)")
    with pytest.raises(DomainError):
        classify_rank2(cfg, 0, 2)


def test_classify_window_grows_with_k():
    # alpha_2* = alpha_2 + 4a needs marking bound 4; a fixed (3,3) window
    # rejected A4(2) with k = (1,2,4) as too small for its generators
    cfg = simple_config("A4(2)", k={0: 1, 1: 2, 2: 4})
    assert validate_qebs(cfg).passed
    assert (classify_window(cfg).M, classify_window(cfg).N) == (4, 4)
    assert [classify_rank1(cfg, i).case for i in cfg.nodes] == ["i", "i", "i"]
    assert classify_rank2(cfg, 0, 1).case == "iv"
    # the pair (a1, a2) has k(a1) = 2 and meets the known marking -1 defect
    assert (1, 2) in rank2_pairs(cfg)
    with pytest.raises(CheckError, match="not at marking coordinate -1"):
        classify_rank2(cfg, 1, 2)
    assert classify_window(simple_config("G2(1)", k={0: 3, 1: 3, 2: 1})).N == 3


def test_twist_4z_window_bijection():
    cfg = simple_config("D3(2)", k={0: 1, 1: 2, 2: 1}, g={0: "4Z"})
    cfg2, cartan_map, verification = twist_4z(cfg, 0, RootWindow(6, 6, 2))
    assert verification["bijective"]
    assert verification["window"] == [6, 6]
    assert cfg2.g[0].tag == "4Z+2"
    assert cfg2.g[1].tag == "empty"
    # the dual map sends h_alpha to h_{alpha*} on the twisted class
    assert cartan_map["a0"] == {"a0": "2", "a": "1"} or "a" in cartan_map["a0"]


def test_twist_4z_rejects_wrong_class():
    cfg = simple_config("D3(2)", g={0: "2Z+1"})
    with pytest.raises(DomainError):
        twist_4z(cfg, 0)


@pytest.mark.parametrize(
    "g, xname",
    [({}, "B2"), ({0: "2Z+1"}, "BC2"), ({0: "2Z+1", 2: "2Z+1"}, "BC2")],
)
def test_ears_quadruple_shape(g, xname):
    cfg = simple_config("D3(2)", g=g)
    data = ears_data(cfg)
    assert data["X"] == xname
    assert len(data["S"]) == 2
    assert len(data["L"]) == 1
    assert len(data["E"]) == len([v for v in g.values()])


def test_ears_lattices_match_enumeration():
    # the declared (delta, a) lattices must reproduce exactly where each
    # finite direction occurs in the enumerated window
    cfg = simple_config("D3(2)", g={0: "2Z+1"})
    win = RootWindow(6, 6, 2)
    rs = generate(cfg, win)
    data = ears_data(cfg, win)
    marks = cfg.space.delta_marks()

    def occ(phi):
        # all absolute (level, n) at which the finite direction phi occurs
        base = phi[0]
        out = set()
        for m in range(-win.M - abs(base), win.M + abs(base) + 1):
            if abs(base + m) > win.M:
                continue
            for n in range(-win.N, win.N + 1):
                c = tuple(phi[x] + m * marks[x] for x in range(len(phi)))
                if rs.member(c + (n,)):
                    out.add((base + m, n))
        return out

    declared_s = {
        tuple(p) for lat in data["S"] for p in lat["window"]
    }
    declared_l = {tuple(p) for lat in data["L"] for p in lat["window"]}
    declared_e = {tuple(p) for lat in data["E"] for p in lat["window"]}

    # short direction alpha_0 lives on S; its double lives on E
    assert occ((1, 0, 0)) == declared_s
    assert occ((2, 0, 0)) == declared_e
    # long direction alpha_1 + alpha_0 pairs: alpha_1 is long here
    assert occ((0, 1, 0)) == declared_l


def test_ears_rejects_other_types():
    with pytest.raises(DomainError):
        ears_data(simple_config("A2(1)"))
    with pytest.raises(DomainError):
        ears_data(simple_config("D3(2)", g={0: "Z"}))
