import copy
import random
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings, strategies as st

from erskit import exact
from erskit.ambient import CheckError, ConfigError, DomainError
from erskit.base_system import simple_config
from erskit.presentation import b_all
from erskit.roots import (
    EllipticRootSet,
    Progression,
    RootWindow,
    _connected,
    _covered,
    check_ebs,
    doubled_progression,
    generate,
    mirror,
    real_progression,
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

# three KG-violating pre-elliptic systems
KG_MUTANTS = [
    ("D3(2)", {"g": {0: "Z"}, "k": {0: 1, 1: 2, 2: 1}}),
    ("D3(2)", {"g": {0: "4Z"}}),
    ("A2(1)", {"g": {0: "2Z+1"}}),
]


def per_marking_oracle(config, window):
    """Reference for `reflection_closure_oracle`: one breadth-first closure
    of the seed roots themselves, so each marking gets its own sweep."""
    sp = config.space
    n_nodes = sp.n_nodes
    delta0 = sp.delta_marks()[0]
    M, N, pad = window.M, window.N, window.pad
    vbound = (M + pad) * delta0
    nbound = N + pad

    seeds = set()
    for i in config.nodes:
        k = config.k[i]
        base = tuple(1 if j == i else 0 for j in range(n_nodes))
        j = 0
        while abs(j * k) <= nbound:
            seeds.add(base + (j * k,))
            seeds.add(base + (-j * k,))
            j += 1
        gset = config.g[i]
        if not gset.is_empty:
            twice = tuple(2 * x for x in base)
            for m in gset.members(nbound // k if k else 0):
                seeds.add(twice + (m * k,))

    cartan = sp.cartan
    found = set(seeds)
    queue = list(seeds)
    while queue:
        coords = queue.pop()
        c, n = coords[:-1], coords[-1]
        for i in range(n_nodes):
            pair = sum(cartan[i][m] * c[m] for m in range(n_nodes))
            if pair == 0:
                continue
            img = list(c)
            img[i] -= pair
            if abs(img[0]) > vbound:
                continue
            img_t = tuple(img) + (n,)
            if img_t not in found:
                found.add(img_t)
                queue.append(img_t)
    return {
        coords
        for coords in found
        if abs(coords[0]) <= M * delta0 and abs(coords[-1]) <= N
    }


ORACLE_CONFIGS = (
    [(name, {}) for name in SUITE_NAMES]
    + [("D3(2)", kwargs) for kwargs in DOUBLING_VARIANTS]
    + [("G2(1)", {"k": {0: 3, 1: 3, 2: 1}})]
    + KG_MUTANTS
)


@pytest.mark.parametrize("window", [RootWindow(3, 3, 2), RootWindow(2, 5, 1)],
                         ids=["3,3,2", "2,5,1"])
@pytest.mark.parametrize("name, kwargs", ORACLE_CONFIGS)
def test_oracle_matches_per_marking_reference(name, kwargs, window):
    cfg = simple_config(name, **kwargs)
    assert reflection_closure_oracle(cfg, window) == per_marking_oracle(cfg, window)


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


def per_root_inner(rs, levels):
    """Reference for `EllipticRootSet._enumerate_inner`: a fresh annotation
    dict per root, with doubled OR-ed into the first one met."""
    M, N = rs.window.M, rs.window.N
    inner = {}

    def add(coords, cls, key, doubled):
        entry = inner.get(coords)
        if entry is None:
            inner[coords] = {"orbit_key": key, "k": cls.k, "g": cls.g.tag,
                             "doubled": doubled}
        else:
            entry["doubled"] = entry["doubled"] or doubled

    for (phi, nu), lab in levels.items():
        cls = rs.classes[lab]
        c = rs._alpha_part(phi, nu)
        if abs(nu) <= M * rs.delta0:
            for n in real_progression(cls).window(N):
                add(c + (n,), cls, cls.key, False)
        if not cls.g.is_empty and abs(2 * nu) <= M * rs.delta0:
            c2 = tuple(2 * x for x in c)
            for n in doubled_progression(cls).window(N):
                add(c2 + (n,), cls, 4 * cls.key, True)
    return inner


def generate_with_levels(monkeypatch, cfg, window, validate=True):
    """generate(), plus the level table its enumeration read."""
    seen = []
    enumerate_inner = EllipticRootSet._enumerate_inner

    def spy(self, levels):
        seen.append(levels)
        enumerate_inner(self, levels)

    with monkeypatch.context() as m:
        m.setattr(EllipticRootSet, "_enumerate_inner", spy)
        rs = generate(cfg, window, validate=validate)
    return rs, seen[0]


@pytest.mark.parametrize(
    "name, kwargs, valid",
    [(name, {}, True) for name in SUITE_NAMES]
    + [("D3(2)", {"g": {0: tag}}, True) for tag in ("Z", "2Z+1")]
    + [(name, kwargs, False) for name, kwargs in KG_MUTANTS],
)
def test_enumeration_matches_per_root_reference(name, kwargs, valid, monkeypatch):
    # one shared annotation per (orbit class, real/doubled) kind gives the
    # per-root reference's keys, order and values, and no view or check
    # writes to a shared annotation
    cfg = simple_config(name, **kwargs)
    for window in (RootWindow(6, 6, 2), RootWindow(4, 4), RootWindow(3, 5)):
        rs, levels = generate_with_levels(monkeypatch, cfg, window, validate=valid)
        ref = per_root_inner(rs, levels)
        assert list(rs.inner) == list(ref)
        assert list(rs.inner.values()) == list(ref.values())
        assert len({id(ann) for ann in rs.inner.values()}) <= 2 * len(rs.classes)
        before = copy.deepcopy(list(rs.inner.values()))
        rs.to_json_entries()
        rs.restrict({0, 1})
        rs.sorted_roots()
        check_ebs(rs)
        assert list(rs.inner.values()) == before


@pytest.mark.parametrize("real_first", [True, False])
def test_root_met_as_real_and_as_doubled(real_first):
    # no config reaches a root met first as real, then as doubled; this
    # hand-made level table does: 2*alpha_0 as a real part of the class of
    # a1, and alpha_0, whose class a0 doubles on 2Z+1
    cfg = simple_config("D3(2)", g={0: "2Z+1"})
    rs = generate(cfg, RootWindow(3, 3))
    a0, a1 = rs.classes[0], rs.classes[1]
    rows = [((rs._fin_key((2, 0, 0)), 2), 1), ((rs._fin_key((1, 0, 0)), 1), 0)]
    levels = dict(rows if real_first else rows[::-1])
    rs.inner = {}
    rs._enumerate_inner(levels)
    assert list(rs.inner.items()) == list(per_root_inner(rs, levels).items())

    doubled = {(2, 0, 0, n): rs.inner[(2, 0, 0, n)] for n in (-3, -1, 1, 3)}
    if real_first:
        # the first class's key, k and g, with doubled set, in fresh dicts
        first = {"orbit_key": a1.key, "k": a1.k, "g": a1.g.tag}
        assert all(ann == {**first, "doubled": True} for ann in doubled.values())
        assert len({id(ann) for ann in doubled.values()}) == 4
        shared = {id(rs.inner[(2, 0, 0, n)]) for n in (-2, 0, 2)}
        assert len(shared) == 1 and shared.isdisjoint(map(id, doubled.values()))
        assert rs.inner[(2, 0, 0, 0)] == {**first, "doubled": False}
    else:
        # the doubled annotation of a0 is kept, shared and untouched
        assert len({id(ann) for ann in doubled.values()}) == 1
        assert doubled[(2, 0, 0, 1)] == {"orbit_key": 4 * a0.key, "k": a0.k,
                                         "g": a0.g.tag, "doubled": True}
    assert rs.inner[(1, 0, 0, 0)] == {"orbit_key": a0.key, "k": a0.k,
                                      "g": a0.g.tag, "doubled": False}


# rows of `inner` that SER3's early-stopping rank reads at window (6,6,2)
SER3_ROWS_READ = {"E8(1)": 105, "E7(1)": 92, "F4(1)": 183, "D3(2)": 53}


@pytest.mark.parametrize("name", sorted(SER3_ROWS_READ))
def test_ser3_rank_stops_early_in_inner_order(name, ebs_runs, monkeypatch):
    # SER3 reads `inner` in its level-table order until it finds full rank;
    # in sorted order E8(1) would read 3,121 rows.  A change to the order of
    # the enumeration must show here, not only in the lattice benchmark
    (rs, _), _ = ebs_runs[name]
    read = []
    rank = exact.rank

    def counted(rows, stop=None):
        def rows_read():
            for row in rows:
                read.append(row)
                yield row
        return rank(rows_read(), stop)

    monkeypatch.setattr(exact, "rank", counted)
    assert check_ebs(rs).passed
    assert len(read) == SER3_ROWS_READ[name]


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


def test_parity_reads_window_roots_once():
    # a key of inner is a root already: parity asks member only whether its
    # double is one, and a non-root still raises
    cfg = simple_config("D3(2)", g={0: "Z"})
    rs = generate(cfg, RootWindow(3, 3))
    calls = []
    member = rs.member
    rs.member = lambda coords: calls.append(coords) or member(coords)
    parities = [rs.parity(coords) for coords in rs.inner]
    assert len(calls) == len(rs.inner) and 0 < sum(parities) < len(parities)
    far = (1, 0, 0, 7 * cfg.k[0])  # alpha_0 + 7a, outside the window
    assert far not in rs.inner and rs.parity(far) == 1
    for coords in [(1, 1, 1, 0), (3, 0, 0, 0), (0, 0, 0, 0)]:
        with pytest.raises(DomainError, match="is not a root"):
            rs.parity(coords)


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


# sha256 of the sorted window (6,6,2) root set, annotations included, and of
# the (axiom, ok, witness) entries of its check_ebs report.  A faster
# reflection kernel or SER4 check must leave both as they are.  Every
# family's report reads the same.
ROOT_SET_DIGESTS = {
    "A2(1)": "6a6c913ee01e88581ce0d0e1696f3b99329960c05ae26550d6923d9ee03774c8",
    "B3(1)": "dae0cabb7ccfc55e2ba1130deaa8517383869054bbf11935fda52d87acfdaf65",
    "C2(1)": "ff02148f17fd4a41907a012ed0aef9437285c822bbaab70a630e8eeb17dec676",
    "D4(1)": "dbeab1b7a39bf11d1ba6165ffe1f0cc4244cc66f3d47ec3e059a1c22f9f00028",
    "E6(1)": "b4016c6b648836e17e0e8febb5a57846ad44822b502a755b7da0922ed604535c",
    "E7(1)": "762712b225c7d092c3269b7566ff14e52063e4111891ff01c49ff95d4fc65ebd",
    "E8(1)": "26d5aeb08e5e9b755cda60a4fb653071b7f276d9a41b24a74fbf40121e3c20be",
    "F4(1)": "ba7f574c6c4b8d2ec5fe51094d4e65488f4cdfcb182e46ef6d82e2b59c15ecc4",
    "G2(1)": "61d00ac9558fdc9019274aebcda3c3d528db5fb457b1a8965a691383497b8836",
    "A4(2)": "53ddbfd041b1149006029c09b7430e484781f0595697947c027f99d529ec931f",
    "A5(2)": "3e77842abb2d0d5e4064d1196e932e9865fb8bf8e2e9c81f94fa69b9a82540db",
    "D3(2)": "ef64e0ce06f6a17b39d2423d3d3159edc3f10be6684e613d88fa41a0e8f162f2",
    "E6(2)": "aee350071fe75385848ad6141a00930c498f56024ab3b41106216e4617860f6a",
    "D4(3)": "bad605304a99f5c99ac22393b7842090500030c267331dc85f03848426725706",
}
EBS_ENTRIES_DIGEST = "0034dfaabc02410c7b5ee3fef8af246d3be78112dfd557be25be408bb09efc62"


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_root_sets_and_reports_pinned(name, ebs_runs):
    (rs, rep), _ = ebs_runs[name]
    entries = [(e.axiom, e.ok, e.witness) for e in rep.entries]
    assert sha256(repr(sorted(rs.inner.items())).encode()).hexdigest() == ROOT_SET_DIGESTS[name]
    assert sha256(repr(entries).encode()).hexdigest() == EBS_ENTRIES_DIGEST


MUTANT_FAILURES = [
    [("SER4-reflection-closure",
      "s_(-6, -8, -8, -5) sends (-6, -5, -6, -6) to (-12, -13, -14, -11) outside R")],
    [("SER4-reflection-closure",
      "s_(-6, -5, -6, -5) sends (-6, -8, -8, -4) to (-18, -18, -20, -14) outside R")],
    [("SER5-integrality",
      "2J(beta,rho)/J(beta,beta) = -4/8 for beta in group 1, rho in group 2"),
     ("SER4-reflection-closure",
      "s_(-6, -8, -8, -5) sends (-6, -4, -6, -5) to (-12, -12, -14, -10) outside R")],
]


def test_check_ebs_mutants():
    # generation is forced through with validation off, then window closure
    # must fail with the first witness the enumeration meets
    for (name, kwargs), failures in zip(KG_MUTANTS, MUTANT_FAILURES, strict=True):
        cfg = simple_config(name, **kwargs)
        rep = check_ebs(generate(cfg, RootWindow(6, 6, 2), validate=False))
        assert [(e.axiom, e.witness) for e in rep.failures()] == failures, name


_PROGRESSION = st.builds(Progression, st.integers(1, 8), st.integers(-8, 8))


@given(st.lists(_PROGRESSION, min_size=1, max_size=2), _PROGRESSION,
       _PROGRESSION, st.integers(-4, 4), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_covered_matches_the_marking_loop(progs, pb, pr, t, n):
    # the fallback passes over an alpha-part pair exactly when its marking
    # loop would find no image outside the image's progressions
    wb, wr = pb.window(n), pr.window(n)
    every = all(any(p.contains(r - t * b) for p in progs) for b in wb for r in wr)
    assert _covered(progs, wb, wr, t) == every


def test_connected_needs_a_nonzero_pairing_path():
    # SER6 joins two groups wherever they pair nonzero
    assert not _connected([[2, 0], [0, 2]])
    assert _connected([[2, -1], [-1, 2]])
    assert _connected([])


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


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_a_config_error(k):
    cfg = simple_config("A2(1)", k=k)
    window = RootWindow(3, 3, 2)
    with pytest.raises(ConfigError):
        reflection_closure_oracle(cfg, window)
    with pytest.raises(ConfigError):
        generate(cfg, window, validate=False)


@pytest.mark.parametrize("name, kwargs", [("A2(1)", {}), ("D3(2)", {"g": {0: "2Z+1"}})])
def test_fixpoint_catches_a_dropped_or_stray_root(name, kwargs):
    # the fixpoint check mirrors alpha-parts, not roots; it must still see
    # one missing root, and one root whose marking its mirror images lack
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(3, 3, 2))
    full = dict(rs.inner)
    for coords in random.Random(7).sample(sorted(full), 40):
        rs.inner = dict(full)
        rs.inner.pop(coords)
        with pytest.raises(CheckError):
            rs._assert_fixpoint()

    marks = {}
    for coords in full:
        marks.setdefault(coords[:-1], set()).add(coords[-1])
    # with k = 1 only the doubled alpha-parts of g(a0)=2Z+1 (odd markings)
    # leave gaps inside |n| <= 3; elsewhere the stray marking is +-4
    gaps = [c for c in sorted(marks) if len(marks[c]) < 7]
    assert bool(gaps) == (name == "D3(2)")
    rng = random.Random(8)
    for c in rng.sample(sorted(marks), 20) + rng.sample(gaps, min(20, len(gaps))):
        stray = min((n for n in range(-4, 5) if n not in marks[c]), key=abs)
        rs.inner = dict(full)
        rs.inner[c + (stray,)] = {}
        with pytest.raises(CheckError):
            rs._assert_fixpoint()
    rs.inner = full
    rs._assert_fixpoint()


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
    ]
    + [(name, {}, True) for name in SUITE_NAMES if name not in SMALL_SUITE_NAMES],
)
def test_mirror_matches_ambient_reflect(name, kwargs, valid):
    # the integer kernel against the Fraction reflection of the ambient
    # space: equal images where the reference is integral, None exactly
    # where its a-coordinate is not.  The families beyond the small suite,
    # whose Cartan rows are mostly zero, are larger: they run on a sample of
    # 24 roots of a (1,1) window
    cfg = simple_config(name, **kwargs)
    sp = cfg.space
    small = name in SMALL_SUITE_NAMES
    rs = generate(cfg, RootWindow(3, 3) if small else RootWindow(1, 1), validate=valid)
    roots = rs.inner if small else random.Random(5).sample(sorted(rs.inner), 24)
    nones = 0
    for sym in b_all(cfg):
        image = mirror(cfg, sym.node, sym.star)
        for coords in roots:
            ref = sp.reflect(root_to_ambient(cfg, sym.root(cfg)),
                             root_to_ambient(cfg, coords))
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
    # a small window detects its period on a level table out to level
    # (M + 4 twist) delta0; a wider window reaching two levels past that
    # table checks membership by level period against its enumeration
    cfg = simple_config(name, **kwargs)
    small = generate(cfg, window)
    kept = (window.M + 4 * cfg.space.type.twist) * small.delta0
    M = kept // small.delta0 + 2
    inner = set(generate(cfg, RootWindow(M, 6)).inner)

    beyond = 0
    for coords in inner:
        c, n = coords[:-1], coords[-1]
        for v in (coords, tuple(2 * x for x in coords),
                  tuple(3 * x for x in coords), c + (n + 1,)):
            if abs(v[0]) <= M * small.delta0 and abs(v[-1]) <= 6:
                assert small.member(v) == (v in inner), v
                beyond += abs(v[0]) > kept
    assert beyond
