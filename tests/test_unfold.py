import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import erskit
from erskit.ambient import CheckError, ConfigError, DomainError
from erskit.base_system import simple_config
from erskit.cyclo import Cyc, ONE, SQRT2
from erskit.presentation import RelationSet, RootSym, b_all, emit_sr
from erskit.roots import RootWindow, generate
from erskit.unfold import (
    GradedAlgebra,
    HandyDatum,
    Realization,
    ResourceError,
    _exp_ad,
    aut_n,
    build_graded,
    build_handy,
    k_vee,
    loop_bracket,
    loop_form,
    loop_term,
    loop_weight_dim,
    required_height,
    root_to_ambient,
    transport_images,
    verify_pi,
    witness_height,
    witness_words,
)
from conftest import SUITE_NAMES


def test_k_vee_values():
    assert k_vee(simple_config("A2(1)")) == {0: 1, 1: 1, 2: 1}
    assert k_vee(simple_config("D3(2)")) == {0: 1, 1: 1, 2: 1}
    # an odd-doubled node folds the whole diagram to multiplicity two
    odd = simple_config("D3(2)", g={0: "2Z+1"})
    assert k_vee(odd) == {0: 2, 1: 2, 2: 2}
    assert k_vee(simple_config("D3(2)", g={0: "Z"})) == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_handy_datum_suite(name):
    cfg = simple_config(name)
    hd = build_handy(cfg)
    assert hd.n == sum(k_vee(cfg).values())
    assert len(hd.abar) == hd.n
    # eps symmetrizes the matrix
    for i in range(hd.n):
        for j in range(hd.n):
            lhs = Fraction(hd.abar[i][j]) / hd.eps[i]
            assert lhs == Fraction(hd.abar[j][i]) / hd.eps[j]
    payload = hd.to_dict()
    assert len(payload["I"]) == hd.n


def test_handy_datum_odd_node():
    hd = build_handy(simple_config("D3(2)", g={0: "Z"}))
    assert hd.iodd == {0}
    assert hd.p(0) == 1 and hd.p(1) == 0


def test_handy_incompatible_even_doubling():
    with pytest.raises(ConfigError, match="HD5 fails"):
        build_handy(simple_config("D3(2)", g={0: "2Z"}))
    with pytest.raises(ConfigError, match="HD5 fails"):
        build_handy(
            simple_config("D3(2)", k={0: 1, 1: 2, 2: 1}, g={0: "4Z"})
        )


def _plain_datum(abar, iodd=()):
    # the graded build reads only n, abar, eps, iodd; config and kvee are
    # carried for reporting and may be stubbed
    n = len(abar)
    eps = [Fraction(1)] * n
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                if abar[i][j] and abar[j][i]:
                    eps[j] = eps[i] * abar[i][j] / abar[j][i]
    return HandyDatum(None, {}, [(i, 1) for i in range(n)], abar,
                      set(iodd), eps)


def test_graded_dims_match_rank2_root_systems():
    # for a finite Cartan matrix the quotient recovers the root multiplicity
    # one picture: nonzero weight spaces are exactly the positive roots
    a2 = build_graded(_plain_datum([[2, -1], [-1, 2]]), 4)
    assert a2.dims() == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    b2 = build_graded(_plain_datum([[2, -1], [-2, 2]]), 4)
    assert b2.dims() == {(1, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1}
    g2 = build_graded(_plain_datum([[2, -1], [-3, 2]]), 6)
    assert g2.dims() == {
        (1, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1,
    }


def test_graded_cap_raises_resource_error():
    hd = _plain_datum([[2, -1], [-3, 2]])
    with pytest.raises(ResourceError) as exc:
        build_graded(hd, 6, cap=1)
    assert exc.value.completed_height >= 2


def test_graded_cap_checked_per_weight(monkeypatch):
    # A4: height 2 spreads its basis over several weights; a cap one under
    # that height's total must stop the build before its last weights
    a4 = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(4)]
          for i in range(4)]
    hd = _plain_datum(a4)
    full = build_graded(hd, 2)
    at2 = [wt for wt in full.basis if sum(wt) == 2]
    total = sum(len(full.basis[wt]) for wt in at2)
    assert total >= 2
    built = []
    build_weight = GradedAlgebra._build_weight

    def counting(self, wt, h):
        built.append(wt)
        return build_weight(self, wt, h)

    monkeypatch.setattr(GradedAlgebra, "_build_weight", counting)
    with pytest.raises(ResourceError) as exc:
        build_graded(hd, 3, cap=total - 1)
    assert exc.value.completed_height == 1
    assert len(built) < len(at2)


def test_bad_max_mem_fails_at_build_not_import(monkeypatch):
    monkeypatch.setenv("ERSKIT_MAX_MEM", "lots")
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(erskit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import erskit.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(ConfigError, match="ERSKIT_MAX_MEM"):
        build_graded(_plain_datum([[2, -1], [-3, 2]]), 2)


def _sample_elements(alg):
    out = []
    for wt, keys in sorted(alg.basis.items()):
        if sum(wt) > 3:
            continue
        for idx in range(len(keys)):
            for sgn in ("+", "-"):
                out.append(loop_term(alg, {(sgn, wt, idx): ONE}, 1))
    for i in range(alg.n):
        out.append(loop_term(alg, {("h", i): ONE}, 0))
    return out


def _parity(x):
    pars = x.parities()
    assert len(pars) == 1
    return pars.pop()


def test_loop_bracket_super_skew_and_jacobi():
    cfg = simple_config("D3(2)", g={0: "Z"})
    alg = Realization(cfg, 5).alg
    elems = _sample_elements(alg)[:10]
    for x in elems:
        px = _parity(x)
        for y in elems:
            py = _parity(y)
            sgn = Cyc.from_rational(Fraction((-1) ** (px * py)))
            lhs = loop_bracket(x, y).plus(loop_bracket(y, x).scaled(sgn))
            assert lhs.is_zero()
    for x in elems[:5]:
        px = _parity(x)
        for y in elems[:5]:
            py = _parity(y)
            for z in elems[:5]:
                sgn = Cyc.from_rational(Fraction((-1) ** (px * py)))
                lhs = loop_bracket(x, loop_bracket(y, z))
                rhs = loop_bracket(loop_bracket(x, y), z).plus(
                    loop_bracket(y, loop_bracket(x, z)).scaled(sgn)
                )
                assert lhs.plus(rhs.scaled(-ONE)).is_zero()


def test_loop_form_invariance():
    cfg = simple_config("D3(2)")
    alg = Realization(cfg, 5).alg
    elems = _sample_elements(alg)[:8]
    for x in elems:
        for y in elems:
            for z in elems:
                lhs = loop_form(loop_bracket(x, y), z)
                rhs = loop_form(x, loop_bracket(y, z))
                assert lhs == rhs


# the invariant-form normalization kappa, frozen per doubling class
KAPPA_CASES = [
    ({}, Fraction(1, 2)),
    ({"g": {0: "2Z+1"}}, Fraction(2)),
    ({"g": {0: "Z"}}, Fraction(1, 2)),
]


@pytest.mark.parametrize("kwargs, kappa", KAPPA_CASES)
def test_verify_pi_relation_images_vanish(kwargs, kappa):
    cfg = simple_config("D3(2)", **kwargs)
    rep, real = verify_pi(cfg)
    assert rep.passed, rep.failures()
    assert rep.kappa == Cyc.from_rational(kappa)
    # generator images are parity-homogeneous with the declared parity
    for sym in b_all(cfg):
        img = real.image(sym.ident)
        assert not img.is_zero()
        assert img.parities() == {sym.parity(cfg)}


def test_verify_pi_detects_mutated_relation():
    # flipping one monomial sign in a single relation must surface as a
    # failed check at exactly that label
    cfg = simple_config("D3(2)")
    rels = emit_sr(cfg)
    mutated = RelationSet()
    broke = None
    for label, word in rels.label_words:
        if broke is None and label.startswith("SR7"):
            bad = type(word)(
                [(-c if m == 0 else c, t)
                 for m, (c, t) in enumerate(word.monomials)],
                word.parity,
            )
            mutated.add(label, bad)
            broke = label
        else:
            mutated.add(label, word)
    rep, _ = verify_pi(cfg, relations=mutated)
    assert not rep.passed
    assert [lbl for lbl, _ in rep.failures()] == [broke]


def test_required_height_grows_with_doubling():
    cfg = simple_config("D3(2)")
    odd = simple_config("D3(2)", g={0: "2Z+1"})
    assert required_height(cfg, emit_sr(cfg)) < required_height(
        odd, emit_sr(odd)
    )


def test_weight_spaces_and_transport():
    cfg = simple_config("D3(2)")
    rs = generate(cfg, RootWindow(3, 3, 2))
    words = witness_words(cfg, rs)
    h = witness_height(cfg, rs, words)
    real = Realization(cfg, h)
    vectors = {root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()}
    assert vectors <= set(words)
    images = transport_images(real, words, targets=vectors)
    for vec in vectors:
        assert loop_weight_dim(real, vec) == 1
        img = images[vec]
        assert not img.is_zero()
        # the transported vector lies in the weight space of its root
        for (key, _), _c in img.terms.items():
            assert not isinstance(key, tuple) or key[0] in ("+", "-")


def test_transport_base_symbols_are_generator_images():
    cfg = simple_config("A2(1)")
    rs = generate(cfg, RootWindow(2, 2))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    images = transport_images(real, words)
    for sym in (RootSym(0, False, 1), RootSym(1, False, -1)):
        vec = sym.vector(cfg)
        direct = real.image(sym.ident)
        got = images[vec]
        assert got.plus(direct.scaled(-ONE)).is_zero()


def test_transport_rejects_unreached_target():
    cfg = simple_config("A2(1)")
    rs = generate(cfg, RootWindow(2, 2))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    with pytest.raises(DomainError, match="no reflection word"):
        transport_images(real, words, targets=[root_to_ambient(cfg, (3, 0, 0, 0))])


def test_exp_ad_bound_follows_height():
    cfg = simple_config("A2(1)")
    real = Realization(cfg, 3)
    pos, neg = real.image("E:+a1"), real.image("E:-a1")
    # [E, F] = h and [E, h] = -2E are nonzero, [E, E] = 0: three steps
    with pytest.raises(ResourceError, match="iteration bound"):
        _exp_ad(pos, neg, bound=2)

    def same(x, y):
        return x.plus(y.scaled(-1)).is_zero()

    # the default bound 2 * height + 2 = 8 reproduces the old fixed bound 40
    nu = RootSym(1, False, 1)
    for target in (neg, pos, real.image("E:+a2"), real.image("h:a1")):
        old = _exp_ad(pos, target, 40)
        old = _exp_ad(neg.scaled(-1), old, 40)
        old = _exp_ad(pos, old, 40)
        assert same(aut_n(real, nu, target), old)
    # s_a1 sends E_a1 to a nonzero multiple of F_a1
    img = aut_n(real, nu, pos)
    assert set(img.terms) == set(neg.terms) and not img.v and not img.w


@pytest.mark.parametrize("name, kwargs, window, counts", [
    ("D3(2)", {"g": {0: "Z"}}, 3, {1: 336}),
    ("D3(2)", {"g": {0: "2Z+1"}}, 3, {1: 32, 2: 280}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}, 4, {1: 162, 3: 486}),
], ids=["Z", "2Z+1", "G2(1)-k331"])
def test_criterion_8_doubled_and_odd_configs(name, kwargs, window, counts):
    # g(a0) = Z has doubled-only roots 2*beta that no reflection word
    # reaches; their images come from [X_beta, X_beta]
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(window, window))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    images = transport_images(real, words, targets=vectors)
    # where k_vee > 1 doubles or triples Ibar, the ambient eigenspace of a
    # root may exceed its one-dimensional image: pin the counts
    assert Counter(loop_weight_dim(real, vec) for vec in vectors) == counts
    for vec in vectors:
        assert not images[vec].is_zero(), vec


def _reference_weight_dims(real):
    """loop_weight_dim by Cyc eigen-signatures and AmbientSpace.j pairings,
    as a function of the ambient vector."""
    sp, alg = real.config.space, real.alg
    h_data = []
    for lab in sp.basis_labels():
        img = real.image(f"h:{lab}")
        h_data.append(({k: c for (k, _), c in img.terms.items()}, img.w))
    index = Counter()
    for wt, basis in alg.basis.items():
        for flip in (1, -1):
            sig = []
            for cart, _ in h_data:
                eig = Cyc.from_rational(0)
                for k, c in cart.items():
                    if k[0] == "h":
                        eig = eig + c * (flip * alg.weight_h(wt, k[1]))
                    else:
                        eig = eig + c * Fraction(flip * wt[k[1]])
                sig.append(eig)
            index[tuple(sig)] += len(basis)

    def dim(lam):
        m = sp.j(sp.Lambda_a, lam)
        if m.denominator != 1:
            return 0
        want = []
        for x, (_, wcoef) in enumerate(h_data):
            target = Cyc.from_rational(sp.j(sp.basis_vector(x), lam))
            want.append(target - wcoef * m if wcoef else target)
        return index.get(tuple(want), 0)

    return dim


@pytest.mark.parametrize("name, kwargs, window", [
    ("A2(1)", {}, 4),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}, 4),
    ("D3(2)", {"g": {0: "2Z+1"}}, 4),
    ("D3(2)", {"g": {0: "Z"}}, 4),
    ("D3(2)", {"g": {0: "2Z+1"}}, 3),
])
def test_weight_map_matches_ambient_pairings(name, kwargs, window):
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(window, window))
    real = Realization(cfg, witness_height(cfg, rs, witness_words(cfg, rs)))
    roots = [c for c, _ in rs.sorted_roots()]
    # zero, a root shifted to a half-integral loop degree (the a-coordinate
    # is J(La, -)), and a lattice vector off the roots
    shifted = list(root_to_ambient(cfg, roots[0]))
    shifted[cfg.space.idx_a] += Fraction(1, 2)
    probes = [
        (0,) * cfg.space.dim,
        tuple(shifted),
        root_to_ambient(cfg, (0, 3) + (0,) * (len(roots[0]) - 2)),
    ]
    reference = _reference_weight_dims(real)
    for vec in [root_to_ambient(cfg, c) for c in roots] + probes:
        # the Fraction tuple and the same vector as plain ints
        ref = reference(vec)
        assert loop_weight_dim(real, vec) == ref, vec
        if all(x.denominator == 1 for x in vec):
            assert loop_weight_dim(real, tuple(int(x) for x in vec)) == ref, vec
    for vec in probes:
        assert loop_weight_dim(real, vec) == 0, vec


@pytest.mark.parametrize("lam", [(1, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)])
def test_loop_weight_dim_rejects_wrong_length(lam):
    real = Realization(simple_config("A2(1)"), 2)
    with pytest.raises(DomainError, match="length"):
        loop_weight_dim(real, lam)


@pytest.mark.parametrize("elem, match", [
    ({("h", 0): SQRT2}, "non-rational"),
    ({("+", (1, 0, 0), 0): ONE}, "non-Cartan"),
])
def test_weight_map_rejects_bad_cartan_image(elem, match):
    real = Realization(simple_config("A2(1)"), 2)
    real._images["h:a1"] = loop_term(real.alg, elem, 0)
    with pytest.raises(CheckError, match=match):
        loop_weight_dim(real, (0,) * real.config.space.dim)


@pytest.mark.parametrize("name, kwargs", [
    ("A2(1)", {}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
    ("A4(2)", {}),
])
def test_witness_words_replay_through_ambient_reflections(name, kwargs):
    # the integer reflection kernel against the Fraction AmbientSpace.reflect;
    # each word extends one met earlier in the map, so one reflection each
    cfg = simple_config(name, **kwargs)
    sp = cfg.space
    words = witness_words(cfg, generate(cfg, RootWindow(3, 3)))
    replayed = {}
    for vec, (sym0, word) in words.items():
        if word:
            prefix = replayed[(sym0, tuple(word[:-1]))]
            cur = sp.reflect(word[-1].vector(cfg), prefix)
        else:
            cur = sym0.vector(cfg)
        assert cur == vec, (sym0, word)
        replayed[(sym0, tuple(word))] = cur
