import os
import subprocess
import sys
from fractions import Fraction

import pytest

import erskit
from erskit.ambient import ConfigError, DomainError
from erskit.base_system import simple_config
from erskit.cyclo import Cyc, ONE
from erskit.presentation import RelationSet, RootSym, b_all, emit_sr
from erskit.roots import RootWindow, generate
from erskit.unfold import (
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


@pytest.mark.parametrize("g", ["Z", "2Z+1"])
def test_criterion_8_doubled_and_odd_configs(g):
    # g(a0) = Z has doubled-only roots 2*beta that no reflection word
    # reaches; their images come from [X_beta, X_beta]
    cfg = simple_config("D3(2)", g={0: g})
    rs = generate(cfg, RootWindow(3, 3))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    images = transport_images(real, words, targets=vectors)
    # with k_vee = 2 (g(a0) = 2Z+1) the loop algebra doubles Ibar, and the
    # ambient eigenspace of a root may exceed its one-dimensional image
    plain = set(k_vee(cfg).values()) == {1}
    for vec in vectors:
        dim = loop_weight_dim(real, vec)
        assert dim == 1 if plain else dim >= 1, vec
        assert not images[vec].is_zero(), vec


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
