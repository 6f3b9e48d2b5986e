import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import erskit
from erskit.ambient import CheckError, ConfigError, DomainError, build_ambient
from erskit.base_system import EMPTY, GClass, QebsConfig, simple_config, validate_qebs
from erskit.cyclo import Cyc, ONE, SQRT2
from erskit.exact import acc
from erskit.presentation import RelationSet, RootSym, b_all, emit_sr
from erskit.roots import RootWindow, closure, generate, mirror
from erskit.unfold import (
    GradedAlgebra,
    HandyDatum,
    LoopElement,
    Realization,
    ResourceError,
    _ad_power,
    _ibar_height,
    _image_heights,
    _node_heights,
    _reflection,
    _translate,
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
from conftest import KAPPA_CASES, SMALL_SUITE_NAMES, SUITE_NAMES


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
    for tag in ("4Z", "4Z+2"):
        with pytest.raises(ConfigError, match="HD5 fails"):
            build_handy(
                simple_config("D3(2)", k={0: 1, 1: 2, 2: 1}, g={0: tag})
            )


def test_image_past_the_handy_nodes_is_a_config_error():
    # validate_qebs rejects this config (KG3) and build_handy accepts it,
    # with k_vee(a0) = 1; the 2Z+1 image of E:+a0 asks for the node (a0,2)
    cfg = simple_config("D3(2)", k={0: 1, 1: 2, 2: 1}, g={0: "2Z+1"})
    with pytest.raises(ConfigError, match=r"\(a0,2\)"):
        Realization(cfg, 3).image("E:+a0")


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


# (family, j): j in {1, 2} on eleven plain families, and j = 3 for the
# r | j branch of D4(3)
NULL_ROOT_CASES = [(name, j) for name in (
    "A2(1)", "C2(1)", "G2(1)", "B3(1)", "D4(1)", "F4(1)",
    "A4(2)", "D3(2)", "A5(2)", "D4(3)", "E6(2)") for j in (1, 2)] + [("D4(3)", 3)]


@pytest.mark.parametrize("name, j", NULL_ROOT_CASES)
def test_null_root_multiplicity_matches_kac(name, j):
    # Kac, Infinite-Dimensional Lie Algebras, Cor. 8.3: for X_N^(r) with l
    # the rank of the affine diagram minus one, mult(j delta) = l if r = 1,
    # for A_2l^(2), or if r | j, and (N - l) / (r - 1) otherwise
    letter, N, r = name[0], int(name[1:name.index("(")]), int(name[-2])
    cfg = simple_config(name)
    marks = cfg.space.delta_marks()
    l = cfg.space.n_nodes - 1
    hd = build_handy(cfg)
    alg = build_graded(hd, j * sum(marks))
    wt = tuple(j * marks[node] for node, _ in hd.ibar)
    want = l if r == 1 or (letter == "A" and N == 2 * l) or j % r == 0 \
        else (N - l) // (r - 1)
    assert alg.dims().get(wt, 0) == want


def test_graded_cap_raises_resource_error(monkeypatch):
    hd = _plain_datum([[2, -1], [-3, 2]])
    monkeypatch.setenv("ERSKIT_MAX_MEM", "1")
    with pytest.raises(ResourceError) as exc:
        build_graded(hd, 6)
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

    def counting(self, wt):
        built.append(wt)
        return build_weight(self, wt)

    monkeypatch.setattr(GradedAlgebra, "_build_weight", counting)
    monkeypatch.setenv("ERSKIT_MAX_MEM", str(total - 1))
    with pytest.raises(ResourceError) as exc:
        build_graded(hd, 3)
    assert exc.value.completed_height == 1
    assert len(built) < len(at2)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_bracket_at_the_top_height_builds_the_next(sign):
    # G2 built to height 3: its top monomial is (1, 2), and [X_1, X_(1,2)]
    # lies at (1, 3), height 4
    hd = _plain_datum([[2, -1], [-3, 2]])
    alg = build_graded(hd, 3)
    assert set(alg.ad(sign, 1, (sign, (1, 2), 0))) == {(sign, (1, 3), 0)}
    assert alg.height == 4
    ref = build_graded(hd, 4)
    assert (alg.basis, alg.eact, alg.fact) == (ref.basis, ref.eact, ref.fact)
    # a bracket of two elements reaches the same rule
    top = alg.bracket({(sign, (1, 0), 0): ONE}, {(sign, (1, 3), 0): ONE})
    assert set(top) == {(sign, (2, 3), 0)}
    assert alg.height == 5
    ref = build_graded(hd, 5)
    assert (alg.basis, alg.eact, alg.fact) == (ref.basis, ref.eact, ref.fact)
    # below the top the table is read as built
    assert alg.ad(sign, 0, (sign, (1, 1), 0)) == {}
    assert alg.height == 5


def _e_on_f_oracle(alg, i, wt, idx, memo):
    """[E_i, F-monomial (wt, idx)] by super-Jacobi over the monomial's build
    [F_j, f']: delta_ij (-alpha(h_i)) f' + (-1)^{p_i p_j} [F_j, [E_i, f']]."""
    if (i, wt, idx) not in memo:
        j, parent = alg.basis[wt][idx]
        out = {}
        if parent is None:
            out = {("h", i): Fraction(1)} if i == j else {}
        else:
            sub, sidx = parent
            if i == j:
                out[("-", sub, sidx)] = -alg.weight_h(sub, i)
            inner = alg.ad("-", j, _e_on_f_oracle(alg, i, sub, sidx, memo))
            sign = (-1) ** (alg.hd.p(i) * alg.hd.p(j))
            for key, c in inner.items():
                out[key] = out.get(key, 0) + sign * c
        memo[i, wt, idx] = {key: c for key, c in out.items() if c}
    return memo[i, wt, idx]


@pytest.mark.parametrize("name,kwargs", [(name, {}) for name in SMALL_SUITE_NAMES] + [
    ("D3(2)", {"g": {0: "Z"}}), ("D3(2)", {"g": {0: "2Z+1"}}),
    ("C2(1)", {"g": {1: "Z"}}), ("A4(2)", {"g": {0: "Z"}})])
def test_negative_half_is_the_omega_image(name, kwargs):
    # ad reads [E_i, F-monomial] as (-1)^{p_i} omega [F_i, E-monomial]; the
    # recursion over the F-monomial's build computes it independently
    alg = build_graded(build_handy(simple_config(name, **kwargs)), 10)
    memo = {}
    for wt, basis in list(alg.basis.items()):
        for idx in range(len(basis)):
            for i in range(alg.n):
                assert alg.ad("+", i, ("-", wt, idx)) == _e_on_f_oracle(
                    alg, i, wt, idx, memo), (wt, idx, i)
    assert alg.height == 10


@pytest.mark.parametrize("name,kwargs", [(name, {}) for name in SMALL_SUITE_NAMES] + [
    ("D3(2)", {"g": {0: "Z"}}), ("D3(2)", {"g": {0: "2Z+1"}}),
    ("C2(1)", {"g": {1: "Z"}})])
def test_raising_expansions_reproduce_the_lowered_images(name, kwargs):
    # the graded build keeps [E_i, b] as its expansion eact[b][i] in the new
    # basis; every lowering operator F_j must then agree on both sides:
    # [F_j, [E_i, b]] is the fact rows of that basis combined by eact[b][i]
    alg = build_graded(build_handy(simple_config(name, **kwargs)), 12)
    checked = 0
    for wt, basis in list(alg.basis.items()):
        if sum(wt) == alg.height:
            continue
        for idx in range(len(basis)):
            for i in range(alg.n):
                combo = alg.eact[(wt, idx)][i]
                for j in range(alg.n):
                    got = {}
                    for (_, up, b), c in combo.items():
                        acc(got, alg.fact[(up, b)][j], c)
                    assert got == alg._f_on_candidate(j, i, wt, idx), (wt, idx, i, j)
                    checked += 1
    assert checked and alg.height == 12


def _form_oracle(alg, kx, ky):
    """(kx|ky) by invariance over the E-monomial's build [E_i, x']:
    ([E_i, x'] | y) = -(-1)^{p_i p_x'} (x' | [E_i, y]), down to
    (E_i | F_j) = delta_ij eps_i, with (F-mon | E-mon) by supersymmetry and
    the h/t table (h_i|h_j) = eps_j a_ij, (h_i|t_j) = eps_i delta_ij."""
    eps = alg.hd.eps
    if kx[0] in ("h", "t") and ky[0] in ("h", "t"):
        i, j = kx[1], ky[1]
        if kx[0] == ky[0] == "h":
            return eps[j] * alg.hd.abar[i][j]
        return eps[i] if kx[0] != ky[0] and i == j else 0
    if kx[0] in ("h", "t") or ky[0] in ("h", "t") or kx[0] == ky[0] \
            or sum(kx[1]) != sum(ky[1]):
        return 0
    if kx[0] == "-":
        sign = (-1) ** (alg.parity[kx[1]] * alg.parity[ky[1]])
        return sign * _form_oracle(alg, ky, kx)
    i, parent = alg.basis[kx[1]][kx[2]]
    if parent is None:  # heights cancel, so ky is a generator F_j as well
        return eps[i] if i == alg.basis[ky[1]][ky[2]][0] else 0
    sub, sidx = parent
    sign = (-1) ** (alg.hd.p(i) * alg.parity[sub])
    peeled = alg.ad("+", i, ky)
    return -sign * sum(c * _form_oracle(alg, ("+", sub, sidx), key)
                       for key, c in peeled.items())


@pytest.mark.parametrize("name,kwargs", [(name, {}) for name in SMALL_SUITE_NAMES] + [
    ("D3(2)", {"g": {0: "Z"}}), ("D3(2)", {"g": {0: "2Z+1"}}),
    ("C2(1)", {"g": {1: "Z"}}), ("A4(2)", {"g": {0: "Z"}}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}})])
def test_form_is_read_off_the_bracket(name, kwargs):
    # _form_keys reads (x|y) on root vectors off [x, y] (Kac Thm 2.2(e));
    # the recursion over each monomial's build computes it independently
    alg = build_graded(build_handy(simple_config(name, **kwargs)), 8)
    keys = [(kind, i) for kind in ("h", "t") for i in range(alg.n)]
    keys += [(sgn, wt, idx) for wt, basis in alg.basis.items()
             for idx in range(len(basis)) for sgn in ("+", "-")]
    paired = 0
    for kx in keys:
        for ky in keys:
            want = _form_oracle(alg, kx, ky)
            assert alg._form_keys(kx, ky) == want, (kx, ky)
            paired += bool(want) and kx[0] in ("+", "-")
    assert paired and alg.height == 8


_CENSUS_FAMILIES = ["A2(1)", "C2(1)", "G2(1)", "A4(2)", "D3(2)", "D4(3)",
                    "B3(1)", "C3(1)", "D4(2)", "E6(2)", "A5(2)"]


def test_doubled_class_coverage_census():
    # one doubled node class per config, k in {1, 2, 4} per node ({1, 2}
    # above three nodes), kept where validate_qebs passes: only Z and 2Z+1
    # build a handy datum, so no realization with 2Z, 4Z or 4Z+2 is checked
    # (witness_height's m_i = 2 case among them)
    census = Counter()
    for name in _CENSUS_FAMILIES:
        sp = build_ambient(name)
        ks = (1, 2, 4) if sp.n_nodes <= 3 else (1, 2)
        for tag in ("Z", "2Z", "2Z+1", "4Z", "4Z+2"):
            for cls in sp.node_orbit_classes():
                g = {i: GClass(tag) if i in cls else EMPTY
                     for i in range(sp.n_nodes)}
                for k in itertools.product(ks, repeat=sp.n_nodes):
                    cfg = QebsConfig(sp, dict(enumerate(k)), g)
                    if not validate_qebs(cfg).passed:
                        continue
                    try:
                        build_handy(cfg)
                        census[tag, "builds"] += 1
                    except ConfigError as exc:
                        census[tag, str(exc).split(":")[0]] += 1
    assert census == {
        ("Z", "builds"): 12, ("2Z+1", "builds"): 12,
        ("2Z", "HD5 fails"): 26, ("4Z", "HD5 fails"): 12,
        ("4Z+2", "HD5 fails"): 12,
    }
    assert sum(census.values()) == 74


def test_bad_max_mem_fails_at_build_not_import(monkeypatch):
    monkeypatch.setenv("ERSKIT_MAX_MEM", "lots")
    monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(erskit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import erskit.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(ConfigError, match="ERSKIT_MAX_MEM"):
        build_graded(_plain_datum([[2, -1], [-3, 2]]), 2)


# D3(2) with an odd generator (g(a0) = Z) and with a doubled node
# (g(a0) = 2Z+1), and C2(1) with an odd generator at another Cartan row
SAMPLE_CONFIGS = [("D3(2)", {0: "Z"}), ("D3(2)", {0: "2Z+1"}), ("C2(1)", {1: "Z"})]


def _sample_elements(real):
    """Loop elements that reach every branch of loop_bracket and loop_form:
    root vectors of heights 1 and 2 at loop powers 1, 0, -1 and 2, Cartan
    terms, an even sum of terms at mixed powers, the central v and the
    derivation w (the image of h:La)."""
    alg = real.alg
    keys = [(sgn, wt, idx)
            for wt, basis in sorted(alg.basis.items()) if sum(wt) <= 2
            for idx in range(len(basis)) for sgn in ("+", "-")]
    out = [loop_term(alg, {key: ONE}, (1, 0, -1, 2)[n % 4])
           for n, key in enumerate(keys)]
    out.append(loop_term(alg, {("h", 0): ONE}, 0))
    out.append(loop_term(alg, {("t", 1): ONE}, 1))
    even = [key for key in keys if alg.key_parity(key) == 0]
    mixed = loop_term(alg, {even[0]: ONE, ("h", 1): SQRT2}, -1)
    out.append(mixed.plus(loop_term(alg, {even[-1]: Fraction(1, 2)}, 2)))
    out.append(LoopElement(alg, v=ONE))
    out.append(real.image("h:La"))
    return out


def _parity(x):
    pars = x.parities()
    assert len(pars) == 1
    return pars.pop()


def test_loop_bracket_super_skew_and_jacobi():
    for name, g in SAMPLE_CONFIGS:
        elems = _sample_elements(Realization(simple_config(name, g=g), 6))
        for x in elems:
            px = _parity(x)
            for y in elems:
                py = _parity(y)
                sgn = Cyc.from_rational(Fraction((-1) ** (px * py)))
                lhs = loop_bracket(x, y).plus(loop_bracket(y, x).scaled(sgn))
                assert lhs.is_zero()
        for x in elems:
            px = _parity(x)
            for y in elems:
                py = _parity(y)
                for z in elems:
                    sgn = Cyc.from_rational(Fraction((-1) ** (px * py)))
                    lhs = loop_bracket(x, loop_bracket(y, z))
                    rhs = loop_bracket(loop_bracket(x, y), z).plus(
                        loop_bracket(y, loop_bracket(x, z)).scaled(sgn)
                    )
                    assert lhs.plus(rhs.scaled(-ONE)).is_zero()


def test_loop_form_invariance():
    for name, g in SAMPLE_CONFIGS:
        elems = _sample_elements(Realization(simple_config(name, g=g), 6))
        for x in elems:
            for y in elems:
                for z in elems:
                    lhs = loop_form(loop_bracket(x, y), z)
                    rhs = loop_form(x, loop_bracket(y, z))
                    assert lhs == rhs


@pytest.mark.parametrize("kwargs, kappa", KAPPA_CASES)
def test_verify_pi_relation_images_vanish(kwargs, kappa, kappa_realizations):
    cfg = simple_config("D3(2)", **kwargs)
    (rep, real), _ = kappa_realizations[repr(kwargs)]
    assert rep.passed, rep.failures()
    assert real.kappa == Cyc.from_rational(kappa)
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
    assert [e.label for e in rep.failures()] == [broke]


def test_required_height_grows_with_doubling():
    cfg = simple_config("D3(2)")
    odd = simple_config("D3(2)", g={0: "2Z+1"})
    assert required_height(cfg, emit_sr(cfg)) < required_height(
        odd, emit_sr(odd)
    )


@pytest.mark.parametrize("name,kwargs", [(name, {}) for name in SMALL_SUITE_NAMES]
                         + [("D3(2)", {"g": {0: "Z"}}), ("D3(2)", {"g": {0: "2Z+1"}})])
def test_image_heights_match_built_images(name, kwargs):
    # the heights that required_height and witness_height read are those of
    # the images as built, term by term
    cfg = simple_config(name, **kwargs)
    real = Realization(cfg, 2)
    per = _image_heights(cfg)
    for sym in b_all(cfg):
        built = max(sum(key[1]) for key, _ in real.image(sym.ident).terms)
        assert per[sym.ident] == built, sym.ident


@pytest.mark.parametrize("tag", ["4Z", "4Z+2"])
def test_node_heights_doubled_four_classes(tag):
    # witness_height's m_i = 2 case: the plain image at a 4Z or 4Z+2 node
    # holds a bracket, though build_handy rejects these configs with HD5
    cfg = simple_config("D3(2)", k={0: 1, 1: 2, 2: 1}, g={0: tag})
    assert _node_heights(cfg) == [2, 1, 1]


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
        vec = root_to_ambient(cfg, sym.root(cfg))
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


# the four configs of the benchmark's witness workload
WITNESS_CASES = [
    ("A2(1)", {}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
    ("D3(2)", {"g": {0: "Z"}}),
]
WITNESS_IDS = ["A2(1)", "G2(1)-k331", "D3(2)-2Z+1", "D3(2)-Z"]


def _a21_transport_case():
    """A2(1) at window (3,3), to be built at height 9, two below its
    witness_height 11, which transport reaches and does not pass: from 9
    transport (or a lookup) grows the algebra."""
    cfg = simple_config("A2(1)")
    rs = generate(cfg, RootWindow(3, 3))
    words = witness_words(cfg, rs)
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    return cfg, words, vectors, witness_height(cfg, rs, words) - 2


def test_transport_growth_stops_at_the_basis_budget(monkeypatch):
    cfg, words, vectors, h = _a21_transport_case()
    monkeypatch.setenv("ERSKIT_MAX_MEM", str(Realization(cfg, h).alg._size))
    real = Realization(cfg, h)
    with pytest.raises(ResourceError, match="over the budget") as exc:
        transport_images(real, words, targets=vectors)
    assert exc.value.completed_height == h


def test_transport_does_not_grow_on_nilpotence_error(monkeypatch):
    # the series bound's own error surfaces as itself, not as growth up to
    # the basis budget
    cfg, words, vectors, h = _a21_transport_case()
    monkeypatch.setenv("ERSKIT_MAX_MEM",
                       str(4 * Realization(cfg, h).alg._size))
    real = Realization(cfg, h)
    short = _ad_power  # past the first power, as with a bound of 1
    monkeypatch.setattr(erskit.unfold, "_ad_power",
                        lambda x, term, n: short(x, term, n + 2 * x.alg.height + 1))
    with pytest.raises(ResourceError, match="iteration bound"):
        transport_images(real, words, targets=vectors)


@pytest.mark.parametrize("name, kwargs", WITNESS_CASES, ids=WITNESS_IDS)
def test_transport_stays_at_the_witness_height(name, kwargs):
    # the plain mirrors and the translations climb no higher than the
    # window's own Ibar height
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(4, 4))
    words = witness_words(cfg, rs)
    h = witness_height(cfg, rs, words)
    real = Realization(cfg, h)
    transport_images(real, words, targets=[root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()])
    assert real.alg.height == h


def test_transport_calls_aut_n_per_mirror_edge_and_per_translation(monkeypatch):
    # one aut_n call per plain-mirror edge reached, and 4n per translation
    # (j, +-1) used, two mirrors on the 2n Ibar generators: no translation
    # goes through aut_n per root
    cfg = simple_config("A2(1)")
    rs = generate(cfg, RootWindow(4, 4))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    calls = []
    orig = erskit.unfold.aut_n
    monkeypatch.setattr(erskit.unfold, "aut_n",
                        lambda *args: calls.append(args[1]) or orig(*args))
    images = transport_images(real, words, targets=vectors)
    edges = [words[vec][2] for vec in images if words[vec][1] is not None]
    mirrors = [edge for edge in edges if isinstance(edge, RootSym)]
    translations = set(edges) - set(mirrors)
    assert mirrors and translations
    assert len(calls) == len(mirrors) + 4 * real.alg.n * len(translations)


def test_translation_rejects_a_generator_image_off_the_diagonal(monkeypatch):
    # one extra term in the image of a starred mirror breaks T's diagonal
    # form on the Ibar generators: CheckError, and no character is kept
    cfg = simple_config("A2(1)")
    real = Realization(cfg, 4)
    orig = erskit.unfold.aut_n
    extra = loop_term(real.alg, {("+", (1, 1, 0), 0): 1}, 0)

    def widened(real, nu, target):
        out = orig(real, nu, target)
        return out.plus(extra) if nu.star else out

    monkeypatch.setattr(erskit.unfold, "aut_n", widened)
    with pytest.raises(CheckError, match="not diagonal"):
        _translate(real, (1, 1), real.image("E:+a0"))
    assert not real._translations


@pytest.mark.parametrize("bad", ["Cartan key", "v", "w"])
def test_translation_rejects_a_cartan_or_central_target(bad):
    cfg = simple_config("A2(1)")
    real = Realization(cfg, 4)
    target = real.image("E:+a0")
    if bad == "Cartan key":
        target = target.plus(loop_term(real.alg, {("h", 0): 1}, 1))
    else:
        target = LoopElement(real.alg, target.terms, *((1, 0) if bad == "v" else (0, 1)))
    with pytest.raises(CheckError, match="Cartan key" if bad == "Cartan key" else "central"):
        _translate(real, (1, 1), target)


def test_a_changed_character_is_caught_by_the_product():
    # a character with one generator scalar doubled still transports, but
    # the expanded-edge reference of test_transport_matches_the_product
    # tells it apart
    cfg = simple_config("A2(1)")
    rs = generate(cfg, RootWindow(3, 3))
    words = witness_words(cfg, rs)
    h = witness_height(cfg, rs, words)
    vec, (_, up, edge) = next((vec, entry) for vec, entry in words.items()
                              if isinstance(entry[2], tuple))
    parent = transport_images(Realization(cfg, h), words, targets=[up])[up]
    half, wt, _ = next(iter(parent.terms))[0]
    g = next(g for g, mult in enumerate(wt) if mult)
    real = Realization(cfg, h)
    _translate(real, edge, loop_term(real.alg, {}, 0))  # the generators only
    letters = real._translations[edge][0][half]
    chi, shift = letters[g]
    letters[g] = (2 * chi, shift)
    images = transport_images(real, words)
    assert vec in _product_mismatches(real, words, images)


def test_weight_map_rebuilt_after_transport_grows():
    cfg, words, vectors, h = _a21_transport_case()
    real = Realization(cfg, h)
    before = [loop_weight_dim(real, v) for v in vectors]
    transport_images(real, words, targets=vectors)
    assert real.alg.height > h
    fresh = Realization(cfg, real.alg.height)
    assert before == [loop_weight_dim(fresh, v) for v in vectors]
    # words vectors whose weights transport built: a map kept from the
    # first lookup would lack them, and the lookups grow nothing here
    grown = real.alg.height
    probes = [v for v in words
              if h < _ibar_height(real.node_heights, v) <= grown]
    assert probes
    assert ([loop_weight_dim(real, v) for v in probes]
            == [loop_weight_dim(fresh, v) for v in probes])
    assert real.alg.height == grown


def test_lookup_grows_to_the_weight_height(monkeypatch):
    cfg, words, vectors, h = _a21_transport_case()
    low = Realization(cfg, h)
    top = max(_ibar_height(low.node_heights, v) for v in words)
    assert top > h
    dims = [loop_weight_dim(low, v) for v in words]
    assert low.alg.height == top
    high = Realization(cfg, top)
    assert dims == [loop_weight_dim(high, v) for v in words]
    # growth for a lookup stops at the basis budget like any other
    monkeypatch.setenv("ERSKIT_MAX_MEM", str(low.alg._size - 1))
    capped = Realization(cfg, h)
    with pytest.raises(ResourceError, match="over the budget"):
        for v in words:
            loop_weight_dim(capped, v)


@pytest.mark.parametrize("name, kwargs", [
    ("A2(1)", {}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
    ("D3(2)", {"g": {0: "Z"}}),
], ids=["A2(1)", "G2(1)-k331", "D3(2)-2Z+1", "D3(2)-Z"])
def test_witness_height_matches_the_padded_bound(name, kwargs):
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(3, 3))
    words = witness_words(cfg, rs)
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    # the reference: every window root and every words vector at
    # sum |c_i| k_vee_i, plus 2 max k_vee of slack for the series
    kv = k_vee(cfg)

    def padded(coords):
        return sum(abs(coords[i]) * kv[i] for i in range(cfg.space.n_nodes))

    old_height = (max(padded(v) for v in vectors + list(words))
                  + 2 * max(kv.values()))
    old = Realization(cfg, old_height)
    old_images = transport_images(old, words, targets=vectors)
    assert old.alg.height == old_height

    real = Realization(cfg, witness_height(cfg, rs, words))
    before = [loop_weight_dim(real, v) for v in vectors]
    images = transport_images(real, words, targets=vectors)
    assert list(images) == list(old_images)
    for vec, img in images.items():
        ref = old_images[vec]
        assert (img.terms, img.v, img.w) == (ref.terms, ref.v, ref.w), vec
    # grown to what transport touched, still below the padded bound
    assert real.alg.height < old_height
    dims = [loop_weight_dim(old, v) for v in vectors]
    assert before == dims
    assert [loop_weight_dim(real, v) for v in vectors] == dims
    # past the window the lookups grow the algebra to each weight's height
    assert ([loop_weight_dim(real, v) for v in words]
            == [loop_weight_dim(old, v) for v in words])
    assert old.alg.height == old_height


@pytest.mark.parametrize("name, kwargs", [
    ("A2(1)", {}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
], ids=["A2(1)", "D3(2)-2Z+1"])
def test_loop_bracket_shift_equivariant(name, kwargs):
    # the invariant behind aut_n's per-key memo: bracketing with a
    # root image or an odd square shifts the loop power of every term and
    # adds to v only at total power 0
    cfg = simple_config(name, **kwargs)
    real = Realization(cfg, 3)
    alg = real.alg
    xs = [real.image(sym.ident) for sym in b_all(cfg)]
    xs += [loop_bracket(real.image(sym.ident), real.image(sym.ident))
           .scaled(Fraction(1, 4))
           for sym in b_all(cfg) if sym.parity(cfg)]
    keys = [(kind, i) for kind in ("h", "t") for i in range(alg.n)]
    keys += [(sgn, wt, idx)
             for wt, basis in sorted(alg.basis.items()) if sum(wt) <= 3
             for idx in range(len(basis)) for sgn in ("+", "-")]
    for x in xs:
        (power,) = {p for _, p in x.terms}
        for key in keys:
            base = loop_bracket(x, loop_term(alg, {key: ONE}, 0))
            for m in range(-3, 4):
                got = loop_bracket(x, loop_term(alg, {key: ONE}, m))
                shifted = [((k, n + m), c) for (k, n), c in base.terms.items()]
                assert list(got.terms.items()) == shifted, (x, key, m)
                assert not got.w
                assert not got.v or power + m == 0, (x, key, m)


@pytest.mark.parametrize("name, kwargs", [
    ("A2(1)", {}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
    ("D3(2)", {"g": {0: "Z"}}),
    ("C2(1)", {"g": {1: "2Z+1"}}),
], ids=["A2(1)", "G2(1)-k331", "D3(2)-2Z+1", "D3(2)-Z", "C2(1)-2Z+1"])
def test_transport_matches_the_product(name, kwargs):
    # every transported vector is the three-series product applied to its
    # parent's image, which reads neither aut_n's memo nor its closed form,
    # nor a translation's character
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(3, 3))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    images = transport_images(real, words)
    assert list(images) == list(words)
    assert {type(edge) for _, _, edge in words.values()} == {type(None), RootSym, tuple}
    assert _product_mismatches(real, words, images) == []
    # targets in Q nu, where the nu-string meets weight 0 and the brackets
    # add to v: -nu, which no words map reaches, and 0, where a Cartan image
    # under a starred nu gains a v, which the memo keeps at loop power 0 only
    for nu in (RootSym(1, False, 1), RootSym(0, True, 1)):
        for target in (real.image(nu.negate().ident), real.image(f"h:a{nu.node}")):
            got, want = aut_n(real, nu, target), _product(real, nu, target)
            assert got.terms == want.terms
            assert (got.v, got.w) == (want.v, want.w)
        assert bool(want.v) == nu.star


def _edge_product(real, edge, x):
    """A words edge applied to x by `_product`: a plain mirror, or for a
    translation (j, +-1) the plain mirror of node j, then the starred one,
    in the other order for -1."""
    if isinstance(edge, RootSym):
        return _product(real, edge, x)
    j, sign = edge
    for nu in [RootSym(j, False, 1), RootSym(j, True, 1)][::sign]:
        x = _product(real, nu, x)
    return x


def _product_mismatches(real, words, images):
    """The vectors whose image differs from `_edge_product` on its parent's
    image (or from the generator image at a seed) in terms, coefficient
    types, v or w."""
    bad = []
    for vec, (sym0, up, edge) in words.items():
        if vec not in images:
            continue
        img = images[vec]
        want = real.image(sym0.ident) if up is None else _edge_product(real, edge, images[up])
        if (img.terms != want.terms or (img.v, img.w) != (want.v, want.w)
                or [type(c) for c in img.terms.values()]
                != [type(want.terms[k]) for k in img.terms]):
            bad.append(vec)
    return bad


def _stored_form(c) -> bool:
    """c is in the one form acc stores a coefficient in: an int, a Fraction
    with denominator > 1, or a Cyc outside Q."""
    if type(c) is Fraction:
        return c.denominator > 1
    if type(c) is Cyc:
        return not c.is_rational()
    return type(c) is int


def test_stored_form_rejects_other_scalars():
    assert all(map(_stored_form, (3, -1, Fraction(1, 2), SQRT2)))
    assert not any(map(_stored_form, (1.0, 0.5, Fraction(2), ONE, True)))


@pytest.mark.parametrize("name, kwargs", [(name, {}) for name in SMALL_SUITE_NAMES] + [
    ("D3(2)", {"g": {0: "Z"}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}),
], ids=SMALL_SUITE_NAMES + ["D3(2)-Z", "D3(2)-2Z+1", "G2(1)-k331"])
def test_coefficients_in_stored_form(name, kwargs):
    # every rational coefficient of the realization is an int or a Fraction,
    # never a Cyc, a Fraction equal to an int or a float: the structure
    # constants, and the terms, v and w of the generator images, the Cartan
    # images and the transported root vectors
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(3, 3))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    images = [real.image(sym.ident) for sym in b_all(cfg)]
    images += [real.image(f"h:{lab}") for lab in cfg.space.basis_labels()]
    images += transport_images(real, words).values()
    values = [c for img in images for c in (*img.terms.values(), img.v, img.w)]
    values += [c for table in (real.alg.eact, real.alg.fact)
               for acts in table.values() for elem in acts.values()
               for c in elem.values()]
    assert values
    bad = [c for c in values if not _stored_form(c)]
    assert not bad, bad[:5]


def _exp_ad(x, target, bound=40):
    """exp(ad x) applied to target, the series of (ad x)^n target / n!, each
    power added in place; a power past bound raises ResourceError."""
    terms, v = dict(target.terms), target.v
    term, c = target, Fraction(1)
    for n in itertools.count(1):
        if n > bound:
            raise ResourceError("ad is not nilpotent within the iteration bound")
        term = loop_bracket(x, term)
        if term.is_zero():
            return LoopElement(x.alg, terms, v, target.w)
        c /= n
        acc(terms, term.terms, c)
        v = v + c * term.v


def _product(real, nu, target):
    """r_nu as the product exp(ad e) exp(ad f) exp(ad e) of three series,
    with e and f built here from the generator images: the reference for
    aut_n's memo and closed form."""
    pos = real.image(nu.ident)
    neg = real.image(nu.negate().ident)
    if nu.parity(real.config):
        e = loop_bracket(pos, pos).scaled(Fraction(1, 4))
        f = loop_bracket(neg, neg).scaled(Fraction(1, 4))
    else:
        e, f = pos, neg.scaled(-1)
    return _exp_ad(e, _exp_ad(f, _exp_ad(e, target)))


def _built_keys(alg):
    """Every h and t key and every built monomial key of either sign."""
    keys = [(kind, i) for kind in ("h", "t") for i in range(alg.n)]
    return keys + [(sgn, wt, idx) for wt, basis in sorted(alg.basis.items())
                   for idx in range(len(basis)) for sgn in ("+", "-")]


def _assert_aut_n_is_the_product(real, nus):
    """aut_n against `_product` on every built key at loop powers 0, +-1,
    +-p and +-2p, p the loop power of nu's e, in terms, coefficient types, v
    and w; returns how many targets it compared.  For a starred nu and an
    odd square the powers +-p and +-2p meet the central term, which the
    memo's image, taken at power 0, must leave out."""
    alg = real.alg
    keys = _built_keys(alg)
    targets = 0
    for nu in nus:
        (p,) = {n for _, n in _reflection(real, nu)[0].terms}
        for key in keys:
            for power in sorted({-1, 0, 1, p, -p, 2 * p, -2 * p}):
                target = loop_term(alg, {key: ONE}, power)
                got = aut_n(real, nu, target)
                want = _product(real, nu, target)
                assert got.terms == want.terms, (nu, key, power)
                assert ([type(c) for c in got.terms.values()]
                        == [type(want.terms[k]) for k in got.terms]), (nu, key, power)
                assert (got.v, got.w) == (want.v, want.w), (nu, key, power)
                targets += 1
    return targets


@pytest.mark.parametrize("name, kwargs", [(name, {}) for name in SMALL_SUITE_NAMES] + [
    ("D3(2)", {"g": {0: "Z"}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
    ("C2(1)", {"g": {1: "2Z+1"}}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}),
], ids=SMALL_SUITE_NAMES + ["D3(2)-Z", "D3(2)-2Z+1", "C2(1)-2Z+1", "G2(1)-k331"])
def test_aut_n_closed_form_is_the_product(name, kwargs):
    # the sl2 closed form on every target, extremal or mid-string, against
    # the three series
    cfg = simple_config(name, **kwargs)
    real = Realization(cfg, 3)
    nus = [sym for sym in b_all(cfg) if sym.sign > 0]
    assert _assert_aut_n_is_the_product(real, nus)
    # a target with several terms, a v and a w: the form applies term by
    # term and to w, and fixes v
    alg = real.alg
    wts = [wt for wt, basis in sorted(alg.basis.items()) if basis][:3]
    mixed = loop_term(alg, {(sgn, wt, 0): ONE for wt in wts for sgn in "+-"}, 1)
    mixed = LoopElement(alg, mixed.terms, 3, 2)
    for nu in nus:
        got, want = aut_n(real, nu, mixed), _product(real, nu, mixed)
        assert (got.terms, got.v, got.w) == (want.terms, want.v, want.w), nu


def test_aut_n_rejects_a_scaled_image():
    # E_nu scaled by 2 breaks [h, e] = 2e: the triple check rejects nu, and
    # aut_n with it, with CheckError
    cfg = simple_config("A2(1)")
    real = Realization(cfg, 3)
    nu = RootSym(1, False, 1)
    real._images[nu.ident] = real.image(nu.ident).scaled(2)
    with pytest.raises(CheckError, match="not an sl2 triple"):
        _reflection(real, nu)
    with pytest.raises(CheckError, match="not an sl2 triple"):
        aut_n(real, nu, real.image("E:+a2"))
    assert nu.ident not in real._reflections


@pytest.mark.parametrize("name, kwargs", [(name, {}) for name in SUITE_NAMES] + [
    ("D3(2)", {"g": {0: "Z"}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
    ("C2(1)", {"g": {1: "2Z+1"}}),
    ("G2(1)", {"k": {0: 3, 1: 3, 2: 1}}),
], ids=SUITE_NAMES + ["D3(2)-Z", "D3(2)-2Z+1", "C2(1)-2Z+1", "G2(1)-k331"])
def test_reflection_certifies_every_nu(name, kwargs):
    # no config that builds reaches an uncertified triple: every base root
    # of either sign gets its sl2 triple.  The other two D3(2) doubling
    # variants, k = (1,2,1) with g(a0) = 4Z or 2Z, fail build_handy (HD5)
    cfg = simple_config(name, **kwargs)
    real = Realization(cfg, 2)
    for sym in b_all(cfg):
        e, f, h, memo = _reflection(real, sym)
        assert h and not memo, sym.ident
    assert len(real._reflections) == len(b_all(cfg))


@pytest.mark.parametrize("name, kwargs", [(name, {}) for name in SMALL_SUITE_NAMES] + [
    ("D3(2)", {"g": {0: "Z"}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
], ids=SMALL_SUITE_NAMES + ["D3(2)-Z", "D3(2)-2Z+1"])
def test_h_eigenvalue_read_off_the_weight(name, kwargs):
    # the weight k that aut_n reads off a key through h's coefficients is
    # the coefficient of [h, key t^m] / key t^m at every loop power m, and
    # an int; w has weight 0
    cfg = simple_config(name, **kwargs)
    real = Realization(cfg, 3)
    alg = real.alg
    keys = _built_keys(alg)
    for nu in b_all(cfg):
        e, f, h, _ = _reflection(real, nu)
        hx = loop_bracket(e, f.scaled(-1))
        assert hx.terms == h
        assert loop_bracket(hx, LoopElement(alg, {}, 0, 1)).is_zero()
        for key in keys:
            k = alg.h_eig(h, key)
            assert type(k) is int, (nu, key, k)
            for power in (-1, 0, 1):
                x = loop_term(alg, {key: ONE}, power)
                assert loop_bracket(hx, x) == x.scaled(k), (nu, key, power)


@pytest.mark.parametrize("mutant", ["h/7", "root key in h"])
def test_aut_n_product_where_the_form_does_not_apply(mutant):
    # h/7: a record whose h is a seventh of the true one gives every key of
    # nonzero weight (|k| <= 2 here) a non-integral k, which the closed form
    # rejects with CheckError, while a weight-0 key still maps to the
    # product.  root key in h: F_nu replaced by F_nu + E_a2 puts
    # [E_a1, E_a2] into h, which fails the triple check
    cfg = simple_config("A2(1)")
    real = Realization(cfg, 3)
    nu = RootSym(1, False, 1)
    if mutant == "root key in h":
        neg = nu.negate().ident
        real._images[neg] = real.image(neg).plus(real.image("E:+a2"))
        with pytest.raises(CheckError, match="not an sl2 triple"):
            aut_n(real, nu, real.image("E:+a2"))
        return
    e, f, h, _ = _reflection(real, nu)
    real._reflections[nu.ident] = (e, f, {key: Fraction(c, 7) for key, c in h.items()}, {})
    keys = _built_keys(real.alg)
    moved = [key for key in keys if real.alg.h_eig(h, key)]
    assert 0 < len(moved) < len(keys)
    for key in keys:
        target = loop_term(real.alg, {key: ONE}, 1)
        if key in moved:
            with pytest.raises(CheckError, match="not an int"):
                aut_n(real, nu, target)
        else:
            got, want = aut_n(real, nu, target), _product(real, nu, target)
            assert (got.terms, got.v, got.w) == (want.terms, want.v, want.w), key


def _scalar(x):
    return (x if isinstance(x, Cyc) else Cyc.from_rational(x)).serialize()


def _images_digest(images):
    """sha256 of the images with vectors and terms sorted, coefficients,
    v and w as Cyc coordinates."""
    dump = [[vec, [[key, power, _scalar(c)]
                   for (key, power), c in sorted(img.terms.items())],
             _scalar(img.v), _scalar(img.w)]
            for vec, img in sorted(images.items())]
    return hashlib.sha256(json.dumps(dump).encode()).hexdigest()


def _starred_words(cfg, rs):
    """The reference witness tree: one breadth-first closure over the plain
    and the starred mirrors, with two level periods of slack in both c_0
    and n, in the words map's form."""
    c0_bound = rs.window.M * rs.delta0 + 2 * rs.period
    n_bound = rs.window.N + 2 * rs.period

    def keep(vec):
        return abs(vec[0]) <= c0_bound and abs(vec[-1]) <= n_bound and rs.member(vec)

    mirrors = [(sym, mirror(cfg, sym.node, sym.star)) for sym in b_all(cfg) if sym.sign > 0]
    seeds = []
    for sym, _ in mirrors:
        seeds += [(sym.root(cfg), sym), (sym.negate().root(cfg), sym.negate())]
    return {root_to_ambient(cfg, vec):
            (sym0, None if up is None else root_to_ambient(cfg, up), nu)
            for vec, (sym0, up, nu) in closure(seeds, mirrors, keep).items()}


@pytest.mark.parametrize("name, kwargs, window", [
    pytest.param(name, kwargs, window, id=f"{ident}-{window}")
    for (name, kwargs), ident in zip(
        WITNESS_CASES + [("C2(1)", {"g": {1: "2Z+1"}}), ("D4(3)", {})],
        WITNESS_IDS + ["C2(1)-2Z+1", "D4(3)"])
    for window in (3, 4)
] + [pytest.param("A4(2)", {"k": {0: 1, 1: 2, 2: 4}}, 4, id="A4(2)-k124-4")])
def test_witness_tree_matches_the_starred_reference(name, kwargs, window):
    # the plain mirrors and the translations witness the same window roots
    # as the closure over the plain and the starred mirrors, and each image
    # is a nonzero multiple of the reference tree's image
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(window, window))
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    got, want = [], []
    for words in (witness_words(cfg, rs), _starred_words(cfg, rs)):
        real = Realization(cfg, witness_height(cfg, rs, words))
        images = transport_images(real, words, targets=vectors)
        got, want = want, {v: images[v] for v in vectors if v in images}
    assert list(got) == list(want) == vectors
    for vec, img in got.items():
        ref = want[vec]
        assert not img.is_zero() and not img.v and not img.w, vec
        assert set(img.terms) == set(ref.terms) and not ref.v and not ref.w, vec
        first = next(iter(img.terms))
        for key, c in img.terms.items():
            assert c * ref.terms[first] == ref.terms[key] * img.terms[first], (vec, key)


# a change here is a change of the transported images: the images depend
# on the tree's paths as well as on aut_n, each within a nonzero scalar
PINNED_IMAGES = [
    pytest.param("A2(1)", {},
                 "0b6ba1ce34780287f0f3eb8e5530adee11398a8cc3afef21486e71e4cf6f0953",
                 id="A2(1)"),
    pytest.param("G2(1)", {"k": {0: 3, 1: 3, 2: 1}},
                 "26ca48c91cbe8edf3a29bffa9bc29839571ef3ab415d39537f99a5644adc615b",
                 id="G2(1)-k331"),
    pytest.param("D3(2)", {"g": {0: "2Z+1"}},
                 "869bf604f0c1d219b9289bc37d6a7f4be811e4402f9251b70bce76956d6611f9",
                 id="D3(2)-2Z+1"),
    pytest.param("D3(2)", {"g": {0: "Z"}},
                 "31e8292f212bb96534dc65d8c59947ab300743b472e67c4e3d671ac7dc21b78c",
                 id="D3(2)-Z"),
]


@pytest.mark.parametrize("name, kwargs, digest", PINNED_IMAGES)
def test_transported_images_pinned(name, kwargs, digest):
    cfg = simple_config(name, **kwargs)
    rs = generate(cfg, RootWindow(3, 3))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    images = transport_images(real, words, targets=vectors)
    assert _images_digest(images) == digest


def test_exp_ad_bound_follows_height():
    cfg = simple_config("A2(1)")
    real = Realization(cfg, 3)
    pos, neg = real.image("E:+a1"), real.image("E:-a1")
    # [E, F] = h and [E, h] = -2E are nonzero, [E, E] = 0: three steps
    with pytest.raises(ResourceError, match="iteration bound"):
        _exp_ad(pos, neg, bound=2)
    # aut_n's powers stop at 2 * height + 2 = 8
    assert not _ad_power(pos, neg, 8).is_zero()
    with pytest.raises(ResourceError, match="iteration bound"):
        _ad_power(pos, neg, 9)

    def same(x, y):
        return x.plus(y.scaled(-1)).is_zero()

    # the bound 2 * height + 2 = 8 reproduces the fixed bound 40
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
        m = sp.j(sp.basis_vector(sp.idx_La), lam)
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
    # the integer reflection kernel against the Fraction AmbientSpace.reflect:
    # every tree edge of a parent met earlier is one ambient reflection in a
    # plain mirror, or a translation (j, +-1), the reflections in alpha_j and
    # then alpha_j* (the other order for -1); every seed is a base root
    cfg = simple_config(name, **kwargs)
    sp = cfg.space
    words = witness_words(cfg, generate(cfg, RootWindow(3, 3)))
    met, translated = set(), 0
    for vec, (sym0, parent, edge) in words.items():
        if parent is None:
            assert edge is None and vec == root_to_ambient(cfg, sym0.root(cfg)), sym0
        else:
            assert parent in met and words[parent][0] == sym0, vec
            if isinstance(edge, RootSym):
                assert not edge.star and edge.sign == 1, vec
                nus = [edge]
            else:
                j, sign = edge
                assert sign in (1, -1), vec
                nus = [RootSym(j, False, 1), RootSym(j, True, 1)][::sign]
                translated += 1
            want = parent
            for nu in nus:
                want = sp.reflect(root_to_ambient(cfg, nu.root(cfg)), want)
            assert vec == want, vec
        met.add(vec)
    assert translated
