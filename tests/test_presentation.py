import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from erskit import presentation
from erskit.ambient import CheckError, ConfigError, DomainError
from erskit.base_system import simple_config, validate_qebs
from erskit.cyclo import SQRT2
from erskit.presentation import (
    LieWord,
    RootSym,
    b_all,
    b_plus,
    elliptic_basis,
    emit_sr,
    emit_sr_sharp,
    emit_tsr,
)
from erskit.quantum_torus import HatElement, QRealization, hat_bracket
from erskit.unfold import (
    Realization,
    loop_bracket,
    loop_zero,
    required_height,
    root_to_ambient,
)
from conftest import SMALL_SUITE_NAMES, SUITE_NAMES


def x_coeff(config, mu, nu):
    """Serre exponent for the ordered pair (mu, nu), from the integer keys
    the emitters use."""
    return presentation._x(config.space.cartan, presentation._key(config, mu),
                           presentation._key(config, nu))


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


@pytest.mark.parametrize("name", SUITE_NAMES + list(VARIANTS))
def test_ident_parse_inverts_ident(name):
    for sym in b_all(_config(name)):
        assert RootSym.parse(sym.ident) == sym


@pytest.mark.parametrize("ident", [
    "x", "h:a1", "E:a1", "E:+a", "E:+b1", "E:+a01", "E:+a-1", "E:+a1**",
    "E:*a1", " E:+a1", "E:+a1 ", "E:+a\u0661",
])
def test_ident_parse_rejects_other_strings(ident):
    with pytest.raises(DomainError, match="unknown generator"):
        RootSym.parse(ident)


@pytest.mark.parametrize("make", [lambda cfg: Realization(cfg, 2), QRealization],
                         ids=["loop", "quantum-torus"])
@pytest.mark.parametrize("ident", ["x", "h:zz", "h:a3", "E:+a3", "E:+a1**"])
def test_realizations_reject_unknown_idents(make, ident):
    real = make(simple_config("A2(1)"))
    with pytest.raises(DomainError, match="unknown"):
        real.image(ident)


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
            vm = root_to_ambient(cfg, mu.root(cfg))
            vn = root_to_ambient(cfg, nu.root(cfg))
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
            vm = root_to_ambient(cfg, mu.root(cfg))
            vn = root_to_ambient(cfg, nu.root(cfg))
            if vm == vn or all(a + b == 0 for a, b in zip(vm, vn)):
                continue
            pairing = 2 * sp.j(vm, vn) / sp.j(vm, vm)
            if pairing < 0 and pairing.denominator != 1:
                with pytest.raises(DomainError):
                    x_coeff(cfg, mu, nu)
                continue
            want = 1 - pairing if pairing < 0 else 0
            assert x_coeff(cfg, mu, nu) == want, (mu.ident, nu.ident)


@pytest.mark.parametrize("name", SUITE_NAMES + list(VARIANTS))
def test_integer_pairing_matches_fraction_form(name):
    # AmbientSpace.pair and norm on root tuples against J on the Fraction
    # ambient vectors, over every generator root and basis vector
    cfg = _config(name)
    sp = cfg.space
    for mu in b_all(cfg):
        root = mu.root(cfg)
        vec = root_to_ambient(cfg, root)
        assert sp.norm(root) == sp.j(vec, vec), mu.ident
        for x in range(sp.dim):
            assert sp.pair(x, root) == sp.j(sp.basis_vector(x), vec), (x, mu.ident)
        # norm on two-node lattice vectors reads the off-diagonal block too
        for nu in b_all(cfg):
            both = tuple(a + b for a, b in zip(root, nu.root(cfg)))
            lifted = root_to_ambient(cfg, both)
            assert sp.norm(both) == sp.j(lifted, lifted), (mu.ident, nu.ident)


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
        if mu.root(cfg) != nu.root(cfg)
        and any(a + b for a, b in zip(mu.root(cfg), nu.root(cfg)))
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
        Fraction(cfg.c_of(i)) * sp.j(sp.basis_vector(i), sp.basis_vector(i)) * marks[i]
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


def _uses_only(word, allowed):
    """Whether every root leaf of word lies in allowed: the filter that once
    cut the TSR set out of the sharp set, kept as an oracle."""
    def walk(tree):
        if isinstance(tree, str):
            return tree.startswith("h:") or tree in allowed
        return walk(tree[0]) and walk(tree[1])

    return all(walk(t) for _, t in word.monomials)


def _k_g_configs(name):
    """The configs of name with k in {1, 2} on each node and g empty, or Z
    or 2Z+1 on one node, that validate_qebs accepts; name alone above five
    nodes."""
    n = simple_config(name).space.n_nodes
    if n > 5:
        return [simple_config(name)]
    gs = [None] + [{i: tag} for i in range(n) for tag in ("Z", "2Z+1")]
    cfgs = (simple_config(name, k=dict(enumerate(ks)), g=g)
            for ks in itertools.product((1, 2), repeat=n) for g in gs)
    return [cfg for cfg in cfgs if validate_qebs(cfg).passed]


@pytest.mark.parametrize("name", SUITE_NAMES + list(VARIANTS))
def test_tsr_is_the_sharp_set_on_gamma(name):
    # before TSR10-TSR12, emit_tsr is the sharp set filtered to the words on
    # Gamma and -Gamma, T-prefixed, in the same order
    cfgs = [_config(name)] if name in VARIANTS else _k_g_configs(name)
    for cfg in cfgs:
        gamma = elliptic_basis(cfg)["gamma"]
        allowed = {m.ident for m in gamma} | {m.negate().ident for m in gamma}
        want = [("T" + label, word)
                for label, word in emit_sr_sharp(cfg).label_words
                if _uses_only(word, allowed)]
        got = [(label, word) for label, word in emit_tsr(cfg).label_words
               if not label.startswith(("TSR10", "TSR11", "TSR12"))]
        assert got == want, cfg.describe()


def test_relation_json_deterministic():
    cfg = simple_config("D3(2)")
    assert emit_sr(cfg).to_json() == emit_sr(cfg).to_json()
    payload = json.loads(emit_tsr(cfg).to_json())
    assert isinstance(payload, list) and payload


# sha256 of the emit_sr, emit_sr_sharp and emit_tsr JSON: a change here is a
# change of the emitted relations
RELATION_DIGESTS = {
    "A2(1)": (
        "0a7f1f621c9af9e40c7fb194e2837dd4638c89a683fcfc99a37bb7ebe7dc0705",
        "a942b529e171a21822469b306d01d5fad877164da0ff2c0035191fb357b7fec0",
        "31100a16498dcac9bd9e519c376c5f0fbb6add7720e09403f7ce230c5c5cf02e",
    ),
    "B3(1)": (
        "64000c4e1bbc574b24622bfe2502db5734c0ca212b230322854f4b868e423523",
        "d48d1460fd5ced184e7262562da1990dfb5aaaa8f40977f2a009c8406efdf2a8",
        "7c89c2f8ac697836a89591517fc426e3f25361f320ed88f8c06491e88682be26",
    ),
    "C2(1)": (
        "7b2d1e51f56156f7b5434a0aeff23924983e6d57242c4bf50d0a13d4d0b1d2d7",
        "0ae688f2c39004767b3a28d294cf832527d2e8040f515eae59a4cb2625e79a92",
        "ce9e27d42efdb01cbcaa15e21f6113575c23f231031f8f0221a141f5810e7219",
    ),
    "D4(1)": (
        "403469894a306ce014392e80661d07974823c0272ba809ee4dca0a12d78fff40",
        "aade5ed139367ce6ff810dfcf94830700d3061dcbd857542724661b20ff80847",
        "109929a50fbc5bb116986d212642372a347813e55b99ca4b2e66eebd4800faef",
    ),
    "E6(1)": (
        "54428a6cb4ff740ff992d637bde86231129430b5f2fc9856e15f1cee41f45ca6",
        "b88dd084d27a05aa321e58abba4252956dac2c4ce9df6256e62b71bdad467f3b",
        "d77dcc22f267286acc92188b99d3fa589bb79c14f29c05cf357e29cef52f7f1c",
    ),
    "E7(1)": (
        "47807b4a3dd19166d2030b6ba78483e895fd4d5e466197e3cd95627b097b9910",
        "ca63e6a2cd8f1a7650f4a4ed05008191974fab37d190f0dece8a5cb88e95c39e",
        "fad4cb1ca6101def32bf7e667bbab0f6bbde3b5916af6b24f67b314ba7052661",
    ),
    "E8(1)": (
        "df70f5c9511ec2057b39ddc3fe9218077a19feff3680e58cc338633a8ab0285c",
        "583f01814cb13de14aa77ad881606462ac43abd8317d65857657195ac95bdd8f",
        "e2fbb67aa86c3864c91c83ebf015eef3e0c5b68fd19c574a6166c09b736a06c3",
    ),
    "F4(1)": (
        "2d8871af1bdbe2c7d5776e6b188be5520c87f28c00fee03665834fe245b2d2fe",
        "4f48e291c5a4679ce8c8d28011458bfa845519f1956f4c5711a241695125f799",
        "9de148e4ca82a20129bc243e8a72d18e0317299984b8528f2c9bf0354bbf1b5b",
    ),
    "G2(1)": (
        "e7e5de9aeaf234689274ef3223dc69a73c635aeaf5d3ceacd27fda442e475382",
        "e91a3ba8b7b7838ced8a0b7378f65c3c3961df8ae2e440cf7e3721139eab095b",
        "a6b257189d6d3f6ac607fd260b2d248b35f8150877d8527633144930c0dfbb64",
    ),
    "A4(2)": (
        "60a4c03ab9a21837fda77908e0d340a920d1b1ac29bb4341cc50ddc8154dbfe3",
        "6cb0a80fa2b698a3cd708b420fe394da0415493138a9d5ee60f2683c701eb52b",
        "5ce4ee601a128118ae1f4a0a14e2f14abc6d525e27604ce639590beb8e1ff7eb",
    ),
    "A5(2)": (
        "f806aee97187908562e2bdd308078cf9e1347667a33304d246e0c59710b866a1",
        "15042bbdb864b5d0d35b4237ef3ab7e4947a8c127fdd621c180dcf601f44037e",
        "01c3a8f865b5fbd10dea164c4c93f6e7dd62a4bde4543030349a73b7ba71eca3",
    ),
    "D3(2)": (
        "679852f205314bf65f1e22c04de33ba41182c1a1cf2522160da019630b15966d",
        "b9ab6df9698ec66086503e2e6f68f1f6a8d43c0e2f23ca40833d871c47faa1d0",
        "a46b173d37c63f9690eb9459a89eb204d9f485be550f96fbe743f34edc392ae9",
    ),
    "E6(2)": (
        "203c9ac084ef520656b7463a2140dcb31488abe30daba01a11b8c020184ed6c5",
        "6b5c7bfdf31a6ae2d17e955f3b54c4216ba41ad3bee5a3527bb302d86a725cf3",
        "764b038366548d49f6a8015e947e41ac780ae5b6d8be623fe2f971d954aca346",
    ),
    "D4(3)": (
        "2f10f6035f6f8939e75974e163e4cdbe4e4b814e8413e4fdfef0063687675e02",
        "0e0e4159b674304960ec6b303fb4f9a4e71a2280c9a0c8fc13aaeede4c01201c",
        "b845142fe8e20edc6cf39db180aa484b0d09d8477a8766cab4c9db495e0e1695",
    ),
    "D3(2)/g0=Z": (
        "acc4164ef4db24a56dd776dd49b5931b4d2463919b20b2f9cd330b60b265c572",
        "0dbba83783eb484f8887952d2355d332f57bad7d5ab22735e1f28102ac3716fd",
        "c4aaacf52f0e276bde61404c88ae5eaca5edc307d2fcb7de9f0eeda44242ff45",
    ),
    "D3(2)/g0=2Z+1": (
        "cb86100995a5d658f664d22f3c5c57c3260f1fec29c841d0d8e17e65a901ed7e",
        "50d964faa668d1d2ea6d735ba6fadf12a820cb618a6900bd921f0a6523d2f980",
        "957c59b9e48716e7b739644b19c637ec325e37d6407803aed4b245d29bbf00fe",
    ),
    "G2(1)/k=3,3,1": (
        "5db527adf3c264917ee255759cce69756e8105f00597fdd3debcbed6e48689b0",
        "de12b92110863f1916be21f189872bb749c51f13fc41e9d2e94c88d413daad33",
        "fe683967ee6b4cf02357c2ee66684cc47513c45b198b35920d8e1f65d9b0e93f",
    ),
}


@pytest.mark.parametrize("name", SUITE_NAMES + list(VARIANTS))
def test_relation_bytes_pinned(name):
    cfg = _config(name)
    got = tuple(hashlib.sha256(emit(cfg).to_json().encode()).hexdigest()
                for emit in (emit_sr, emit_sr_sharp, emit_tsr))
    assert got == RELATION_DIGESTS[name]


@pytest.mark.parametrize("name", SUITE_NAMES + list(VARIANTS))
def test_sharp_pairs_lie_in_b_prime(name):
    # every SR5' pair has distinct, non-opposite roots, with or without a
    # nonzero exponent
    cfg = _config(name)
    _, pairs = presentation.sharp_sets(cfg)
    assert pairs
    for mu, nu in pairs:
        rm, rn = mu.root(cfg), nu.root(cfg)
        assert rm != rn and any(a + b for a, b in zip(rm, rn)), (mu.ident, nu.ident)


# ---------------------------------------------------------------------------
# substitution against a plain recursion
# ---------------------------------------------------------------------------

def _plain_value(real, bracket, tree):
    """The value of tree by plain recursion over the generator images."""
    if isinstance(tree, str):
        return real.image(tree)
    return bracket(_plain_value(real, bracket, tree[0]),
                   _plain_value(real, bracket, tree[1]))


def _assert_matches_plain(real, bracket, zero, coeff, parts):
    """evaluate_word on every emitted word equals the plain sum: each
    monomial's plain value scaled by coeff of its coefficient, 1 included.
    evaluate equals the plain recursion on every subtree s of the words, and
    on [s, s with each root generator negated]: a whole relation word is 0,
    which can hide a wrong inner value that this pairing shows.  Returns
    the distinct subtrees."""
    subtrees = {}
    for rels in (emit_sr(real.config), emit_sr_sharp(real.config),
                 emit_tsr(real.config)):
        for label, word in rels.label_words:
            want = zero
            for c, tree in word.monomials:
                want = want.plus(_plain_value(real, bracket, tree).scaled(coeff(c)))
                subtrees.update((repr(sub), sub) for sub in _subtrees(tree))
            got = real.evaluate_word(word)
            assert parts(got) == parts(want), label
            # a fresh element, not a stored value
            assert got is not real.evaluate(word.monomials[0][1])
    subtrees = list(subtrees.values())
    for tree in subtrees + [[sub, _opposite(sub)] for sub in subtrees]:
        assert parts(real.evaluate(tree)) == parts(_plain_value(real, bracket, tree)), tree
    return subtrees


def _subtrees(tree):
    if isinstance(tree, str):
        return []
    return [tree, *_subtrees(tree[0]), *_subtrees(tree[1])]


def _opposite(tree):
    if isinstance(tree, str):
        return tree if tree.startswith("h:") else RootSym.parse(tree).negate().ident
    return [_opposite(tree[0]), _opposite(tree[1])]


def _loop_parts(x):
    return x.terms, x.v, x.w


@pytest.mark.parametrize("name, kwargs", [(name, {}) for name in SMALL_SUITE_NAMES] + [
    ("D3(2)", {"g": {0: "Z"}}),
    ("D3(2)", {"g": {0: "2Z+1"}}),
    ("C2(1)", {"g": {1: "Z"}}),
], ids=SMALL_SUITE_NAMES + ["D3(2)-Z", "D3(2)-2Z+1", "C2(1)-Z"])
def test_loop_substitution_matches_plain_recursion(name, kwargs):
    cfg = simple_config(name, **kwargs)
    height = max(required_height(cfg, rels)
                 for rels in (emit_sr(cfg), emit_sr_sharp(cfg), emit_tsr(cfg)))
    real = Realization(cfg, height)
    trees = _assert_matches_plain(real, loop_bracket, loop_zero(real.alg),
                                  lambda c: c, _loop_parts)
    first = [_loop_parts(real.evaluate(t)) for t in trees]
    assert [_loop_parts(real.evaluate(t)) for t in trees] == first
    # a taller algebra gives every tree the value it had
    real.alg.extend(real.alg.height + 1)
    assert [_loop_parts(_plain_value(real, loop_bracket, t)) for t in trees] == first
    assert [_loop_parts(real.evaluate(t)) for t in trees] == first


@pytest.mark.parametrize("name", ["A2(1)", "A3(1)"])
def test_q_substitution_matches_plain_recursion(name):
    real = QRealization(simple_config(name))
    _assert_matches_plain(real, hat_bracket, HatElement(real.size),
                          lambda c: c.rational_value(), HatElement.parts)
    # a coefficient other than 1 still goes through the rational check
    with pytest.raises(DomainError, match="non-rational"):
        real.evaluate_word(LieWord([(SQRT2, ["E:+a1", "E:+a2"])], 0))
