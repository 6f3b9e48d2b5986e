"""Symbolic emission of the finite presentations.

Generators are the l+4 Cartan basis elements h and the root vectors E_mu
for mu in B = {alpha_i, alpha_i^*} and their negatives.  Relations are
carried as LieWords: formal sums of nested brackets with exact cyclotomic
coefficients.  Nothing is quotiented here; the relations are data that a
realization (a RealizationBase: unfold's loop model, the quantum torus)
checks through substitute.

Instances whose ad-exponent is zero impose nothing and are not emitted;
the exponent function itself still reports 0 for non-negative pairings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import json

from .ambient import CheckError, DomainError
from .base_system import Check, QebsConfig
from .cyclo import Cyc, ONE

Tree = object  # str symbol id, or [Tree, Tree]


@dataclass(frozen=True)
class RootSym:
    """mu in B: a signed, possibly starred node generator."""

    node: int
    star: bool
    sign: int  # +1 or -1

    @property
    def ident(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"E:{s}a{self.node}{'*' if self.star else ''}"

    @classmethod
    def parse(cls, ident: str) -> "RootSym":
        """The inverse of ident; any other string raises DomainError."""
        star = ident.endswith("*")
        node = ident[4:len(ident) - star]
        if ident[:4] in ("E:+a", "E:-a") and node.isascii() and node.isdigit():
            sym = cls(int(node), star, 1 if ident[2] == "+" else -1)
            if sym.ident == ident:
                return sym
        raise DomainError(f"unknown generator {ident!r}")

    def negate(self) -> "RootSym":
        return RootSym(self.node, self.star, -self.sign)

    def root(self, config: QebsConfig) -> tuple[int, ...]:
        return config.root(self.node, self.star, self.sign)

    def parity(self, config: QebsConfig) -> int:
        return (
            config.star_parity(self.node)
            if self.star
            else config.node_parity(self.node)
        )


def b_plus(config: QebsConfig) -> list[RootSym]:
    out = [RootSym(i, False, 1) for i in config.nodes]
    out += [RootSym(i, True, 1) for i in config.nodes]
    return out


def b_all(config: QebsConfig) -> list[RootSym]:
    plus = b_plus(config)
    return plus + [m.negate() for m in plus]


@dataclass
class LieWord:
    monomials: list[tuple[Cyc, Tree]]
    parity: int

    def to_dict(self) -> dict:
        return {
            "parity": self.parity,
            "monomials": [
                {"coeff": c.serialize(), "word": w} for c, w in self.monomials
            ],
        }


@dataclass
class RelationSet:
    label_words: list[tuple[str, LieWord]] = field(default_factory=list)

    def add(self, label: str, word: LieWord):
        self.label_words.append((label, word))

    def labels(self) -> list[str]:
        return [lbl for lbl, _ in self.label_words]

    def count(self, prefix: str = "") -> int:
        return sum(1 for lbl, _ in self.label_words if lbl.startswith(prefix))

    def to_json(self) -> str:
        payload = [
            {"label": lbl, **word.to_dict()} for lbl, word in self.label_words
        ]
        return json.dumps(payload, indent=2, sort_keys=True)


def _key(config: QebsConfig, sym: RootSym) -> tuple[int, int, int]:
    """(i, n, a) with sym's root n alpha_i + a a, so equal roots have equal
    keys; a node out of range raises ConfigError."""
    root = sym.root(config)
    return sym.node, root[sym.node], root[-1]


class _BTable:
    """The generators a relation set may use, a sublist of B = {+-alpha_i,
    +-alpha_i^*}, on integers, built once per public emit call and passed
    down: the key of every symbol, by ident its parity, and sr5, which maps
    each ordered pair of B' (mu != nu, mu + nu != 0) whose Serre exponent
    is nonzero to that exponent, in the order of syms x syms."""

    def __init__(self, config: QebsConfig, syms: list[RootSym]):
        self.config = config
        self.key = {m: _key(config, m) for m in syms}
        self.parity = {m.ident: m.parity(config) for m in self.key}
        cartan = config.space.cartan
        self.sr5 = {(mu, nu): x for mu, kmu in self.key.items()
                    for nu, knu in self.key.items()
                    if _in_b_prime(kmu, knu) and (x := _x(cartan, kmu, knu))}


def _in_b_prime(kmu: tuple, knu: tuple) -> bool:
    (i, n, a), (j, m, b) = kmu, knu
    return kmu != knu and (i != j or n != -m or a != -b)


def _x(cartan, kmu: tuple, knu: tuple) -> int:
    """The Serre exponent 1 - 2J(mu, nu)/J(mu, mu) on keys.

    a is isotropic and orthogonal to every alpha_j, so the pairing is
    (m / n) a_ij: row i of the Cartan matrix pairs alpha_i^vee with
    alpha_j, the convention of roots.mirror.
    """
    if not _in_b_prime(kmu, knu):
        raise DomainError("pair must satisfy mu != nu and mu + nu != 0")
    (i, n, _), (j, m, _) = kmu, knu
    num = m * cartan[i][j]
    if num * n >= 0:
        return 0
    quo, rem = divmod(num, n)
    if rem:
        raise DomainError(f"non-integral pairing {Fraction(num, n)}")
    return 1 - quo


def _tree_parity(tree: Tree, parity: dict[str, int]) -> int:
    if isinstance(tree, str):
        return 0 if tree.startswith("h:") else parity[tree]
    a, b = tree
    return (_tree_parity(a, parity) + _tree_parity(b, parity)) % 2


def _word(table: _BTable, monomials: list[tuple[Cyc, Tree]]) -> LieWord:
    parities = {_tree_parity(t, table.parity) for _, t in monomials}
    if len(parities) != 1:
        raise CheckError("relation is not parity-homogeneous")
    return LieWord(monomials, parities.pop())


def _nest(head: str, power: int, tail: Tree) -> Tree:
    out = tail
    for _ in range(power):
        out = [head, out]
    return out


def triples_A(config: QebsConfig) -> list[tuple[int, int, int]]:
    """(alpha, beta, y) with J(alpha, beta_vee) = -1 and k(alpha) y = k(beta)."""
    sp = config.space
    out = []
    for i in config.nodes:
        for j in config.nodes:
            if i == j or sp.cartan[j][i] != -1:
                continue
            q = Fraction(config.k[j], config.k[i])
            if q.denominator == 1 and q >= 1:
                out.append((i, j, int(q)))
    return out


def emit_sr(config: QebsConfig) -> RelationSet:
    """SR2 through SR9 fully instantiated; SR1/SR3 run over the l+4 basis
    Cartan generators."""
    table = _BTable(config, b_all(config))
    return _emit_sr(table, table.sr5, "SR5")


def _emit_sr(table: _BTable, pairs, tag: str) -> RelationSet:
    """The SR relations on the table's generators: SR5 runs over those of
    `pairs` that table.sr5 holds, labelled `tag` (the sharp set narrows it),
    and an SR6-SR9 word with a leaf outside the table is left out."""
    config = table.config
    sp = config.space
    rels = RelationSet()
    labels = sp.basis_labels()

    for x in range(sp.dim):
        for y in range(x + 1, sp.dim):
            rels.add(
                f"SR2[h:{labels[x]},h:{labels[y]}]",
                _word(table, [(ONE, [f"h:{labels[x]}", f"h:{labels[y]}"])]),
            )

    for x in range(sp.dim):
        row = sp.gram[x]
        for mu, (i, n, a) in table.key.items():
            # J(sigma_x, n alpha_i + a a), read off the gram row
            coef = row[i] * n + row[sp.idx_a] * a
            mons = [(ONE, [f"h:{labels[x]}", mu.ident])]
            if coef != 0:
                mons.append((-Cyc.from_rational(coef), mu.ident))
            rels.add(f"SR3[h:{labels[x]},{mu.ident}]", _word(table, mons))

    # the root coordinates name h:a0..h:al and h:a
    root_labels = labels[:sp.n_nodes] + [labels[sp.idx_a]]
    for mu in [m for m in table.key if m.sign > 0]:
        root = mu.root(config)
        norm = sp.norm(root)
        mons = [(ONE, [mu.ident, mu.negate().ident])]
        # h of the coroot 2 mu / J(mu, mu)
        mons += [(-Cyc.from_rational(Fraction(2 * c, norm)), f"h:{lab}")
                 for c, lab in zip(root, root_labels) if c]
        rels.add(f"SR4[{mu.ident}]", _word(table, mons))

    for mu, nu in pairs:
        x = table.sr5.get((mu, nu))
        if x is None:
            continue
        rels.add(
            f"{tag}[{mu.ident},{nu.ident};x={x}]",
            _word(table, [(ONE, _nest(mu.ident, x, nu.ident))]),
        )

    for i, j, y in triples_A(config):
        c = config.c_of(i)
        for sgn in (1, -1):
            aa, ss = RootSym(i, False, sgn).ident, RootSym(i, True, sgn).ident
            bb, bs = RootSym(j, False, sgn).ident, RootSym(j, True, sgn).ident
            if not {aa, ss, bb, bs} <= table.parity.keys():
                continue
            lead = c if sgn > 0 else (-1) ** (c + 1) * c
            rels.add(
                f"{'SR6' if sgn > 0 else 'SR7'}[a{i},a{j};y={y}]",
                _word(table, [(Cyc.from_rational(lead), _nest(ss, y, bb)),
                              (-ONE, _nest(aa, c * y, bs))]),
            )
        for part in range(1, y):
            for sgn in (1, -1):
                aa, ss = RootSym(i, False, sgn).ident, RootSym(i, True, sgn).ident
                bb = RootSym(j, False, sgn).ident
                if {aa, ss, bb} <= table.parity.keys():
                    rels.add(
                        f"{'SR8' if sgn > 0 else 'SR9'}[a{i},a{j};y={y},i={part}]",
                        _word(table, [(ONE, _nest(aa, part, _nest(ss, y - part, bb)))]),
                    )
    return rels


# ---------------------------------------------------------------------------
# reduced pair set
# ---------------------------------------------------------------------------

def sharp_sets(config: QebsConfig):
    """(pi_pairs, ordered): the node pairs (i, j) that seed the sharp set,
    and the SR5' pairs, every sign variant of a seed, sorted by ident.  Each
    lies in B': keys of distinct nodes differ in the node, and those of
    alpha_i and alpha_i^* in the a-coefficient (k_i >= 1), so no two are
    equal or opposite.  A pair of exponent 0 is left for _emit_sr to skip."""
    cartan = config.space.cartan
    pi_pairs = []
    for i in config.nodes:
        for j in config.nodes:
            if i == j:
                continue
            if config.k[i] == config.k[j]:
                # J((alpha*)_vee, beta) scales the Cartan entry by 1/c
                if cartan[i][j] == -config.c_of(i):
                    pi_pairs.append((i, j))
                    continue
            if config.k[i] < config.k[j] and cartan[j][i] == -1:
                pi_pairs.append((i, j))

    seeds = set()
    for i, j in pi_pairs:
        a, a_star = RootSym(i, False, 1), RootSym(i, True, 1)
        b, b_star = RootSym(j, False, 1), RootSym(j, True, 1)
        seeds |= {(a, b), (b, a), (a_star, b), (b, a_star), (a, b_star)}
    for i in config.nodes:
        a, a_star = RootSym(i, False, 1), RootSym(i, True, 1)
        seeds |= {(a, a_star), (a_star, a)}

    pairs = {
        (RootSym(mu.node, mu.star, s1), RootSym(nu.node, nu.star, s2))
        for mu, nu in seeds
        for s1 in (1, -1)
        for s2 in (1, -1)
    }
    ordered = sorted(pairs, key=lambda p: (p[0].ident, p[1].ident))
    return pi_pairs, ordered


def emit_sr_sharp(config: QebsConfig) -> RelationSet:
    return _emit_sr_sharp(_BTable(config, b_all(config)))


def _emit_sr_sharp(table: _BTable) -> RelationSet:
    _, pairs = sharp_sets(table.config)
    rels = _emit_sr(table, pairs, "SR5'")
    if rels.count("SR5'") > len(table.sr5):
        raise CheckError("reduced family larger than the full one")
    return rels


# ---------------------------------------------------------------------------
# elliptic root basis and its presentation
# ---------------------------------------------------------------------------

def elliptic_basis(config: QebsConfig):
    sp = config.space
    marks = sp.delta_marks()
    m_vals = {}
    for i in config.nodes:
        m_vals[i] = Fraction(config.c_of(i) * sp.sym[i][i] * marks[i], config.k[i])
    m_max = max(m_vals.values())
    pi_max = sorted(i for i in config.nodes if m_vals[i] == m_max)
    gamma = [RootSym(i, False, 1) for i in config.nodes] + [
        RootSym(i, True, 1) for i in pi_max
    ]
    return {"pi_max": pi_max, "gamma": gamma}


def emit_tsr(config: QebsConfig) -> RelationSet:
    """The sharp set on the generators Gamma and -Gamma, each label
    prefixed T, then the TSR10-TSR12 relations."""
    sp = config.space
    data = elliptic_basis(config)
    gamma = set(data["gamma"])
    table = _BTable(config, [m for m in b_all(config)
                             if m in gamma or m.negate() in gamma])
    rels = RelationSet([("T" + label, word) for label, word
                        in _emit_sr_sharp(table).label_words])

    pi_max = set(data["pi_max"])
    for i in config.nodes:
        for j in config.nodes:
            if i == j:
                continue
            # this class needs {alpha, alpha*, beta}: alpha starred, beta not
            if not (i in pi_max and j not in pi_max):
                continue
            aij, aji = sp.cartan[i][j], sp.cartan[j][i]
            if aij == 0 or aji == 0:
                continue
            # the two cases exclude each other: g empty gives c = 1, and
            # a_ij = a_ji in (2 a_ij, 3 a_ij) would force a_ij = 0
            tsr10 = aij == config.c_of(i) * aji
            tsr11 = config.g[i].is_empty and aji in (2 * aij, 3 * aij)
            if not (tsr10 or tsr11):
                continue
            for sgn in (1, -1):
                a = RootSym(i, False, sgn).ident
                a_star = RootSym(i, True, sgn).ident
                b = RootSym(j, False, sgn).ident
                where = f"[a{i},a{j};{'+' if sgn > 0 else '-'}]"
                rels.add(("TSR10" if tsr10 else "TSR11a") + where,
                         _word(table, [(ONE, [a_star, [a, b]])]))
                if tsr11:
                    rels.add("TSR11b" + where,
                             _word(table, [(ONE, [[a_star, b], [a, b]])]))

    for j in sorted(pi_max):
        for i in config.nodes:
            for m in config.nodes:
                if len({i, j, m}) != 3:
                    continue
                # need {alpha, beta, beta*, gamma} with beta the starred one
                if i in pi_max or m in pi_max:
                    continue
                if sp.cartan[j][i] == 0 or sp.cartan[j][m] == 0:
                    continue
                e1 = -sp.cartan[j][i]
                # 2J(beta*, gamma)/J(beta*, beta*) = a_jm / c
                e2, rem = divmod(-sp.cartan[j][m], config.c_of(j))
                if rem or e2 <= 0:
                    continue
                for sgn in (1, -1):
                    bb = RootSym(j, False, sgn)
                    bs = RootSym(j, True, sgn)
                    aa = RootSym(i, False, sgn)
                    gg = RootSym(m, False, sgn)
                    tree = [
                        _nest(bb.ident, e1, aa.ident),
                        _nest(bs.ident, e2, gg.ident),
                    ]
                    rels.add(
                        f"TSR12[a{i},a{j},a{m};{'+' if sgn > 0 else '-'}]",
                        _word(table, [(ONE, tree)]),
                    )
    return rels


# ---------------------------------------------------------------------------
# substitution into a realization
# ---------------------------------------------------------------------------

class RealizationBase:
    """Generator images in a model of L, cached by ident, and the values of
    bracket trees and words on them; h:a_i and h:a come from root images.
    Each distinct tree is evaluated once per realization: its value is kept
    on the instance, shared by every word that contains the tree, and never
    mutated.

    A model supplies _root_image(sym), _cartan_image("Ld" or "La"),
    _bracket, _zero, _coeff (the identity here) and nonzero_witness ("" for
    a zero value)."""

    def __init__(self, config: QebsConfig):
        self.config = config
        self._images: dict[str, object] = {}
        self._values: dict[tuple, object] = {}  # frozen tree -> its value

    def image(self, ident: str):
        if ident not in self._images:
            self._images[ident] = self._compute_image(ident)
        return self._images[ident]

    def _compute_image(self, ident: str):
        if not ident.startswith("h:"):
            sym = RootSym.parse(ident)
            if sym.node not in self.config.nodes:
                raise DomainError(f"unknown generator {ident!r}")
            return self._root_image(sym)
        label = ident[2:]
        if label not in self.config.space.basis_labels():
            raise DomainError(f"unknown Cartan label {label!r}")
        if label == "a":
            # a = (alpha_0^* - c alpha_0) / k_0 as ambient vectors
            c, *_, k0 = self.config.root(0, star=True)
            star = self._h_of_root(RootSym(0, True, 1))
            plain = self._h_of_root(RootSym(0, False, 1))
            return star.plus(plain.scaled(-c)).scaled(Fraction(1, k0))
        if label in ("Ld", "La"):
            return self._cartan_image(label)
        return self._h_of_root(RootSym(int(label[1:]), False, 1))

    def _h_of_root(self, sym: RootSym):
        """h_mu for mu the root of sym, via [E_mu, E_-mu] = h_{mu_vee}."""
        half_norm = Fraction(self.config.space.norm(sym.root(self.config)), 2)
        br = self._bracket(self.image(sym.ident), self.image(sym.negate().ident))
        return br.scaled(half_norm)

    def _coeff(self, c: Cyc):
        return c

    def evaluate(self, tree: Tree):
        """The value of tree, shared with every caller: never mutate it."""
        if isinstance(tree, str):
            return self.image(tree)
        key = _freeze(tree)
        if key not in self._values:
            left, right = key
            self._values[key] = self._bracket(self.evaluate(left),
                                              self.evaluate(right))
        return self._values[key]

    def evaluate_word(self, word: LieWord):
        """A fresh element: the sum of the word's monomials, each tree
        evaluated once per realization and a coefficient equal to 1 added
        without a product."""
        out = self._zero()
        for coeff, tree in word.monomials:
            value = self.evaluate(tree)
            out = out.plus(value if coeff == 1 else value.scaled(self._coeff(coeff)))
        return out


def _freeze(tree: Tree):
    """tree with its lists as tuples, so that it can key a dict."""
    return tree if isinstance(tree, str) else (_freeze(tree[0]), _freeze(tree[1]))


def substitute(real: RealizationBase, rels: RelationSet) -> list[Check]:
    """One Check per relation: it holds when its word evaluates to zero in
    real."""
    out = []
    for label, word in rels.label_words:
        witness = real.nonzero_witness(real.evaluate_word(word))
        out.append(Check(label, not witness, witness))
    return out
