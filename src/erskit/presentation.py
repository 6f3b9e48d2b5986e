"""Symbolic emission of the finite presentations.

Generators are the l+4 Cartan basis elements h and the root vectors E_mu
for mu in B = {alpha_i, alpha_i^*} and their negatives.  Relations are
carried as LieWords: formal sums of nested brackets with exact cyclotomic
coefficients.  Nothing is quotiented here; the relations are data that the
realization modules substitute and check.

Instances whose ad-exponent is zero impose nothing and are not emitted;
the exponent function itself still reports 0 for non-negative pairings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import json

from .ambient import CheckError, ConfigError, DomainError, Vec
from .base_system import QebsConfig
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

    def negate(self) -> "RootSym":
        return RootSym(self.node, self.star, -self.sign)

    def vector(self, config: QebsConfig) -> Vec:
        base = (
            config.alpha_star(self.node)
            if self.star
            else config.space.alpha(self.node)
        )
        return tuple(self.sign * x for x in base)

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
    """(i, n, a) with sym's vector n alpha_i + a a: (n, a) is sign times
    (c, k_i) when starred and (1, 0) otherwise, so equal vectors have equal
    keys."""
    if sym.node not in config.nodes:
        raise ConfigError(f"node index {sym.node} out of range 0..{config.space.l}")
    c, k = (config.c_of(sym.node), config.k[sym.node]) if sym.star else (1, 0)
    return sym.node, sym.sign * c, sym.sign * k


class _BTable:
    """B = {+-alpha_i, +-alpha_i^*} on integers, built once per public emit
    call and passed down: the key of every symbol and, by ident, its
    parity."""

    def __init__(self, config: QebsConfig):
        self.config = config
        self.key = {m: _key(config, m) for m in b_all(config)}
        self.parity = {m.ident: m.parity(config) for m in self.key}

    def x(self, mu: RootSym, nu: RootSym) -> int:
        # a symbol from a caller's pair set may lie outside B: _key keys it
        # or rejects its node
        kmu = self.key.get(mu) or _key(self.config, mu)
        knu = self.key.get(nu) or _key(self.config, nu)
        return _x(self.config.space.cartan, kmu, knu)

    def b_prime(self):
        """The ordered pairs of B with mu != nu and mu + nu != 0."""
        return [
            (mu, nu)
            for mu, kmu in self.key.items()
            for nu, knu in self.key.items()
            if _in_b_prime(kmu, knu)
        ]


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


def _h_combination(config: QebsConfig, vec: Vec) -> list[tuple[Cyc, Tree]]:
    sp = config.space
    labels = sp.basis_labels()
    out = []
    for idx, c in enumerate(vec):
        if c != 0:
            out.append((Cyc.from_rational(c), f"h:{labels[idx]}"))
    return out


def x_coeff(config: QebsConfig, mu: RootSym, nu: RootSym) -> int:
    """Serre exponent for the ordered pair (mu, nu)."""
    return _x(config.space.cartan, _key(config, mu), _key(config, nu))


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


def emit_sr(config: QebsConfig, pairs=None, tag: str = "SR5") -> RelationSet:
    """SR2 through SR9 fully instantiated; SR1/SR3 run over the l+4 basis
    Cartan generators.  `pairs` narrows the SR5 family to a chosen pair set
    (used for the reduced presentation)."""
    return _emit_sr(_BTable(config), pairs, tag)


def _emit_sr(table: _BTable, pairs, tag: str) -> RelationSet:
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

    for mu in b_plus(config):
        vec = mu.vector(config)
        covec = sp.covector(vec)
        mons = [(ONE, [mu.ident, mu.negate().ident])]
        mons += [(-c, t) for c, t in _h_combination(config, covec)]
        rels.add(f"SR4[{mu.ident}]", _word(table, mons))

    if pairs is None:
        pairs = table.b_prime()
    for mu, nu in pairs:
        x = table.x(mu, nu)
        if x == 0:
            continue
        rels.add(
            f"{tag}[{mu.ident},{nu.ident};x={x}]",
            _word(table, [(ONE, _nest(mu.ident, x, nu.ident))]),
        )

    for i, j, y in triples_A(config):
        c = config.c_of(i)
        a_sym = RootSym(i, False, 1)
        a_star = RootSym(i, True, 1)
        b_sym = RootSym(j, False, 1)
        b_star = RootSym(j, True, 1)
        rels.add(
            f"SR6[a{i},a{j};y={y}]",
            _word(
                table,
                [
                    (Cyc.from_rational(c), _nest(a_star.ident, y, b_sym.ident)),
                    (-ONE, _nest(a_sym.ident, c * y, b_star.ident)),
                ],
            ),
        )
        sign = (-1) ** (c + 1)
        rels.add(
            f"SR7[a{i},a{j};y={y}]",
            _word(
                table,
                [
                    (
                        Cyc.from_rational(sign * c),
                        _nest(a_star.negate().ident, y, b_sym.negate().ident),
                    ),
                    (
                        -ONE,
                        _nest(a_sym.negate().ident, c * y, b_star.negate().ident),
                    ),
                ],
            ),
        )
        for part in range(1, y):
            for sgn in (1, -1):
                aa = RootSym(i, False, sgn)
                ss = RootSym(i, True, sgn)
                bb = RootSym(j, False, sgn)
                name = "SR8" if sgn > 0 else "SR9"
                tree = _nest(
                    aa.ident, part, _nest(ss.ident, y - part, bb.ident)
                )
                rels.add(
                    f"{name}[a{i},a{j};y={y},i={part}]",
                    _word(table, [(ONE, tree)]),
                )
    return rels


# ---------------------------------------------------------------------------
# reduced pair set
# ---------------------------------------------------------------------------

def sharp_sets(config: QebsConfig):
    table = _BTable(config)
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
        seeds.update(
            {
                (RootSym(i, False, 1), RootSym(j, False, 1)),
                (RootSym(j, False, 1), RootSym(i, False, 1)),
                (RootSym(i, True, 1), RootSym(j, False, 1)),
                (RootSym(j, False, 1), RootSym(i, True, 1)),
                (RootSym(i, False, 1), RootSym(j, True, 1)),
            }
        )
    for i in config.nodes:
        seeds.add((RootSym(i, False, 1), RootSym(i, True, 1)))
        seeds.add((RootSym(i, True, 1), RootSym(i, False, 1)))

    b_prime = table.b_prime()
    in_b_prime = set(b_prime)
    pairs = set()
    for mu, nu in seeds:
        for s1 in (1, -1):
            for s2 in (1, -1):
                cand = (RootSym(mu.node, mu.star, s1 * mu.sign),
                        RootSym(nu.node, nu.star, s2 * nu.sign))
                if cand in in_b_prime:
                    pairs.add(cand)
    # J(mu, nu) = 0 exactly when a_ij = 0
    pairs.update(
        (mu, nu) for mu, nu in b_prime if cartan[mu.node][nu.node] == 0
    )
    ordered = sorted(pairs, key=lambda p: (p[0].ident, p[1].ident))
    return pi_pairs, ordered


def emit_sr_sharp(config: QebsConfig) -> RelationSet:
    return _emit_sr_sharp(_BTable(config))


def _emit_sr_sharp(table: _BTable) -> RelationSet:
    _, pairs = sharp_sets(table.config)
    rels = _emit_sr(table, pairs, "SR5'")
    full = sum(1 for mu, nu in table.b_prime() if table.x(mu, nu))
    if rels.count("SR5'") > full:
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
        alpha = sp.alpha(i)
        m_vals[i] = (
            Fraction(config.c_of(i))
            * sp.j(alpha, alpha)
            * marks[i]
            / config.k[i]
        )
    m_max = max(m_vals.values())
    pi_max = sorted(i for i in config.nodes if m_vals[i] == m_max)
    gamma = [RootSym(i, False, 1) for i in config.nodes] + [
        RootSym(i, True, 1) for i in pi_max
    ]
    return {
        "x": marks,
        "m": m_vals,
        "m_max": m_max,
        "pi_max": pi_max,
        "gamma": gamma,
    }


def gamma_restrict(config: QebsConfig, nodes) -> set[str]:
    """Gamma(R,G;S) for S given by node indices, as symbol idents
    (positive representatives)."""
    data = elliptic_basis(config)
    out = set()
    for sym in data["gamma"]:
        if sym.node in nodes:
            out.add(sym.ident)
    return out


def emit_tsr(config: QebsConfig) -> RelationSet:
    sp = config.space
    table = _BTable(config)
    data = elliptic_basis(config)
    allowed = {sym.ident for sym in data["gamma"]}
    allowed |= {sym.negate().ident for sym in data["gamma"]}

    base = _emit_sr_sharp(table)
    rels = RelationSet()
    for label, word in base.label_words:
        if _uses_only(word, allowed):
            rels.add("T" + label, word)

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
            if aij == config.c_of(i) * aji:
                for sgn in (1, -1):
                    a_sym = RootSym(i, False, sgn)
                    a_star = RootSym(i, True, sgn)
                    b_sym = RootSym(j, False, sgn)
                    rels.add(
                        f"TSR10[a{i},a{j};{'+' if sgn > 0 else '-'}]",
                        _word(
                            table,
                            [(ONE, [a_star.ident, [a_sym.ident, b_sym.ident]])],
                        ),
                    )
            if config.g[i].is_empty and aji in (2 * aij, 3 * aij):
                for sgn in (1, -1):
                    a_sym = RootSym(i, False, sgn)
                    a_star = RootSym(i, True, sgn)
                    b_sym = RootSym(j, False, sgn)
                    tagp = "+" if sgn > 0 else "-"
                    rels.add(
                        f"TSR11a[a{i},a{j};{tagp}]",
                        _word(
                            table,
                            [(ONE, [a_star.ident, [a_sym.ident, b_sym.ident]])],
                        ),
                    )
                    rels.add(
                        f"TSR11b[a{i},a{j};{tagp}]",
                        _word(
                            table,
                            [
                                (
                                    ONE,
                                    [
                                        [a_star.ident, b_sym.ident],
                                        [a_sym.ident, b_sym.ident],
                                    ],
                                )
                            ],
                        ),
                    )

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


def _uses_only(word: LieWord, allowed: set[str]) -> bool:
    def walk(tree) -> bool:
        if isinstance(tree, str):
            return tree.startswith("h:") or tree in allowed
        return walk(tree[0]) and walk(tree[1])

    return all(walk(t) for _, t in word.monomials)
