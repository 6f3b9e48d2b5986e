"""Loop-superalgebra realization.

A configuration unfolds into a finite index set Ibar with an integer matrix
Abar (a "handy datum"), whose contragredient Lie superalgebra is built here
height by height with exact rational structure constants.  The affinization
(loop extension by a central v and a degree derivation w) then receives the
generator images, and every emitted relation can be checked by direct
substitution.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, factorial, lcm

from .ambient import CheckError, ConfigError, DomainError, Vec, cartan_symmetrizer
from .base_system import Check, QebsConfig, Report
from .cyclo import Cyc, SQRT2, SQRT_M1, exp_pi_i_over
from .exact import acc, canonical, expansions
from .presentation import RealizationBase, RootSym, b_all, emit_sr, substitute
from .roots import closure, mirror


class ResourceError(RuntimeError):
    """Raised when a build exceeds its height or size budget."""

    def __init__(self, msg: str, completed_height: int = 0):
        super().__init__(msg)
        self.completed_height = completed_height


# ---------------------------------------------------------------------------
# k_vee and the handy datum
# ---------------------------------------------------------------------------

def k_vee(config: QebsConfig) -> dict[int, int]:
    """Minimal positive solution of the KV constraints, valued in 1..4."""
    sp = config.space
    n = sp.n_nodes
    k, g = config.k, config.g

    # ratio constraints val[a] = q * val[b], plus absolute pins
    ratios: list[tuple[int, int, Fraction, str]] = []
    pins: dict[int, tuple[int, str]] = {}

    def pin(node, value, clause):
        if node in pins and pins[node][0] != value:
            raise ConfigError(
                f"{clause} forces k_vee(a{node}) = {value}, "
                f"{pins[node][1]} forced {pins[node][0]}"
            )
        pins[node] = (value, clause)

    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            # convention: J(alpha_i_vee, alpha_j) = cartan[i][j]
            if sp.cartan[b][a] == -1 and g[a].tag in ("empty", "Z"):
                ratios.append((a, b, Fraction(k[b], k[a]), "KV1"))
            if sp.cartan[a][b] == -2:
                if k[a] == 2 * k[b] and g[a].tag == "2Z":
                    ratios.append((a, b, Fraction(2), "KV2"))
                if k[a] == k[b] and g[a].tag in ("2Z+1", "2Z"):
                    pin(a, 2, "KV3")
                    pin(b, 2, "KV3")
                if g[a].tag in ("4Z", "4Z+2"):
                    pin(a, 3, "KV4")
                    pin(b, 2, "KV4")
            if sp.cartan[a][b] != 0 and 4 * k[a] == k[b]:
                ratios.append((a, b, Fraction(4), "KV5"))

    # propagate over ratio components
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    scale: dict[int, Fraction] = {i: Fraction(1) for i in range(n)}
    # scale[i] = val[i] / val[root(i)]
    for a, b, q, clause in ratios:
        ra, rb = find(a), find(b)
        if ra == rb:
            if scale[a] != q * scale[b]:
                raise ConfigError(f"{clause} is inconsistent at (a{a}, a{b})")
            continue
        # attach rb's tree under ra: val[rb] = val[a]/(q*val[b]) * val[rb]
        adj = scale[a] / (q * scale[b])
        for i in range(n):
            if find(i) == rb:
                scale[i] *= adj
        comp[rb] = ra

    values: dict[int, int] = {}
    for root_node in {find(i) for i in range(n)}:
        members = [i for i in range(n) if find(i) == root_node]
        pinned = [(i, pins[i][0]) for i in members if i in pins]
        if pinned:
            i0, v0 = pinned[0]
            base = Fraction(v0) / scale[i0]
        else:
            base = 1 / min(scale[i] for i in members)
        for i in members:
            v = scale[i] * base
            if v.denominator != 1 or not 1 <= v <= 4:
                raise ConfigError(
                    f"k_vee(a{i}) = {v} falls outside 1..4"
                )
            values[i] = int(v)
    for i, (v, clause) in pins.items():
        if values[i] != v:
            raise ConfigError(f"{clause} wants k_vee(a{i}) = {v}, got {values[i]}")
    for a in range(n):
        for b in range(n):
            if a != b and sp.cartan[a][b] != 0:
                if (values[a] == 4 * values[b]) != (4 * k[a] == k[b]):
                    raise ConfigError(f"KV5 violated at (a{a}, a{b})")
    return values


@dataclass
class HandyDatum:
    config: QebsConfig
    kvee: dict[int, int]
    ibar: list[tuple[int, int]]
    abar: list[list[int]]
    iodd: set[int]
    eps: list[Fraction]

    @property
    def n(self) -> int:
        return len(self.ibar)

    def index(self, node: int, x: int) -> int:
        if (node, x) not in self.ibar:
            raise ConfigError(f"Ibar has no node (a{node},{x})")
        return self.ibar.index((node, x))

    def p(self, i: int) -> int:
        return 1 if i in self.iodd else 0

    def to_dict(self) -> dict:
        return {
            "k_vee": {f"a{i}": v for i, v in sorted(self.kvee.items())},
            "I": [f"(a{a},{x})" for a, x in self.ibar],
            "I_odd": sorted(
                f"(a{self.ibar[i][0]},{self.ibar[i][1]})" for i in self.iodd
            ),
            "A": self.abar,
            "eps": [str(e) for e in self.eps],
        }


def _ad2_block(tag: str, kv: int) -> list[list[int]]:
    if tag in ("empty", "Z"):
        return [[2 if x == y else 0 for y in range(kv)] for x in range(kv)]
    if tag == "2Z+1":
        return [[3 - 1 if x == y else -1 for y in range(kv)] for x in range(kv)]
    if tag == "2Z":
        return [[2 - 2 if x == y else 2 for y in range(kv)] for x in range(kv)]
    # 4Z and 4Z+2 share one explicit 3x3 pattern
    if kv != 3:
        raise ConfigError(f"g-class {tag} needs k_vee = 3, got {kv}")
    return [[0, 0, 2], [0, 2, -1], [2, -2, 0]]


def build_handy(config: QebsConfig) -> HandyDatum:
    sp = config.space
    kv = k_vee(config)
    ibar = [
        (a, x) for a in range(sp.n_nodes) for x in range(1, kv[a] + 1)
    ]
    pos = {pair: idx for idx, pair in enumerate(ibar)}
    n = len(ibar)
    abar = [[0] * n for _ in range(n)]

    for a in range(sp.n_nodes):
        block = _ad2_block(config.g[a].tag, kv[a])
        for x in range(1, kv[a] + 1):
            for y in range(1, kv[a] + 1):
                abar[pos[(a, x)]][pos[(a, y)]] = block[x - 1][y - 1]

    done = set()
    for a in range(sp.n_nodes):
        for b in range(sp.n_nodes):
            if a == b or sp.cartan[a][b] == 0 or (a, b) in done:
                continue
            # orient the pair so J(beta_vee, alpha) = -1
            if sp.cartan[b][a] == -1:
                al, be = a, b
            elif sp.cartan[a][b] == -1:
                al, be = b, a
            else:
                raise ConfigError(f"no -1 side on the edge (a{a}, a{b})")
            done.update({(a, b), (b, a)})
            for x in range(1, kv[al] + 1):
                for y in range(1, kv[be] + 1):
                    fwd, bwd = _ad3_pair(config, kv, abar, pos, al, be, x, y)
                    abar[pos[(al, x)]][pos[(be, y)]] = fwd
                    abar[pos[(be, y)]][pos[(al, x)]] = bwd

    iodd = {i for i in range(n) if abar[i][i] == 0}
    iodd |= {pos[(a, x)] for a, x in ibar if config.g[a].tag == "Z"}

    eps = [1 / d for d in cartan_symmetrizer(abar)]
    hd = HandyDatum(config, kv, ibar, abar, iodd, eps)
    _verify_hd(hd)
    return hd


def _ad3_pair(config, kv, abar, pos, al, be, x, y):
    sp = config.space
    kva, kvb = kv[al], kv[be]
    if kva == 4 and kvb == 2 and (x - y) % 2 != 0:
        return 0, 0
    if kvb <= kva <= Fraction(3, 2) * kvb and x != y:
        return 0, 0
    if 2 <= kva <= 3 and kvb == 2 and abar[pos[(al, x)]][pos[(al, x)]] == 0 and x == y:
        return -2, -1
    if config.g[al].tag == "2Z+1" and x == y:
        return -1, -1
    fwd = Fraction(config.k[al], config.k[be]) * sp.cartan[al][be]
    if fwd.denominator != 1:
        raise ConfigError(f"non-integral cross entry at (a{al},{x}),(a{be},{y})")
    return int(fwd), -1


def _verify_hd(hd: HandyDatum):
    A, n = hd.abar, hd.n
    posset = {i for i in range(n) if A[i][i] != 0}
    nullset = set(range(n)) - posset

    def fail(axiom, detail):
        raise ConfigError(f"{axiom} fails: {detail}")

    for i in posset:
        if A[i][i] != 2:
            fail("HD1", f"a[{i}][{i}] = {A[i][i]}")
    for i in posset:
        for j in posset:
            if i == j:
                continue
            pair = (A[i][j], A[j][i])
            if abs(pair[0]) > abs(pair[1]):
                pair = (pair[1], pair[0])
            if pair not in ((0, 0), (-1, -1), (-1, -2), (-1, -3)):
                fail("HD2", f"pair ({i},{j}) = ({A[i][j]},{A[j][i]})")
    for i in nullset:
        for j in nullset:
            if i != j and (A[i][j], A[j][i]) not in ((0, 0), (2, 2)):
                fail("HD3", f"pair ({i},{j}) = ({A[i][j]},{A[j][i]})")
    for i in posset:
        for j in nullset:
            if (A[i][j], A[j][i]) not in ((0, 0), (-1, -1), (-1, -2)):
                fail("HD4", f"pair ({i},{j}) = ({A[i][j]},{A[j][i]})")
            linked = any(
                r in nullset and r != j and A[i][r] != 0 and A[j][r] != 0
                for r in range(n)
            )
            if ((A[i][j], A[j][i]) == (-1, -1)) != linked:
                fail("HD5", f"pair ({i},{j})")
    if not nullset <= hd.iodd:
        fail("HD6", f"null nodes {sorted(nullset - hd.iodd)} are even")
    for i in posset & hd.iodd:
        for j in nullset:
            if (A[i][j], A[j][i]) != (0, 0):
                fail("HD7", f"pair ({i},{j})")
        for j in posset - {i}:
            if A[i][j] != 0:
                if j in hd.iodd or (A[i][j], A[j][i]) != (-2, -1):
                    fail("HD8", f"pair ({i},{j})")
    for i in nullset:
        partners = [j for j in nullset if j != i and A[i][j] != 0]
        if len(partners) != 1:
            fail("HD9", f"node {i} has null partners {partners}")
    for i in range(n):
        for j in range(n):
            if Fraction(A[i][j]) / hd.eps[i] != Fraction(A[j][i]) / hd.eps[j]:
                fail("HD10", f"entry ({i},{j})")


# ---------------------------------------------------------------------------
# graded contragredient algebra
# ---------------------------------------------------------------------------

# element: dict mapping a monomial key to a scalar (int or Fraction).
# keys: ("h", i), ("t", i), (sign, weight, idx) with sign "+" or "-",
# weight a tuple of multiplicities over Ibar.

_FLIP = {"+": "-", "-": "+"}


def _default_cap() -> int:
    """The basis-size budget from ERSKIT_MAX_MEM, read when a build starts."""
    raw = os.environ.get("ERSKIT_MAX_MEM", "200000")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"ERSKIT_MAX_MEM must be an integer, got {raw!r}"
        ) from None


class GradedAlgebra:
    """Height-truncated quotient by the radical of the invariant form.

    For height >= 2 an element lies in the radical iff all lowering
    operators kill it.  So at each weight, `exact.expansions` reads the
    stacked lowered images of the candidates [E_i, b]: the independent
    candidates become the basis, and every candidate's expansion in them
    is its row of eact.  Only the positive half is built: the
    automorphism omega: E_i -> F_i, F_i -> (-1)^{p_i} E_i, h -> -h maps it
    onto the negative half, and `ad` reads F-monomial brackets through it.
    The form on root vectors is read off the bracket, [x, y] = (x|y)
    nu^-1(alpha) for x in g_alpha, y in g_-alpha (Kac, Infinite-Dimensional
    Lie Algebras, Thm 2.2(e)), with nu^-1(alpha_i) = h_i / eps_i, as
    (h_i|h) = eps_i alpha_i(h) by HD10; its proof uses only invariance, an
    even h and nondegeneracy on h, so it holds for the superalgebra too.
    """

    def __init__(self, hd: HandyDatum, height: int):
        if height < 1:
            raise DomainError("height bound must be >= 1")
        self.hd = hd
        self.n = hd.n
        # basis[wt] = list of (i, parent_index) monomials; height-1 parent None
        self.basis: dict[tuple, list[tuple]] = {}
        self.parity: dict[tuple, int] = {}
        # eact[(wt, idx)][i] -> element at wt + e_i (filled when built)
        self.eact: dict[tuple, dict[int, dict]] = {}
        self.fact: dict[tuple, dict[int, dict]] = {}
        self._size = 0
        self._cap = _default_cap()
        for i in range(self.n):
            wt = self._unit(i)
            self.basis[wt] = [(i, None)]
            self.parity[wt] = self.hd.p(i)
            self.fact[(wt, 0)] = {
                j: ({("h", i): (-1) ** (self.hd.p(i) + 1)} if j == i else {})
                for j in range(self.n)
            }
            self.eact[(wt, 0)] = {}
        self.height = 1
        self._top = list(self.basis)  # the weights with a basis at self.height
        self.extend(height)

    # -- weights ------------------------------------------------------------

    def _unit(self, i: int) -> tuple:
        return tuple(1 if j == i else 0 for j in range(self.n))

    def weight_h(self, wt: tuple, i: int) -> int:
        return sum(c * self.hd.abar[i][m] for m, c in enumerate(wt))

    def dims(self) -> dict[tuple, int]:
        return {wt: len(b) for wt, b in self.basis.items() if b}

    # -- construction -------------------------------------------------------

    def extend(self, height: int):
        """Build the heights self.height + 1 .. height, each from the weights
        with a basis at the height below; self.height is the highest height
        completed, also after a ResourceError over the basis budget."""
        for h in range(self.height + 1, height + 1):
            top = []
            for wt in sorted({wt[:i] + (wt[i] + 1,) + wt[i + 1:]
                              for wt in self._top for i in range(self.n)}):
                self._build_weight(wt)
                if self._size > self._cap:
                    raise ResourceError(
                        f"basis size {self._size} over the budget",
                        self.height,
                    )
                if self.basis[wt]:
                    top.append(wt)
            self._top, self.height = top, h

    def _build_weight(self, wt: tuple):
        cands = []
        for i in range(self.n):
            if wt[i] == 0:
                continue
            sub = tuple(c - (1 if m == i else 0) for m, c in enumerate(wt))
            for idx in range(len(self.basis.get(sub, []))):
                cands.append((i, sub, idx))
        if not cands:
            self.basis[wt] = []
            return
        self.parity[wt] = sum(c * self.hd.p(m) for m, c in enumerate(wt)) % 2

        # image of each candidate under every lowering operator, by j
        lowered = [{j: self._f_on_candidate(j, *cand) for j in range(self.n)}
                   for cand in cands]

        # the candidates independent of those before them become the basis;
        # a dependent one gets its exact expansion in the basis candidates
        rows = ({(j, key): c for j, part in parts.items() for key, c in part.items()}
                for parts in lowered)
        bidx: dict[int, int] = {}  # candidate position -> basis index
        for pos, ((i, sub, idx), combo) in enumerate(zip(cands, expansions(rows))):
            if combo is None:
                bidx[pos] = len(bidx)
                combo = {pos: 1}
            self.eact[(sub, idx)][i] = {("+", wt, bidx[p]): v for p, v in combo.items()}

        self.basis[wt] = [(cands[p][0], cands[p][1:]) for p in bidx]
        self._size += len(bidx)
        for b, p in enumerate(bidx):
            self.eact[(wt, b)] = {}
            self.fact[(wt, b)] = lowered[p]

    def _f_on_candidate(self, j: int, i: int, sub: tuple, idx: int) -> dict:
        """[F_j, [E_i, b]] for b the idx-th basis monomial at weight sub."""
        hd = self.hd
        sign = (-1) ** (hd.p(i) * hd.p(j))
        out: dict = {}
        if i == j:
            # -sign [h_i, b] with b of weight sub
            acc(out, {("+", sub, idx): 1}, -sign * self.weight_h(sub, i))
        inner = self.fact[(sub, idx)][j]
        acc(out, self.ad("+", i, inner), sign)
        return out

    # -- brackets -----------------------------------------------------------

    def mirror(self, elem: dict) -> dict:
        """E <-> F, h -> -h, t -> -t on keys, one to one: nothing cancels."""
        out = {key: -c for key, c in elem.items() if key[0] in ("h", "t")}
        out.update({(_FLIP[key[0]], key[1], key[2]): c
                    for key, c in elem.items() if key[0] in _FLIP})
        return out

    def ad(self, sgn: str, i: int, arg) -> dict:
        """[E_i, arg] for sgn "+", [F_i, arg] for sgn "-"; arg a monomial key
        or an element dict.  The automorphism omega: E_i -> F_i,
        F_i -> (-1)^{p_i} E_i, h -> -h, t -> -t is `mirror` on E-monomials, h
        and t, so [F_i, F-mon] = omega [E_i, E-mon] and
        [E_i, F-mon] = (-1)^{p_i} omega [F_i, E-mon], read from fact."""
        if isinstance(arg, dict):
            out = {}
            for key, c in arg.items():
                acc(out, self.ad(sgn, i, key), c)
            return out
        key = arg
        if key[0] in ("h", "t"):  # -[h, X_i], from _cartan_eig
            return self._br_keys((sgn, self._unit(i), 0), key)
        side, wt, idx = key
        if side == sgn:
            out = self._e_on(i, wt, idx)
            return out if sgn == "+" else self.mirror(out)
        out = self.fact[(wt, idx)][i]
        if sgn == "-":
            return out
        out = self.mirror(out)
        return {k: -c for k, c in out.items()} if self.hd.p(i) else out

    def _e_on(self, i: int, wt: tuple, idx: int) -> dict:
        """[E_i, positive monomial] from eact.  The one growth rule: a
        monomial at the top built height first builds the next height."""
        if sum(wt) == self.height:
            self.extend(self.height + 1)
        return self.eact[(wt, idx)].get(i, {})

    def key_parity(self, key) -> int:
        if key[0] in ("h", "t"):
            return 0
        return self.parity[key[1]]

    def bracket(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                acc(out, self._br_keys(kx, ky), cx * cy)
        return out

    def _br_keys(self, kx, ky) -> dict:
        if kx[0] in ("h", "t"):
            if ky[0] in ("h", "t"):
                return {}
            scal = self._cartan_eig(kx, ky)
            return {ky: scal} if scal else {}
        if ky[0] in ("h", "t"):
            inner = self._br_keys(ky, kx)
            return {k: -v for k, v in inner.items()}
        sgn, wt, idx = kx
        i, parent = self.basis[wt][idx]
        if parent is None:
            return self.ad(sgn, i, ky)
        sub, sidx = parent
        # [ [X_i, x'], y ] = [X_i, [x', y]] - (-1)^{p_i p_x'} [x', [X_i, y]]
        sign = (-1) ** (self.hd.p(i) * self.parity[sub])
        out = self.ad(sgn, i, self._br_keys((sgn, sub, sidx), ky))
        acc(out, self.bracket({(sgn, sub, sidx): 1}, self.ad(sgn, i, ky)), -sign)
        return out

    def _cartan_eig(self, hkey, ekey) -> int:
        sgn, wt, _ = ekey
        flip = 1 if sgn == "+" else -1
        if hkey[0] == "h":
            return flip * self.weight_h(wt, hkey[1])
        return flip * wt[hkey[1]]

    def h_eig(self, h, key):
        """[H, key] / key for H = sum c hk t^0, h the terms {(hk, 0): c}."""
        if key[0] in ("h", "t"):
            return 0
        eig = sum(c * self._cartan_eig(hk, key) for (hk, _), c in h.items())
        return canonical(eig)

    # -- invariant form ------------------------------------------------------

    def _form_keys(self, kx, ky):
        """(kx|ky), through the bracket for root keys of opposite weights."""
        opposite = kx[0] in _FLIP and ky[0] == _FLIP[kx[0]] and kx[1] == ky[1]
        return self._form_read(kx, ky, self._br_keys(kx, ky) if opposite else {})

    def _form_read(self, kx, ky, part):
        """(kx|ky) from part = [kx, ky]: the h/t table, or on root keys
        +-eps_i c / w_i, c the h_i coefficient of part, w the weight of kx,
        i its first nonzero coordinate, and - for an F-monomial kx."""
        eps = self.hd.eps
        if kx[0] in ("h", "t") or ky[0] in ("h", "t"):
            i, j = kx[1], ky[1]
            if kx[0] == "h" and ky[0] == "h":
                return eps[j] * self.hd.abar[i][j]
            if kx[0] == "h" and ky[0] == "t":
                return eps[i] if i == j else 0
            if kx[0] == "t" and ky[0] == "h":
                return eps[j] if i == j else 0
            return 0
        wt = kx[1]
        i = next(m for m, c in enumerate(wt) if c)
        c = part.get(("h", i))
        if not c:
            return 0
        val = eps[i] * c / wt[i]
        return -val if kx[0] == "-" else val


def build_graded(hd: HandyDatum, height: int) -> GradedAlgebra:
    return GradedAlgebra(hd, height)


# ---------------------------------------------------------------------------
# loop extension
# ---------------------------------------------------------------------------

@dataclass
class LoopElement:
    alg: GradedAlgebra
    terms: dict = field(default_factory=dict)  # (key, power) -> scalar
    v: object = 0
    w: object = 0

    def __post_init__(self):
        # v and w are stored in the one form acc stores a coefficient in
        self.v, self.w = canonical(self.v), canonical(self.w)

    def is_zero(self) -> bool:
        return not self.terms and not self.v and not self.w

    def scaled(self, c) -> "LoopElement":
        terms: dict = {}
        acc(terms, self.terms, c)
        return LoopElement(self.alg, terms, c * self.v, c * self.w)

    def plus(self, other: "LoopElement") -> "LoopElement":
        terms = dict(self.terms)
        acc(terms, other.terms)
        return LoopElement(self.alg, terms, self.v + other.v, self.w + other.w)

    def parities(self) -> set[int]:
        out = {self.alg.key_parity(k) for k, _ in self.terms}
        if self.v or self.w:
            out.add(0)
        return out


def loop_zero(alg: GradedAlgebra) -> LoopElement:
    return LoopElement(alg)


def loop_term(alg: GradedAlgebra, elem: dict, power: int) -> LoopElement:
    terms: dict = {}
    acc(terms, {(k, power): c for k, c in elem.items()})
    return LoopElement(alg, terms)


def loop_bracket(x: LoopElement, y: LoopElement) -> LoopElement:
    alg = x.alg
    if alg is not y.alg:
        raise DomainError("operands built over different algebras")
    terms: dict = {}
    vc = 0
    for (kx, m), cx in x.terms.items():
        for (ky, n), cy in y.terms.items():
            part = alg._br_keys(kx, ky)
            j = alg._form_read(kx, ky, part) if m + n == 0 and m != 0 else 0
            if not part and not j:
                continue
            c = cx * cy
            acc(terms, {(key, m + n): v for key, v in part.items()}, c)
            if j:
                vc = vc + m * c * j
    if x.w:
        acc(terms, {(ky, n): n * cy for (ky, n), cy in y.terms.items() if n}, x.w)
    if y.w:
        acc(terms, {(kx, m): m * cx for (kx, m), cx in x.terms.items() if m}, -y.w)
    return LoopElement(alg, terms, vc, 0)


def loop_form(x: LoopElement, y: LoopElement):
    alg = x.alg
    out = x.v * y.w + x.w * y.v
    for (kx, m), cx in x.terms.items():
        for (ky, n), cy in y.terms.items():
            if m + n == 0:
                j = alg._form_keys(kx, ky)
                if j:
                    out = out + cx * cy * j
    return out


# ---------------------------------------------------------------------------
# generator images
# ---------------------------------------------------------------------------

class Realization(RealizationBase):
    """The graded algebra together with the generator images."""

    def __init__(self, config: QebsConfig, height: int):
        super().__init__(config)
        self.hd = build_handy(config)
        self.alg = build_graded(self.hd, height)
        self.kappa = None
        self._weights = None  # (alg.height, weight map) of loop_weight_dim
        self._reflections: dict = {}  # nu.ident -> (e, f, h, memo) of aut_n
        self._translations: dict = {}  # (j, +-1) -> (letters, chars) of _translate
        self.node_heights = _node_heights(config, self.hd.kvee)  # m_i of witness_height

    def _root_image(self, sym: RootSym) -> LoopElement:
        alg, sign = self.alg, "+" if sym.sign > 0 else "-"

        def gen(x):  # the unit E or F at Ibar node (sym.node, x)
            return {(sign, alg._unit(self.hd.index(sym.node, x)), 0): 1}

        power, terms = _image_terms(self.config, self.hd.kvee, sym)
        elem: dict = {}
        for c, xs in terms:
            part = gen(xs[0]) if len(xs) == 1 else alg.bracket(gen(xs[0]), gen(xs[1]))
            acc(elem, part, c)
        return loop_term(alg, elem, power)

    def _cartan_image(self, label: str) -> LoopElement:
        if label == "La":
            return LoopElement(self.alg, w=1)
        sp = self.config.space
        coef = sp.gram[sp.idx_Ld][0]
        elem = {("t", self.hd.index(0, x)): coef
                for x in range(1, self.hd.kvee[0] + 1)}
        return loop_term(self.alg, elem, 0)

    def _bracket(self, x: LoopElement, y: LoopElement) -> LoopElement:
        return loop_bracket(x, y)

    def _zero(self) -> LoopElement:
        return loop_zero(self.alg)

    def nonzero_witness(self, value: LoopElement) -> str:
        return "" if value.is_zero() else f"nonzero image with {len(value.terms)} terms"


def _image_terms(config: QebsConfig, kv: dict[int, int], sym: RootSym):
    """The image of the generator sym as (loop power, terms), the one
    statement of the map F on generators: with i = sym.node and E of sym's
    sign, a term (c, (x,)) is c E_(i,x) and a term (c, (x, y)) is
    c [E_(i,x), E_(i,y)]."""
    node, s = sym.node, sym.sign
    tag, n = config.g[node].tag, kv[node]
    if not sym.star:
        if tag in ("empty", "Z", "2Z"):
            return 0, [(1, (x,)) for x in range(1, n + 1)]
        if tag == "2Z+1":
            return 0, [(SQRT2, (1,)), (SQRT2, (2,))]
        if tag == "4Z+2":
            return 0, [(SQRT2, (2,)), (s / SQRT2, (1, 3))]
        return 0, [(1, (1,)), (s, (3, 2))]  # 4Z
    if tag == "2Z+1":
        return s, [(SQRT_M1, (1, 2))]
    if tag == "4Z+2":
        return s, [(1, (1,)), (SQRT_M1, (3, 2))]
    if tag == "4Z":
        return s, [(SQRT2, (2,)), (SQRT2 * SQRT_M1 / 2, (1, 3))]
    zeta = exp_pi_i_over(n)
    twists = [(x, zeta ** (s * (2 * x - 1 - n))) for x in range(1, n + 1)]
    if tag == "Z":
        return s * config.k[node], [(Fraction(s, 4) * z, (x, x)) for x, z in twists]
    return s * config.k[node], [(z, (x,)) for x, z in twists]  # empty, 2Z


def _image_heights(config: QebsConfig, kv=None) -> dict[str, int]:
    """The highest Ibar height among the terms of each generator image, for
    k_vee kv (computed when None)."""
    kv = k_vee(config) if kv is None else kv
    return {sym.ident: max(len(xs) for _, xs in _image_terms(config, kv, sym)[1])
            for sym in b_all(config)}


def _node_heights(config: QebsConfig, kv=None) -> list[int]:
    """m_i, the Ibar height of the plain image of alpha_i, for each node."""
    per = _image_heights(config, kv)
    return [per[RootSym(i, False, 1).ident] for i in range(config.space.n_nodes)]


def required_height(config: QebsConfig, relations) -> int:
    """Exact weight-height bound for substituting the given relations."""
    per = _image_heights(config)

    def tree_h(tree) -> int:
        if isinstance(tree, str):
            return per.get(tree, 0)
        return tree_h(tree[0]) + tree_h(tree[1])

    best = 1
    for _, word in relations.label_words:
        for _, tree in word.monomials:
            best = max(best, tree_h(tree))
    return best


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_pi(config: QebsConfig, relations=None) -> tuple[Report, Realization]:
    rels = relations if relations is not None else emit_sr(config)
    real = Realization(config, required_height(config, rels))
    rep = Report(substitute(real, rels))

    sp = config.space
    labels = sp.basis_labels()
    h_imgs = {lab: real.image(f"h:{lab}") for lab in labels}
    kappa = None
    consistent = True
    npairs = 0
    for x in range(sp.dim):
        for y in range(x, sp.dim):
            jxy = sp.gram[x][y]
            if jxy == 0:
                continue
            ratio = loop_form(h_imgs[labels[x]], h_imgs[labels[y]]) / Cyc.from_rational(jxy)
            npairs += 1
            if kappa is None:
                kappa = ratio
            elif ratio != kappa:
                consistent = False
    ok = kappa is not None and bool(kappa) and consistent and npairs >= 3
    rep.entries.append(
        Check("PD2", ok, "" if ok else f"kappa inconsistent over {npairs} pairs")
    )
    rep.fields["kappa"] = kappa.serialize() if kappa is not None else None
    real.kappa = kappa

    ha = real.image("h:a")
    pd3 = (
        not ha.terms
        and not ha.w
        and kappa is not None
        and ha.v == kappa
        and real.image("h:La").w == 1
    )
    rep.entries.append(Check("PD3", pd3, "" if pd3 else "h_a or h_La image is off"))
    for lab in labels:
        nz = not h_imgs[lab].is_zero()
        rep.entries.append(
            Check(f"h-nonzero[{lab}]", nz, "" if nz else "zero Cartan image")
        )
    for sym in b_all(config):
        img = real.image(sym.ident)
        pars = img.parities()
        ok = pars == {sym.parity(config)}
        rep.entries.append(
            Check(f"parity[{sym.ident}]", ok, "" if ok else f"parities {pars}")
        )
    return rep, real


# ---------------------------------------------------------------------------
# reflection automorphisms
# ---------------------------------------------------------------------------

def _ad_power(x: LoopElement, term: LoopElement, n: int) -> LoopElement:
    """[x, term] as the n-th power of ad x in `aut_n`'s closed form.

    Every term of x, a root-vector image or its square, moves the Ibar
    height the same way, by at least one, and the algebra grows to hold
    every nonzero term, so a nonzero (ad x)^n target has n <= 2 * height:
    the bound 2 * height + 2, read from the algebra at every power, never
    cuts a power short, and a power past it raises ResourceError.
    """
    if n > 2 * x.alg.height + 2:
        raise ResourceError("ad is not nilpotent within the iteration bound")
    return loop_bracket(x, term)


def _reflection(real: Realization, nu: RootSym) -> tuple:
    """(e, f, h, memo), r_nu = exp(ad e) exp(ad f) exp(ad e), kept on real
    per nu: e is the image of the positive one of +-nu and f minus that of
    the negative one, or for an odd nu their squares scaled by 1/4.

    (e, h, -f), h = [e, -f], must be exactly an sl2 triple whose h has every
    monomial at every loop power as an eigenvector: [h, e] = 2e,
    [h, f] = -2f, and h has only h and t keys at loop power 0; otherwise
    CheckError.  h is kept as its terms, with which `GradedAlgebra.h_eig`
    reads a key's h-eigenvalue off its weight.  memo maps a key to
    r_nu(key t^0), filled by `aut_n`.
    """
    if (got := real._reflections.get(nu.ident)) is not None:
        return got
    pos = real.image(nu.ident if nu.sign > 0 else nu.negate().ident)
    neg = real.image(nu.negate().ident if nu.sign > 0 else nu.ident)
    if nu.parity(real.config) == 0:
        e, f = pos, neg.scaled(-1)
    else:
        quarter = Fraction(1, 4)
        e = loop_bracket(pos, pos).scaled(quarter)
        f = loop_bracket(neg, neg).scaled(quarter)
    h = loop_bracket(e, f.scaled(-1))
    if not (all(k[0] in ("h", "t") and p == 0 for k, p in h.terms)
            and loop_bracket(h, e) == e.scaled(2)
            and loop_bracket(h, f) == f.scaled(-2)):
        raise CheckError(f"(e, [e, -f], -f) of {nu.ident} is not an sl2 triple")
    got = real._reflections[nu.ident] = (e, f, h.terms, {})
    return got


def aut_n(real: Realization, nu: RootSym, target: LoopElement) -> LoopElement:
    """The reflection automorphism r_nu = exp(ad e) exp(ad f) exp(ad e) of a
    base root (Kac, Infinite-Dimensional Lie Algebras, 3.8), applied once,
    with (e, f, h, memo) from `_reflection`.

    r_nu is linear and fixes the central v.  A term c key t^m adds c times
    memo[key] = r_nu(key t^0), from `_sl2_image`, with every loop power
    shifted by m, and memo[key]'s v only at m = 0.  This is exact:
    `loop_bracket`'s terms read the operands' powers only through their sum
    and never read an operand's v, so the closed form at key t^m is the one
    at key t^0 shifted by m; and r_nu sends a weight lam != 0 to
    s_nu(lam) != 0, so r_nu(key t^m) has a central part only at weight 0,
    an h or t key at m = 0.  The w part goes through `_sl2_image` itself.
    """
    e, f, h, memo = _reflection(real, nu)
    alg = real.alg
    terms, v, w = {}, target.v, 0
    for (key, m), c in target.terms.items():
        if (img := memo.get(key)) is None:
            img = memo[key] = _sl2_image(e, f, h, key, LoopElement(alg, {(key, 0): 1}))
        acc(terms, {(k, n + m): d for (k, n), d in img.terms.items()}, c)
        if not m:
            v = v + c * img.v
    if target.w:  # w has weight 0, as a t key has
        img = _sl2_image(e, f, h, ("t", 0), LoopElement(alg, {}, 0, 1))
        acc(terms, img.terms, target.w)
        v, w = v + target.w * img.v, target.w * img.w
    return LoopElement(alg, terms, v, w)


def _sl2_image(e: LoopElement, f: LoopElement, h: dict, key,
               x: LoopElement) -> LoopElement:
    """r_nu x for x the key at one loop power, or w with key ("t", 0), by
    the sl2 closed form.

    x is an eigenvector of H in the triple (E, H, F) = (e, h, -f), of weight
    k read off the key's weight through h (0 for w, h and t).  For k >= 0
    and p the last power with (ad e)^p x != 0,
        r_nu x = sum_{c=0..p} (ad f)^(k+c) (ad e)^c x / ((k+c)! c!),
    and for k < 0 e and f swap and k becomes -k (r_nu = exp(ad f) exp(ad e)
    exp(ad f) too).  Proof: ad is locally finite, so x is a sum of
    x_i = F^i u / i! in modules V(k + 2i), u highest, and r_nu x_i =
    (-1)^(k+i) x_(k+i); E^c x_i = C(k+i+c, c) c! x_(i-c) and F^(k+c) x_(i-c)
    = C(k+i, i-c) (k+c)! x_(k+i), so the sum is (-1)^k x_(k+i) sum_c
    C(-k-i-1, c) C(k+i, i-c) = (-1)^(k+i) x_(k+i) by Vandermonde.  It runs
    as Horner in ad f with the integer weights p!/c! (k+p)!/(k+c)!, then
    one scaling by 1/(p! (k+p)!); each power goes through `_ad_power` and
    its iteration bound.  A k that is not an int raises CheckError.
    """
    k = x.alg.h_eig(h, key)
    if type(k) is not int:
        raise CheckError(f"h-eigenvalue {k} of {key} is not an int")
    up, down = (e, f) if k >= 0 else (f, e)
    k, ups = abs(k), [x]  # ups[c] = (ad up)^c x
    while not (nxt := _ad_power(up, ups[-1], len(ups))).is_zero():
        ups.append(nxt)
    p = len(ups) - 1
    out, wgt = ups[p], 1
    for c in range(p - 1, -1, -1):
        wgt *= (c + 1) * (k + c + 1)
        out = _ad_power(down, out, p - c).plus(ups[c].scaled(wgt))
    for n in range(p + 1, p + k + 1):
        out = _ad_power(down, out, n)
    d = factorial(p) * factorial(k + p)
    return out if d == 1 else out.scaled(Fraction(1, d))


def _translate(real: Realization, edge: tuple, target: LoopElement) -> LoopElement:
    """T = r_(j*) r_j for edge (j, 1), or r_j r_(j*) for (j, -1), applied to
    a root vector by its character, kept on real per edge: once per edge T
    is taken through `aut_n` on the 2n Ibar generators E_g and F_g at t^0,
    and each image must be exactly that generator times chi_g at loop power
    s_g, with no v and no w, else CheckError.  Then c key t^m goes to
    c chi(key) key t^(m+s(key)), chi the product of the chi_g and s the sum
    of the s_g over the key's Ibar weight, on the E or F letters by sign.
    Exact: T is an automorphism, a product of two certified r_nu; an E- (F-)
    monomial is a bracket of E_g (F_g) at t^0; `loop_bracket` reads powers
    only through their sum and adds no central term inside one half; and
    `aut_n`'s shift rule carries over to T, with no v at a weight != 0.  A
    Cartan key, a v or a w in the target raises CheckError.
    """
    alg = real.alg
    if (got := real._translations.get(edge)) is None:
        j, sign = edge
        first, then = [RootSym(j, False, 1), RootSym(j, True, 1)][::sign]
        letters = {"+": [], "-": []}  # sign -> (chi_g, s_g) per Ibar node g
        for g in range(alg.n):
            for half, row in letters.items():
                key = (half, alg._unit(g), 0)
                img = aut_n(real, then, aut_n(real, first, LoopElement(alg, {(key, 0): 1})))
                if len(img.terms) != 1 or next(iter(img.terms))[0] != key or img.v or img.w:
                    raise CheckError(f"T of {edge} is not diagonal on {key}")
                ((_, s), chi), = img.terms.items()
                row.append((chi, s))
        got = real._translations[edge] = (letters, {})
    letters, chars = got  # chars: key -> (chi(key), s(key))
    if target.v or target.w:
        raise CheckError(f"a target of T of {edge} has a central part")
    terms = {}
    for (key, m), c in target.terms.items():
        if (ch := chars.get(key)) is None:
            if key[0] not in letters:
                raise CheckError(f"a target of T of {edge} holds the Cartan key {key}")
            chi, s = 1, 0
            for (cg, sg), mult in zip(letters[key[0]], key[1]):
                if mult:
                    chi, s = chi * cg ** mult, s + sg * mult
            ch = chars[key] = (canonical(chi), s)
        terms[key, m + ch[1]] = canonical(c * ch[0])
    return LoopElement(alg, terms)


def transport_images(real: Realization, words: dict, targets=None) -> dict:
    """Transported root vectors for vectors in a words map.

    Walks the map in its insertion order, so each vector costs one step on
    its parent's element: one `aut_n` call for a mirror edge (its per-key
    memo applies each mirror to each Ibar monomial once), one dict pass of
    `_translate` for a translation.  With a targets collection only
    their ancestors in the tree are computed.  A target outside the map
    whose half beta is in it (a doubled root 2 beta, beta odd) gets
    [X_beta, X_beta], since automorphisms preserve brackets; any other
    target missing from the map raises DomainError.  The algebra grows to
    the heights the brackets reach.
    """
    needed = None
    doubled = {}
    if targets is not None:
        needed = set()
        for vec in targets:
            if vec not in words:
                half = tuple(x // 2 for x in vec)
                if any(x % 2 for x in vec) or half not in words:
                    raise DomainError(
                        f"no reflection word reaches the root "
                        f"({', '.join(map(str, vec))})"
                    )
                doubled[vec] = half
                vec = half
            while vec is not None and vec not in needed:
                needed.add(vec)
                vec = words[vec][1]
    out: dict[Vec, LoopElement] = {}
    for vec, (sym0, up, edge) in words.items():
        if needed is None or vec in needed:
            out[vec] = (real.image(sym0.ident) if up is None
                        else aut_n(real, edge, out[up]) if isinstance(edge, RootSym)
                        else _translate(real, edge, out[up]))
    for vec, half in doubled.items():
        out[vec] = loop_bracket(out[half], out[half])
    return out


def root_to_ambient(config: QebsConfig, coords) -> tuple[int, ...]:
    """Lift a root tuple (alpha coords, a-coord) to the integer ambient
    tuple (alpha coords, Ld, a, La) with zero Ld and La coordinates."""
    return coords[:-1] + (0, coords[-1], 0)


def _weight_map(real: Realization):
    """The integer weight map of loop_weight_dim, as (D, D la, D T, map).

    Row x of M is the Cartan image h:x read as a row over Ibar, so M.wt
    holds its eigenvalues on the Ibar weight wt.  Row x of T is
    gram[x] - w_x la, la = gram[La]: the eigenvalues an ambient vector lam
    asks for, as its loop degree J(La, lam) enters only through the w part
    of h:x.  D is their common denominator, and the map sends D flip M.wt to
    the summed basis size, for each built weight wt and flip = +-1.
    """
    sp, alg = real.config.space, real.alg
    la = sp.gram[sp.idx_La]
    rows = []  # [M | T] over Q
    for x, lab in enumerate(sp.basis_labels()):
        img = real.image(f"h:{lab}")
        row = [0] * alg.n
        for (k, p), c in img.terms.items():
            if p != 0 or k[0] not in ("h", "t"):
                raise CheckError("Cartan image has non-Cartan terms")
            if type(c) is Cyc:  # acc stores every rational as int or Fraction
                raise CheckError("a Cartan image has a non-rational coefficient")
            if k[0] == "t":
                row[k[1]] += c
            else:
                row = [r + c * a for r, a in zip(row, alg.hd.abar[k[1]])]
        rows.append(row + [g - img.w * gl for g, gl in zip(sp.gram[x], la)])
    D = lcm(*(q.denominator for row in rows + [la] for q in row))

    def sparse(row):
        return tuple((k, int(D * q)) for k, q in enumerate(row) if q)

    index: dict[tuple, int] = {}
    M = [sparse(row[:alg.n]) for row in rows]
    for wt, basis in alg.basis.items():
        if basis:
            key = tuple(sum(c * wt[k] for k, c in row) for row in M)
            for signed in (key, tuple(-e for e in key)):
                index[signed] = index.get(signed, 0) + len(basis)
    return D, sparse(la), [sparse(row[alg.n:]) for row in rows], index


def loop_weight_dim(real: Realization, lam: Vec) -> int:
    """Dimension of the ambient simultaneous ad-eigenspace matching a root
    weight: the built loop-algebra space with lam's Cartan eigenvalues, not
    the span of the transported image.  It equals the real multiplicity one
    only when k_vee = 1 on every node; where k_vee = 2 doubles Ibar it can
    read 2 for a root whose image is one nonzero vector.  lam holds ints or
    Fractions.  The algebra first grows to lam's Ibar height, and the
    weight map is rebuilt whenever the algebra is taller than the map."""
    sp = real.config.space
    if len(lam) != sp.dim:
        raise DomainError(f"weight of length {len(lam)}, not {sp.dim}")
    lam = [q.numerator if q.denominator == 1 else q for q in lam]
    real.alg.extend(ceil(_ibar_height(real.node_heights, lam)))
    if real._weights is None or real._weights[0] != real.alg.height:
        real._weights = (real.alg.height, _weight_map(real))
    D, la, T, index = real._weights[1]
    if sum(c * lam[k] for k, c in la) % D:
        return 0  # a non-integral loop degree
    return index.get(tuple(sum(c * lam[k] for k, c in row) for row in T), 0)


def _ibar_height(m: list[int], coords) -> int:
    """sum |c_i| m_i over the alpha_i coefficients c_i, the first len(m)
    entries of coords: an integer root tuple, whose last entry is its
    a-coordinate, or an ambient vector."""
    return sum(abs(c) * mi for c, mi in zip(coords, m))


def witness_height(config: QebsConfig, rootset, words=None) -> int:
    """The Ibar height of the window: every weight that loop_weight_dim
    counts for a window root is built at this height.

    The bound is the largest sum |c_i| m_i over the window roots, m_i the
    Ibar height of the plain image of alpha_i in `_image_terms`.  Where that
    image is a sum of generators E_(i,x), m_i = 1: the Cartan images act
    diagonally on Ibar weights, so each E_(i,x) in that eigenvector has its
    weight alpha_i, and an Ibar weight of ambient weight
    lam = sum c_i alpha_i + n a has c_i nodes over each alpha_i and height
    |sum c_i|, which for a root (all c_i of one sign) is sum |c_i|.  For 4Z
    and 4Z+2 the image also holds a bracket of two generators and m_i = 2;
    the argument does not cover those tags, but no lookup reaches them:
    build_handy rejects with HD5 every 4Z and 4Z+2 configuration of
    test_doubled_class_coverage_census (eleven families, k up to 4).
    Transport may reach higher, and the algebra grows to it; words is
    ignored.
    """
    m = _node_heights(config)
    return max((_ibar_height(m, coords) for coords, _ in rootset.sorted_roots()),
               default=1)


def witness_words(config: QebsConfig, rootset) -> dict:
    """The witness tree reaching every root of the rootset's window.

    The plain mirrors, which fix n, close the base roots and their starred
    forms through alpha-parts up to two level periods past the window.  Then
    each window alpha-part c walks its markings with |n| <= N by the radical
    translations T_j = r_(j*) r_j of Saito's elliptic Weyl group ("Extended
    affine root systems I", Publ. RIMS 21 (1985)) and their inverses, which
    add +-s_j(c) to n: s_j(c) is read off the two mirrors once per c, and
    one j is kept per |s_j(c)|.  Every vector is a rootset member; keys and
    parents are lifted by `root_to_ambient`.

    Returns vector -> (starting base root, parent, edge sending the parent
    to the vector: a plain RootSym, or (j, +-1) for T_j^(+-1)), parent and
    edge None at a base root, parents first.
    """
    c0_bound = rootset.window.M * rootset.delta0 + 2 * rootset.period
    N = rootset.window.N
    plain = [(RootSym(i, False, 1), mirror(config, i, False)) for i in config.nodes]
    star = [mirror(config, i, True) for i in config.nodes]
    seeds = [(sym.root(config), sym) for sym in b_all(config)]
    tree = closure(seeds, plain, lambda v: abs(v[0]) <= c0_bound and rootset.member(v))
    parts = {coords[:-1] for coords in rootset.inner}
    queue = [vec for vec in tree if vec[:-1] in parts and abs(vec[-1]) <= N]
    steps: dict = {}  # alpha-part -> {|s_j|: (j, s_j)} for the first such j
    for vec in queue:  # breadth first, as the queue grows
        c, n = vec[:-1], vec[-1]
        if c not in steps:
            steps[c] = sizes = {}
            for (sym, image), other in zip(plain, star):
                if (img := other(image(c + (0,)))) and img[-1]:
                    sizes.setdefault(abs(img[-1]), (sym.node, img[-1]))
        for j, s in steps[c].values():
            for sign in (1, -1):
                img = c + (n + sign * s,)
                if abs(img[-1]) <= N and img not in tree and rootset.member(img):
                    tree[img] = (tree[vec][0], vec, (j, sign))
                    queue.append(img)
    lift = {vec: root_to_ambient(config, vec) for vec in tree} | {None: None}
    return {lift[vec]: (sym0, lift[up], edge) for vec, (sym0, up, edge) in tree.items()}
