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
from math import factorial, lcm

from .ambient import CheckError, ConfigError, DomainError, Vec, cartan_symmetrizer
from .base_system import QebsConfig
from .cyclo import Cyc, ONE, SQRT2, SQRT_M1, ZERO, exp_pi_i_over
from .presentation import RootSym, b_all
from .roots import closure, mirror, root_of


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

# element: dict mapping a monomial key to a scalar (Fraction or Cyc).
# keys: ("h", i), ("t", i), (sign, weight, idx) with sign "+" or "-",
# weight a tuple of multiplicities over Ibar.

def _acc(out: dict, elem: dict, scalar):
    if not scalar:
        return
    for key, c in elem.items():
        val = out.get(key, 0) + scalar * c
        if val:
            out[key] = val
        elif key in out:
            del out[key]


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
    operators kill it, which turns the per-weight quotient into the kernel
    of a stacked rational matrix.
    """

    def __init__(self, hd: HandyDatum, height: int, cap: int | None = None):
        if height < 1:
            raise DomainError("height bound must be >= 1")
        self.hd = hd
        self.height = height
        self.n = hd.n
        # basis[wt] = list of (i, parent_index) monomials; height-1 parent None
        self.basis: dict[tuple, list[tuple]] = {}
        self.parity: dict[tuple, int] = {}
        # eact[(wt, idx)][i] -> element at wt + e_i (filled when built)
        self.eact: dict[tuple, dict[int, dict]] = {}
        self.fact: dict[tuple, dict[int, dict]] = {}
        # gact: [E_j, negative basis element]
        self.gact: dict[tuple, dict[int, dict]] = {}
        self._size = 0
        self._cap = _default_cap() if cap is None else cap
        self._build()

    # -- weights ------------------------------------------------------------

    def _unit(self, i: int) -> tuple:
        return tuple(1 if j == i else 0 for j in range(self.n))

    def weight_h(self, wt: tuple, i: int) -> Fraction:
        return Fraction(sum(c * self.hd.abar[i][m] for m, c in enumerate(wt)))

    def monomial_parity(self, wt: tuple) -> int:
        return sum(c * self.hd.p(m) for m, c in enumerate(wt)) % 2

    def dims(self) -> dict[tuple, int]:
        return {wt: len(b) for wt, b in self.basis.items() if b}

    # -- construction -------------------------------------------------------

    def _build(self):
        self.completed = 0
        for i in range(self.n):
            wt = self._unit(i)
            self.basis[wt] = [(i, None)]
            self.parity[wt] = self.hd.p(i)
            self.fact[(wt, 0)] = {
                j: ({("h", i): Fraction((-1) ** (self.hd.p(i) + 1))} if j == i else {})
                for j in range(self.n)
            }
            self.eact[(wt, 0)] = {}
        self.completed = 1
        for h in range(2, self.height + 1):
            for wt in sorted(self._weights_at(h)):
                self._build_weight(wt, h)
                if self._size > self._cap:
                    raise ResourceError(
                        f"basis size {self._size} over the budget",
                        self.completed,
                    )
            self.completed = h

    def _weights_at(self, h: int) -> list[tuple]:
        prev = [wt for wt in self.basis if sum(wt) == h - 1 and self.basis[wt]]
        out = set()
        for wt in prev:
            for i in range(self.n):
                out.add(tuple(c + (1 if m == i else 0) for m, c in enumerate(wt)))
        return list(out)

    def _build_weight(self, wt: tuple, h: int):
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
        self.parity[wt] = self.monomial_parity(wt)

        # image of each candidate under every lowering operator
        images = []
        for i, sub, idx in cands:
            img: dict = {}
            for j in range(self.n):
                part = self._f_on_candidate(j, i, sub, idx)
                for key, c in part.items():
                    img[(j,) + (key,)] = img.get((j,) + (key,), 0) + c
            images.append({k: v for k, v in img.items() if v})

        # greedy row reduction; independent candidates become the basis.
        # row_exprs tracks each reduced pivot row as a combination of the
        # images of the basis candidates, so dependent candidates get an
        # exact expansion in the chosen basis.
        pivot_rows: list[dict] = []
        pivot_cols: list = []
        row_exprs: list[dict] = []
        basis_mon = []
        expansions: dict[tuple, dict] = {}
        for cand, img in zip(cands, images):
            vec = dict(img)
            expr: dict[int, Fraction] = {}
            for prow, pcol, rexpr in zip(pivot_rows, pivot_cols, row_exprs):
                if pcol in vec:
                    fac = vec[pcol] / prow[pcol]
                    for bb, c in rexpr.items():
                        nv = expr.get(bb, 0) + fac * c
                        if nv:
                            expr[bb] = nv
                        elif bb in expr:
                            del expr[bb]
                    for key, c in prow.items():
                        val = vec.get(key, 0) - fac * c
                        if val:
                            vec[key] = val
                        elif key in vec:
                            del vec[key]
            if vec:
                bidx = len(basis_mon)
                basis_mon.append(cand)
                rexpr = {bidx: Fraction(1)}
                for bb, c in expr.items():
                    rexpr[bb] = rexpr.get(bb, 0) - c
                pivot_rows.append(vec)
                pivot_cols.append(min(vec, key=repr))
                row_exprs.append({k: v for k, v in rexpr.items() if v})
                expansions[cand] = {bidx: Fraction(1)}
            else:
                expansions[cand] = expr

        self.basis[wt] = [(i, self._bindex(sub, idx)) for i, sub, idx in basis_mon]
        self._size += len(basis_mon)

        # record raising action on the sub-basis and lowering on the new basis
        for cand, combo in expansions.items():
            i, sub, idx = cand
            elem = {("+", wt, b): Fraction(v) for b, v in combo.items() if v}
            self.eact[(sub, idx)][i] = elem
        for bidx, cand in enumerate(basis_mon):
            key = (wt, bidx)
            self.eact[key] = {}
            i, sub, idx = cand
            self.fact[key] = {
                j: self._f_on_candidate(j, i, sub, idx) for j in range(self.n)
            }

    def _bindex(self, sub: tuple, idx: int) -> tuple:
        return (sub, idx)

    def _f_on_candidate(self, j: int, i: int, sub: tuple, idx: int) -> dict:
        """[F_j, [E_i, b]] for b the idx-th basis monomial at weight sub."""
        hd = self.hd
        sign = Fraction((-1) ** (hd.p(i) * hd.p(j)))
        out: dict = {}
        if i == j:
            # -sign [h_i, b] with b of weight sub
            _acc(out, self._key_elem("+", sub, idx), -sign * self.weight_h(sub, i))
        inner = self.fact[(sub, idx)][j]
        _acc(out, self.ad_e(i, inner), sign)
        return out

    def _key_elem(self, sgn: str, wt: tuple, idx: int) -> dict:
        return {(sgn, wt, idx): Fraction(1)}

    # -- brackets -----------------------------------------------------------

    def mirror(self, elem: dict) -> dict:
        """E <-> F, h -> -h, t -> -t on monomial keys."""
        out = {}
        for key, c in elem.items():
            if key[0] == "h" or key[0] == "t":
                out[key] = out.get(key, 0) - c
            else:
                sgn = "-" if key[0] == "+" else "+"
                out[(sgn, key[1], key[2])] = c
        return {k: v for k, v in out.items() if v}

    def ad_e(self, i: int, arg) -> dict:
        """[E_i, arg] for arg a monomial key or an element dict."""
        if isinstance(arg, dict):
            out = {}
            for key, c in arg.items():
                _acc(out, self.ad_e(i, key), c)
            return out
        key = arg
        if key[0] == "h":
            return {("+", self._unit(i), 0): -Fraction(self.hd.abar[key[1]][i])}
        if key[0] == "t":
            if key[1] != i:
                return {}
            return {("+", self._unit(i), 0): Fraction(-1)}
        sgn, wt, idx = key
        if sgn == "+":
            table = self.eact.get((wt, idx))
            if table is None or (i not in table and sum(wt) + 1 > self.height):
                raise ResourceError("bracket leaves the built height", self.completed)
            return table.get(i, {})
        # E_i against a negative monomial
        return self._g_on(i, wt, idx)

    def ad_f(self, j: int, arg) -> dict:
        if isinstance(arg, dict):
            out = {}
            for key, c in arg.items():
                _acc(out, self.ad_f(j, key), c)
            return out
        key = arg
        if key[0] == "h":
            return {("-", self._unit(j), 0): Fraction(self.hd.abar[key[1]][j])}
        if key[0] == "t":
            if key[1] != j:
                return {}
            return {("-", self._unit(j), 0): Fraction(1)}
        sgn, wt, idx = key
        if sgn == "-":
            table = self.eact.get((wt, idx))
            if table is None or (j not in table and sum(wt) + 1 > self.height):
                raise ResourceError("bracket leaves the built height", self.completed)
            return self.mirror(table.get(j, {}))
        return self.fact[(wt, idx)][j]

    def _g_on(self, i: int, wt: tuple, idx: int) -> dict:
        """[E_i, F-monomial], memoized through gact."""
        cached = self.gact.get((wt, idx), {}).get(i)
        if cached is not None:
            return cached
        hd = self.hd
        mon = self.basis[wt][idx]
        j, parent = mon
        if parent is None:
            out = {("h", i): Fraction(1)} if i == j else {}
        else:
            sub, sidx = parent
            sign = Fraction((-1) ** (hd.p(i) * hd.p(j)))
            out: dict = {}
            if i == j:
                _acc(
                    out,
                    self._key_elem("-", sub, sidx),
                    -self.weight_h(sub, i),
                )
            _acc(out, self.ad_f(j, self._g_on(i, sub, sidx)), sign)
        self.gact.setdefault((wt, idx), {})[i] = out
        return out

    def key_parity(self, key) -> int:
        if key[0] in ("h", "t"):
            return 0
        return self.parity[key[1]]

    def key_height(self, key) -> int:
        if key[0] in ("h", "t"):
            return 0
        return sum(key[1]) * (1 if key[0] == "+" else -1)

    def bracket(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                _acc(out, self._br_keys(kx, ky), cx * cy)
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
        mon = self.basis[wt][idx]
        i, parent = mon
        one = self.ad_e if sgn == "+" else self.ad_f
        if parent is None:
            return one(i, ky)
        sub, sidx = parent
        # [ [X_i, x'], y ] = [X_i, [x', y]] - (-1)^{p_i p_x'} [x', [X_i, y]]
        sign = (-1) ** (self.hd.p(i) * self.parity[sub])
        out = one(i, self._br_keys((sgn, sub, sidx), ky))
        _acc(out, self.bracket(self._key_elem(sgn, sub, sidx), one(i, ky)), -Fraction(sign))
        return out

    def _cartan_eig(self, hkey, ekey) -> Fraction:
        sgn, wt, _ = ekey
        flip = 1 if sgn == "+" else -1
        if hkey[0] == "h":
            return flip * self.weight_h(wt, hkey[1])
        return flip * Fraction(wt[hkey[1]])

    # -- invariant form ------------------------------------------------------

    def form(self, x: dict, y: dict):
        out = 0
        for kx, cx in x.items():
            for ky, cy in y.items():
                val = self._form_keys(kx, ky)
                if val:
                    out = out + cx * cy * val
        return out

    def _form_keys(self, kx, ky):
        eps = self.hd.eps
        if kx[0] in ("h", "t") and ky[0] in ("h", "t"):
            i, j = kx[1], ky[1]
            if kx[0] == "h" and ky[0] == "h":
                return eps[j] * self.hd.abar[i][j]
            if kx[0] == "h" and ky[0] == "t":
                return eps[i] if i == j else 0
            if kx[0] == "t" and ky[0] == "h":
                return eps[j] if i == j else 0
            return 0
        if kx[0] in ("h", "t") or ky[0] in ("h", "t"):
            return 0
        if self.key_height(kx) + self.key_height(ky) != 0:
            return 0
        if kx[0] == "-":
            sign = (-1) ** (self.parity[kx[1]] * self.parity[ky[1]])
            return sign * self._form_keys(ky, kx)
        wt, idx = kx[1], kx[2]
        i, parent = self.basis[wt][idx]
        if parent is None:
            jwt, jidx = ky[1], ky[2]
            j, jparent = self.basis[jwt][jidx]
            if jparent is None:
                return eps[i] if i == j else 0
            # peel the right monomial instead
            sub, sidx = jparent
            sign = (-1) ** (self.hd.p(j) * self.parity[kx[1]])
            peeled = self.ad_f(j, {kx: Fraction(1)})
            return -sign * self.form(peeled, self._key_elem("-", sub, sidx))
        sub, sidx = parent
        sign = (-1) ** (self.hd.p(i) * self.parity[sub])
        peeled = self.ad_e(i, {ky: Fraction(1)})
        return -sign * self.form(self._key_elem("+", sub, sidx), peeled)


def build_graded(hd: HandyDatum, height: int, cap: int | None = None) -> GradedAlgebra:
    return GradedAlgebra(hd, height, cap)


# ---------------------------------------------------------------------------
# loop extension
# ---------------------------------------------------------------------------

@dataclass
class LoopElement:
    alg: GradedAlgebra
    terms: dict = field(default_factory=dict)  # (key, power) -> scalar
    v: object = 0
    w: object = 0

    def is_zero(self) -> bool:
        return not self.terms and not self.v and not self.w

    def scaled(self, c) -> "LoopElement":
        return LoopElement(
            self.alg,
            {k: cv for k, val in self.terms.items() if (cv := c * val)},
            c * self.v,
            c * self.w,
        )

    def plus(self, other: "LoopElement") -> "LoopElement":
        terms = dict(self.terms)
        for k, val in other.terms.items():
            nv = terms.get(k, 0) + val
            if nv:
                terms[k] = nv
            elif k in terms:
                del terms[k]
        return LoopElement(self.alg, terms, self.v + other.v, self.w + other.w)

    def parities(self) -> set[int]:
        out = {self.alg.key_parity(k) for k, _ in self.terms}
        if self.v or self.w:
            out.add(0)
        return out


def loop_zero(alg: GradedAlgebra) -> LoopElement:
    return LoopElement(alg)


def loop_term(alg: GradedAlgebra, elem: dict, power: int) -> LoopElement:
    return LoopElement(alg, {(k, power): c for k, c in elem.items() if c})


def loop_bracket(x: LoopElement, y: LoopElement) -> LoopElement:
    alg = x.alg
    if alg is not y.alg:
        raise DomainError("operands built over different algebras")
    terms: dict = {}
    vc = 0
    for (kx, m), cx in x.terms.items():
        for (ky, n), cy in y.terms.items():
            part = alg._br_keys(kx, ky)
            for key, c in part.items():
                val = terms.get((key, m + n), 0) + cx * cy * c
                if val:
                    terms[(key, m + n)] = val
                elif (key, m + n) in terms:
                    del terms[(key, m + n)]
            if m + n == 0 and m != 0:
                j = alg._form_keys(kx, ky)
                if j:
                    vc = vc + m * cx * cy * j
    out = LoopElement(alg, terms, vc, 0)
    if x.w:
        for (ky, n), cy in y.terms.items():
            if n:
                out = out.plus(LoopElement(alg, {(ky, n): x.w * n * cy}))
    if y.w:
        for (kx, m), cx in x.terms.items():
            if m:
                out = out.plus(LoopElement(alg, {(kx, m): -(y.w * m * cx)}))
    return out


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

class Realization:
    """The graded algebra together with the generator images."""

    def __init__(self, config: QebsConfig, height: int, cap: int | None = None):
        self.config = config
        self.hd = build_handy(config)
        self.alg = build_graded(self.hd, height, cap)
        self._images: dict[str, LoopElement] = {}
        self.kappa = None
        self._weights = None  # the integer weight map of loop_weight_dim

    # unit E/F elements by Ibar pair
    def _gen(self, node: int, x: int, sign: int) -> dict:
        i = self.hd.index(node, x)
        wt = self.alg._unit(i)
        return {("+" if sign > 0 else "-", wt, 0): ONE}

    def _pair_bracket(self, node: int, x1: int, x2: int, sign: int) -> dict:
        return self.alg.bracket(
            self._gen(node, x1, sign), self._gen(node, x2, sign)
        )

    def image(self, ident: str) -> LoopElement:
        if ident in self._images:
            return self._images[ident]
        out = self._compute_image(ident)
        self._images[ident] = out
        return out

    def _compute_image(self, ident: str) -> LoopElement:
        if ident.startswith("E:"):
            sign = 1 if ident[2] == "+" else -1
            star = ident.endswith("*")
            node = int(ident[3:].rstrip("*")[1:])
            return self._root_image(node, star, sign)
        if ident.startswith("h:"):
            return self._cartan_image(ident[2:])
        raise DomainError(f"unknown generator {ident!r}")

    def _root_image(self, node: int, star: bool, sign: int) -> LoopElement:
        cfg, alg = self.config, self.alg
        tag = cfg.g[node].tag
        kv = self.hd.kvee[node]
        s = sign
        if not star:
            if tag in ("empty", "Z", "2Z"):
                elem: dict = {}
                for x in range(1, kv + 1):
                    _acc(elem, self._gen(node, x, s), ONE)
            elif tag == "2Z+1":
                elem = {}
                _acc(elem, self._gen(node, 1, s), SQRT2)
                _acc(elem, self._gen(node, 2, s), SQRT2)
            elif tag == "4Z+2":
                elem = {}
                _acc(elem, self._gen(node, 2, s), SQRT2)
                _acc(elem, self._pair_bracket(node, 1, 3, s), s / SQRT2 * ONE)
            else:  # 4Z
                elem = {}
                _acc(elem, self._gen(node, 1, s), ONE)
                _acc(elem, self._pair_bracket(node, 3, 2, s), Fraction(s) * ONE)
            return loop_term(alg, elem, 0)
        zeta = exp_pi_i_over(kv)
        if tag in ("empty", "2Z"):
            elem = {}
            for x in range(1, kv + 1):
                _acc(elem, self._gen(node, x, s), zeta ** (s * (2 * x - 1 - kv)))
            return loop_term(alg, elem, s * cfg.k[node])
        if tag == "Z":
            elem = {}
            for x in range(1, kv + 1):
                coef = Fraction(s, 4) * zeta ** (s * (2 * x - 1 - kv))
                _acc(elem, self._pair_bracket(node, x, x, s), coef)
            return loop_term(alg, elem, s * cfg.k[node])
        if tag == "2Z+1":
            elem = {}
            _acc(elem, self._pair_bracket(node, 1, 2, s), SQRT_M1)
            return loop_term(alg, elem, s)
        if tag == "4Z+2":
            elem = {}
            _acc(elem, self._gen(node, 1, s), ONE)
            _acc(elem, self._pair_bracket(node, 3, 2, s), SQRT_M1)
            return loop_term(alg, elem, s)
        # 4Z
        elem = {}
        _acc(elem, self._gen(node, 2, s), SQRT2)
        _acc(elem, self._pair_bracket(node, 1, 3, s), SQRT2 * SQRT_M1 / 2)
        return loop_term(alg, elem, s)

    def _h_of_root(self, sym: RootSym) -> LoopElement:
        """h_mu for mu the vector of sym, via [E_mu, E_-mu] = h_{mu_vee}."""
        sp = self.config.space
        vec = sym.vector(self.config)
        half_norm = sp.j(vec, vec) / 2
        br = loop_bracket(self.image(sym.ident), self.image(sym.negate().ident))
        return br.scaled(half_norm)

    def _cartan_image(self, label: str) -> LoopElement:
        sp = self.config.space
        alg = self.alg
        if label.startswith("a") and label[1:].isdigit():
            return self._h_of_root(RootSym(int(label[1:]), False, 1))
        if label == "Ld":
            coef = sp.j(sp.Lambda_delta, sp.alpha(0))
            elem = {}
            for x in range(1, self.hd.kvee[0] + 1):
                elem[("t", self.hd.index(0, x))] = coef
            return loop_term(alg, elem, 0)
        if label == "La":
            out = loop_zero(alg)
            out.w = ONE
            return out
        if label == "a":
            # a = (alpha_0^* - c alpha_0) / k_0 as ambient vectors
            c = self.config.c_of(0)
            k0 = self.config.k[0]
            star = self._h_of_root(RootSym(0, True, 1))
            plain = self._h_of_root(RootSym(0, False, 1))
            return star.plus(plain.scaled(-c)).scaled(Fraction(1, k0))
        raise DomainError(f"unknown Cartan label {label!r}")

    def evaluate(self, tree) -> LoopElement:
        if isinstance(tree, str):
            return self.image(tree)
        left, right = tree
        return loop_bracket(self.evaluate(left), self.evaluate(right))

    def evaluate_word(self, word) -> LoopElement:
        out = loop_zero(self.alg)
        for coeff, tree in word.monomials:
            out = out.plus(self.evaluate(tree).scaled(coeff))
        return out


def required_height(config: QebsConfig, relations) -> int:
    """Exact weight-height bound for substituting the given relations."""
    per = {}
    for sym in b_all(config):
        tag = config.g[sym.node].tag
        if not sym.star:
            per[sym.ident] = 2 if tag in ("4Z", "4Z+2") else 1
        else:
            per[sym.ident] = 1 if tag in ("empty", "2Z") else 2

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

@dataclass
class PiReport:
    entries: list[tuple[str, bool, str]] = field(default_factory=list)
    kappa: Cyc | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(lbl, w) for lbl, ok, w in self.entries if not ok]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "kappa": self.kappa.serialize() if self.kappa is not None else None,
            "checks": [
                {"label": lbl, "ok": ok, "witness": w}
                for lbl, ok, w in self.entries
            ],
        }


def verify_pi(config: QebsConfig, height: int | None = None,
              relations=None) -> tuple[PiReport, Realization]:
    from .presentation import emit_sr

    rels = relations if relations is not None else emit_sr(config)
    need = required_height(config, rels)
    h = max(height or 0, need)
    real = Realization(config, h)
    rep = PiReport()

    for label, word in rels.label_words:
        try:
            val = real.evaluate_word(word)
        except ResourceError as exc:
            raise ResourceError(
                f"height {h} too small for {label}", exc.completed_height
            )
        ok = val.is_zero()
        rep.entries.append(
            (label, ok, "" if ok else f"nonzero image with {len(val.terms)} terms")
        )

    sp = config.space
    labels = sp.basis_labels()
    h_imgs = {lab: real.image(f"h:{lab}") for lab in labels}
    kappa = None
    consistent = True
    npairs = 0
    for x in range(sp.dim):
        for y in range(x, sp.dim):
            jxy = sp.j(sp.basis_vector(x), sp.basis_vector(y))
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
        ("PD2", ok, "" if ok else f"kappa inconsistent over {npairs} pairs")
    )
    rep.kappa = kappa
    real.kappa = kappa

    ha = real.image("h:a")
    pd3 = (
        not ha.terms
        and not ha.w
        and kappa is not None
        and ha.v == kappa
        and real.image("h:La").w == ONE
    )
    rep.entries.append(("PD3", pd3, "" if pd3 else "h_a or h_La image is off"))
    for lab in labels:
        nz = not h_imgs[lab].is_zero()
        rep.entries.append(
            (f"h-nonzero[{lab}]", nz, "" if nz else "zero Cartan image")
        )
    for sym in b_all(config):
        img = real.image(sym.ident)
        pars = img.parities()
        ok = pars == {sym.parity(config)}
        rep.entries.append(
            (f"parity[{sym.ident}]", ok, "" if ok else f"parities {pars}")
        )
    return rep, real


# ---------------------------------------------------------------------------
# reflection automorphisms
# ---------------------------------------------------------------------------

def _exp_ad(x: LoopElement, target: LoopElement,
            bound: int | None = None) -> LoopElement:
    """exp(ad x) applied to target, for x a root-vector image or its square.

    Every term of such an x moves the Ibar height the same way, by at least
    one, so after 2 * height + 1 steps a term has left the built heights:
    the series has ended, or a bracket has raised ResourceError.  The
    default bound 2 * height + 2 therefore never cuts a series short.
    """
    if bound is None:
        bound = 2 * x.alg.height + 2
    out = target
    term = target
    for n in range(1, bound + 1):
        term = loop_bracket(x, term).scaled(Fraction(1, n))
        if term.is_zero():
            return out
        out = out.plus(term)
    raise ResourceError("ad is not nilpotent within the iteration bound")


def aut_n(real: Realization, nu: RootSym, target: LoopElement) -> LoopElement:
    """The reflection automorphism attached to a base root, applied once."""
    pos = real.image(nu.ident if nu.sign > 0 else nu.negate().ident)
    neg = real.image(nu.negate().ident if nu.sign > 0 else nu.ident)
    if nu.parity(real.config) == 0:
        out = _exp_ad(pos, target)
        out = _exp_ad(neg.scaled(-1), out)
        return _exp_ad(pos, out)
    quarter = Fraction(1, 4)
    sq_pos = loop_bracket(pos, pos).scaled(quarter)
    sq_neg = loop_bracket(neg, neg).scaled(quarter)
    out = _exp_ad(sq_pos, target)
    out = _exp_ad(sq_neg, out)
    return _exp_ad(sq_pos, out)


def transport_images(real: Realization, words: dict, targets=None) -> dict:
    """Transported root vectors for vectors in a words map.

    Walks the map in its breadth-first insertion order, so each vector costs
    one reflection automorphism applied to its parent's element.  With a
    targets collection only their mirror-chain ancestors are computed.  A
    target without a word of its own whose half beta has one (a doubled
    root 2 beta, beta odd) gets [X_beta, X_beta], since automorphisms
    preserve brackets; any other target missing from the map raises
    DomainError.
    """
    config = real.config
    mirrors = {sym: mirror(config, sym.node, sym.star) for sym in b_all(config)}

    def parent(vec, word):
        return _lift(mirrors[word[-1]](root_of(config, vec)))

    needed = None
    doubled = {}
    if targets is not None:
        needed = set()
        stack = []
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
            stack.append(vec)
        while stack:
            vec = stack.pop()
            if vec in needed:
                continue
            needed.add(vec)
            _, word = words[vec]
            if word:
                stack.append(parent(vec, word))
    out: dict[Vec, LoopElement] = {}
    for vec, (sym0, word) in words.items():
        if needed is not None and vec not in needed:
            continue
        if not word:
            out[vec] = real.image(sym0.ident)
        else:
            out[vec] = aut_n(real, word[-1], out[parent(vec, word)])
    for vec, half in doubled.items():
        out[vec] = loop_bracket(out[half], out[half])
    return out


def root_to_ambient(config: QebsConfig, coords) -> Vec:
    """Lift a root tuple (alpha coords, a-coord) to the full basis."""
    return tuple(Fraction(x) for x in _lift(coords))


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
    rows = []  # [M | T] over Q(zeta24)
    for x, lab in enumerate(sp.basis_labels()):
        img = real.image(f"h:{lab}")
        row = [ZERO] * alg.n
        for (k, p), c in img.terms.items():
            if p != 0 or k[0] not in ("h", "t"):
                raise CheckError("Cartan image has non-Cartan terms")
            if k[0] == "t":
                row[k[1]] += c
            else:
                row = [r + c * a for r, a in zip(row, alg.hd.abar[k[1]])]
        rows.append(row + [ONE * g - img.w * gl for g, gl in zip(sp.gram[x], la)])
    if not all(q.is_rational() for row in rows for q in row):
        raise CheckError("a Cartan image has a non-rational coefficient")
    rows = [[q.rational_value() for q in row] for row in rows]
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
    Fractions; the integer weight map is built on the first call."""
    sp = real.config.space
    if len(lam) != sp.dim:
        raise DomainError(f"weight of length {len(lam)}, not {sp.dim}")
    if real._weights is None:
        real._weights = _weight_map(real)
    D, la, T, index = real._weights
    lam = [q.numerator if q.denominator == 1 else q for q in lam]
    if sum(c * lam[k] for k, c in la) % D:
        return 0  # a non-integral loop degree
    return index.get(tuple(sum(c * lam[k] for k, c in row) for row in T), 0)


def witness_height(config: QebsConfig, rootset, words=None) -> int:
    """Weight height needed so every window root lands in a built space.

    With a words map the bound also covers the mirror chains, which may pass
    through roots outside the window, plus slack for intermediate terms of
    the exponential series.
    """
    kv = k_vee(config)
    n_nodes = config.space.n_nodes

    def h(coords):
        return int(sum(abs(coords[i]) * kv[i] for i in range(n_nodes)))

    best = max((h(c) for c, _ in rootset.sorted_roots()), default=1)
    if words is not None:
        best = max(best, max(h(vec) for vec in words))
        best += 2 * max(kv.values())
    return best


def witness_words(config: QebsConfig, rootset) -> dict:
    """Reflection words reaching every root of the rootset's window.

    The sweep runs on root tuples; the keys are lifted to integer tuples of
    ambient length with zero Ld and La coordinates, which compare and hash
    equal to the Fraction tuples of `root_to_ambient`.  The sweep is allowed
    to route through roots slightly outside the window; the membership table
    extends two twist periods past it, which is enough slack for the mirror
    chains.

    Returns vector -> (starting base root, list of mirrors applied in order).
    """
    c0_bound = rootset.window.M * rootset.delta0 + 2 * rootset.period
    n_bound = rootset.window.N + 2 * rootset.period

    def keep(vec: tuple) -> bool:
        if abs(vec[0]) > c0_bound or abs(vec[-1]) > n_bound:
            return False
        return rootset.member(vec)

    mirrors = [
        (sym, mirror(config, sym.node, sym.star)) for sym in b_all(config) if sym.sign > 0
    ]
    seeds = []
    for sym, _ in mirrors:
        vec = root_of(config, sym.vector(config))
        seeds += [(vec, sym), (tuple(-x for x in vec), sym.negate())]
    return {_lift(vec): val for vec, val in closure(seeds, mirrors, keep).items()}


def _lift(root: tuple) -> tuple:
    """The integer ambient tuple (alpha coords, Ld, a, La) of a root tuple."""
    return root[:-1] + (0, root[-1], 0)
