"""Quantum-torus matrix realization for the untwisted A-type configurations.

The coordinate ring has two invertible generators with ts = q st; matrices
over it, extended by two central elements and two degree derivations, carry
a Lie bracket with a cocycle and an invariant form.  The central term and
the form as displayed would break antisymmetry and invariance without
index-matching factors, so both carry delta_{jm} delta_{in}; the Jacobi,
antisymmetry, and invariance suites certify that correction.

q stays a formal Laurent variable by default; a nonzero rational value can
be substituted for specialization checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ambient import ConfigError, DomainError
from .base_system import QebsConfig
from .presentation import RootSym, b_all


class QLaurent:
    """Laurent polynomial in q with rational coefficients, stored as a dict
    from exponent to nonzero Fraction."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        self.c = {n: Fraction(v) for n, v in (coeffs or {}).items() if v}

    @staticmethod
    def _make(c: dict[int, Fraction]) -> "QLaurent":
        """Wrap a dict whose values are already nonzero Fractions."""
        out = object.__new__(QLaurent)
        out.c = c
        return out

    @staticmethod
    def of(v) -> "QLaurent":
        if isinstance(v, QLaurent):
            return v
        v = Fraction(v)
        return QLaurent._make({0: v} if v else {})

    @staticmethod
    def q_power(n: int) -> "QLaurent":
        return QLaurent._make({n: Fraction(1)})

    def shifted(self, n: int) -> "QLaurent":
        """This polynomial times q^n."""
        if not n:
            return self
        return QLaurent._make({m + n: v for m, v in self.c.items()})

    def __add__(self, other):
        other = QLaurent.of(other)
        out = dict(self.c)
        for n, v in other.c.items():
            nv = out.get(n, 0) + v
            if nv:
                out[n] = nv
            else:
                del out[n]
        return QLaurent._make(out)

    __radd__ = __add__

    def __neg__(self):
        return QLaurent._make({n: -v for n, v in self.c.items()})

    def __sub__(self, other):
        return self + (-QLaurent.of(other))

    def __rsub__(self, other):
        return QLaurent.of(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, QLaurent):
            v = Fraction(other)
            return QLaurent._make({n: w * v for n, w in self.c.items() if v})
        out: dict[int, Fraction] = {}
        for n, v in self.c.items():
            for m, w in other.c.items():
                nv = out.get(n + m, 0) + v * w
                if nv:
                    out[n + m] = nv
                else:
                    del out[n + m]
        return QLaurent._make(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.c == QLaurent.of(other).c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    def __bool__(self):
        return bool(self.c)

    def at(self, q: Fraction) -> Fraction:
        if not q:
            raise DomainError("q must be nonzero")
        return sum((v * Fraction(q) ** n for n, v in self.c.items()), Fraction(0))

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(
            f"{v}*q^{n}" if n else str(v) for n, v in sorted(self.c.items())
        )


Q_ONE = QLaurent({0: Fraction(1)})


def qt_normalize(word: list[tuple[str, int]]) -> tuple[int, int, QLaurent]:
    """Reorder a word in s/t powers to s^x1 t^x2 with its q-power factor.

    Moving t^a left past s^b costs q^{ab}.
    """
    x1 = x2 = 0
    qpow = 0
    for gen, exp in word:
        if gen == "s":
            # s^exp moves past the accumulated t^x2: t^x2 s^exp = q^{x2 exp} s^exp t^x2
            qpow += x2 * exp
            x1 += exp
        elif gen == "t":
            x2 += exp
        else:
            raise DomainError(f"unknown generator {gen!r}")
    return x1, x2, QLaurent.q_power(qpow)


@dataclass
class HatElement:
    """Sparse element: keys (x1, x2, i, j) with 1-based matrix indices."""

    size: int
    mat: dict[tuple[int, int, int, int], QLaurent] = field(default_factory=dict)
    c1: QLaurent = field(default_factory=QLaurent)
    c2: QLaurent = field(default_factory=QLaurent)
    d1: QLaurent = field(default_factory=QLaurent)
    d2: QLaurent = field(default_factory=QLaurent)

    def is_zero(self) -> bool:
        return not (self.mat or self.c1 or self.c2 or self.d1 or self.d2)

    def plus(self, other: "HatElement") -> "HatElement":
        mat = dict(self.mat)
        for k, v in other.mat.items():
            _add_into(mat, k, v)
        return HatElement(
            self.size, mat,
            self.c1 + other.c1, self.c2 + other.c2,
            self.d1 + other.d1, self.d2 + other.d2,
        )

    def scaled(self, c) -> "HatElement":
        c = QLaurent.of(c)
        return HatElement(
            self.size,
            {k: c * v for k, v in self.mat.items() if c * v},
            c * self.c1, c * self.c2, c * self.d1, c * self.d2,
        )

    def specialize(self, q: Fraction) -> "HatElement":
        """Collapse formal q to a rational value; used for q -> 1 checks."""
        out: dict = {}
        for key, v in self.mat.items():
            val = v.at(q)
            if val:
                out[key] = QLaurent.of(val)
        return HatElement(
            self.size, out,
            QLaurent.of(self.c1.at(q)), QLaurent.of(self.c2.at(q)),
            QLaurent.of(self.d1.at(q)), QLaurent.of(self.d2.at(q)),
        )


def unit(size: int, x1: int, x2: int, i: int, j: int, coeff=Q_ONE) -> HatElement:
    if not (1 <= i <= size and 1 <= j <= size):
        raise DomainError(f"matrix index ({i},{j}) out of range 1..{size}")
    return HatElement(size, {(x1, x2, i, j): QLaurent.of(coeff)})


def _add_into(mat: dict, key, val: QLaurent) -> None:
    """mat[key] += val, keeping only nonzero entries."""
    if not val:
        return
    old = mat.get(key)
    if old is None:
        mat[key] = val
        return
    nv = old + val
    if nv:
        mat[key] = nv
    else:
        del mat[key]


def hat_bracket(x: HatElement, y: HatElement) -> HatElement:
    if x.size != y.size:
        raise DomainError("operands have different matrix sizes")
    mat: dict = {}
    c1 = c2 = QLaurent()

    for (x1, x2, i, j), cx in x.mat.items():
        for (y1, y2, m, n), cy in y.mat.items():
            c = cx * cy
            if j == m:
                _add_into(mat, (x1 + y1, x2 + y2, i, n), c.shifted(x2 * y1))
            if i == n:
                _add_into(mat, (x1 + y1, x2 + y2, m, j), -c.shifted(x1 * y2))
            if x1 + y1 == 0 and x2 + y2 == 0 and j == m and i == n:
                zc = c.shifted(x2 * y1)
                c1 = c1 + zc * x1
                c2 = c2 + zc * x2
    # derivations
    for (y1, y2, m, n), cy in y.mat.items():
        if x.d1:
            _add_into(mat, (y1, y2, m, n), x.d1 * cy * y1)
        if x.d2:
            _add_into(mat, (y1, y2, m, n), x.d2 * cy * y2)
    for (x1, x2, i, j), cx in x.mat.items():
        if y.d1:
            _add_into(mat, (x1, x2, i, j), -(y.d1 * cx * x1))
        if y.d2:
            _add_into(mat, (x1, x2, i, j), -(y.d2 * cx * x2))
    return HatElement(x.size, mat, c1, c2)


def form_q(x: HatElement, y: HatElement) -> QLaurent:
    out = x.c1 * y.d1 + x.c2 * y.d2 + x.d1 * y.c1 + x.d2 * y.c2
    for (x1, x2, i, j), cx in x.mat.items():
        for (y1, y2, m, n), cy in y.mat.items():
            if x1 + y1 == 0 and x2 + y2 == 0 and j == m and i == n:
                out = out + (cx * cy).shifted(x2 * y1)
    return out


# ---------------------------------------------------------------------------
# generator images
# ---------------------------------------------------------------------------

def is_untwisted_a(config: QebsConfig) -> bool:
    name = config.space.type.name
    if not (name.startswith("A") and name.endswith("(1)")):
        return False
    return all(config.k[i] == 1 and config.g[i].is_empty for i in config.nodes)


class QRealization:
    def __init__(self, config: QebsConfig):
        if not is_untwisted_a(config):
            raise DomainError(
                "the quantum torus realization needs untwisted A-type data "
                "with k = 1 and empty g"
            )
        self.config = config
        self.l = config.space.n_nodes - 1
        self.size = self.l + 1
        self._images: dict[str, HatElement] = {}

    def image(self, ident: str) -> HatElement:
        if ident in self._images:
            return self._images[ident]
        out = self._compute(ident)
        self._images[ident] = out
        return out

    def _compute(self, ident: str) -> HatElement:
        size, l = self.size, self.l
        if ident.startswith("E:"):
            sign = 1 if ident[2] == "+" else -1
            star = ident.endswith("*")
            node = int(ident[3:].rstrip("*")[1:])
            if node != 0:
                i = node
                if sign > 0:
                    return unit(size, 0, 1 if star else 0, i, i + 1)
                return unit(size, 0, -1 if star else 0, i + 1, i)
            if sign > 0:
                return unit(size, 1, 1 if star else 0, l + 1, 1)
            if star:
                return unit(size, -1, -1, 1, l + 1, QLaurent.q_power(1))
            return unit(size, -1, 0, 1, l + 1)
        if ident.startswith("h:"):
            return self._cartan(ident[2:])
        raise DomainError(f"unknown generator {ident!r}")

    def _cartan(self, label: str) -> HatElement:
        sp = self.config.space
        size = self.size
        if label == "Ld":
            out = HatElement(size)
            out.d1 = Q_ONE
            return out
        if label == "La":
            out = HatElement(size)
            out.d2 = Q_ONE
            return out
        if label.startswith("a") and label[1:].isdigit():
            i = int(label[1:])
            sym = RootSym(i, False, 1)
            vec = sym.vector(self.config)
            half_norm = sp.j(vec, vec) / 2
            br = hat_bracket(self.image(sym.ident), self.image(sym.negate().ident))
            return br.scaled(half_norm)
        if label == "a":
            c = self.config.c_of(0)
            star = RootSym(0, True, 1)
            vec = star.vector(self.config)
            half = self.config.space.j(vec, vec) / 2
            hstar = hat_bracket(
                self.image(star.ident), self.image(star.negate().ident)
            ).scaled(half)
            plain = self._cartan("a0")
            return hstar.plus(plain.scaled(-Fraction(c)))
        raise DomainError(f"unknown Cartan label {label!r}")

    def evaluate(self, tree) -> HatElement:
        if isinstance(tree, str):
            return self.image(tree)
        return hat_bracket(self.evaluate(tree[0]), self.evaluate(tree[1]))

    def evaluate_word(self, word) -> HatElement:
        out = HatElement(self.size)
        for coeff, tree in word.monomials:
            if not coeff.is_rational():
                raise DomainError("non-rational coefficient in the q realization")
            out = out.plus(self.evaluate(tree).scaled(coeff.rational_value()))
        return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class QReport:
    entries: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(lbl, w) for lbl, ok, w in self.entries if not ok]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"label": lbl, "ok": ok, "witness": w}
                for lbl, ok, w in self.entries
            ],
        }


def _is_q_modified(config: QebsConfig, label: str) -> bool:
    """The SR6/SR7 instance coupling node 0 and node l picks up a q factor."""
    l = config.space.n_nodes - 1
    return label.startswith(("SR6[", "SR7[")) and (
        f"[a0,a{l};" in label or f"[a{l},a0;" in label
    )


def verify_q(config: QebsConfig, q_numeric: Fraction | None = None) -> QReport:
    from .presentation import emit_sr

    real = QRealization(config)
    rep = QReport()
    rels = emit_sr(config)
    l = real.l
    for label, word in rels.label_words:
        if _is_q_modified(config, label):
            continue
        val = real.evaluate_word(word)
        if q_numeric is not None:
            val = val.specialize(q_numeric)
        ok = val.is_zero()
        rep.entries.append((label, ok, "" if ok else f"{len(val.mat)} matrix terms"))

    # q^{+-1} [E_{+-a0*}, E_{+-al}] = [E_{+-a0}, E_{+-al*}]
    for sgn, tagp in ((1, "+"), (-1, "-")):
        a0 = RootSym(0, False, sgn)
        a0s = RootSym(0, True, sgn)
        al = RootSym(l, False, sgn)
        als = RootSym(l, True, sgn)
        lhs = hat_bracket(real.image(a0s.ident), real.image(al.ident)).scaled(
            QLaurent.q_power(sgn)
        )
        rhs = hat_bracket(real.image(a0.ident), real.image(als.ident))
        diff = lhs.plus(rhs.scaled(-1))
        if q_numeric is not None:
            diff = diff.specialize(q_numeric)
        ok = diff.is_zero()
        rep.entries.append(
            (f"qSR{'6' if sgn > 0 else '7'}[a0,a{l}]", ok,
             "" if ok else f"{len(diff.mat)} matrix terms")
        )
    # grading: [pi(h_sigma), pi(E_mu)] = J(sigma, mu) pi(E_mu)
    sp = config.space
    grading_ok = True
    for x in range(sp.dim):
        lab = sp.basis_labels()[x]
        h = real.image(f"h:{lab}")
        for mu in b_all(config):
            img = real.image(mu.ident)
            want = img.scaled(sp.j(sp.basis_vector(x), mu.vector(config)))
            diff = hat_bracket(h, img).plus(want.scaled(-1))
            if q_numeric is not None:
                diff = diff.specialize(q_numeric)
            ok = diff.is_zero()
            if not ok:
                grading_ok = False
                rep.entries.append((f"grading[h:{lab},{mu.ident}]", ok, "mismatch"))
    rep.entries.append(("grading", grading_ok, ""))
    return rep


def structure_suite(size: int = 3, span: int = 2) -> QReport:
    """Antisymmetry, Jacobi, and invariance on a monomial sample.

    Antisymmetry runs over the units E_12, E_21, E_11 at degrees |x1|,
    |x2| <= span and c1, c2, d1, d2; Jacobi and invariance over every unit
    kind at |x1| + |x2| <= 1 and the same four, so the central cocycle
    meets each kind.  Each bracket of two such elements is computed once.
    """
    rep = QReport()
    extra = []
    for which in ("c1", "c2", "d1", "d2"):
        e = HatElement(size)
        setattr(e, which, Q_ONE)
        extra.append(e)
    units = []
    for x1 in range(-span, span + 1):
        for x2 in range(-span, span + 1):
            for i, j in ((1, 2), (2, 1), (1, 1)):
                units.append(((x1, x2), unit(size, x1, x2, i, j)))
    sample = [u for _, u in units] + extra

    anti = all(
        hat_bracket(a, b).plus(hat_bracket(b, a)).is_zero()
        for n, a in enumerate(sample)
        for b in sample[n:]
    )
    rep.entries.append(("antisymmetry", anti, "" if anti else "broken pair"))

    small = [u for (x1, x2), u in units if abs(x1) + abs(x2) <= 1] + extra
    idx = range(len(small))
    br = {(a, b): hat_bracket(small[a], small[b]) for a in idx for b in idx}

    jac_ok = all(
        hat_bracket(small[a], br[b, c])
        .plus(hat_bracket(small[b], br[c, a]))
        .plus(hat_bracket(small[c], br[a, b]))
        .is_zero()
        for a in idx
        for b in idx
        for c in idx
    )
    rep.entries.append(("jacobi", jac_ok, "" if jac_ok else "broken triple"))

    inv_ok = all(
        form_q(br[a, b], small[c]) == form_q(small[a], br[b, c])
        for a in idx
        for b in idx
        for c in idx
    )
    rep.entries.append(("form-invariance", inv_ok, "" if inv_ok else "broken triple"))
    return rep
