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

from .ambient import DomainError
from .base_system import Check, QebsConfig, Report
from .exact import acc
from .presentation import RealizationBase, RootSym, b_all, emit_sr, substitute


def _power(key) -> int:
    """The power of q in a key: matrix keys end in it, q-polynomial keys are it."""
    return key[4] if isinstance(key, tuple) else key


def _with_power(key, e: int):
    """key with its power of q replaced by e."""
    return key[:4] + (e,) if isinstance(key, tuple) else e


@dataclass
class HatElement:
    """Sparse element.  A q-polynomial is a {power of q: coefficient} map;
    the matrix part has keys (x1, x2, i, j, e) for q^e s^x1 t^x2 E_ij, with
    1-based matrix indices, and c1, c2, d1, d2 are q-polynomials.
    Coefficients stay ints until a rational enters."""

    size: int
    mat: dict[tuple[int, int, int, int, int], object] = field(default_factory=dict)
    c1: dict[int, object] = field(default_factory=dict)
    c2: dict[int, object] = field(default_factory=dict)
    d1: dict[int, object] = field(default_factory=dict)
    d2: dict[int, object] = field(default_factory=dict)

    def parts(self) -> tuple[dict, ...]:
        return (self.mat, self.c1, self.c2, self.d1, self.d2)

    def is_zero(self) -> bool:
        return not any(self.parts())

    def plus(self, other: "HatElement") -> "HatElement":
        out = [dict(p) for p in self.parts()]
        for p, o in zip(out, other.parts()):
            acc(p, o)
        return HatElement(self.size, *out)

    def scaled(self, c, shift: int = 0) -> "HatElement":
        """c q^shift times this element, for a rational c."""
        out = []
        for p in self.parts():
            part: dict = {}
            acc(part, {_with_power(k, _power(k) + shift): v for k, v in p.items()}, c)
            out.append(part)
        return HatElement(self.size, *out)

    def specialize(self, q: Fraction) -> "HatElement":
        """Collapse formal q to a nonzero rational value; used for q -> 1 checks."""
        if not q:
            raise DomainError("q must be nonzero")
        q = Fraction(q)
        out = []
        for p in self.parts():
            part: dict = {}
            for k, v in p.items():
                acc(part, {_with_power(k, 0): v}, q ** _power(k))
            out.append(part)
        return HatElement(self.size, *out)


def unit(size: int, x1: int, x2: int, i: int, j: int, e: int = 0) -> HatElement:
    """q^e s^x1 t^x2 E_ij."""
    if not (1 <= i <= size and 1 <= j <= size):
        raise DomainError(f"matrix index ({i},{j}) out of range 1..{size}")
    return HatElement(size, {(x1, x2, i, j, e): 1})


def _derive(out: dict, d1: dict, d2: dict, mat: dict, sign: int) -> None:
    """out += sign (d1 x1 + d2 x2) mat: the degree derivations, with
    q-polynomial coefficients d1 and d2, acting on the matrix terms of mat."""
    for axis, d in enumerate((d1, d2)):
        for g, c in d.items():
            acc(out, {(x1, x2, i, j, e + g): (x1, x2)[axis] * v
                      for (x1, x2, i, j, e), v in mat.items()}, sign * c)


def hat_bracket(x: HatElement, y: HatElement) -> HatElement:
    if x.size != y.size:
        raise DomainError("operands have different matrix sizes")
    mat: dict = {}
    c1: dict = {}
    c2: dict = {}
    for (x1, x2, i, j, e), cx in x.mat.items():
        for (y1, y2, m, n, f), cy in y.mat.items():
            if j != m and i != n:
                continue
            # t^x2 s^y1 = q^{x2 y1} s^y1 t^x2
            c = cx * cy
            s1, s2 = x1 + y1, x2 + y2
            if j == m:
                acc(mat, {(s1, s2, i, n, e + f + x2 * y1): c})
            if i == n:
                acc(mat, {(s1, s2, m, j, e + f + x1 * y2): c}, -1)
            if s1 == 0 and s2 == 0 and j == m and i == n:
                central = {e + f + x2 * y1: c}
                acc(c1, central, x1)
                acc(c2, central, x2)
    _derive(mat, x.d1, x.d2, y.mat, 1)
    _derive(mat, y.d1, y.d2, x.mat, -1)
    return HatElement(x.size, mat, c1, c2)


def form_q(x: HatElement, y: HatElement) -> dict[int, object]:
    """The invariant form, as a q-polynomial."""
    out: dict = {}
    for a, b in ((x.c1, y.d1), (x.c2, y.d2), (x.d1, y.c1), (x.d2, y.c2)):
        for e, c in a.items():
            acc(out, {e + f: v for f, v in b.items()}, c)
    for (x1, x2, i, j, e), cx in x.mat.items():
        for (y1, y2, m, n, f), cy in y.mat.items():
            if x1 + y1 == 0 and x2 + y2 == 0 and j == m and i == n:
                acc(out, {e + f + x2 * y1: cx * cy})
    return out


# ---------------------------------------------------------------------------
# generator images
# ---------------------------------------------------------------------------

def is_untwisted_a(config: QebsConfig) -> bool:
    name = config.space.type.name
    if not (name.startswith("A") and name.endswith("(1)")):
        return False
    return all(config.k[i] == 1 and config.g[i].is_empty for i in config.nodes)


class QRealization(RealizationBase):
    """The generator images in sl_{l+1}(C_q); a value is zero when it is at
    formal q, or at q_numeric when that is given."""

    def __init__(self, config: QebsConfig, q_numeric: Fraction | None = None):
        if not is_untwisted_a(config):
            raise DomainError(
                "the quantum torus realization needs untwisted A-type data "
                "with k = 1 and empty g"
            )
        super().__init__(config)
        self.q_numeric = q_numeric
        self.l = config.space.n_nodes - 1
        self.size = self.l + 1

    def _root_image(self, sym: RootSym) -> HatElement:
        size, l, i = self.size, self.l, sym.node
        if i != 0:
            if sym.sign > 0:
                return unit(size, 0, 1 if sym.star else 0, i, i + 1)
            return unit(size, 0, -1 if sym.star else 0, i + 1, i)
        if sym.sign > 0:
            return unit(size, 1, 1 if sym.star else 0, l + 1, 1)
        if sym.star:
            return unit(size, -1, -1, 1, l + 1, 1)
        return unit(size, -1, 0, 1, l + 1)

    def _cartan_image(self, label: str) -> HatElement:
        if label == "Ld":
            return HatElement(self.size, d1={0: 1})
        return HatElement(self.size, d2={0: 1})

    def _bracket(self, x: HatElement, y: HatElement) -> HatElement:
        return hat_bracket(x, y)

    def _zero(self) -> HatElement:
        return HatElement(self.size)

    def _coeff(self, c) -> Fraction:
        if not c.is_rational():
            raise DomainError("non-rational coefficient in the q realization")
        return c.rational_value()

    def nonzero_witness(self, value: HatElement) -> str:
        if self.q_numeric is not None:
            value = value.specialize(self.q_numeric)
        return "" if value.is_zero() else f"{len(value.mat)} matrix terms"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _is_q_modified(config: QebsConfig, label: str) -> bool:
    """The SR6/SR7 instance coupling node 0 and node l picks up a q factor."""
    l = config.space.n_nodes - 1
    return label.startswith(("SR6[", "SR7[")) and (
        f"[a0,a{l};" in label or f"[a{l},a0;" in label
    )


def verify_q(config: QebsConfig, q_numeric: Fraction | None = None) -> Report:
    """Every emitted relation at the given q, qSR6/qSR7 and the grading.  The
    four SR6/SR7 instances that qSR6/qSR7 replace are reported in the
    `replaced` field with their verdict at q, not among the checks."""
    real = QRealization(config, q_numeric)
    checks = substitute(real, emit_sr(config))
    rep = Report([e for e in checks if not _is_q_modified(config, e.label)],
                 {"replaced": [e._asdict() for e in checks
                               if _is_q_modified(config, e.label)]})
    l = real.l

    # q^{+-1} [E_{+-a0*}, E_{+-al}] = [E_{+-a0}, E_{+-al*}]
    for sgn in (1, -1):
        lhs = real.evaluate([RootSym(0, True, sgn).ident, RootSym(l, False, sgn).ident])
        rhs = real.evaluate([RootSym(0, False, sgn).ident, RootSym(l, True, sgn).ident])
        witness = real.nonzero_witness(lhs.scaled(1, sgn).plus(rhs.scaled(-1)))
        rep.entries.append(
            Check(f"qSR{'6' if sgn > 0 else '7'}[a0,a{l}]", not witness, witness)
        )
    # grading: [pi(h_sigma), pi(E_mu)] = J(sigma, mu) pi(E_mu)
    sp = config.space
    grading_ok = True
    for x in range(sp.dim):
        lab = sp.basis_labels()[x]
        h = real.image(f"h:{lab}")
        for mu in b_all(config):
            img = real.image(mu.ident)
            want = img.scaled(sp.pair(x, mu.root(config)))
            if real.nonzero_witness(hat_bracket(h, img).plus(want.scaled(-1))):
                grading_ok = False
                rep.entries.append(Check(f"grading[h:{lab},{mu.ident}]", False, "mismatch"))
    rep.entries.append(Check("grading", grading_ok))
    return rep


# the matrix size and the degree span of the structure suite's sample
_SUITE_SIZE = 3
_SUITE_SPAN = 2


def structure_suite() -> Report:
    """Antisymmetry, Jacobi, and invariance on a monomial sample of
    _SUITE_SIZE x _SUITE_SIZE matrices.

    Antisymmetry runs over the units E_12, E_21, E_11 at degrees |x1|,
    |x2| <= _SUITE_SPAN and c1, c2, d1, d2; Jacobi and invariance over every
    unit kind at |x1| + |x2| <= 1 and the same four, so the central cocycle
    meets each kind.  Each bracket of two such elements is computed once,
    and Jacobi checks one rotation of each cyclic triple: the other two
    have the same three summands.
    """
    rep = Report()
    extra = [HatElement(_SUITE_SIZE, **{which: {0: 1}})
             for which in ("c1", "c2", "d1", "d2")]
    units = []
    for x1 in range(-_SUITE_SPAN, _SUITE_SPAN + 1):
        for x2 in range(-_SUITE_SPAN, _SUITE_SPAN + 1):
            for i, j in ((1, 2), (2, 1), (1, 1)):
                units.append(((x1, x2), unit(_SUITE_SIZE, x1, x2, i, j)))
    sample = [u for _, u in units] + extra

    anti = all(
        hat_bracket(a, b).plus(hat_bracket(b, a)).is_zero()
        for n, a in enumerate(sample)
        for b in sample[n:]
    )
    rep.entries.append(Check("antisymmetry", anti, "" if anti else "broken pair"))

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
        if (a, b, c) <= min((b, c, a), (c, a, b))
    )
    rep.entries.append(Check("jacobi", jac_ok, "" if jac_ok else "broken triple"))

    inv_ok = all(
        form_q(br[a, b], small[c]) == form_q(small[a], br[b, c])
        for a in idx
        for b in idx
        for c in idx
    )
    rep.entries.append(Check("form-invariance", inv_ok, "" if inv_ok else "broken triple"))
    return rep
