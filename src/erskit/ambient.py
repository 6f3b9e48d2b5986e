"""Ambient space for elliptic root systems.

An affine Cartan matrix of rank l+1 is embedded in an (l+4)-dimensional
space E with distinguished basis (alpha_0, ..., alpha_l, Ld, a, La) and a
symmetric bilinear form J.  Ld pairs with the null root, a spans the
marking line, La pairs with a.  All arithmetic is exact (Fractions).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import exact

Vec = tuple[Fraction, ...]


class ConfigError(ValueError):
    """Invalid affine type / configuration data."""


class DomainError(ValueError):
    """Operation applied outside its domain (e.g. isotropic reflection)."""


class CheckError(RuntimeError):
    """An internal consistency check failed: a computed object lacks a
    property the construction guarantees.  Deliberately not a DomainError,
    so no caller that skips out-of-domain cases can swallow it."""


# ---------------------------------------------------------------------------
# affine types
# ---------------------------------------------------------------------------

# family tag -> (rank predicate, message when the rank is out of range)
_FAMILIES = {
    "A(1)": (lambda l: l >= 2, "A_l^(1) needs l >= 2"),
    "B(1)": (lambda l: l >= 3, "B_l^(1) needs l >= 3"),
    "C(1)": (lambda l: l >= 2, "C_l^(1) needs l >= 2"),
    "D(1)": (lambda l: l >= 4, "D_l^(1) needs l >= 4"),
    "E(1)": (lambda l: l in (6, 7, 8), "E_l^(1) needs l in {6,7,8}"),
    "F(1)": (lambda l: l == 4, "F_4^(1) needs l = 4"),
    "G(1)": (lambda l: l == 2, "G_2^(1) needs l = 2"),
    "A_even(2)": (lambda l: l >= 2, "A_2l^(2) needs l >= 2"),
    "A_odd(2)": (lambda l: l >= 3, "A_2l-1^(2) needs l >= 3"),
    "D(2)": (lambda l: l >= 2, "D_l+1^(2) needs l >= 2"),
    "E(2)": (lambda l: l == 4, "E_6^(2) needs l = 4"),
    "D(3)": (lambda l: l == 2, "D_4^(3) needs l = 2"),
}

_TYPE_RE = re.compile(r"^([ABCDEFG])(\d+)\^?\((\d)\)$")


@dataclass(frozen=True)
class AffineType:
    family: str
    l: int

    def __post_init__(self):
        pred, msg = _FAMILIES[self.family]
        if not pred(self.l):
            raise ConfigError(msg + f" (got l={self.l})")

    @property
    def name(self) -> str:
        letter = self.family[0]
        if self.family == "A_even(2)":
            return f"A{2 * self.l}^(2)"
        if self.family == "A_odd(2)":
            return f"A{2 * self.l - 1}^(2)"
        if self.family == "D(2)":
            return f"D{self.l + 1}^(2)"
        if self.family == "E(2)":
            return "E6^(2)"
        if self.family == "D(3)":
            return "D4^(3)"
        return f"{letter}{self.l}^(1)"

    @property
    def twist(self) -> int:
        return int(self.family[-2])

    def __str__(self):
        return self.name


def parse_type(s: str) -> AffineType:
    m = _TYPE_RE.match(s.strip())
    if not m:
        raise ConfigError(f"cannot parse affine type token {s!r}")
    letter, n, r = m.group(1), int(m.group(2)), int(m.group(3))
    if r == 1:
        fam = f"{letter}(1)"
        if fam not in _FAMILIES:
            raise ConfigError(f"unknown family in {s!r}")
        return AffineType(fam, n)
    if r == 2:
        if letter == "A":
            if n % 2 == 0:
                return AffineType("A_even(2)", n // 2)
            return AffineType("A_odd(2)", (n + 1) // 2)
        if letter == "D":
            return AffineType("D(2)", n - 1)
        if letter == "E":
            if n != 6:
                raise ConfigError(f"unknown twisted type {s!r}")
            return AffineType("E(2)", 4)
        raise ConfigError(f"unknown twisted family in {s!r}")
    if r == 3:
        if letter == "D" and n == 4:
            return AffineType("D(3)", 2)
        raise ConfigError(f"unknown triple-twist type {s!r}")
    raise ConfigError(f"unsupported twist ({r}) in {s!r}")


# ---------------------------------------------------------------------------
# generalized Cartan matrices, Kac numbering (node 0 = affine node)
# ---------------------------------------------------------------------------

def _chain_edges(lo: int, hi: int):
    return [(i, i + 1) for i in range(lo, hi)]


def cartan_matrix(t: AffineType) -> list[list[int]]:
    l = t.l
    n = l + 1
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    fam = t.family
    if fam == "A(1)":
        for i, j in _chain_edges(0, l):
            edge(i, j)
        edge(0, l)
    elif fam == "B(1)":
        edge(0, 2)
        edge(1, 2)
        for i, j in _chain_edges(2, l - 1):
            edge(i, j)
        edge(l - 1, l, -1, -2)
    elif fam == "C(1)":
        edge(0, 1, -1, -2)
        for i, j in _chain_edges(1, l - 1):
            edge(i, j)
        edge(l - 1, l, -2, -1)
    elif fam == "D(1)":
        edge(0, 2)
        edge(1, 2)
        for i, j in _chain_edges(2, l - 2):
            edge(i, j)
        edge(l - 2, l - 1)
        edge(l - 2, l)
    elif fam == "E(1)":
        if l == 6:
            for i, j in [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)]:
                edge(i, j)
        elif l == 7:
            for i, j in _chain_edges(0, 6) + [(7, 3)]:
                edge(i, j)
        else:
            for i, j in _chain_edges(0, 7) + [(8, 5)]:
                edge(i, j)
    elif fam == "F(1)":
        edge(0, 1)
        edge(1, 2)
        edge(2, 3, -1, -2)
        edge(3, 4)
    elif fam == "G(1)":
        edge(0, 1)
        edge(1, 2, -1, -3)
    elif fam == "A_even(2)":
        edge(0, 1, -2, -1)
        for i, j in _chain_edges(1, l - 1):
            edge(i, j)
        edge(l - 1, l, -2, -1)
    elif fam == "A_odd(2)":
        edge(0, 2)
        edge(1, 2)
        for i, j in _chain_edges(2, l - 1):
            edge(i, j)
        edge(l - 1, l, -2, -1)
    elif fam == "D(2)":
        edge(0, 1, -2, -1)
        for i, j in _chain_edges(1, l - 1):
            edge(i, j)
        edge(l - 1, l, -1, -2)
    elif fam == "E(2)":
        edge(0, 1)
        edge(1, 2)
        edge(2, 3, -2, -1)
        edge(3, 4)
    elif fam == "D(3)":
        edge(0, 1)
        edge(1, 2, -3, -1)
    else:  # pragma: no cover
        raise ConfigError(f"unknown family {fam}")
    return A


def cartan_symmetrizer(A, connected: bool = False) -> list[Fraction]:
    """d with d_i a_ij = d_j a_ji, propagated over the support of A from
    d = 1 at the first node of each connected component.  ConfigError when
    the support is not symmetric, when no such d exists, or, with
    connected, when A has more than one component."""
    n = len(A)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        if start and connected:
            raise ConfigError("Cartan diagram is not connected")
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or A[i][j] == 0:
                    continue
                if A[j][i] == 0:
                    raise ConfigError(f"support not symmetric at ({i},{j})")
                want = d[i] * A[i][j] / A[j][i]
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise ConfigError(f"no symmetrizer through ({i},{j})")
    return d


def _symmetrize(A: list[list[int]]) -> list[list[int]]:
    """B_ij = d_i * a_ij, scaled to the coprime integer block."""
    n = len(A)
    d = cartan_symmetrizer(A, connected=True)
    flat = exact.primitive(d[i] * A[i][j] for i in range(n) for j in range(n))
    return [flat[i * n:(i + 1) * n] for i in range(n)]


# ---------------------------------------------------------------------------
# the ambient space
# ---------------------------------------------------------------------------

class AmbientSpace:
    """Immutable carrier of the basis (alpha_0..alpha_l, Ld, a, La) and J."""

    def __init__(self, affine_type: AffineType):
        self.type = affine_type
        self.l = affine_type.l
        self.n_nodes = self.l + 1
        self.dim = self.l + 4
        self.r = 2 if affine_type.family == "A_even(2)" else 1
        self.cartan = cartan_matrix(affine_type)
        self.sym = _symmetrize(self.cartan)
        _check_affine_block(self.sym)
        self.idx_Ld = self.l + 1
        self.idx_a = self.l + 2
        self.idx_La = self.l + 3
        self.gram = self._build_gram()
        self._marks = None

    def _build_gram(self) -> tuple[Vec, ...]:
        n = self.dim
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(self.n_nodes):
            for j in range(self.n_nodes):
                g[i][j] = Fraction(self.sym[i][j])
        g[self.idx_Ld][0] = g[0][self.idx_Ld] = Fraction(1, self.r)
        g[self.idx_a][self.idx_La] = g[self.idx_La][self.idx_a] = Fraction(1)
        # everything else involving Ld, a, La is 0 (including J(Ld, La) = 0)
        rows = tuple(tuple(r) for r in g)
        if exact.rank(rows) < n:
            raise ConfigError("degenerate gram matrix")
        return rows

    # -- basis vectors ------------------------------------------------
    def basis_vector(self, i: int) -> Vec:
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return tuple(v)

    def basis_labels(self) -> list[str]:
        return [f"a{i}" for i in range(self.n_nodes)] + ["Ld", "a", "La"]

    # -- form and reflections -----------------------------------------
    def j(self, x: Vec, y: Vec) -> Fraction:
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.gram[i]
            for k, yk in enumerate(y):
                if yk != 0:
                    total += xi * row[k] * yk
        return total

    def pair(self, x: int, root: tuple[int, ...]) -> Fraction:
        """J(basis vector x, root) for a root tuple (c_0..c_l, n), read off
        gram row x."""
        row = self.gram[x]
        total = row[self.idx_a] * root[-1]
        for i, c in enumerate(root[:-1]):
            if c:
                total += row[i] * c
        return total

    def norm(self, root: tuple[int, ...]) -> int:
        """J(root, root) on the integer block: a is isotropic and orthogonal
        to every alpha_i, so only the nonzero alpha coordinates enter."""
        support = [(i, c) for i, c in enumerate(root[:-1]) if c]
        return sum(c * self.sym[i][j] * d for i, c in support for j, d in support)

    def reflect(self, x: Vec, y: Vec) -> Vec:
        """s_x(y) = y - J(x_vee, y) x; x must be non-isotropic."""
        nx = self.j(x, x)
        if nx == 0:
            raise DomainError("reflection in an isotropic vector")
        coef = 2 * self.j(x, y) / nx
        return tuple(yc - coef * xc for yc, xc in zip(y, x))

    # -- derived data -------------------------------------------------
    def delta_marks(self) -> list[int]:
        """The coordinates of delta over Pi: delta in Z_+ Pi with Z delta the
        isotropic part of Z Pi.  J(delta, delta) = 0 as delta spans the
        kernel of the block; J(Ld, delta) = delta_0 / r must be 1."""
        if self._marks is None:
            marks = _kernel_marks(self.sym)
            if marks[0] != self.r:
                raise ConfigError("kernel of the Cartan block is not a null root")
            self._marks = marks
        return list(self._marks)

    def node_orbit_classes(self) -> list[set[int]]:
        """Node classes joined by (-1,-1) edges (the W-invariance criterion)."""
        parent = list(range(self.n_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(self.n_nodes):
            for j in range(i + 1, self.n_nodes):
                if self.cartan[i][j] == -1 and self.cartan[j][i] == -1:
                    parent[find(i)] = find(j)
        classes: dict[int, set[int]] = {}
        for i in range(self.n_nodes):
            classes.setdefault(find(i), set()).add(i)
        return list(classes.values())

    def is_w_invariant(self, f: dict[int, object]) -> bool:
        if set(f) != set(range(self.n_nodes)):
            raise ConfigError("map must be total on the node set")
        return all(
            len({f[i] for i in cls}) == 1 for cls in self.node_orbit_classes()
        )

    def __repr__(self):
        return f"AmbientSpace({self.type.name})"


def build_ambient(affine_type: AffineType | str) -> AmbientSpace:
    if isinstance(affine_type, str):
        affine_type = parse_type(affine_type)
    return AmbientSpace(affine_type)


# ---------------------------------------------------------------------------
# affine block checks
# ---------------------------------------------------------------------------

def _check_affine_block(B: list[list[int]]) -> None:
    """The symmetrized block must be PSD with a 1-dimensional kernel."""
    n = len(B)
    a = [[Fraction(x) for x in row] for row in B]
    alive = list(range(n))
    rank = 0
    while alive:
        piv = next((i for i in alive if a[i][i] > 0), None)
        if piv is None:
            # PSD requires every remaining row to vanish entirely
            for i in alive:
                if a[i][i] < 0 or any(a[i][j] != 0 for j in alive):
                    raise ConfigError("Cartan block is not positive semidefinite")
            break
        rank += 1
        alive.remove(piv)
        p = a[piv][piv]
        for i in alive:
            if a[i][piv] != 0:
                f = a[i][piv] / p
                for j in alive:
                    a[i][j] -= f * a[piv][j]
                a[i][piv] = Fraction(0)
    if rank != n - 1:
        raise ConfigError(f"Cartan block has corank {n - rank}, expected 1")


def _kernel_marks(B: list[list[int]]) -> list[int]:
    """Coprime positive integer kernel vector of the symmetrized block."""
    ker = exact.kernel(B)
    if len(ker) != 1:
        raise ConfigError(f"Cartan block has corank {len(ker)}, expected 1")
    marks = exact.primitive(ker[0])
    if any(v < 0 for v in marks):
        marks = [-v for v in marks]
    if not all(v > 0 for v in marks):
        raise ConfigError("kernel of the Cartan block has a non-positive mark")
    return marks
