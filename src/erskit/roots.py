"""Window-bounded slices of the elliptic root sets R(k, g).

A root is an integer vector c_0*alpha_0 + ... + c_l*alpha_l + n*a.  Its
level along the null direction is J(Ld, rho) = c_0 / delta_0, and its
marking coordinate is n.  A window (M, N) bounds |level| by M and |n| by N.
Generation sweeps the real alpha-parts out past the window, detects the
level period of their pattern, keeps one period of them as the membership
table, and reports on the window itself; RootWindow.pad pads only the
independent oracle.

Real parts are labelled by their actual reflection orbit (two directions
of equal length can still lie in different orbits, so length alone is not
used to extend k and g).
Membership along the marking direction is arithmetic: each orbit carries an
n-progression (all multiples of k for real roots, g(alpha)*k for doubled
ones), so closure checks can be exact without materializing huge sets.
A simple reflection never changes n, so the sweeps that reflect alpha-parts
run once per alpha-part, with its markings attached, not once per root.
Each mirror reads only the nonzero entries of its Cartan row.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import exact
from .ambient import CheckError, ConfigError, DomainError
from .base_system import CheckEntry, GClass, QebsConfig, Report, validate_qebs

APart = tuple[int, ...]           # alpha-coordinates c_0..c_l
Root = tuple[int, ...]            # alpha-coordinates followed by the a-coordinate


@dataclass(frozen=True)
class RootWindow:
    M: int
    N: int
    pad: int = 2  # read only by reflection_closure_oracle

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ConfigError("window bounds must be >= 1")
        if self.pad < 1:
            raise ConfigError("oracle pad must be >= 1")


@dataclass(frozen=True)
class OrbitClass:
    k: int
    g: GClass
    key: int


@dataclass(frozen=True)
class Progression:
    """The set {residue + step*Z} (step > 0)."""

    step: int
    residue: int

    def contains(self, n: int) -> bool:
        return n % self.step == self.residue % self.step

    def window(self, bound: int) -> list[int]:
        res = self.residue % self.step
        lo = -bound + (res - (-bound)) % self.step
        return list(range(lo, bound + 1, self.step))


def real_progression(cls: OrbitClass) -> Progression:
    return Progression(cls.k, 0)


def doubled_progression(cls: OrbitClass) -> Progression:
    g = cls.g
    return Progression(g.modulus * cls.k, g.residue * cls.k)


def mirror(config: QebsConfig, i: int, star: bool):
    """The reflection in alpha_i, or in alpha_i* when star, as a map on
    Root tuples (c_0..c_l, n).

    On such a tuple <alpha_i^vee, v> = p = sum_j a_ij c_j, summed over the
    nonzero entries a_ij of Cartan row i only, so the plain mirror sends v
    to v - p alpha_i; it leaves n alone and so also acts on alpha-parts.
    The starred mirror alpha_i* = c alpha_i + k_i a sends v to
    v - p alpha_i - (p k_i / c) a; when c does not divide p k_i that image
    leaves the lattice and the map returns None.
    """
    row = [(j, a) for j, a in enumerate(config.space.cartan[i]) if a]
    root = config.root(i, star)
    c, k = root[i], root[-1]

    def image(vec: tuple) -> tuple | None:
        p = 0
        for j, a in row:
            p += a * vec[j]
        if not p:
            return vec
        shift, rem = divmod(p * k, c)
        if rem:
            return None
        out = list(vec)
        out[i] -= p
        out[-1] -= shift
        return tuple(out)

    return image


def closure(seeds, mirrors, keep) -> dict:
    """Breadth-first reflection closure.

    `seeds` yields (vector, seed label) pairs and `mirrors` is a list of
    (mirror label, map); a vector enters only while `keep(vector)` holds.
    Returns the breadth-first tree: vector -> (seed label, parent, mirror
    label), with the mirror labelled so sending the parent to the vector,
    and parent and label None at a seed.  The map is in insertion order,
    so every parent comes before its children.
    """
    seen: dict = {}
    queue = deque()
    for vec, seed in seeds:
        if vec not in seen and keep(vec):
            seen[vec] = (seed, None, None)
            queue.append(vec)
    while queue:
        cur = queue.popleft()
        seed = seen[cur][0]
        for label, image in mirrors:
            img = image(cur)
            if img is None or img in seen or not keep(img):
                continue
            seen[img] = (seed, cur, label)
            queue.append(img)
    return seen


def _detect_period(levels: dict, bound: int, vkeep: int) -> int:
    """Smallest divisor p of bound under which both presence and orbit
    labels of the real parts up to level vkeep repeat."""
    for p in range(1, bound + 1):
        if bound % p:
            continue
        if all(abs(nu + s) > vkeep or levels.get((phi, nu + s)) == lab
               for (phi, nu), lab in levels.items() for s in (p, -p)):
            return p
    raise CheckError("orbit pattern is not level-periodic")


class EllipticRootSet:
    """A generated window slice plus the arithmetic membership table.

    `fintable` maps (delta0 * phi, c_0 mod period) to an orbit class label,
    where phi_i = c_i - (c_0 / delta0) m_i is the finite part of a real
    alpha-part c; scaled by delta0 it is an integer vector.  The real parts
    repeat along the level with `period`, so one period of levels decides
    membership at every level.

    `inner` maps each window root to its class's annotation (orbit_key, k,
    g, doubled), one dict per orbit class and real/doubled kind, shared by
    every root of that kind: never mutate it.
    """

    def __init__(self, config: QebsConfig, window: RootWindow, validate: bool = True):
        # validate=False still builds the formula-defined set, which lets the
        # closure check exhibit concrete failures of bad configurations
        if validate:
            report = validate_qebs(config)
            if not report.passed:
                bad = "; ".join(f"{e.axiom}: {e.witness}" for e in report.failures())
                raise ConfigError(f"invalid configuration: {bad}")
        _require_positive_k(config)
        self.config = config
        self.window = window
        sp = config.space
        self._marks = sp.delta_marks()
        self.delta0 = self._marks[0]
        self.classes: list[OrbitClass] = []
        self._plain = [mirror(config, i, False) for i in range(sp.n_nodes)]
        # the orbit pattern repeats along the level with a period dividing
        # twice the twist order times the level unit; the true period is
        # detected on a level table two such bounds past the window
        bound = 2 * sp.type.twist * self.delta0
        vkeep = window.M * self.delta0 + 2 * bound
        levels = self._level_table(vkeep, vkeep + 2 * bound)
        self.period = _detect_period(levels, bound, vkeep)
        self.fintable: dict[tuple[tuple[int, ...], int], int] = {}
        for (phi, nu), lab in levels.items():
            self.fintable.setdefault((phi, nu % self.period), lab)
        self.inner: dict[Root, dict] = {}
        self._enumerate_inner(levels)
        self._assert_fixpoint()

    # -- construction -------------------------------------------------
    def _level_table(self, vkeep: int, vbfs: int) -> dict:
        """(finite key, level) -> orbit class label of every real part up to
        level vkeep, from one closure per node-orbit class out to vbfs."""
        sp = self.config.space
        n_nodes = sp.n_nodes
        mirrors = list(enumerate(self._plain))

        def keep(c):
            return abs(c[0]) <= vbfs

        label: dict[APart, int] = {}
        for cls_nodes in sp.node_orbit_classes():
            rep = min(cls_nodes)
            ident = len(self.classes)
            self.classes.append(
                OrbitClass(k=self.config.k[rep], g=self.config.g[rep], key=sp.sym[rep][rep])
            )
            seeds = [
                (tuple(1 if j == i else 0 for j in range(n_nodes)), ident)
                for i in sorted(cls_nodes)
            ]
            for c in closure(seeds, mirrors, keep):
                if label.setdefault(c, ident) != ident:
                    raise CheckError("orbit labelling is inconsistent")
        return {(self._fin_key(c), c[0]): lab for c, lab in label.items()
                if abs(c[0]) <= vkeep}

    def _fin_key(self, c) -> tuple[int, ...]:
        d0, nu = self.delta0, c[0]
        return tuple(d0 * ci - nu * mi for ci, mi in zip(c[1:], self._marks[1:]))

    def _class_at(self, phi, nu) -> OrbitClass | None:
        """Orbit class of the real part with finite key phi at level nu."""
        lab = self.fintable.get((phi, nu % self.period))
        return None if lab is None else self.classes[lab]

    def fin_class(self, c) -> OrbitClass | None:
        """Orbit class of the alpha-part c, or None if it is not a real part."""
        return self._class_at(self._fin_key(c), c[0])

    def _enumerate_inner(self, levels: dict):
        # in the level table's order, which SER3's early stop relies on; a
        # root met as real, then as doubled, gets a dict of its own
        M, N = self.window.M, self.window.N
        inner = self.inner
        kinds = [[{"orbit_key": key, "k": cls.k, "g": cls.g.tag, "doubled": doubled}
                  for key, doubled in ((cls.key, False), (4 * cls.key, True))]
                 for cls in self.classes]
        for (phi, nu), lab in levels.items():
            cls = self.classes[lab]
            real, twice = kinds[lab]
            c = self._alpha_part(phi, nu)
            if abs(nu) <= M * self.delta0:
                for n in real_progression(cls).window(N):
                    inner.setdefault(c + (n,), real)
            if not cls.g.is_empty and abs(2 * nu) <= M * self.delta0:
                c2 = tuple(2 * x for x in c)
                for n in doubled_progression(cls).window(N):
                    ann = inner.setdefault(c2 + (n,), twice)
                    if not ann["doubled"]:
                        inner[c2 + (n,)] = {**ann, "doubled": True}

    def _alpha_part(self, phi, nu) -> APart:
        """The alpha-part with finite key phi at level nu."""
        out = [nu]
        for p, m in zip(phi, self._marks[1:]):
            x, rem = divmod(p + nu * m, self.delta0)
            if rem:
                raise DomainError(f"key {phi} has no integral alpha-part at level {nu}")
            out.append(x)
        return tuple(out)

    def _assert_fixpoint(self):
        """One more reflection pass must add nothing inside the window: the
        markings of each alpha-part are markings of its mirror images."""
        bound = self.window.M * self.delta0
        marks: dict[APart, set[int]] = {}
        for coords in self.inner:
            marks.setdefault(coords[:-1], set()).add(coords[-1])
        for c, ns in marks.items():
            for image in self._plain:
                img = image(c)
                if abs(img[0]) <= bound and not ns <= marks.get(img, frozenset()):
                    lost = min(ns - marks.get(img, frozenset()))
                    raise CheckError(f"window is not a closure fixpoint at {c + (lost,)}")

    # -- membership ---------------------------------------------------
    def markings(self, c: APart) -> list[Progression]:
        """The progressions of n for which (c, n) lies in R(k, g)."""
        if not any(c):
            return []
        out = []
        cls = self.fin_class(c)
        if cls is not None:
            out.append(real_progression(cls))
        if all(x % 2 == 0 for x in c):
            hcls = self.fin_class(tuple(x // 2 for x in c))
            if hcls is not None and not hcls.g.is_empty:
                out.append(doubled_progression(hcls))
        return out

    def member(self, coords: Root) -> bool:
        """Exact membership in the infinite set R(k, g): the rule of
        `markings`, tested on n without building its progressions."""
        c, n = coords[:-1], coords[-1]
        cls = self.fin_class(c)
        if cls is not None and n % cls.k == 0:
            return True
        if any(x % 2 for x in c):
            return False
        half = self.fin_class(tuple(x // 2 for x in c))
        return half is not None and n % half.k == 0 and half.g.contains(n // half.k)

    def parity(self, coords: Root) -> int:
        """p(rho) = 1 iff 2*rho lies in R(k, g)."""
        if not (coords in self.inner or self.member(coords)):
            raise DomainError(f"{coords} is not a root")
        doubled = tuple(2 * x for x in coords)
        return 1 if self.member(doubled) else 0

    def _lookup_group(self, phi, nu, doubled) -> bool:
        """Whether level nu holds a root of the group with finite key phi."""
        if not doubled:
            return self._class_at(phi, nu) is not None
        if nu % 2 or any(x % 2 for x in phi):
            return False
        cls = self._class_at(tuple(x // 2 for x in phi), nu // 2)
        return cls is not None and not cls.g.is_empty

    # -- views --------------------------------------------------------
    def sorted_roots(self) -> list[tuple[Root, dict]]:
        return sorted(self.inner.items())

    def level(self, coords: Root) -> Fraction:
        return Fraction(coords[0], self.delta0)

    def restrict(self, nodes: set[int]) -> dict[Root, dict]:
        """R(k,g)_S: roots supported on the chosen nodes (plus the marking)."""
        sp = self.config.space
        out = {}
        for coords, ann in self.inner.items():
            c = coords[:-1]
            if all(c[i] == 0 for i in range(sp.n_nodes) if i not in nodes):
                out[coords] = ann
        return out

    def to_json_entries(self) -> list[dict]:
        out = []
        for coords, ann in self.sorted_roots():
            out.append(
                {
                    "coords": list(coords),
                    "orbit_key": str(ann["orbit_key"]),
                    "k": ann["k"],
                    "g": ann["g"],
                    "parity": self.parity(coords),
                    "doubled": ann["doubled"],
                }
            )
        return out


def generate(
    config: QebsConfig, window: RootWindow, validate: bool = True
) -> EllipticRootSet:
    rs = EllipticRootSet(config, window, validate=validate)
    # the window must hold every generator alpha and alpha^*
    for i in config.nodes:
        coords = config.root(i, star=True)
        if abs(rs.level(coords)) > window.M or abs(coords[-1]) > window.N:
            raise ConfigError("window too small to contain the generator set")
        if not rs.member(coords):
            raise CheckError(f"a{i}* missing from the root set")
    return rs


# ---------------------------------------------------------------------------
# independent reflection-closure oracle
# ---------------------------------------------------------------------------

def reflection_closure_oracle(config: QebsConfig, window: RootWindow) -> set[Root]:
    """Inner-window slice computed independently: seed the translates of the
    simple roots (and their doubles), close their alpha-parts under simple
    reflections on the padded level bound, and give each alpha-part of a
    component the markings of every seed in it (reflections fix n)."""
    _require_positive_k(config)
    sp = config.space
    n_nodes = sp.n_nodes
    delta0 = sp.delta_marks()[0]
    M, N, pad = window.M, window.N, window.pad
    vbound = (M + pad) * delta0
    nbound = N + pad

    seeds: dict[APart, set[int]] = {}
    for i in config.nodes:
        k = config.k[i]
        base = tuple(1 if j == i else 0 for j in range(n_nodes))
        top = nbound // k
        seeds.setdefault(base, set()).update(j * k for j in range(-top, top + 1))
        gset = config.g[i]
        if not gset.is_empty:
            twice = tuple(2 * x for x in base)
            seeds.setdefault(twice, set()).update(m * k for m in gset.members(top))

    rows = [[(m, a) for m, a in enumerate(row) if a] for row in sp.cartan]
    found: set[Root] = set()
    seen: set[APart] = set()
    for start in seeds:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for c in component:
            for i, row in enumerate(rows):
                pair = 0
                for m, a in row:
                    pair += a * c[m]
                if pair == 0:
                    continue
                img = list(c)
                img[i] -= pair
                img_t = tuple(img)
                if abs(img[0]) <= vbound and img_t not in seen:
                    seen.add(img_t)
                    component.append(img_t)
        ns = {n for c in component for n in seeds.get(c, ()) if abs(n) <= N}
        found.update(c + (n,) for c in component if abs(c[0]) <= M * delta0
                     for n in ns)
    return found


def _require_positive_k(config: QebsConfig) -> None:
    """The marking progressions step by k, so every k must be at least 1."""
    for i in config.nodes:
        if config.k[i] < 1:
            raise ConfigError(f"k(a{i}) = {config.k[i]} is below 1")


# ---------------------------------------------------------------------------
# reflection closure / axiom report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Group:
    """All window roots sharing a finite direction, a level residue and a
    real/doubled kind; their marking coordinates form the progression prog."""

    phi: tuple[int, ...]
    nu_res: int
    doubled: bool
    prog: Progression


def check_ebs(rootset: EllipticRootSet) -> Report:
    rep = Report(fields={"pi_b": []})
    sp = rootset.config.space
    bound = rootset.window.M * rootset.delta0
    period = rootset.period

    # a residue r forms a group when some level r + period*Z lies in the
    # window; its double when some level lies in half the window
    groups: list[_Group] = []
    seen = set()
    for (phi, r), lab in rootset.fintable.items():
        cls = rootset.classes[lab]
        r_levels = Progression(period, r)
        if r_levels.window(bound):
            groups.append(_Group(phi, r, False, real_progression(cls)))
        if not cls.g.is_empty and r_levels.window(bound // 2):
            key2 = (tuple(2 * x for x in phi), 2 * r % period, True)
            if key2 not in seen:
                seen.add(key2)
                groups.append(_Group(*key2, doubled_progression(cls)))

    # all pairings on the integer finite parts: rows = phi S, gram = rows phi^T
    n_nodes = sp.n_nodes
    cols = list(zip(*(row[1:] for row in sp.sym[1:])))
    rows = [[sum(map(mul, g.phi, col)) for col in cols] for g in groups]
    gram = [[sum(map(mul, row, g.phi)) for g in groups] for row in rows]
    norms = [row[i] for i, row in enumerate(gram)]

    ok1 = all(nb > 0 for nb in norms)
    rep.entries.append(CheckEntry("SER1-norm-signs", ok1, "" if ok1 else "non-positive norm"))

    # the radical of the pairing is the null line plus the marking direction,
    # and the roots span the full lattice
    rep.entries.append(CheckEntry("SER2-radical", True, "validated at build (corank 1)"))
    # the rank stops at full rank, so its cost follows the order of `inner`
    rank_ok = exact.rank(rootset.inner, stop=n_nodes + 1) == n_nodes + 1
    rep.entries.append(
        CheckEntry("SER3-rank", rank_ok, "" if rank_ok else "root lattice rank deficit")
    )

    ser5_w = next((
        f"2J(beta,rho)/J(beta,beta) = {2 * g}/{nb} for beta in group {i}, rho in group {j}"
        for i, (row, nb) in enumerate(zip(gram, norms))
        for j, g in enumerate(row) if 2 * g % nb
    ), "")
    rep.entries.append(CheckEntry("SER5-integrality", not ser5_w, ser5_w))

    # reflections of every group in every other, in row-major order;
    # orthogonal pairs and the pairs SER5 rejects are skipped
    closure_w = ""
    pairs = ((gb, gr, 2 * g // nb) for gb, row, nb in zip(groups, gram, norms)
             for gr, g in zip(groups, row) if g and not 2 * g % nb)
    for gb, gr, t in pairs:
        closure_w = _group_closure(rootset, gb, gr, t)
        if closure_w:
            break
    rep.entries.append(CheckEntry("SER4-reflection-closure", not closure_w, closure_w))

    ok6 = _connected(gram)
    rep.entries.append(CheckEntry("SER6-connected", ok6, "" if ok6 else "root graph splits"))
    return rep


def _group_closure(rootset, gb: _Group, gr: _Group, t: int) -> str:
    """Images of group gr under reflections from group gb stay in R: "" if
    they do, else a witness."""
    pb, pr = gb.prog, gr.prog
    # the images' markings: the progression residue + step*Z
    step = gcd(pr.step, abs(t) * pb.step)
    residue = pr.residue - t * pb.residue
    phi_img = tuple(r - t * b for r, b in zip(gr.phi, gb.phi))
    nu_img = gr.nu_res - t * gb.nu_res

    # a real class's progression is k*Z
    real_cls = rootset._class_at(phi_img, nu_img)
    if real_cls is not None and step % real_cls.k == 0 and residue % real_cls.k == 0:
        return ""
    targets = _doubled_targets(rootset, phi_img, nu_img)
    if targets is not None and all(step % tp.step == 0 and tp.contains(residue)
                                   for tp in targets):
        return ""
    return _closure_fallback(rootset, gb, gr, t, pb, pr)


def _doubled_targets(rootset, phi_img, nu_img):
    """Doubled-root progressions covering every attained image level, or
    None when that cannot be certified without enumeration."""
    period = rootset.period
    if period % 2 or nu_img % 2:
        return None
    if any(x % 2 for x in phi_img):
        return None
    half_phi = tuple(x // 2 for x in phi_img)
    out = []
    for hr in (nu_img // 2, nu_img // 2 + period // 2):
        cls = rootset._class_at(half_phi, hr)
        if cls is None or cls.g.is_empty:
            return None
        out.append(doubled_progression(cls))
    return out


def _closure_fallback(rootset, gb, gr, t, pb, pr):
    """Exact enumeration over the inner window; used on the rare pairs the
    progression argument cannot settle, and to produce concrete witnesses.
    A pair of alpha-parts whose image markings all lie in the image's
    progressions (`_covered`) is passed over without the marking loop."""
    N, bound = rootset.window.N, rootset.window.M * rootset.delta0

    def alpha_parts(g: _Group) -> list[APart]:
        return [rootset._alpha_part(g.phi, nu) for nu in range(-bound, bound + 1)
                if nu % rootset.period == g.nu_res
                and rootset._lookup_group(g.phi, nu, g.doubled)]

    wb, wr = pb.window(N), pr.window(N)
    crs = alpha_parts(gr)
    for cb in alpha_parts(gb):
        for cr in crs:
            ci = tuple(r - t * b for r, b in zip(cr, cb))
            progs = rootset.markings(ci)
            if progs and _covered(progs, wb, wr, t):
                continue
            for n_b in wb:
                for n_r in wr:
                    n_img = n_r - t * n_b
                    if not any(p.contains(n_img) for p in progs):
                        beta = cb + (n_b,)
                        rho = cr + (n_r,)
                        return f"s_{beta} sends {rho} to {ci + (n_img,)} outside R"
    return ""


def _covered(progs: list[Progression], wb: list[int], wr: list[int],
             t: int) -> bool:
    """Every n_r - t n_b, n_b in wb and n_r in wr, lies in one of progs.
    Membership in each depends only on n mod the lcm m of their steps, so
    the test runs over the residues mod m the two windows reach."""
    m = lcm(*(p.step for p in progs))
    imgs = {(r - t * b) % m for r in {n % m for n in wr} for b in {n % m for n in wb}}
    return all(any(p.contains(x) for p in progs) for x in imgs)


def _connected(gram) -> bool:
    """Whether the groups form one component when joined wherever their
    pairing is nonzero."""
    if not gram:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for j, g in enumerate(gram[stack.pop()]):
            if g and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(gram)
