"""Rank-one and rank-two classification of window slices, the
doubling-class twist, and the extended-affine quadruple for the
two-node-ended chain types.

The rank tables are a closed enumeration: slices are matched on the exact
datum the tables key on, then the structural claims (affine 2x2 block,
window equality with the reflection-generated subsystem, the location of
gamma) are machine-checked rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .ambient import CheckError, DomainError
from .base_system import GClass, QebsConfig, pi_b
from .roots import EllipticRootSet, Root, RootWindow, closure, generate, mirror

_RANK1 = {
    "empty": ("i", "A1(1)", None),
    "2Z+1": ("ii", "A2(2)", None),
    "Z": ("iii", "B(1)(0,1)", None),
    "2Z": ("iv", "C(2)(2)", None),
    "4Z+2": ("v", "A(4)(0,2)", 0),
    "4Z": ("vi", "A(4)(0,2)", 1),
}

# rows keyed by (J(alpha_vee, beta), k(beta)/k(alpha), g(alpha))
_RANK2 = {
    (-1, Fraction(1), "empty"): ("i", "sa(-b*)", "A2(1)"),
    (-2, Fraction(1), "empty"): ("ii", "sa(-b*)", "C2(1)"),
    (-3, Fraction(1), "empty"): ("iii", "sb.sa(-b*)", "G2(1)"),
    (-2, Fraction(2), "empty"): ("iv", "sb(-a*)", "D3(2)"),
    (-3, Fraction(3), "empty"): ("v", "sa.sb(-a*)", "D4(3)"),
    (-2, Fraction(1), "2Z+1"): ("vi", "sb(-a*)", "A4(2)"),
    (-2, Fraction(1), "Z"): ("vii", "sb(-a*)", "B(1)(0,2)"),
    (-2, Fraction(1), "2Z"): ("viii", "sa(-b*)", "A(2)(0,3)"),
    (-2, Fraction(2), "2Z"): ("ix", "sb(-a*)", "C(2)(3)"),
    (-2, Fraction(2), "4Z+2"): ("x", "sb(-a*)", "A(4)(0,4)"),
    (-2, Fraction(2), "4Z"): ("xi", "sb(-a*)", "A(4)(0,4)"),
}


@dataclass(frozen=True)
class CaseRecord:
    case: str
    name: str
    data: dict


def _generated_subsystem(rootset: EllipticRootSet, i: int) -> set[Root]:
    """Reflection-generated subsystem on alpha_i and -alpha_i* with the
    doubles of the odd ones, window-scoped."""
    config = rootset.config
    bound, N = rootset.window.M * rootset.delta0, rootset.window.N
    seeds = []
    for sigma in (config.root(i), config.root(i, star=True, sign=-1)):
        seeds.append((sigma, None))
        if rootset.parity(sigma):
            seeds.append((tuple(2 * x for x in sigma), None))
    mirrors = [(star, mirror(config, i, star)) for star in (False, True)]
    return set(closure(seeds, mirrors, lambda v: abs(v[0]) <= bound and abs(v[-1]) <= N))


def classify_window(config: QebsConfig) -> RootWindow:
    """The window the classification reads: (3,3), grown to max k so that
    it holds every generator alpha_i* = c alpha_i + k_i a."""
    n = max(3, *config.k.values())
    return RootWindow(n, n)


def classify_rank1(
    config: QebsConfig, i: int, rootset: EllipticRootSet | None = None
) -> CaseRecord:
    if i not in config.nodes:
        raise DomainError(f"node index {i} out of range")
    tag = config.g[i].tag
    case, name, p_stated = _RANK1[tag]
    if rootset is None:
        rootset = generate(config, classify_window(config))

    # the pair must pair into a singular rank-two block with negative
    # off-diagonal entries, the shape of an affine 2x2 datum
    c = config.c_of(i)
    block = [[2, -2 * c], [-2 // c if c == 2 else -2, 2]]
    a12, a21 = block[0][1], block[1][0]
    if not (a12 < 0 and a21 < 0 and 4 - a12 * a21 == 0):
        raise CheckError("pair {alpha, -alpha*} is not an affine block")

    slice_roots = set(rootset.restrict({i}))
    sub = _generated_subsystem(rootset, i)
    if slice_roots != sub:
        raise CheckError(
            f"rank-one slice at node {i} disagrees with the generated subsystem"
        )

    p = rootset.parity(config.root(i))
    if p_stated is not None and p != p_stated:
        raise CheckError(f"p(alpha_{i}) = {p}, table says {p_stated}")
    return CaseRecord(case, name, {"node": i, "g": tag, "p": p})


def _jkg(config: QebsConfig, i: int, j: int) -> tuple:
    return (config.space.cartan[i][j], Fraction(config.k[j], config.k[i]),
            config.g[i].tag)


def rank2_pairs(config: QebsConfig) -> list[tuple[int, int]]:
    """The ordered pairs (i, j) that classify_rank2 tabulates: J(a_i, a_j^vee)
    = -1, g(a_j) empty, and a datum that is a row of the table."""
    return [(i, j) for i in config.nodes for j in config.nodes
            if i != j and config.space.cartan[j][i] == -1
            and config.g[j].is_empty and _jkg(config, i, j) in _RANK2]


def classify_rank2(
    config: QebsConfig, i: int, j: int, rootset: EllipticRootSet | None = None
) -> CaseRecord:
    sp = config.space
    if i == j or i not in config.nodes or j not in config.nodes:
        raise DomainError("need two distinct node indices")
    # J(alpha, beta_vee) is the beta-row Cartan entry
    if sp.cartan[j][i] != -1:
        raise DomainError(
            f"J(a{i}, a{j}^vee) = {sp.cartan[j][i]} != -1; "
            "swap the arguments or pick an adjacent pair"
        )
    if not config.g[j].is_empty:
        raise CheckError(f"side condition failed: g(a{j}) = {config.g[j]}")

    jkg = _jkg(config, i, j)
    if jkg not in _RANK2:
        raise DomainError(f"datum {jkg} matches no tabulated case")
    case, word, name = _RANK2[jkg]

    if rootset is None:
        rootset = generate(config, classify_window(config))
    gamma = _apply_word(config, word, i, j)

    if gamma[-1] != -1:
        raise CheckError(f"gamma = {gamma} is not at marking coordinate -1")
    if any(x > 0 for x in gamma[:-1]):
        raise CheckError(f"gamma = {gamma} is not in the negative cone")
    if not rootset.member(gamma):
        raise CheckError(f"gamma = {gamma} is not a root")
    support = {m for m in range(sp.n_nodes) if gamma[m] != 0}
    if not support <= {i, j}:
        raise CheckError(f"gamma = {gamma} leaves the {{a{i}, a{j}}} slice")
    return CaseRecord(
        case,
        name,
        {
            "nodes": (i, j),
            "Jkg": [jkg[0], str(jkg[1]), jkg[2]],
            "gamma_word": word,
            "gamma": list(gamma),
        },
    )


def _apply_word(config, word, i, j):
    start = {
        "sa(-b*)": (i,),
        "sb(-a*)": (j,),
        "sb.sa(-b*)": (j, i),
        "sa.sb(-a*)": (i, j),
    }[word]
    out = config.root(j if word.endswith("(-b*)") else i, star=True, sign=-1)
    for node in reversed(start):
        out = mirror(config, node, False)(out)
    return out


# ---------------------------------------------------------------------------
# doubling-class twist
# ---------------------------------------------------------------------------

def twist_4z(config: QebsConfig, i: int, window: RootWindow | None = None):
    """Exchange the 4Z doubling class at node i for 4Z+2, with the dual
    linear map and a window bijection check on the root sets."""
    if config.g[i].tag != "4Z":
        raise DomainError(f"g(a{i}) = {config.g[i]}, need 4Z")
    if i not in pi_b(config.space):
        raise DomainError(f"a{i} is outside the -2 panel")
    sp = config.space
    cls = next(c for c in sp.node_orbit_classes() if i in c)

    g_new = dict(config.g)
    for m in cls:
        g_new[m] = GClass("4Z+2")
    config2 = QebsConfig(sp, dict(config.k), g_new)

    k_i = config.k[i]

    def shift(coords: Root) -> int:
        return k_i * sum(coords[m] for m in cls)

    def forward(coords: Root) -> Root:
        return coords[:-1] + (coords[-1] + shift(coords),)

    def backward(coords: Root) -> Root:
        return coords[:-1] + (coords[-1] - shift(coords),)

    window = window or RootWindow(6, 6, 2)
    rs = generate(config, window)
    rs2 = generate(config2, window)

    image = {forward(c) for c in rs.inner}
    if len(image) != len(rs.inner):
        raise CheckError("twist map is not injective on the window")
    for c in image:
        if not rs2.member(c):
            raise CheckError(f"twist image {c} misses the twisted root set")
    for c in rs2.inner:
        if not rs.member(backward(c)):
            raise CheckError(f"twist preimage of {c} misses the root set")

    lam = _dual_weight(config, i)
    sp_basis = sp.basis_labels()
    root_labels = sp_basis[:sp.n_nodes] + [sp_basis[sp.idx_a]]
    cartan_map = {}
    for m in config.nodes:
        if m in cls:
            star = config.root(m, star=True)
            cartan_map[sp_basis[m]] = {
                lab: str(x) for lab, x in zip(root_labels, star) if x
            }
        else:
            cartan_map[sp_basis[m]] = {sp_basis[m]: "1"}
    cartan_map[sp_basis[sp.idx_a]] = {sp_basis[sp.idx_a]: "1"}
    cartan_map[sp_basis[sp.idx_Ld]] = {sp_basis[sp.idx_Ld]: "1"}
    la_image = {sp_basis[sp.idx_La]: Fraction(1)}
    for x in range(sp.dim):
        if lam[x] != 0:
            la_image[sp_basis[x]] = la_image.get(sp_basis[x], Fraction(0)) - lam[x]
    cartan_map[sp_basis[sp.idx_La]] = {
        key: str(val) for key, val in la_image.items() if val != 0
    }
    verification = {
        "window": [window.M, window.N],
        "bijective": True,
        "n_roots": len(rs.inner),
    }
    return config2, cartan_map, verification


def _dual_weight(config: QebsConfig, i: int):
    """The vector with J(Lambda, alpha_j) = k(a_i) delta_ij, isotropic, and
    no component along the marking dual."""
    sp = config.space
    n = sp.n_nodes
    marks = sp.delta_marks()
    r = sp.r
    k_i = Fraction(config.k[i])
    c_d = k_i * marks[i]

    rhs = [k_i * (1 if j == i else 0) - c_d * (Fraction(1, r) if j == 0 else 0)
           for j in range(n)]
    # the block has corank one and the right side is compatible by construction
    v = exact.solve(sp.sym, rhs)
    if v is None:
        raise CheckError("inconsistent dual-weight system")
    # shift along the null direction to make the vector isotropic
    jvv = Fraction(0)
    for x in range(n):
        for y in range(n):
            jvv += v[x] * sp.sym[x][y] * v[y]
    v0 = v[0]
    s = -jvv / (2 * c_d) - Fraction(v0, r)
    v = [vx + s * mk for vx, mk in zip(v, marks)]

    out = [Fraction(0)] * sp.dim
    for x in range(n):
        out[x] = v[x]
    out[sp.idx_Ld] = c_d
    return tuple(out)


# ---------------------------------------------------------------------------
# extended-affine quadruple for the chain type with doubled ends
# ---------------------------------------------------------------------------

def ears_data(config: QebsConfig, window: RootWindow | None = None) -> dict:
    sp = config.space
    if sp.type.family != "D(2)":
        raise DomainError(f"type {sp.type.name} has no quadruple form here")
    for m in config.nodes:
        if config.g[m].tag not in ("empty", "2Z+1"):
            raise DomainError(
                f"g(a{m}) = {config.g[m]} outside the supported classes"
            )
    window = window or RootWindow(6, 6, 2)
    l = sp.l
    g0, gl = config.g[0], config.g[l]
    k0, kl, kmid = config.k[0], config.k[l], config.k[1]

    x_name = f"B{l}" if g0.is_empty and gl.is_empty else f"BC{l}"

    def lattice(delta_mod, delta_res, a_step, a_res=0):
        sym = f"({delta_mod}Z{'+' + str(delta_res) if delta_res else ''})delta"
        sym += f" + {'{'}{a_step}Z{'+' + str(a_res) if a_res else ''}{'}'}a"
        pts = sorted(
            (m, n)
            for m in range(-window.M, window.M + 1)
            if m % delta_mod == delta_res % delta_mod
            for n in range(-window.N, window.N + 1)
            if n % a_step == a_res % a_step
        )
        return {"symbolic": sym, "window": [list(p) for p in pts]}

    def g_lattice(delta_mod, delta_res, g: GClass):
        if g.is_empty:
            return None
        sym = f"({delta_mod}Z{'+' + str(delta_res) if delta_res else ''})delta"
        sym += f" + ({g.tag})a"
        pts = sorted(
            (m, n)
            for m in range(-window.M, window.M + 1)
            if m % delta_mod == delta_res % delta_mod
            for n in g.members(window.N)
        )
        return {"symbolic": sym, "window": [list(p) for p in pts]}

    return {
        "X": x_name,
        "S": [lattice(2, 1, k0), lattice(2, 0, kl)],
        "L": [lattice(2, 0, kmid)],
        "E": [x for x in (g_lattice(4, 2, g0), g_lattice(4, 0, gl)) if x],
    }
