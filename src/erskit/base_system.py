"""Configured base data on top of an ambient space.

A configuration carries a multiplicity k(alpha) per node and a doubling
class g(alpha) drawn from the six arithmetic progressions that can actually
occur.  Validation covers W-invariance of both maps, the gcd normalization
of k, and the three coupling axioms between k and g.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .ambient import AmbientSpace, ConfigError, DomainError, build_ambient

_TAGS = {
    "empty": None,
    "Z": (1, 0),
    "2Z": (2, 0),
    "2Z+1": (2, 1),
    "4Z": (4, 0),
    "4Z+2": (4, 2),
}
_BY_MODRES = {v: k for k, v in _TAGS.items() if v is not None}


@dataclass(frozen=True)
class GClass:
    """One of the six admissible progressions: empty, Z, 2Z, 2Z+1, 4Z, 4Z+2."""

    tag: str

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ConfigError(f"unknown g-class token {self.tag!r}")

    @property
    def is_empty(self) -> bool:
        return self.tag == "empty"

    @property
    def modulus(self) -> int:
        if self.is_empty:
            raise DomainError("empty g-class has no modulus")
        return _TAGS[self.tag][0]

    @property
    def residue(self) -> int:
        if self.is_empty:
            raise DomainError("empty g-class has no residue")
        return _TAGS[self.tag][1]

    def contains(self, m: int) -> bool:
        if self.is_empty:
            return False
        mod, res = _TAGS[self.tag]
        return m % mod == res

    def members(self, bound: int) -> list[int]:
        if self.is_empty:
            return []
        mod, res = _TAGS[self.tag]
        out = []
        m = res
        while m <= bound:
            if abs(m) <= bound:
                out.append(m)
            m += mod
        m = res - mod
        while m >= -bound:
            out.append(m)
            m -= mod
        return sorted(out)

    def scaled(self, q: Fraction) -> "GClass":
        """The progression q*(this set), when it is again an admissible class."""
        if self.is_empty:
            return self
        mod, res = _TAGS[self.tag]
        nm, nr = mod * q, res * q
        if nm.denominator != 1 or nr.denominator != 1:
            raise DomainError(f"scaled class {self.tag}*{q} is not integral")
        key = (int(nm), int(nr) % int(nm))
        if key not in _BY_MODRES:
            raise DomainError(f"scaled class {self.tag}*{q} is not admissible")
        return GClass(_BY_MODRES[key])

    def scaled_in_closed_set(self, q: Fraction) -> bool:
        """Whether q*(this set) is one of empty, Z, 2Z, 2Z+1."""
        if self.is_empty:
            return True
        try:
            return self.scaled(q).tag in ("empty", "Z", "2Z", "2Z+1")
        except DomainError:
            return False

    def __str__(self):
        return self.tag


EMPTY = GClass("empty")


class CheckEntry(NamedTuple):
    """One elliptic-axiom check of `validate_qebs` or `check_ebs`."""

    axiom: str
    ok: bool
    witness: str = ""


class Check(NamedTuple):
    """One labelled check of `verify_pi`, `verify_q` or `structure_suite`."""

    label: str
    ok: bool
    witness: str = ""


@dataclass
class Report:
    """Check entries plus report fields that are already JSON-ready.

    The entry type names the check key of `to_dict` (`axiom` or `label`).
    """

    entries: list[CheckEntry | Check] = field(default_factory=list)
    fields: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[CheckEntry | Check]:
        return [e for e in self.entries if not e.ok]

    def to_dict(self) -> dict:
        return {"passed": self.passed, **self.fields,
                "checks": [e._asdict() for e in self.entries]}


@dataclass(frozen=True)
class QebsConfig:
    space: AmbientSpace
    k: dict[int, int]
    g: dict[int, GClass]

    @property
    def nodes(self) -> range:
        return range(self.space.n_nodes)

    def c_of(self, i: int) -> int:
        return 2 if self.g[i].tag in ("Z", "2Z+1") else 1

    def root(self, i: int, star: bool = False, sign: int = 1) -> tuple[int, ...]:
        """The root tuple (c_0..c_l, n) of sign * alpha_i, or of
        sign * alpha_i^* = sign * (c alpha_i + k_i a) when star."""
        n_nodes = self.space.n_nodes
        if not 0 <= i < n_nodes:
            raise ConfigError(f"node index {i} out of range 0..{n_nodes - 1}")
        c, k = (self.c_of(i), self.k[i]) if star else (1, 0)
        out = [0] * (n_nodes + 1)
        out[i], out[-1] = sign * c, sign * k
        return tuple(out)

    def node_parity(self, i: int) -> int:
        """p(alpha_i): 1 iff 2*alpha_i is a root, i.e. 0 in g(alpha_i)."""
        return 1 if self.g[i].contains(0) else 0

    def star_parity(self, i: int) -> int:
        """p(alpha_i^*): 1 iff 2*alpha_i^* is a root."""
        return 1 if self.c_of(i) == 1 and self.g[i].contains(2) else 0

    def describe(self) -> dict:
        return {
            "type": self.space.type.name,
            "k": {f"a{i}": self.k[i] for i in self.nodes},
            "g": {f"a{i}": self.g[i].tag for i in self.nodes},
        }


def pi_c(space: AmbientSpace, i: int) -> frozenset[int]:
    """Nodes coupled to alpha_i through the form."""
    return frozenset(
        j for j in range(space.n_nodes) if j != i and space.sym[j][i] != 0
    )


def pi_b(space: AmbientSpace) -> frozenset[int]:
    """Nodes whose every coupled neighbor sits at Cartan value -2."""
    out = []
    for i in range(space.n_nodes):
        nbrs = pi_c(space, i)
        if nbrs and all(space.cartan[i][j] == -2 for j in nbrs):
            out.append(i)
    return frozenset(out)


def validate_qebs(config: QebsConfig) -> Report:
    sp = config.space
    panel = pi_b(sp)
    rep = Report(fields={"pi_b": sorted(panel)})
    coupled = {i: pi_c(sp, i) for i in config.nodes}

    k, g = config.k, config.g
    inv_k = sp.is_w_invariant({i: k[i] for i in config.nodes})
    rep.entries.append(
        CheckEntry("k-invariance", inv_k, "" if inv_k else "k not constant on a node class")
    )
    inv_g = sp.is_w_invariant({i: g[i].tag for i in config.nodes})
    rep.entries.append(
        CheckEntry("g-invariance", inv_g, "" if inv_g else "g not constant on a node class")
    )
    kg = 0
    for i in config.nodes:
        if k[i] < 1:
            rep.entries.append(CheckEntry("k-positive", False, f"k(a{i}) = {k[i]}"))
            return rep
        kg = gcd(kg, k[i])
    rep.entries.append(
        CheckEntry("k-gcd", kg == 1, "" if kg == 1 else f"gcd of k values is {kg}")
    )

    ok1, w1 = True, ""
    for beta in config.nodes:
        for alpha in config.nodes:
            if beta != alpha and sp.cartan[beta][alpha] == -1:
                ratio = Fraction(k[beta], k[alpha])
                back = Fraction(sp.cartan[alpha][beta]) * k[alpha] / k[beta]
                if ratio.denominator != 1 or back.denominator != 1:
                    ok1, w1 = False, f"pair (a{alpha}, a{beta})"
    rep.entries.append(CheckEntry("KG1", ok1, w1))

    ok2, w2 = True, ""
    for i in config.nodes:
        if i not in panel and not g[i].is_empty:
            ok2, w2 = False, f"g(a{i}) = {g[i]} but a{i} is outside the -2 panel"
    rep.entries.append(CheckEntry("KG2", ok2, w2))

    ok3, w3 = True, ""
    for i in panel:
        if g[i].is_empty:
            continue
        for beta in coupled[i]:
            q = Fraction(k[i], k[beta])
            if not g[i].scaled_in_closed_set(q):
                ok3, w3 = False, f"g(a{i})*k(a{i})/k(a{beta}) = {g[i]}*{q}"
    rep.entries.append(CheckEntry("KG3", ok3, w3))
    return rep


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def config_from_dict(data: dict) -> QebsConfig:
    _need(isinstance(data, dict), "config", "a JSON object", data)
    if "type" not in data:
        raise ConfigError("config needs a 'type' entry")
    _need(isinstance(data["type"], str), "type", "a string", data["type"])
    space = build_ambient(data["type"])
    n = space.n_nodes
    classes = space.node_orbit_classes()

    raw_k = data.get("k", {})
    _need(isinstance(raw_k, dict), "k", "a JSON object", raw_k)
    k: dict[int, int] = {}
    for key, val in raw_k.items():
        idx = _node_index(key, n)
        _need(isinstance(val, int) and not isinstance(val, bool),
              f"k[{key}]", "an integer", val)
        k[idx] = val
    for cls in classes:
        vals = {k[i] for i in cls if i in k}
        if len(vals) > 1:
            raise ConfigError(f"k differs on one node class: {sorted(cls)}")
        if not vals:
            raise ConfigError(f"k missing for node class {sorted(cls)}")
        for i in cls:
            k.setdefault(i, next(iter(vals)))

    raw_g = data.get("g", {})
    _need(isinstance(raw_g, dict), "g", "a JSON object", raw_g)
    g: dict[int, GClass] = {}
    for key, val in raw_g.items():
        idx = _node_index(key, n)
        _need(isinstance(val, str), f"g[{key}]", "a string", val)
        g[idx] = GClass(val)
    for cls in classes:
        vals = {g[i].tag for i in cls if i in g}
        if len(vals) > 1:
            raise ConfigError(f"g differs on one node class: {sorted(cls)}")
        fill = GClass(next(iter(vals))) if vals else EMPTY
        for i in cls:
            g.setdefault(i, fill)
    return QebsConfig(space, k, g)


def _need(ok: bool, what: str, kind: str, val) -> None:
    if not ok:
        raise ConfigError(f"{what} must be {kind}, got {val!r}")


def _node_index(key: str, n: int) -> int:
    if not (isinstance(key, str) and key.startswith("a") and key[1:].isdigit()):
        raise ConfigError(f"bad node key {key!r} (expected 'a0'..'a{n-1}')")
    idx = int(key[1:])
    if not 0 <= idx < n:
        raise ConfigError(f"node key {key!r} out of range 0..{n-1}")
    return idx


def simple_config(type_name: str, k=1, g: dict[int, str] | None = None) -> QebsConfig:
    """Convenience constructor used all over the test suite."""
    space = build_ambient(type_name)
    if isinstance(k, int):
        kmap = {i: k for i in range(space.n_nodes)}
    else:
        kmap = dict(k)
    gmap = {i: EMPTY for i in range(space.n_nodes)}
    for i, tag in (g or {}).items():
        gmap[i] = GClass(tag)
    return QebsConfig(space, kmap, gmap)
