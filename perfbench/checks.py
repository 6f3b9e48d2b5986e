"""Correctness checks that do not trust the code under measurement.

Each check returns a list of problems (empty when the output is right), so
the self-test can hand it a wrong answer and see it rejected.  References
are either computed here from scratch (finite root counts by a Weyl-orbit
walk) or are properties the method must have (eigenvectors, vanishing
relations, nonzero controls, byte-identical reports).  The classification
rows are the published tables of the paper's criteria 1, 2 and 10.
"""
from __future__ import annotations


# ---------------------------------------------------------------------------
# finite root systems, built here without erskit
# ---------------------------------------------------------------------------

def _chain(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def finite_cartan(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix a_ij = <alpha_i^vee, alpha_j> of a finite simple type."""
    if series == "A":
        return _chain(rank)
    if series in ("B", "C"):
        a = _chain(rank)
        if series == "B":
            a[rank - 1][rank - 2] = -2
        else:
            a[rank - 2][rank - 1] = -2
        return a
    if series == "D":
        # chain 0..rank-2, the last node hangs off node rank-3
        a = [row + [0] for row in _chain(rank - 1)] + [[0] * rank]
        a[rank - 1][rank - 1] = 2
        a[rank - 1][rank - 3] = a[rank - 3][rank - 1] = -1
        return a
    if series == "E":
        # Bourbaki: chain 1-3-4-...-rank, node 2 hangs off node 4
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, rank - 1)]
        for i, j in edges:
            a[i][j] = a[j][i] = -1
        return a
    if series == "F":
        a = _chain(4)
        a[2][1] = -2
        return a
    if series == "G":
        return [[2, -1], [-3, 2]]
    raise ValueError(f"no finite type {series}{rank}")


def weyl_orbit_root_count(cartan: list[list[int]]) -> int:
    """|Delta| as the orbit of the simple roots under simple reflections."""
    n = len(cartan)
    seen = set()
    stack = []
    for i in range(n):
        simple = tuple(1 if j == i else 0 for j in range(n))
        seen.add(simple)
        stack.append(simple)
    while stack:
        beta = stack.pop()
        for i in range(n):
            pair = sum(cartan[i][j] * beta[j] for j in range(n))
            if pair == 0:
                continue
            img = list(beta)
            img[i] -= pair
            img = tuple(img)
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return len(seen)


def closed_form_root_count(series: str, rank: int) -> int:
    """Number of roots of a finite simple type, from the classification."""
    if series == "A":
        return rank * (rank + 1)
    if series in ("B", "C"):
        return 2 * rank * rank
    if series == "D":
        return 2 * rank * (rank - 1)
    return {("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
            ("F", 4): 48, ("G", 2): 12}[(series, rank)]


def untwisted_type(name: str):
    """('E', 8) for 'E8(1)'; None for a twisted affine type."""
    if not name.endswith("(1)"):
        return None
    return name[0], int(name[1:-3])


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def check_oracle(label: str, inner: set, oracle: set) -> list[str]:
    if inner == oracle:
        return []
    return [f"{label}: {len(inner - oracle)} roots not in the oracle, "
            f"{len(oracle - inner)} oracle roots missing"]


def check_untwisted_count(label: str, n_roots: int, n_fin: int,
                          m: int, n: int) -> list[str]:
    """Every untwisted family has |Delta_fin| real roots at each of the
    2M+1 levels and 2N+1 marking values of the window."""
    want = n_fin * (2 * m + 1) * (2 * n + 1)
    if n_roots == want:
        return []
    return [f"{label}: {n_roots} window roots, want {n_fin}*{2 * m + 1}"
            f"*{2 * n + 1} = {want}"]


def check_finite_count(label: str, walk: int, series: str, rank: int) -> list[str]:
    """The Weyl-orbit walk must reproduce the classification's root count."""
    table = closed_form_root_count(series, rank)
    if walk == table:
        return []
    return [f"{label}: Weyl-orbit walk gives {walk} roots, the table {table}"]


def check_closure_passes(label: str, passed: bool, failures) -> list[str]:
    if passed:
        return []
    return [f"{label}: window closure check fails: {list(failures)[:3]}"]


def check_mutant(label: str, valid: bool, passed: bool,
                 witnesses: list[str]) -> list[str]:
    """An invalid config must fail validation and the closure check, and
    the closure check must name a witness."""
    out = []
    if valid:
        out.append(f"{label}: mutant passes validation")
    if passed:
        out.append(f"{label}: mutant passes the closure check")
    if not any(witnesses):
        out.append(f"{label}: mutant failure carries no witness")
    return out


# criterion 1: (k overrides, g, case, X, p) for node a0 of D3(2)
RANK1_TABLE = [
    ({}, {}, "i", "A1(1)", 0),
    ({}, {0: "2Z+1"}, "ii", "A2(2)", 0),
    ({}, {0: "Z"}, "iii", "B(1)(0,1)", 1),
    ({}, {0: "2Z"}, "iv", "C(2)(2)", 1),
    ({1: 2}, {0: "4Z+2"}, "v", "A(4)(0,2)", 0),
    ({1: 2}, {0: "4Z"}, "vi", "A(4)(0,2)", 1),
]

# criterion 2: ((type, k overrides, g), (i, j), case, Y)
RANK2_TABLE = [
    (("A2(1)", {}, {}), (0, 1), "i", "A2(1)"),
    (("D3(2)", {}, {}), (0, 1), "ii", "C2(1)"),
    (("G2(1)", {}, {}), (2, 1), "iii", "G2(1)"),
    (("D3(2)", {1: 2}, {}), (0, 1), "iv", "D3(2)"),
    (("G2(1)", {0: 3, 1: 3}, {}), (2, 1), "v", "D4(3)"),
    (("D3(2)", {}, {0: "2Z+1"}), (0, 1), "vi", "A4(2)"),
    (("D3(2)", {}, {0: "Z"}), (0, 1), "vii", "B(1)(0,2)"),
    (("D3(2)", {}, {0: "2Z"}), (0, 1), "viii", "A(2)(0,3)"),
    (("D3(2)", {1: 2}, {0: "2Z"}), (0, 1), "ix", "C(2)(3)"),
    (("D3(2)", {1: 2}, {0: "4Z+2"}), (0, 1), "x", "A(4)(0,4)"),
    (("D3(2)", {1: 2}, {0: "4Z"}), (0, 1), "xi", "A(4)(0,4)"),
]


def check_rank1(label: str, got: tuple, want: tuple) -> list[str]:
    return [] if got == want else [f"rank-1 {label}: got {got}, want {want}"]


def check_rank2(label: str, got: tuple, want: tuple, gamma: tuple,
                is_root: bool, pair: tuple, nodes) -> list[str]:
    out = [] if got == want else [f"rank-2 {label}: got {got}, want {want}"]
    if not is_root:
        out.append(f"rank-2 {label}: gamma {gamma} is not a root")
    if gamma[-1] != -1 or any(x > 0 for x in gamma[:-1]):
        out.append(f"rank-2 {label}: gamma {gamma} is not a negative a-shift")
    if any(gamma[m] != 0 for m in nodes if m not in pair):
        out.append(f"rank-2 {label}: gamma {gamma} leaves the pair {pair}")
    return out


def check_twist(verification: dict, m: int, n: int) -> list[str]:
    out = []
    if not verification.get("bijective"):
        out.append("twist 4Z -> 4Z+2 is not a window bijection")
    if verification.get("window") != [m, n]:
        out.append(f"twist checked on window {verification.get('window')}")
    return out


def check_ears(plain: dict, marked: dict) -> list[str]:
    """Criterion 10: D3(2) is B2 with no E; g(a0)=2Z+1 makes it BC2 with
    two S-lattices, one L-lattice and one E-lattice."""
    out = []
    if plain["X"] != "B2" or plain["E"]:
        out.append(f"plain D3(2) quadruple X={plain['X']} E={plain['E']!r:.40}")
    if (marked["X"], len(marked["S"]), len(marked["L"]), len(marked["E"])) \
            != ("BC2", 2, 1, 1):
        out.append(
            f"marked D3(2) quadruple X={marked['X']} |S|={len(marked['S'])} "
            f"|L|={len(marked['L'])} |E|={len(marked['E'])}"
        )
    return out


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def _vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def check_nonzero(label: str, images: dict, vectors) -> list[str]:
    zero = [v for v in vectors if v in images and images[v].is_zero()]
    return [f"{label}: zero image at {_vec(v)}" for v in zero[:3]] + (
        [f"{label}: {len(zero)} zero images"] if len(zero) > 3 else []
    )


def check_eigenvector(label: str, lam, image, h_images, pairings,
                      bracket, rational) -> list[str]:
    """[h_x, E_lam] = J(basis_x, lam) E_lam for every Cartan image h_x.

    `pairings[x]` is J(basis_x, lam); `bracket` and `rational` are the
    realization's bracket and its embedding of Q, passed in so this module
    stays free of erskit imports.
    """
    out = []
    for x, (lab, h) in enumerate(h_images):
        lhs = bracket(h, image)
        rhs = image.scaled(-rational(pairings[x]))
        if not lhs.plus(rhs).is_zero():
            out.append(f"{label}: image at {_vec(lam)} is not a "
                       f"{pairings[x]}-eigenvector of h:{lab}")
    return out


def check_real_multiplicity(label: str, dims: list[int], vectors) -> list[str]:
    """Kac: a real root of a Kac-Moody algebra has multiplicity one, so at
    k_vee = 1 every window weight space is one-dimensional."""
    bad = [(v, d) for v, d in zip(vectors, dims) if d != 1]
    if not bad:
        return []
    return [f"{label}: {len(bad)} weight spaces of dimension != 1, "
            f"first {bad[0][1]} at {_vec(bad[0][0])}"]


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def check_words_vanish(label: str, labels: list[str],
                       zero: list[bool]) -> list[str]:
    bad = [lbl for lbl, z in zip(labels, zero) if not z]
    return [f"{label}: {len(bad)} relations substitute to nonzero, "
            f"first {bad[0]}"] if bad else []


def check_controls(label: str, controls: list[tuple[str, bool]]) -> list[str]:
    """Each control is a bracket that is not a relation; a zero image would
    mean the zero test cannot tell relations apart."""
    if not controls:
        return [f"{label}: no control words"]
    return [f"{label}: control {name} substitutes to zero"
            for name, zero in controls if zero]


def check_pi_report(path: str, result: dict) -> list[str]:
    out = []
    if result.get("status") != "ok":
        out.append(f"{path}: verify-pi status {result.get('status')}")
    checks = {c["label"]: c["ok"] for c in result.get("checks", [])}
    for lbl in ("PD2", "PD3"):
        if checks.get(lbl) is not True:
            out.append(f"{path}: {lbl} {'missing' if lbl not in checks else 'fails'}")
    bad = [lbl for lbl, ok in checks.items()
           if not ok and lbl not in ("PD2", "PD3")]
    if bad:
        out.append(f"{path}: {len(bad)} checks fail, first {bad[0]}")
    return out


def check_q_agrees(q_entries, pi_checks: dict) -> list[str]:
    """verify_q at q = 1 and verify_pi must agree on every relation both
    substitute, and on the overall verdict."""
    out = []
    q_ok = {lbl: ok for lbl, ok, _ in q_entries}
    for lbl, ok in q_ok.items():
        if lbl in pi_checks and pi_checks[lbl] != ok:
            out.append(f"q=1 and loop realization disagree on {lbl}")
    shared = [lbl for lbl in q_ok if lbl in pi_checks]
    if not shared:
        out.append("q=1 and loop realization share no relation label")
    if all(q_ok.values()) != all(pi_checks.values()):
        out.append("q=1 and loop realization disagree on the verdict")
    return out


def check_reports_identical(digests: list[str]) -> list[str]:
    if len(set(digests)) <= 1:
        return []
    return [f"CLI report bytes differ across {len(digests)} runs"]
