"""The three workloads: their configs, one timed pass, and the checks.

A workload is built from a seed, which fixes the order of its configs and
the sample of roots whose eigenvector property is checked; the program
only ever sees the configs.  `setup()` builds and validates the configs
(the part timed as setup_s) and `units()` lists the timed steps of one
pass, each with the untimed check of its output.

Calls into erskit go through module attributes (`roots.generate`, not a
name imported from it), so the tracer in spans.py sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

from erskit import classify, cli, presentation, quantum_torus, roots, unfold
from erskit.base_system import simple_config, validate_qebs
from erskit.cyclo import Cyc

import checks

# one representative per affine family at its minimal rank
SUITE = [
    "A2(1)", "B3(1)", "C2(1)", "D4(1)", "E6(1)", "E7(1)", "E8(1)",
    "F4(1)", "G2(1)", "A4(2)", "A5(2)", "D3(2)", "E6(2)", "D4(3)",
]

# (label, type, k, g); k and g map node index to a value, None means 1 / empty
D3_ODD = ("D3(2)[g0=2Z+1]", "D3(2)", None, {0: "2Z+1"})
D3_Z = ("D3(2)[g0=Z]", "D3(2)", None, {0: "Z"})
G2_K331 = ("G2(1)[k=3,3,1]", "G2(1)", {0: 3, 1: 3, 2: 1}, None)

MUTANTS = [
    ("D3(2)[k=1,2,1;g0=Z]", "D3(2)", {0: 1, 1: 2, 2: 1}, {0: "Z"}),
    ("D3(2)[g0=4Z]", "D3(2)", None, {0: "4Z"}),
    ("A2(1)[g0=2Z+1]", "A2(1)", None, {0: "2Z+1"}),
]
TWIST = ("D3(2)[k=1,2,1;g0=4Z]", "D3(2)", {0: 1, 1: 2, 2: 1}, {0: "4Z"})

WITNESS_WINDOW = roots.RootWindow(4, 4)
LATTICE_WINDOW = roots.RootWindow(6, 6, 2)
EIGEN_SAMPLE = 32  # roots per config whose eigenvector property is checked


def _plain(name):
    return (name, name, None, None)


def build(spec, validate=True):
    label, type_name, k, g = spec
    base = simple_config(type_name)
    kmap = {m: 1 for m in base.nodes}
    kmap.update(k or {})
    cfg = simple_config(type_name, k=kmap, g=g or {})
    if validate:
        rep = validate_qebs(cfg)
        if not rep.passed:
            raise ValueError(f"{label} fails validation: {rep.failures()}")
    return cfg


class Workload:
    """A seeded list of units.  Each unit is (label, run, check): `run()` is
    timed and returns its output, `check(output)` is not timed and returns
    (attempted, failed, problems).  A pass runs every unit once; checking a
    unit's output right after it ran and dropping it keeps the heap, and so
    the garbage collector's work, the same whatever the config order."""

    name = ""
    specs: list = []

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.specs = list(self.specs)
        self.rng.shuffle(self.specs)

    def setup(self):
        self.configs = [(spec[0], build(spec)) for spec in self.specs]

    def prepare(self, workdir: Path):
        """One-off work outside setup_s, e.g. files the pass reads."""

    def units(self) -> list:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that span the whole run; called once after the passes."""
        return []


# ---------------------------------------------------------------------------
# witness: criterion-8 dimension witnesses at window (4,4)
# ---------------------------------------------------------------------------

class Witness(Workload):
    name = "witness"
    specs = [_plain("A2(1)"), G2_K331, D3_ODD, D3_Z]

    def units(self):
        return [(label, lambda cfg=cfg: self.sweep(cfg),
                 lambda out, label=label: self.check(label, out))
                for label, cfg in self.configs]

    @staticmethod
    def sweep(cfg):
        rs = roots.generate(cfg, WITNESS_WINDOW)
        words = unfold.witness_words(cfg, rs)
        real = unfold.Realization(cfg, unfold.witness_height(cfg, rs, words))
        vectors = [unfold.root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
        images = unfold.transport_images(real, words, targets=vectors)
        dims = [unfold.loop_weight_dim(real, v) for v in vectors]
        return cfg, real, vectors, images, dims

    def check(self, label, out):
        cfg, real, vectors, images, dims = out
        # roots with no transported image are the failed operations
        witnessed = [v for v in vectors if v in images]
        problems = checks.check_nonzero(label, images, vectors)
        if set(real.hd.kvee.values()) == {1}:
            problems += checks.check_real_multiplicity(label, dims, vectors)
        sp = cfg.space
        h_images = [(lab, real.image(f"h:{lab}")) for lab in sp.basis_labels()]
        for lam in self.rng.sample(witnessed, min(EIGEN_SAMPLE, len(witnessed))):
            pairings = [sp.j(sp.basis_vector(x), lam) for x in range(sp.dim)]
            problems += checks.check_eigenvector(
                label, lam, images[lam], h_images, pairings,
                unfold.loop_bracket, Cyc.from_rational,
            )
        return len(vectors), len(vectors) - len(witnessed), problems


# ---------------------------------------------------------------------------
# relations: substitution of every emitted relation
# ---------------------------------------------------------------------------

def _leaf_parity(cfg, tree) -> int:
    if isinstance(tree, str):
        sym = {m.ident: m for m in presentation.b_all(cfg)}[tree]
        return sym.parity(cfg)
    return sum(_leaf_parity(cfg, t) for t in tree) % 2


def control_words(cfg):
    """Brackets that are not relations: [E_ai, E_-ai] per node and, per edge,
    (ad E_ai)^(-a_ij) E_aj, one power short of the Serre relation."""
    sp = cfg.space
    out = []
    for i in cfg.nodes:
        out.append((f"[E+a{i},E-a{i}]", [f"E:+a{i}", f"E:-a{i}"]))
        for j in cfg.nodes:
            if i != j and sp.cartan[i][j] < 0:
                tree = f"E:+a{j}"
                for _ in range(-sp.cartan[i][j]):
                    tree = [f"E:+a{i}", tree]
                out.append((f"ad(E+a{i})^{-sp.cartan[i][j]}E+a{j}", tree))
    return [
        (name, presentation.LieWord([(Cyc.from_rational(1), tree)],
                                    _leaf_parity(cfg, tree)))
        for name, tree in out
    ]


def _is_relation(label: str) -> bool:
    return label.startswith(("SR", "qSR"))


def _relation_ops(oks) -> tuple[int, int]:
    oks = list(oks)
    return len(oks), oks.count(False)


class Relations(Workload):
    name = "relations"
    # the plain D3(2) of criterion 5 is the suite's own D3(2)
    specs = [_plain(n) for n in SUITE] + [D3_ODD, D3_Z]

    def setup(self):
        super().setup()
        self.payloads = {label: json.dumps(cfg.describe(), sort_keys=True)
                         for label, cfg in self.configs}
        self.qt_config = build(_plain("A2(1)"))

    def prepare(self, workdir: Path):
        cfgdir = workdir / "configs"
        cfgdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for label, _ in self.configs:
            path = cfgdir / (re.sub(r"[^A-Za-z0-9]+", "_", label) + ".json")
            path.write_text(self.payloads[label] + "\n", encoding="utf-8")
            self.paths.append(path.as_posix())
        self.digests = []
        self.a21_checks = {}

    def units(self):
        out = [("erskit verify-pi", self.run_cli, self.check_cli)]
        out += [(label, lambda cfg=cfg: self.substitute(cfg),
                 lambda res, label=label: self.check_substitution(label, res))
                for label, cfg in self.configs]
        out.append(("quantum torus", self.quantum_torus, self.check_qt))
        return out

    def run_cli(self):
        args = ["verify-pi"]
        for path in self.paths:
            args += ["--config", path]
        buf = io.StringIO()
        code = None
        with contextlib.redirect_stdout(buf):
            try:
                cli.main.main(args=args, prog_name="erskit",
                              standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def check_cli(self, out):
        code, report = out
        self.digests.append(hashlib.sha256(report.encode()).hexdigest())
        if len(self.digests) == 1:
            # one more, untimed batch, so a one-pass run compares two reports
            self.digests.append(
                hashlib.sha256(self.run_cli()[1].encode()).hexdigest())
        problems = [] if code == 0 else [f"erskit verify-pi exited with {code}"]
        doc = json.loads(report)
        if doc["manifest"]["configs"] != self.paths:
            problems.append("verify-pi report lists other configs")
        attempted = failed = 0
        a21 = self.paths[[lbl for lbl, _ in self.configs].index("A2(1)")]
        for res in doc["results"]:
            problems += checks.check_pi_report(res["config"], res)
            rel = {c["label"]: c["ok"] for c in res["checks"]
                   if _is_relation(c["label"])}
            a, f = _relation_ops(rel.values())
            attempted, failed = attempted + a, failed + f
            if res["config"] == a21:
                self.a21_checks = rel
        return attempted, failed, problems

    @staticmethod
    def substitute(cfg):
        sharp = presentation.emit_sr_sharp(cfg)
        tsr = presentation.emit_tsr(cfg)
        words = sharp.label_words + tsr.label_words
        height = max(unfold.required_height(cfg, sharp),
                     unfold.required_height(cfg, tsr))
        real = unfold.Realization(cfg, height)
        zero = [real.evaluate_word(w).is_zero() for _, w in words]
        return cfg, real, [lbl for lbl, _ in words], zero

    def check_substitution(self, label, out):
        cfg, real, labels, zero = out
        problems = checks.check_words_vanish(label, labels, zero)
        controls = [(name, real.evaluate_word(w).is_zero())
                    for name, w in control_words(cfg)]
        problems += checks.check_controls(label, controls)
        return len(zero), zero.count(False), problems

    def quantum_torus(self):
        cfg = self.qt_config
        return (quantum_torus.verify_q(cfg),
                quantum_torus.verify_q(cfg, q_numeric=Fraction(1)),
                quantum_torus.structure_suite())

    def check_qt(self, out):
        formal, at_one, suite = out
        problems = []
        attempted = failed = 0
        for tag, rep in (("formal q", formal), ("q = 1", at_one)):
            a, f = _relation_ops(ok for lbl, ok, _ in rep.entries
                                 if _is_relation(lbl))
            attempted, failed = attempted + a, failed + f
            if not rep.passed:
                problems.append(f"verify_q at {tag} fails: {rep.failures()[:3]}")
        if not suite.passed:
            problems.append(f"quantum-torus structure suite fails: {suite.failures()}")
        problems += checks.check_q_agrees(
            [e for e in at_one.entries if _is_relation(e[0])], self.a21_checks)
        return attempted, failed, problems

    def finish(self):
        return checks.check_reports_identical(self.digests)


# ---------------------------------------------------------------------------
# lattice: integer root-lattice work at window (6,6)
# ---------------------------------------------------------------------------

def _rank_spec(i, k, g, type_name="D3(2)"):
    return (f"{type_name}#{i}", type_name, k, g)


class Lattice(Workload):
    name = "lattice"
    specs = [_plain(n) for n in SUITE]

    def setup(self):
        super().setup()
        self.rank1 = [
            (build(_rank_spec(n, k, g)), row)
            for n, (k, g, *row) in enumerate(checks.RANK1_TABLE)
        ]
        self.rank2 = [
            (build(_rank_spec(n, k, g, t)), pair, (case, y))
            for n, ((t, k, g), pair, case, y) in enumerate(checks.RANK2_TABLE)
        ]
        self.twist = build(TWIST)
        self.ears = (build(_plain("D3(2)")), build(D3_ODD))
        self.mutants = [(spec[0], build(spec, validate=False)) for spec in MUTANTS]

    def units(self):
        out = [(label, lambda cfg=cfg: self.family(cfg),
                lambda res, label=label: self.check_family(label, res))
               for label, cfg in self.configs]
        out += [
            ("criterion 1 and 2 tables", self.tables, self.check_tables),
            ("twist and quadruples", self.twist_ears, self.check_twist_ears),
            ("mutants", self.run_mutants, self.check_mutants),
        ]
        return out

    @staticmethod
    def family(cfg):
        rs = roots.generate(cfg, LATTICE_WINDOW)
        rep = roots.check_ebs(rs)
        oracle = roots.reflection_closure_oracle(cfg, LATTICE_WINDOW)
        return set(rs.inner), rep, oracle

    @staticmethod
    def check_family(label, out):
        inner, rep, oracle = out
        problems = checks.check_oracle(label, inner, oracle)
        problems += checks.check_closure_passes(label, rep.passed, rep.failures())
        fin = checks.untwisted_type(label)
        if fin is not None:
            n_fin = checks.weyl_orbit_root_count(checks.finite_cartan(*fin))
            problems += checks.check_finite_count(label, n_fin, *fin)
            problems += checks.check_untwisted_count(
                label, len(inner), n_fin, LATTICE_WINDOW.M, LATTICE_WINDOW.N)
        # a root the oracle does not confirm is a failed operation, and wrong
        return len(inner | oracle), len(inner ^ oracle), problems

    def tables(self):
        rank1 = [(classify.classify_rank1(cfg, 0), row) for cfg, row in self.rank1]
        rank2 = []
        for cfg, (i, j), row in self.rank2:
            rs = roots.generate(cfg, LATTICE_WINDOW)
            rec = classify.classify_rank2(cfg, i, j, rs)
            gamma = tuple(rec.data["gamma"])
            rank2.append((cfg, rec, rs.member(gamma), (i, j), row))
        return rank1, rank2

    @staticmethod
    def check_tables(out):
        rank1, rank2 = out
        problems = []
        for n, (rec, row) in enumerate(rank1):
            problems += checks.check_rank1(
                f"row {n}", (rec.case, rec.name, rec.data["p"]), tuple(row))
        for n, (cfg, rec, is_root, pair, row) in enumerate(rank2):
            problems += checks.check_rank2(
                f"row {n}", (rec.case, rec.name), row, tuple(rec.data["gamma"]),
                is_root, pair, cfg.nodes)
        return 0, 0, problems

    def twist_ears(self):
        _, _, twist = classify.twist_4z(self.twist, 0, LATTICE_WINDOW)
        return twist, [classify.ears_data(cfg, LATTICE_WINDOW) for cfg in self.ears]

    @staticmethod
    def check_twist_ears(out):
        twist, ears = out
        problems = checks.check_twist(twist, LATTICE_WINDOW.M, LATTICE_WINDOW.N)
        return 0, 0, problems + checks.check_ears(*ears)

    def run_mutants(self):
        return [
            (label, cfg, roots.check_ebs(
                roots.generate(cfg, LATTICE_WINDOW, validate=False)))
            for label, cfg in self.mutants
        ]

    @staticmethod
    def check_mutants(out):
        problems = []
        for label, cfg, rep in out:
            problems += checks.check_mutant(
                label, validate_qebs(cfg).passed, rep.passed,
                [e.witness for e in rep.failures()])
        return 0, 0, problems


WORKLOADS = {w.name: w for w in (Witness, Relations, Lattice)}
