"""End-to-end checks for the published classification tables and the
property suites, with their stated time budgets."""
import time
from fractions import Fraction

import pytest

from erskit.base_system import simple_config, validate_qebs
from erskit.classify import classify_rank1, classify_rank2, ears_data, twist_4z
from erskit.cyclo import Cyc
from erskit.presentation import emit_sr, emit_sr_sharp, emit_tsr
from erskit.roots import RootWindow, check_ebs, generate
from erskit.unfold import (
    Realization,
    build_handy,
    k_vee,
    loop_weight_dim,
    required_height,
    root_to_ambient,
    transport_images,
    verify_pi,
    witness_height,
    witness_words,
)
from erskit.quantum_torus import structure_suite, verify_q
from conftest import KAPPA_CASES, SUITE_NAMES


def _d3(k=None, g=None):
    kmap = {0: 1, 1: 1, 2: 1}
    kmap.update(k or {})
    return simple_config("D3(2)", k=kmap, g=g or {})


def test_criterion_1_rank1_table():
    t0 = time.monotonic()
    rows = [
        ({}, {}, "i", "A1(1)", 0),
        ({}, {0: "2Z+1"}, "ii", "A2(2)", 0),
        ({}, {0: "Z"}, "iii", "B(1)(0,1)", 1),
        ({}, {0: "2Z"}, "iv", "C(2)(2)", 1),
        ({1: 2}, {0: "4Z+2"}, "v", "A(4)(0,2)", 0),
        ({1: 2}, {0: "4Z"}, "vi", "A(4)(0,2)", 1),
    ]
    for k, g, case, name, p in rows:
        rec = classify_rank1(_d3(k, g), 0)
        assert (rec.case, rec.name, rec.data["p"]) == (case, name, p)
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_rank2_table():
    t0 = time.monotonic()
    rows = [
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
    win = RootWindow(6, 6, 2)
    for (tname, k, g), (i, j), case, yname in rows:
        base = simple_config(tname)
        kmap = {m: 1 for m in base.nodes}
        kmap.update(k)
        cfg = simple_config(tname, k=kmap, g=g)
        rs = generate(cfg, win)
        rec = classify_rank2(cfg, i, j, rs)
        assert (rec.case, rec.name) == (case, yname)
        gamma = tuple(rec.data["gamma"])
        assert rs.member(gamma)
        assert gamma[-1] == -1 and all(x <= 0 for x in gamma[:-1])
        assert {m for m in cfg.nodes if gamma[m] != 0} <= {i, j}
    assert time.monotonic() - t0 < 10.0


def test_criterion_3_window_closure_suite_and_mutants(ebs_reports):
    # the suite's check_ebs runs are shared with test_roots; their seconds
    # count against this budget
    t0 = time.monotonic()
    assert len(SUITE_NAMES) >= 12
    for name in SUITE_NAMES:
        cfg = simple_config(name)
        assert validate_qebs(cfg).passed
        rep, _ = ebs_reports[name]
        assert rep.passed, (name, rep.failures())
    mutants = [
        ("D3(2)", {"g": {0: "Z"}, "k": {0: 1, 1: 2, 2: 1}}),
        ("D3(2)", {"g": {0: "4Z"}}),
        ("A2(1)", {"g": {0: "2Z+1"}}),
    ]
    for name, kwargs in mutants:
        cfg = simple_config(name, **kwargs)
        assert not validate_qebs(cfg).passed
        rep = check_ebs(generate(cfg, RootWindow(6, 6, 2), validate=False))
        assert not rep.passed
        assert any(e.witness for e in rep.failures())
    spent = sum(seconds for _, seconds in ebs_reports.values())
    assert spent + time.monotonic() - t0 < 60.0


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_criterion_4_handy_soundness(name):
    # build_handy runs the HD1-10 verifier internally; reaching the return
    # value certifies the axioms
    cfg = simple_config(name)
    hd = build_handy(cfg)
    assert hd.n == sum(k_vee(cfg).values())


@pytest.mark.parametrize("kwargs, kappa", KAPPA_CASES)
def test_criterion_5_realization(kwargs, kappa, kappa_realizations):
    # verify_pi runs once per case, shared with test_unfold; its seconds
    # count against this budget
    t0 = time.monotonic()
    (rep, real), spent = kappa_realizations[repr(kwargs)]
    assert rep.passed, rep.failures()
    assert real.kappa == Cyc.from_rational(kappa)
    labels = {lbl.split("[")[0] for lbl, _, _ in rep.entries}
    assert {"SR2", "SR3", "SR4", "SR5", "SR6", "SR7", "PD2", "PD3"} <= labels
    assert spent + time.monotonic() - t0 < 300.0


def test_criterion_6_quantum_torus():
    t0 = time.monotonic()
    cfg = simple_config("A2(1)")
    formal = verify_q(cfg)
    assert formal.passed, formal.failures()
    assert structure_suite().passed
    at_one = verify_q(cfg, q_numeric=Fraction(1))
    loop_rep, _ = verify_pi(cfg)
    assert at_one.passed == loop_rep.passed
    assert time.monotonic() - t0 < 30.0


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_criterion_7_null_root_identities(name):
    sp = simple_config(name).space
    marks = sp.delta_marks()
    delta = tuple(
        Fraction(marks[i]) if i < sp.n_nodes else Fraction(0)
        for i in range(sp.dim)
    )
    assert sp.j(delta, delta) == 0
    assert sp.j(sp.basis_vector(sp.idx_Ld), delta) == 1


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_criterion_8_dimension_witnesses(name):
    cfg = simple_config(name)
    rs = generate(cfg, RootWindow(4, 4))
    words = witness_words(cfg, rs)
    real = Realization(cfg, witness_height(cfg, rs, words))
    vectors = [root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    images = transport_images(real, words, targets=vectors)
    for vec in vectors:
        assert loop_weight_dim(real, vec) == 1, vec
        assert not images[vec].is_zero(), vec


def test_criterion_9_twist_bijection():
    cfg = simple_config("D3(2)", k={0: 1, 1: 2, 2: 1}, g={0: "4Z"})
    _, _, verification = twist_4z(cfg, 0, RootWindow(6, 6, 2))
    assert verification["bijective"]
    assert verification["window"] == [6, 6]


def test_criterion_10_marked_system_quadruple():
    win = RootWindow(6, 6, 2)
    plain = ears_data(simple_config("D3(2)"), win)
    assert plain["X"] == "B2" and not plain["E"]
    marked = ears_data(simple_config("D3(2)", g={0: "2Z+1"}), win)
    assert marked["X"] == "BC2" and len(marked["E"]) == 1
    assert len(marked["S"]) == 2 and len(marked["L"]) == 1


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_criterion_11_presentation_soundness(name):
    cfg = simple_config(name)
    sharp = emit_sr_sharp(cfg)
    tsr = emit_tsr(cfg)
    height = max(required_height(cfg, sharp), required_height(cfg, tsr))
    real = Realization(cfg, height)
    for label, word in sharp.label_words + tsr.label_words:
        assert real.evaluate_word(word).is_zero(), label


def test_criterion_11_sharp_is_smaller_somewhere():
    cfg = simple_config("D3(2)")
    assert emit_sr_sharp(cfg).count("SR5'") < emit_sr(cfg).count("SR5")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_criterion_12_oracle_equivalence(name, oracle_pairs):
    generated, oracle = oracle_pairs[name]
    assert generated == oracle
