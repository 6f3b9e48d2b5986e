"""Self-test of the benchmark's checks: each accepts a right answer and
rejects a wrong one.

Run from the root of a checkout:

    python3 perfbench/selftest.py

The right answers come from erskit on small inputs (A2(1) and D3(2) at
small windows); the wrong ones are the same outputs with one thing changed:
a count off by one, a root dropped, a valid config passed off as a mutant,
a zero image, a wrong eigenvalue, a relation passed off as a control, a
flipped report entry.  Exits 0 when every case behaves, 1 otherwise.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from erskit import classify, presentation, quantum_torus, roots, unfold  # noqa: E402
from erskit.base_system import validate_qebs  # noqa: E402
from erskit.cyclo import Cyc  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(case: str, problems: list[str], reject: bool) -> None:
    ok = bool(problems) == reject
    RESULTS.append((case, ok))
    verdict = "rejects" if problems else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {case}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def lattice_cases():
    win = roots.RootWindow(3, 3, 2)
    cfg = workloads.build(("A2(1)", "A2(1)", None, None))
    rs = roots.generate(cfg, win)
    inner = set(rs.inner)
    oracle = roots.reflection_closure_oracle(cfg, win)
    expect("oracle, same set", checks.check_oracle("A2(1)", inner, oracle), False)
    dropped = set(inner)
    dropped.discard(next(iter(sorted(inner))))
    expect("oracle, one root dropped",
           checks.check_oracle("A2(1)", dropped, oracle), True)

    n_fin = checks.weyl_orbit_root_count(checks.finite_cartan("A", 2))
    expect("untwisted count", checks.check_untwisted_count(
        "A2(1)", len(inner), n_fin, win.M, win.N), False)
    expect("untwisted count off by one", checks.check_untwisted_count(
        "A2(1)", len(inner) + 1, n_fin, win.M, win.N), True)
    expect("E8 count 240*13*13", checks.check_untwisted_count(
        "E8(1)", 40560, checks.weyl_orbit_root_count(
            checks.finite_cartan("E", 8)), 6, 6), False)
    expect("Weyl walk on E8", checks.check_finite_count(
        "E8(1)", checks.weyl_orbit_root_count(checks.finite_cartan("E", 8)),
        "E", 8), False)
    # a B2 matrix walked in place of A2 finds 8 roots, not 6
    expect("Weyl walk on a wrong matrix", checks.check_finite_count(
        "A2(1)", checks.weyl_orbit_root_count([[2, -1], [-2, 2]]), "A", 2), True)

    mutant = workloads.build(workloads.MUTANTS[0], validate=False)
    rep = roots.check_ebs(roots.generate(mutant, win, validate=False))
    expect("mutant fails", checks.check_mutant(
        "mutant", validate_qebs(mutant).passed, rep.passed,
        [e.witness for e in rep.failures()]), False)
    expect("closure check on a mutant",
           checks.check_closure_passes("mutant", rep.passed, rep.failures()), True)
    good = roots.check_ebs(rs)
    expect("valid config passed off as a mutant", checks.check_mutant(
        "A2(1)", validate_qebs(cfg).passed, good.passed,
        [e.witness for e in good.failures()]), True)

    k, g, *row = checks.RANK1_TABLE[2]
    d3 = workloads.build(("D3(2)", "D3(2)", k, g))
    rec = classify.classify_rank1(d3, 0)
    got = (rec.case, rec.name, rec.data["p"])
    expect("rank-1 row", checks.check_rank1("iii", got, tuple(row)), False)
    expect("rank-1 row, wrong case",
           checks.check_rank1("iii", ("ii",) + got[1:], tuple(row)), True)
    (t, k, g), pair, case, y = checks.RANK2_TABLE[1]
    d3 = workloads.build(("D3(2)", t, k, g))
    rs6 = roots.generate(d3, workloads.LATTICE_WINDOW)
    rec = classify.classify_rank2(d3, *pair, rs6)
    gamma = tuple(rec.data["gamma"])
    expect("rank-2 row", checks.check_rank2(
        "ii", (rec.case, rec.name), (case, y), gamma, rs6.member(gamma),
        pair, d3.nodes), False)
    bad = gamma[:-1] + (gamma[-1] - 1,)
    expect("rank-2 row, gamma shifted off the roots", checks.check_rank2(
        "ii", (rec.case, rec.name), (case, y), bad, rs6.member(bad),
        pair, d3.nodes), True)
    expect("twist not bijective",
           checks.check_twist({"bijective": False, "window": [6, 6]}, 6, 6), True)
    plain = classify.ears_data(d3, workloads.LATTICE_WINDOW)
    marked = classify.ears_data(
        workloads.build(workloads.D3_ODD), workloads.LATTICE_WINDOW)
    expect("ears quadruples", checks.check_ears(plain, marked), False)
    expect("ears quadruples swapped", checks.check_ears(marked, plain), True)


def witness_cases():
    cfg = workloads.build(workloads.D3_Z)
    rs = roots.generate(cfg, roots.RootWindow(2, 2))
    words = unfold.witness_words(cfg, rs)
    real = unfold.Realization(cfg, unfold.witness_height(cfg, rs, words))
    vectors = [unfold.root_to_ambient(cfg, c) for c, _ in rs.sorted_roots()]
    images = unfold.transport_images(real, words, targets=vectors)
    witnessed = [v for v in vectors if v in images]
    expect("images nonzero", checks.check_nonzero("D3(2)", images, vectors), False)
    zeroed = dict(images)
    zeroed[witnessed[0]] = unfold.loop_zero(real.alg)
    expect("one zero image", checks.check_nonzero("D3(2)", zeroed, vectors), True)

    sp = cfg.space
    h_images = [(lab, real.image(f"h:{lab}")) for lab in sp.basis_labels()]
    lam, other = witnessed[0], witnessed[-1]

    def eigen(vec, image):
        pairings = [sp.j(sp.basis_vector(x), vec) for x in range(sp.dim)]
        return checks.check_eigenvector("D3(2)", vec, image, h_images, pairings,
                                        unfold.loop_bracket, Cyc.from_rational)

    expect("eigenvector", eigen(lam, images[lam]), False)
    expect("eigenvalue of another root", eigen(other, images[lam]), True)
    mixed = images[lam].plus(images[other])
    expect("sum of two root vectors", eigen(lam, mixed), True)

    dims = [unfold.loop_weight_dim(real, v) for v in vectors]
    expect("real multiplicity one",
           checks.check_real_multiplicity("D3(2)", dims, vectors), False)
    expect("a weight space of dimension 2",
           checks.check_real_multiplicity("D3(2)", [2] + dims[1:], vectors), True)


def relations_cases():
    cfg = workloads.build(("D3(2)", "D3(2)", None, None))
    rels = presentation.emit_sr(cfg)
    real = unfold.Realization(cfg, unfold.required_height(cfg, rels))
    labels = [lbl for lbl, _ in rels.label_words]
    zero = [real.evaluate_word(w).is_zero() for _, w in rels.label_words]
    expect("relations vanish", checks.check_words_vanish("D3(2)", labels, zero), False)
    # one monomial of one SR7 relation with its sign flipped
    at = next(n for n, lbl in enumerate(labels) if lbl.startswith("SR7"))
    word = rels.label_words[at][1]
    flipped = presentation.LieWord(
        [(-c if m == 0 else c, t) for m, (c, t) in enumerate(word.monomials)],
        word.parity)
    zero_bad = list(zero)
    zero_bad[at] = real.evaluate_word(flipped).is_zero()
    expect("a relation with one sign flipped",
           checks.check_words_vanish("D3(2)", labels, zero_bad), True)

    controls = [(name, real.evaluate_word(w).is_zero())
                for name, w in workloads.control_words(cfg)]
    expect("controls nonzero", checks.check_controls("D3(2)", controls), False)
    serre = next(w for lbl, w in rels.label_words if lbl.startswith("SR6"))
    fake = controls + [("a Serre relation", real.evaluate_word(serre).is_zero())]
    expect("a relation passed off as a control",
           checks.check_controls("D3(2)", fake), True)
    expect("no controls", checks.check_controls("D3(2)", []), True)

    rep, _ = unfold.verify_pi(cfg)
    result = {"status": "ok", **rep.to_dict()}
    expect("verify-pi report", checks.check_pi_report("d32.json", result), False)
    broken = json.loads(json.dumps(result))
    for entry in broken["checks"]:
        if entry["label"] == "PD2":
            entry["ok"] = False
    expect("verify-pi report with PD2 failing",
           checks.check_pi_report("d32.json", broken), True)
    broken["checks"] = [e for e in result["checks"] if e["label"] != "PD3"]
    expect("verify-pi report without PD3",
           checks.check_pi_report("d32.json", broken), True)

    a21 = workloads.build(("A2(1)", "A2(1)", None, None))
    at_one = quantum_torus.verify_q(a21, q_numeric=Fraction(1))
    pi_rep, _ = unfold.verify_pi(a21)
    pi = {lbl: ok for lbl, ok, _ in pi_rep.entries if lbl.startswith("SR")}
    expect("q = 1 agrees with verify_pi", checks.check_q_agrees(
        at_one.entries, pi), False)
    lbl = next(lbl for lbl in pi if any(e[0] == lbl for e in at_one.entries))
    expect("q = 1 disagrees on one relation", checks.check_q_agrees(
        at_one.entries, {**pi, lbl: False}), True)
    expect("CLI bytes identical", checks.check_reports_identical(["a", "a"]), False)
    expect("CLI bytes differ", checks.check_reports_identical(["a", "b"]), True)


def main() -> int:
    for group in (lattice_cases, witness_cases, relations_cases):
        group()
    bad = [case for case, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
