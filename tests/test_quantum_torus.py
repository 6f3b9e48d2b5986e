from fractions import Fraction

import pytest

from erskit import quantum_torus
from erskit.ambient import DomainError
from erskit.base_system import simple_config
from erskit.exact import acc, solve
from erskit.presentation import RootSym, b_all, emit_sr
from erskit.quantum_torus import (
    HatElement,
    QRealization,
    form_q,
    hat_bracket,
    is_untwisted_a,
    structure_suite,
    unit,
    verify_q,
)
from erskit.unfold import verify_pi


def test_hat_element_q_arithmetic():
    # q^1 s E_12 + q^-1 s E_12 - 2 s E_12, with c1 = q^1
    x = unit(3, 1, 0, 1, 2).scaled(1, 1)
    x.c1 = {1: 1}
    assert x.mat == {(1, 0, 1, 2, 1): 1}
    y = x.plus(unit(3, 1, 0, 1, 2, -1)).plus(unit(3, 1, 0, 1, 2).scaled(-2))
    assert y.mat == {(1, 0, 1, 2, 1): 1, (1, 0, 1, 2, -1): 1, (1, 0, 1, 2, 0): -2}
    assert y.scaled(Fraction(1, 2), -1).mat == {
        (1, 0, 1, 2, 0): Fraction(1, 2),
        (1, 0, 1, 2, -2): Fraction(1, 2),
        (1, 0, 1, 2, -1): -1,
    }
    # q + 1/q - 2 is 4/3 at q = 3, 1/2 at q = 1/2, and 0 at q = 1
    assert y.specialize(Fraction(3)).mat == {(1, 0, 1, 2, 0): Fraction(4, 3)}
    assert y.specialize(Fraction(3)).c1 == {0: 3}
    assert y.specialize(Fraction(1, 2)).mat == {(1, 0, 1, 2, 0): Fraction(1, 2)}
    assert y.specialize(Fraction(1)).mat == {}
    assert x.plus(x.scaled(-1)).is_zero()
    assert not x.plus(x.scaled(-1, 1)).is_zero()
    with pytest.raises(DomainError):
        x.specialize(Fraction(0))


def test_bracket_with_central_charge():
    # [s E_12, s^-1 E_21] = E_11 - E_22 + c_1
    x = unit(3, 1, 0, 1, 2)
    y = unit(3, -1, 0, 2, 1)
    out = hat_bracket(x, y)
    assert out.mat == {
        (0, 0, 1, 1, 0): 1,
        (0, 0, 2, 2, 0): -1,
    }
    assert out.c1 == {0: 1}
    assert not out.c2


def test_derivation_grading():
    d1 = HatElement(3, d1={0: 1})
    e = unit(3, 2, -1, 1, 3)
    out = hat_bracket(d1, e)
    assert out.mat == {(2, -1, 1, 3, 0): 2}
    assert form_q(d1, hat_bracket(e, unit(3, -2, 1, 3, 1))) != {}


def test_structure_suite_passes():
    rep = structure_suite()
    assert rep.passed, rep.failures()


def _drop_cocycle(out):
    out.c1, out.c2 = {}, {}


def _double_cocycle(out):
    out.c1 = {e: 2 * c for e, c in out.c1.items()}
    out.c2 = {e: 2 * c for e, c in out.c2.items()}


def _swap_cocycle(out):
    out.c1, out.c2 = out.c2, out.c1


@pytest.mark.parametrize("mutate", [_drop_cocycle, _double_cocycle, _swap_cocycle])
def test_structure_suite_catches_broken_cocycle(monkeypatch, mutate):
    real = quantum_torus.hat_bracket

    def broken(x, y):
        out = real(x, y)
        mutate(out)
        return out

    monkeypatch.setattr(quantum_torus, "hat_bracket", broken)
    rep = structure_suite()
    assert not rep.passed
    assert "form-invariance" in [e.label for e in rep.failures()]


def test_structure_suite_catches_a_non_derivation(monkeypatch):
    # d1 acting by x1 + 1 keeps the bracket antisymmetric, but is no
    # derivation: [d1, [x, y]] gains 1 where [[d1, x], y] + [x, [d1, y]]
    # gains 2, which the reduced Jacobi check must still see
    def broken(out, d1, d2, mat, sign):
        for axis, d in enumerate((d1, d2)):
            for g, c in d.items():
                acc(out, {(x1, x2, i, j, e + g): ((x1, x2)[axis] + 1 - axis) * v
                          for (x1, x2, i, j, e), v in mat.items()}, sign * c)

    monkeypatch.setattr(quantum_torus, "_derive", broken)
    rep = structure_suite()
    failed = [e.label for e in rep.failures()]
    assert "jacobi" in failed and "antisymmetry" not in failed


def test_untwisted_a_gate():
    assert is_untwisted_a(simple_config("A2(1)"))
    assert not is_untwisted_a(simple_config("D3(2)"))
    assert not is_untwisted_a(simple_config("A2(1)", g={0: "2Z+1"}))
    with pytest.raises(DomainError):
        QRealization(simple_config("D3(2)"))


def test_formal_and_specialized_agree_with_loop_verdict():
    cfg = simple_config("A2(1)")
    formal = verify_q(cfg)
    assert formal.passed, formal.failures()
    at_one = verify_q(cfg, q_numeric=Fraction(1))
    assert at_one.passed, at_one.failures()
    loop_rep, _ = verify_pi(cfg)
    assert loop_rep.passed == formal.passed == at_one.passed
    payload = formal.to_dict()
    assert payload["passed"]


@pytest.mark.parametrize("name", ["A2(1)", "A3(1)"])
def test_relation_labels_and_verdicts_match_loop_model(name):
    # verify_q checks emit_sr's relations minus the four SR6/SR7 instances
    # that couple a0 and al, which qSR6/qSR7 replace; at q = 1 each shared
    # relation has the loop model's verdict
    cfg = simple_config(name)
    l = cfg.space.n_nodes - 1
    sr = emit_sr(cfg).labels()
    kept = [lbl for lbl in sr if not quantum_torus._is_q_modified(cfg, lbl)]
    assert len(sr) - len(kept) == 4
    rep = verify_q(cfg, q_numeric=Fraction(1))
    labels = [e.label for e in rep.entries if not e.label.startswith("grading")]
    assert labels == kept + [f"qSR6[a0,a{l}]", f"qSR7[a0,a{l}]"]
    loop = {e.label: e.ok for e in verify_pi(cfg)[0].entries}
    assert set(kept) <= set(loop)
    assert [(e.label, e.ok) for e in rep.entries if e.label in loop] == [
        (lbl, loop[lbl]) for lbl in kept
    ]


@pytest.mark.parametrize("name", ["A2(1)", "A3(1)"])
def test_replaced_instances_reported_with_their_verdict(name):
    # the four SR6/SR7 instances that qSR6/qSR7 replace are substituted too
    # and reported by label in the `replaced` field, outside the checks: each
    # is nonzero at formal q and at q = 2/3, and zero at q = 1
    cfg = simple_config(name)
    four = [lbl for lbl in emit_sr(cfg).labels()
            if quantum_torus._is_q_modified(cfg, lbl)]
    assert len(four) == 4
    for q, holds in ((None, False), (Fraction(2, 3), False), (Fraction(1), True)):
        rep = verify_q(cfg, q_numeric=q)
        assert rep.passed, rep.failures()
        assert not {e.label for e in rep.entries} & set(four)
        assert [(r["label"], r["ok"], not r["witness"])
                for r in rep.to_dict()["replaced"]] == [
            (lbl, holds, holds) for lbl in four
        ]


def _leaves(tree):
    return [tree] if isinstance(tree, str) else _leaves(tree[0]) + _leaves(tree[1])


@pytest.mark.parametrize("name", ["A2(1)", "A3(1)"])
def test_no_rescaling_of_the_images_holds_sr6_sr7_at_formal_q(name):
    # E_mu -> q^(n_mu) E_mu multiplies a monomial by q to the sum of n over
    # its leaves, so an SR6/SR7 word can vanish at formal q only when both
    # monomials then reach the same power of q.  The q factor of the edge
    # (0, l) cannot be absorbed around the cycle of the diagram: no
    # rational n solves the system, while at q = 1 (every power 0) n = 0
    # does, and without the four q-modified instances some n does
    cfg = simple_config(name)
    real = QRealization(cfg)
    idents = [sym.ident for sym in b_all(cfg)]
    rows, rhs, modified = [], [], []
    for label, word in emit_sr(cfg).label_words:
        if not label.startswith(("SR6[", "SR7[")):
            continue
        row, diff = [0] * len(idents), 0
        assert len(word.monomials) == 2
        for (_, tree), side in zip(word.monomials, (1, -1)):
            value = real.evaluate(tree)
            powers = {key[4] for key in value.mat}
            assert len(powers) == 1 and not any(value.parts()[1:]), label
            diff += side * powers.pop()
            for leaf in _leaves(tree):
                row[idents.index(leaf)] += side
        rows.append(row)
        rhs.append(-diff)
        modified.append(quantum_torus._is_q_modified(cfg, label))
    assert modified.count(True) == 4
    assert solve(rows, rhs) is None
    assert solve(rows, [0] * len(rows)) == [0] * len(idents)
    kept = [n for n, m in enumerate(modified) if not m]
    assert solve([rows[n] for n in kept], [rhs[n] for n in kept]) is not None


def test_dropped_q_factor_breaks_qsr7():
    # the E_{-a0*} image carries an explicit q factor; dropping it must
    # break the q-modified relation formally while still holding at q = 1
    cfg = simple_config("A2(1)")
    real = QRealization(cfg)
    l = real.l
    real._images["E:-a0*"] = unit(real.size, -1, -1, 1, l + 1)
    lhs = hat_bracket(
        real.image("E:-a0*"), real.image(RootSym(l, False, -1).ident)
    ).scaled(1, -1)
    rhs = hat_bracket(
        real.image(RootSym(0, False, -1).ident),
        real.image(RootSym(l, True, -1).ident),
    )
    diff = lhs.plus(rhs.scaled(-1))
    assert not diff.is_zero()
    assert diff.specialize(Fraction(1)).is_zero()


def test_grading_entry_reports_mismatches(monkeypatch):
    # hand the grading loop the Cartan image of a1 where a0 is asked for
    image = QRealization.image
    monkeypatch.setattr(
        QRealization, "image",
        lambda self, ident: image(self, "h:a1" if ident == "h:a0" else ident),
    )
    rep = verify_q(simple_config("A2(1)"))
    entries = {lbl: ok for lbl, ok, _ in rep.entries}
    assert not entries["grading"]
    assert any(e.label.startswith("grading[h:a0,") for e in rep.failures())


def test_rank_three_formal_check():
    rep = verify_q(simple_config("A3(1)"))
    assert rep.passed, rep.failures()
