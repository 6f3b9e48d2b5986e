from fractions import Fraction

import pytest

from erskit import quantum_torus
from erskit.ambient import DomainError
from erskit.base_system import simple_config
from erskit.presentation import RootSym
from erskit.quantum_torus import (
    HatElement,
    QLaurent,
    QRealization,
    form_q,
    hat_bracket,
    is_untwisted_a,
    qt_normalize,
    structure_suite,
    unit,
    verify_q,
)
from erskit.unfold import verify_pi


def test_qlaurent_arithmetic():
    q = QLaurent.q_power(1)
    one = QLaurent.of(1)
    assert q * QLaurent.q_power(-1) == one
    assert (q + one) * (q - one) == QLaurent.q_power(2) - one
    assert not (q - q)
    assert q.at(Fraction(3)) == 3
    assert (q + one).at(Fraction(1, 2)) == Fraction(3, 2)
    with pytest.raises(DomainError):
        q.at(Fraction(0))
    assert hash(q * one) == hash(q)


def test_qt_normalize_reordering():
    # t^a s^b = q^{ab} s^b t^a
    x1, x2, c = qt_normalize([("t", 2), ("s", 3)])
    assert (x1, x2) == (3, 2)
    assert c == QLaurent.q_power(6)
    x1, x2, c = qt_normalize([("s", 1), ("t", -1), ("s", 2)])
    assert (x1, x2) == (3, -1)
    assert c == QLaurent.q_power(-2)
    with pytest.raises(DomainError):
        qt_normalize([("u", 1)])


def test_bracket_with_central_charge():
    # [s E_12, s^-1 E_21] = E_11 - E_22 + c_1
    x = unit(3, 1, 0, 1, 2)
    y = unit(3, -1, 0, 2, 1)
    out = hat_bracket(x, y)
    assert out.mat == {
        (0, 0, 1, 1): QLaurent.of(1),
        (0, 0, 2, 2): QLaurent.of(-1),
    }
    assert out.c1 == QLaurent.of(1)
    assert not out.c2


def test_derivation_grading():
    d1 = HatElement(3)
    d1.d1 = QLaurent.of(1)
    e = unit(3, 2, -1, 1, 3)
    out = hat_bracket(d1, e)
    assert out.mat == {(2, -1, 1, 3): QLaurent.of(2)}
    assert form_q(d1, hat_bracket(e, unit(3, -2, 1, 3, 1))) != QLaurent()


def test_structure_suite_passes():
    rep = structure_suite()
    assert rep.passed, rep.failures()


def _drop_cocycle(out):
    out.c1 = out.c2 = QLaurent()


def _double_cocycle(out):
    out.c1, out.c2 = out.c1 * 2, out.c2 * 2


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
    assert "form-invariance" in [lbl for lbl, _ in rep.failures()]


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


def test_dropped_q_factor_breaks_qsr7():
    # the E_{-a0*} image carries an explicit q factor; dropping it must
    # break the q-modified relation formally while still holding at q = 1
    cfg = simple_config("A2(1)")
    real = QRealization(cfg)
    l = real.l
    real._images["E:-a0*"] = unit(real.size, -1, -1, 1, l + 1)
    lhs = hat_bracket(
        real.image("E:-a0*"), real.image(RootSym(l, False, -1).ident)
    ).scaled(QLaurent.q_power(-1))
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
    assert any(lbl.startswith("grading[h:a0,") for lbl, _ in rep.failures())


def test_rank_three_formal_check():
    rep = verify_q(simple_config("A3(1)"))
    assert rep.passed, rep.failures()
