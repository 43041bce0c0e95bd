import pytest

from _helpers import make_rng, random_premise_script
from blamelogic.errors import InvalidScriptError, PhiNotPremiseError
from blamelogic.hilbert import (
    MP,
    Nec,
    Premise,
    ProofLine,
    ProofScript,
    Taut,
    check_proof,
    deduction_transform,
)
from blamelogic.syntax import MAX_DEPTH, MAX_NODE_DEPTH, Implies, Knows, Var, parse_formula

p, q = Var("p"), Var("q")
a = frozenset({"a"})


def test_discharges_modus_ponens_case():
    script = ProofScript(
        (p, Implies(p, q)),
        (
            ProofLine(1, p, Premise()),
            ProofLine(2, Implies(p, q), Premise()),
            ProofLine(3, q, MP(1, 2)),
        ),
        q,
    )
    out = deduction_transform(script, p)
    assert out.premises == (Implies(p, q),)
    assert out.goal == Implies(p, q)
    assert out.lines[-1].formula == Implies(p, q)
    assert check_proof(out).valid


def test_discharging_phi_itself_gives_identity_tautology():
    script = ProofScript((p,), (ProofLine(1, p, Premise()),), p)
    out = deduction_transform(script, p)
    assert out.premises == ()
    assert out.goal == Implies(p, p)
    assert len(out.lines) == 1
    assert check_proof(out).valid


def test_keeps_theorem_necessitation_sublines():
    taut = Implies(q, q)
    script = ProofScript(
        (p,),
        (
            ProofLine(1, taut, Taut()),
            ProofLine(2, Knows(a, taut), Nec(1, a)),
            ProofLine(3, p, Premise()),
        ),
        p,
    )
    out = deduction_transform(script, p)
    report = check_proof(out)
    assert report.valid
    assert out.goal == Implies(p, p)
    assert any(isinstance(line.justification, Nec) for line in out.lines)


def test_phi_must_be_a_premise():
    script = ProofScript((p,), (ProofLine(1, p, Premise()),), p)
    with pytest.raises(PhiNotPremiseError):
        deduction_transform(script, q)


def test_invalid_input_rejected():
    script = ProofScript((), (ProofLine(1, p, Premise()),), p)
    with pytest.raises(InvalidScriptError):
        deduction_transform(script, p)


def test_random_scripts_transform_correctly():
    rng = make_rng(20240)
    for _ in range(30):
        script, phi = random_premise_script(rng)
        out = deduction_transform(script, phi)
        report = check_proof(out)
        assert report.valid, (report.error_line, report.reason)
        assert out.goal == Implies(phi, script.goal)
        assert out.lines[-1].formula == out.goal
        assert len(out.lines) <= 3 * len(script.lines) + 1
        assert phi not in out.premises


def test_transform_is_idempotent_on_remaining_premises():
    rng = make_rng(5)
    script, phi = random_premise_script(rng)
    out = deduction_transform(script, phi)
    if out.premises:
        again = deduction_transform(out, out.premises[0])
        assert check_proof(again).valid


def test_discharges_a_premise_at_the_parser_depth_limit():
    # the weakening and distribution tautologies wrap the deepest line that
    # parses in three more levels, which the constructors must accept
    lhs = parse_formula("K{a}" * (MAX_DEPTH - 2) + "p")
    rhs = parse_formula("K{b}" * (MAX_DEPTH - 2) + "q")
    phi = Implies(lhs, rhs)
    assert phi is parse_formula(f"({'K{a}' * (MAX_DEPTH - 2)}p) -> {'K{b}' * (MAX_DEPTH - 2)}q")
    script = ProofScript(
        (lhs, phi),
        (
            ProofLine(1, lhs, Premise()),
            ProofLine(2, phi, Premise()),
            ProofLine(3, rhs, MP(1, 2)),
        ),
        rhs,
    )
    out = deduction_transform(script, phi)
    assert check_proof(out).valid
    deepest = max(line.formula.depth for line in out.lines)
    assert MAX_DEPTH < deepest <= MAX_NODE_DEPTH
