"""Two-phase decisions, obligations, explain traces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolegate import (
    AccessRequest,
    Action,
    Effect,
    Engine,
    ObligationPolicy,
    Permission,
    Reason,
)
from rolegate import directory as d
from rolegate.decision import evaluate, evaluate_obligations

from oracles import decision_oracle, random_directory, random_request


def req(subject, resource, action, context=None, request_id="fixed"):
    return AccessRequest(subject, resource, Action(action), context or {}, request_id)


class TestCheckAccess:
    def test_admin_user_can_write(self, engine):
        decision = engine.check_access(req("alice", "docs", "write"))
        assert decision.effect is Effect.PERMIT
        assert decision.reason is Reason.GRANTED
        assert decision.matched_role == "admin"

    def test_employee_cannot_write(self, engine):
        decision = engine.check_access(req("bob", "docs", "write"))
        assert decision.effect is Effect.DENY
        assert decision.reason is Reason.NO_MATCHING_PERMISSION
        assert decision.matched_role is None

    def test_unknown_subject_denied_not_error(self, engine):
        decision = engine.check_access(req("mallory", "docs", "read"))
        assert decision.effect is Effect.DENY
        assert decision.reason is Reason.UNKNOWN_SUBJECT

    def test_admin_inherits_employee_read(self, engine):
        decision = engine.check_access(req("alice", "docs", "read"))
        assert decision.effect is Effect.PERMIT

    def test_matched_role_is_lexicographic_minimum(self, clock):
        eng = Engine(clock=clock)
        eng.create_user("u")
        eng.create_role("zebra")
        eng.create_role("aardvark")
        perm = Permission("docs", Action.READ)
        eng.grant_permission("zebra", perm)
        eng.grant_permission("aardvark", perm)
        eng.assign_role("u", "zebra")
        eng.assign_role("u", "aardvark")
        decision = eng.check_access(req("u", "docs", "read"))
        assert decision.matched_role == "aardvark"

    def test_deny_by_default_on_empty_state(self, clock):
        eng = Engine(clock=clock)
        decision = eng.check_access(req("anyone", "anything", "read"))
        assert decision.effect is Effect.DENY

    def test_determinism_modulo_request_id(self, engine):
        a = engine.check_access(req("alice", "docs", "write", request_id="one"))
        b = engine.check_access(req("alice", "docs", "write", request_id="two"))
        assert a == b  # Decision carries no correlation metadata

    def test_permit_implies_matched_role_and_granted(self, engine):
        decision = engine.check_access(req("alice", "docs", "read"))
        assert decision.effect is Effect.PERMIT
        assert decision.reason is Reason.GRANTED
        assert decision.matched_role is not None

    def test_total_over_garbage_resources(self, engine):
        # untrusted input can never crash a check, only deny
        for resource in ("", "has space", "naïve\tresource", "x" * 500):
            decision = engine.check_access(
                AccessRequest("alice", resource, Action.READ, {}, "fixed")
            )
            assert decision.effect is Effect.DENY
            assert decision.reason is Reason.NO_MATCHING_PERMISSION


class TestObligations:
    def _engine_with(self, engine, **overrides):
        policy = ObligationPolicy(
            id=overrides.get("id", "log-download"),
            modality=overrides.get("modality", "must"),
            action_token=overrides.get("action_token", "write-audit-line"),
            applies_to=frozenset(overrides.get("applies_to", {"employee"})),
            condition=overrides.get("condition", {"channel": "external"}),
        )
        engine.set_obligations([policy])
        return engine, policy

    def test_must_obligation_attached_on_condition_match(self, engine):
        engine, policy = self._engine_with(engine)
        decision = engine.check_access(
            req("bob", "docs", "read", context={"channel": "external"})
        )
        assert decision.effect is Effect.PERMIT
        assert [o.policy_id for o in decision.obligations] == ["log-download"]
        assert decision.obligations[0].action_token == "write-audit-line"

    def test_condition_mismatch_attaches_nothing(self, engine):
        engine, _ = self._engine_with(engine)
        decision = engine.check_access(
            req("bob", "docs", "read", context={"channel": "internal"})
        )
        assert decision.effect is Effect.PERMIT
        assert decision.obligations == ()

    def test_missing_context_key_means_condition_false(self, engine):
        engine, _ = self._engine_with(engine)
        decision = engine.check_access(req("bob", "docs", "read"))
        assert decision.obligations == ()

    def test_must_not_blocks_with_obligation_blocked(self, engine):
        engine, _ = self._engine_with(
            engine, id="off-hours-write", modality="must-not", condition={"hours": "off"}
        )
        decision = engine.check_access(
            req("bob", "docs", "read", context={"hours": "off"})
        )
        assert decision.effect is Effect.DENY
        assert decision.reason is Reason.OBLIGATION_BLOCKED
        assert [o.policy_id for o in decision.obligations] == ["off-hours-write"]

    def test_empty_condition_always_applies(self, engine):
        engine, _ = self._engine_with(engine, condition={})
        decision = engine.check_access(req("bob", "docs", "read"))
        assert [o.policy_id for o in decision.obligations] == ["log-download"]

    def test_applies_to_respects_effective_roles(self, engine):
        # policy on employee also hits alice, who holds admin -> employee
        engine, _ = self._engine_with(engine, condition={})
        decision = engine.check_access(req("alice", "docs", "write"))
        assert [o.policy_id for o in decision.obligations] == ["log-download"]

    def test_unknown_role_rejected_on_install(self, engine):
        policy = ObligationPolicy(
            id="p", modality="must", action_token="x", applies_to=frozenset({"ghost"})
        )
        with pytest.raises(d.UnknownRole):
            engine.set_obligations([policy])


class TestEvaluateObligations:
    def _policy(self, **kw):
        return ObligationPolicy(
            id=kw.get("id", "p1"),
            modality=kw.get("modality", "must"),
            action_token="act",
            applies_to=frozenset(kw.get("applies_to", {"r1"})),
            condition=kw.get("condition", {}),
        )

    def test_split_by_modality(self):
        p1 = self._policy(id="a", modality="must")
        p2 = self._policy(id="b", modality="must-not")
        blocking, attached = evaluate_obligations([p1, p2], frozenset({"r1"}), {})
        assert [p.id for p in blocking] == ["b"]
        assert [p.id for p in attached] == ["a"]

    def test_role_intersection_required(self):
        p = self._policy(applies_to={"other"})
        blocking, attached = evaluate_obligations([p], frozenset({"r1"}), {})
        assert blocking == [] and attached == []

    def test_condition_conjunction(self):
        p = self._policy(condition={"a": "1", "b": "2"})
        ok = evaluate_obligations([p], frozenset({"r1"}), {"a": "1", "b": "2"})
        partial = evaluate_obligations([p], frozenset({"r1"}), {"a": "1"})
        assert [x.id for x in ok[1]] == ["p1"]
        assert partial == ([], [])

    def test_output_sorted_by_policy_id(self):
        policies = [self._policy(id=i) for i in ("zz", "aa", "mm")]
        _, attached = evaluate_obligations(policies, frozenset({"r1"}), {})
        assert [p.id for p in attached] == ["aa", "mm", "zz"]


class TestExplain:
    def test_same_decision_as_check(self, engine):
        request = req("alice", "docs", "write")
        explained, _ = engine.explain(request)
        checked = engine.check_access(request)
        assert explained == checked

    def test_permit_trace_ends_with_granting_role(self, engine):
        decision, trace = engine.explain(req("alice", "docs", "write"))
        assert decision.effect is Effect.PERMIT
        assert trace[-1].phase == "decision"
        assert trace[-1].item == decision.matched_role

    def test_deny_trace_enumerates_every_role(self, engine):
        decision, trace = engine.explain(req("alice", "docs", "delete"))
        assert decision.effect is Effect.DENY
        role_steps = [s for s in trace if s.phase == "role"]
        assert len(role_steps) == len(d.effective_roles(engine.state, "alice")) == 2

    def test_explain_is_dry_run(self, engine):
        engine.add_restriction(
            d.RestrictionPolicy(
                id="lim", scope="per-user", max_transactions=1, window_seconds=60
            )
        )
        first, _ = engine.explain(req("alice", "docs", "write"))
        second, _ = engine.explain(req("alice", "docs", "write"))
        assert first == second
        assert engine.monitor.cut()[0] == []  # no counters were consumed
        assert engine.monitor.audit_size() == 0

    def test_trace_includes_obligation_steps(self, engine):
        engine.set_obligations(
            [
                ObligationPolicy(
                    id="log-it",
                    modality="must",
                    action_token="log",
                    applies_to=frozenset({"employee"}),
                )
            ]
        )
        _, trace = engine.explain(req("bob", "docs", "read"))
        assert any(s.phase == "obligation" and s.item == "log-it" and s.outcome == "attaches" for s in trace)

    def test_explain_reports_quota_exhaustion(self, engine):
        engine.add_restriction(
            d.RestrictionPolicy(
                id="lim", scope="per-user", max_transactions=1, window_seconds=60
            )
        )
        decision, trace = engine.explain(req("alice", "docs", "write"))
        assert decision.effect is Effect.PERMIT
        assert ("quota", "", "admit") in [(s.phase, s.item, s.outcome) for s in trace]
        assert engine.monitor.cut()[0] == []  # admitting moved no counter
        assert engine.check_access(req("alice", "docs", "write")).effect is Effect.PERMIT
        counters = engine.monitor.cut()[0]
        decision, trace = engine.explain(req("alice", "docs", "write"))
        assert decision.reason is Reason.QUOTA_EXCEEDED
        assert ("quota", "lim", "exhausted") in [(s.phase, s.item, s.outcome) for s in trace]
        assert engine.monitor.cut()[0] == counters
        assert engine.monitor.pending_anomalies() == []  # exhausting emitted no event


    def test_full_trace_golden(self, engine):
        engine.add_restriction(
            d.RestrictionPolicy(
                id="lim", scope="per-user", max_transactions=5, window_seconds=60
            )
        )
        engine.set_obligations(
            [
                ObligationPolicy(
                    id="log-it",
                    modality="must",
                    action_token="log",
                    applies_to=frozenset({"employee"}),
                )
            ]
        )
        decision, trace = engine.explain(req("alice", "docs", "read"))
        assert decision.matched_role == "admin"
        assert [(s.phase, s.item, s.outcome) for s in trace] == [
            ("subject", "alice", "found"),
            ("role", "admin", "grants"),
            ("role", "employee", "grants"),
            ("obligation", "log-it", "attaches"),
            ("quota", "", "admit"),
            ("decision", "admin", "permit"),
        ]
        _, trace = engine.explain(req("ghost", "docs", "read"))
        assert [(s.phase, s.item, s.outcome) for s in trace] == [
            ("subject", "ghost", "unknown"),
            ("decision", "", "deny"),
        ]

    def test_check_access_builds_no_trace_steps(self, engine, monkeypatch):
        import rolegate.decision as decision_module

        built = []
        real = decision_module.TraceStep

        def counting_step(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(decision_module, "TraceStep", counting_step)
        for subject, action in (("alice", "write"), ("bob", "write"), ("ghost", "read")):
            engine.check_access(req(subject, "docs", action))
        assert built == []
        engine.explain(req("alice", "docs", "write"))
        assert built  # the same evaluation builds the steps when asked to


class TestTwoPhaseDecomposition:
    def test_permit_reverifiable_from_decision_alone(self, engine):
        decision = engine.check_access(req("alice", "docs", "write"))
        assert decision.matched_role in d.effective_roles(engine.state, "alice")
        assert Permission("docs", Action.WRITE) in d.effective_permissions(
            engine.state, decision.matched_role
        )


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_effect_matches_bruteforce_oracle(seed):
    rng = random.Random(seed)
    state = random_directory(rng)
    for _ in range(10):
        subject, resource, action = random_request(rng, state)
        expected_effect, granting = decision_oracle(state, subject, resource, action)
        ev = evaluate(state, AccessRequest(subject, resource, Action(action)))
        assert ev.effect.value == expected_effect
        if granting:
            # the engine must pick the minimum of the oracle's granting set
            assert ev.matched_role == min(granting)
