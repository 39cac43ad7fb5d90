import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomap import gateway as gw

import fsm_oracle


SMT = "gw-smt"
HMT = "gw-hmt"


def fresh():
    state, actions = gw.init(SMT, HMT)
    assert actions == []
    return state


def msg(publisher, seq=0):
    return gw.Message(publisher_id=publisher, seq=seq, topic="t", size_bytes=1024)


# The full event alphabet used for exhaustive exploration.  CancelResult
# carrying an HMT-side id never occurs in practice but must still agree.
def all_events():
    return [
        gw.BufferLocation(),
        gw.DelegateResponse(msg("peer-smt", 1)),
        gw.DelegateResponse(msg(SMT, 2)),
        gw.HmtArrival(msg("peer-hmt", 3)),
        gw.HmtArrival(msg(HMT, 4)),
        gw.CancelResult(None),
        gw.CancelResult(msg("peer-smt", 5)),
        gw.CancelResult(msg(SMT, 6)),
        gw.CancelResult(msg(HMT, 7)),
        gw.DelegateResponse(msg(HMT, 8)),
        gw.HmtArrival(msg(SMT, 9)),
    ]


class TestInit:
    def test_initial_state(self):
        state = fresh()
        assert state.phase is gw.Phase.AWAIT_BUFFER
        assert state.held is None
        assert state.outstanding_request is False
        assert state.own_smt_id == SMT
        assert state.own_hmt_id == HMT

    def test_message_id(self):
        assert msg("pub", 17).message_id == "t#17"


class TestMessageValue:
    """A message is a value: ``message_id`` derives from its fields and is no field of its own."""

    def test_id_is_no_constructor_parameter(self):
        with pytest.raises(TypeError):
            gw.Message("a", 1, "t", 5, "a/1")
        with pytest.raises(TypeError):
            gw.Message(publisher_id="a", seq=1, topic="t", size_bytes=5, message_id="x")

    def test_equal_messages_hash_equal(self):
        a, b = gw.Message("a", 1, "t", 5), gw.Message("a", 1, "t", 5)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != gw.Message("a", 2, "t", 5)
        assert len({a, b, gw.Message("a", 2, "t", 5)}) == 2

    def test_repr_shows_the_constructor_fields(self):
        assert repr(gw.Message("a", 1, "t", 5)) == "Message(publisher_id='a', seq=1, topic='t', size_bytes=5)"

    @pytest.mark.parametrize("name", ["publisher_id", "seq", "message_id"])
    def test_attributes_cannot_be_assigned(self, name):
        m = gw.Message("a", 1, "t", 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, "b/2")
        assert m.message_id == "t#1"

    def test_publish_time_is_keyword_only_and_no_part_of_the_value(self):
        m = gw.Message("a", 1, "t", 5, t_pub_ns=7)
        assert m.t_pub_ns == 7 and gw.Message("a", 1, "t", 5).t_pub_ns == 0
        assert m == gw.Message("a", 1, "t", 5) and hash(m) == hash(gw.Message("a", 1, "t", 5))
        assert repr(m) == "Message(publisher_id='a', seq=1, topic='t', size_bytes=5)"


ids = st.text(max_size=6)
seqs = st.integers(min_value=0, max_value=2**40)
messages = st.builds(
    lambda publisher, seq, topic, size, t_pub_ns: gw.Message(publisher, seq, topic, size, t_pub_ns=t_pub_ns),
    ids,
    seqs,
    ids,
    st.integers(min_value=1, max_value=2**53 - 1),
    st.integers(min_value=0, max_value=2**62),
)

# the events and actions that carry one message, and those that carry nothing
CARRIERS = (
    gw.DelegateResponse, gw.HmtArrival, gw.CancelResult, gw.TransferToHmt, gw.TransferToMain, gw.PublishSmt, gw.Discard
)
EMPTY = (gw.BufferLocation, gw.RequestSmtMessage, gw.CancelSmtRequest)


def as_dataclass(obj):
    """The ``repr`` and hash a dataclass states from ``obj``'s fields."""
    fields = dataclasses.fields(obj)
    shown = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in fields if f.repr)
    return f"{type(obj).__name__}({shown})", hash(tuple(getattr(obj, f.name) for f in fields if f.compare))


def assert_frozen(obj, names):
    for name in (*names, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


class TestProtocolValues:
    """The protocol objects skip the generated ``__init__`` but keep the dataclass's value semantics."""

    def test_fields_are_the_dataclass_fields(self):
        def columns(cls):
            return [(f.name, f.init, f.repr, f.compare, f.kw_only) for f in dataclasses.fields(cls)]

        assert columns(gw.Message) == [
            ("publisher_id", True, True, True, False),
            ("seq", True, True, True, False),
            ("topic", True, True, True, False),
            ("size_bytes", True, True, True, False),
            ("t_pub_ns", True, False, False, True),
            ("message_id", False, False, False, False),
        ]
        assert columns(gw.GatewayState) == [
            (name, True, True, True, False) for name in ("own_smt_id", "own_hmt_id", "phase", "held")
        ]
        for cls in CARRIERS:
            assert columns(cls) == [("message", True, True, True, False)], cls
        for cls in EMPTY:
            assert columns(cls) == [], cls

    @settings(deadline=None)
    @given(messages, ids)
    def test_loop_back_copy_is_replace(self, m, own):
        copy, ref = m.loop_back(own), dataclasses.replace(m, publisher_id=own)
        assert copy == ref and hash(copy) == hash(ref) and repr(copy) == repr(ref) == as_dataclass(ref)[0]
        assert copy.publisher_id == own and vars(copy) == vars(ref)
        assert (copy.message_id, copy.t_pub_ns) == (ref.message_id, ref.t_pub_ns) == (m.message_id, m.t_pub_ns)
        assert_frozen(copy, ("publisher_id", "seq", "message_id", "t_pub_ns"))

    @settings(deadline=None)
    @given(ids, ids, st.sampled_from(list(gw.Phase)), st.none() | messages)
    def test_gateway_state_keeps_dataclass_semantics(self, smt, hmt, phase, held):
        state = gw.GatewayState(smt, hmt, phase, held)
        assert (state.own_smt_id, state.own_hmt_id, state.phase, state.held) == (smt, hmt, phase, held)
        twin = gw.GatewayState(own_smt_id=smt, own_hmt_id=hmt, phase=phase, held=held)
        assert twin == state and hash(twin) == hash(state)
        assert (repr(state), hash(state)) == as_dataclass(state)
        assert state != dataclasses.replace(state, own_hmt_id=hmt + "x")
        assert gw.GatewayState(smt, hmt) == gw.GatewayState(smt, hmt, gw.Phase.AWAIT_BUFFER, None)
        assert_frozen(state, ("own_smt_id", "own_hmt_id", "phase", "held"))

    @settings(deadline=None)
    @given(messages)
    def test_events_and_actions_keep_dataclass_semantics(self, m):
        for cls in CARRIERS:
            obj = cls(m)
            assert obj.message is m and cls(message=m) == obj == cls(dataclasses.replace(m))
            assert (repr(obj), hash(obj)) == as_dataclass(obj)
            assert repr(obj) == f"{cls.__name__}(message={m!r})"
            assert obj != cls(m.loop_back(m.publisher_id + "x"))
            assert all(obj != other(m) for other in CARRIERS if other is not cls)
            assert_frozen(obj, ("message",))
        assert gw.CancelResult() == gw.CancelResult(None)
        for cls in EMPTY:
            obj = cls()
            assert obj == cls() and (repr(obj), hash(obj)) == as_dataclass(obj) == (f"{cls.__name__}()", hash(()))
            assert_frozen(obj, ())

    @pytest.mark.parametrize("cls", [c for c in CARRIERS if c is not gw.CancelResult])
    def test_a_carried_message_is_required(self, cls):
        with pytest.raises(TypeError):
            cls()


class TestLegalSteps:
    def polling(self):
        state, actions = gw.step(fresh(), gw.BufferLocation())
        return state, actions

    def cancelling(self):
        state, _ = self.polling()
        return gw.step(state, gw.HmtArrival(msg("peer-hmt", 9)))

    def test_buffer_location_starts_polling(self):
        state, actions = self.polling()
        assert state.phase is gw.Phase.POLLING
        assert state.outstanding_request is True
        assert actions == [gw.RequestSmtMessage()]

    def test_delegate_response_forwarded(self):
        state, _ = self.polling()
        m = msg("peer-smt", 1)
        new, actions = gw.step(state, gw.DelegateResponse(m))
        assert new.phase is gw.Phase.POLLING
        assert actions == [gw.TransferToHmt(m), gw.RequestSmtMessage()]

    def test_delegate_response_loopback_discarded(self):
        state, _ = self.polling()
        m = msg(SMT, 1)
        new, actions = gw.step(state, gw.DelegateResponse(m))
        assert new.phase is gw.Phase.POLLING
        assert actions == [gw.Discard(m), gw.RequestSmtMessage()]

    def test_hmt_arrival_parks_and_cancels(self):
        state, actions = self.cancelling()
        held = msg("peer-hmt", 9)
        assert state.phase is gw.Phase.CANCELLING
        assert state.held == held
        assert state.outstanding_request is True
        assert actions == [gw.TransferToMain(held), gw.CancelSmtRequest()]

    def test_hmt_arrival_loopback_discarded(self):
        state, _ = self.polling()
        m = msg(HMT, 4)
        new, actions = gw.step(state, gw.HmtArrival(m))
        assert new.phase is gw.Phase.POLLING
        assert new.held is None
        assert actions == [gw.Discard(m)]

    def test_clean_cancel_publishes_held(self):
        state, _ = self.cancelling()
        new, actions = gw.step(state, gw.CancelResult(None))
        assert new.phase is gw.Phase.POLLING
        assert new.held is None
        assert actions == [gw.PublishSmt(msg("peer-hmt", 9)), gw.RequestSmtMessage()]

    def test_raced_cancel_flushes_response_first(self):
        state, _ = self.cancelling()
        raced = msg("peer-smt", 5)
        new, actions = gw.step(state, gw.CancelResult(raced))
        assert new.phase is gw.Phase.POLLING
        assert new.held is None
        assert actions == [
            gw.TransferToHmt(raced),
            gw.PublishSmt(msg("peer-hmt", 9)),
            gw.RequestSmtMessage(),
        ]

    def test_raced_cancel_with_loopback_discards(self):
        state, _ = self.cancelling()
        raced = msg(SMT, 6)
        new, actions = gw.step(state, gw.CancelResult(raced))
        assert new.phase is gw.Phase.POLLING
        assert actions == [
            gw.Discard(raced),
            gw.PublishSmt(msg("peer-hmt", 9)),
            gw.RequestSmtMessage(),
        ]

    def test_step_does_not_mutate_input(self):
        state, _ = self.polling()
        gw.step(state, gw.HmtArrival(msg("peer-hmt", 9)))
        assert state.phase is gw.Phase.POLLING
        assert state.held is None


class TestIllegalSteps:
    def states_by_phase(self):
        await_buffer = fresh()
        polling, _ = gw.step(await_buffer, gw.BufferLocation())
        cancelling, _ = gw.step(polling, gw.HmtArrival(msg("peer-hmt", 9)))
        return {
            gw.Phase.AWAIT_BUFFER: await_buffer,
            gw.Phase.POLLING: polling,
            gw.Phase.CANCELLING: cancelling,
        }

    def test_every_untabled_combination_raises(self):
        legal = {
            (gw.Phase.AWAIT_BUFFER, gw.BufferLocation),
            (gw.Phase.POLLING, gw.DelegateResponse),
            (gw.Phase.POLLING, gw.HmtArrival),
            (gw.Phase.CANCELLING, gw.CancelResult),
        }
        for phase, state in self.states_by_phase().items():
            for event in all_events():
                if (phase, type(event)) in legal:
                    continue
                with pytest.raises(gw.GatewayProtocolError) as exc:
                    gw.step(state, event)
                assert exc.value.phase is phase
                assert exc.value.event is event

    def test_accepted_events_are_exactly_the_legal_steps(self):
        # the simulator's gateway actor holds back any event this table does not accept
        for phase, state in self.states_by_phase().items():
            for event in all_events():
                accepted = isinstance(event, gw.ACCEPTED_EVENTS[phase])
                try:
                    gw.step(state, event)
                except gw.GatewayProtocolError:
                    assert not accepted
                else:
                    assert accepted

    def test_error_message_names_phase_and_event(self):
        with pytest.raises(gw.GatewayProtocolError, match="CancelResult.*AWAIT_BUFFER"):
            gw.step(fresh(), gw.CancelResult(None))


class TestTransitionTable:
    def test_vocabularies_consistent(self):
        table = gw.transition_table()
        phases = set(table["phases"])
        resting = set(table["resting_phases"])
        events = set(table["event_kinds"])
        actions = set(table["action_kinds"])
        assert table["initial_phase"] in resting
        assert resting <= phases
        assert len(table["rules"]) == 8
        for rule in table["rules"]:
            assert rule["phase"] in resting
            assert rule["next"] in resting
            assert rule["event"] in events
            for kind, arg in rule["actions"]:
                assert kind in actions
                assert arg in (None, "EVENT_MESSAGE", "HELD")
            for via in rule["via"]:
                assert via in phases
                assert via not in resting

    def test_rules_are_unambiguous(self):
        table = gw.transition_table()
        keys = [(r["phase"], r["event"], r["guard"]) for r in table["rules"]]
        assert len(keys) == len(set(keys))

    def test_json_serializable(self):
        import json

        text = json.dumps(gw.transition_table())
        assert json.loads(text) == gw.transition_table()


class TestProtocolPinned:
    """The exported table, byte for byte, and the events each resting phase accepts.

    The digest covers every column of every rule, ``via`` and the three state
    columns included; a change here is a protocol change.
    """

    SHA256 = "9f76aef44a38370e4849b78b3e1fbdc7c4959998ca1984c4f8d96ed50507fd1a"

    def test_exported_bytes(self):
        text = json.dumps(gw.transition_table(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256

    def test_accepted_events(self):
        assert gw.ACCEPTED_EVENTS == {
            gw.Phase.AWAIT_BUFFER: (gw.BufferLocation,),
            gw.Phase.POLLING: (gw.DelegateResponse, gw.HmtArrival),
            gw.Phase.CANCELLING: (gw.CancelResult,),
        }


class TestTableEquivalence:
    """``step``, which runs the rules as data, and the oracle, which interprets
    the exported table with guard logic of its own, are the same machine."""

    def test_exhaustive_to_depth_seven(self):
        table = gw.transition_table()
        events = all_events()
        visited = 0

        def advance(state, oracle_state):
            nonlocal visited
            visited += 1
            for event in events:
                try:
                    new_state, actions = gw.step(state, event)
                    step_failed = False
                except gw.GatewayProtocolError:
                    step_failed = True
                try:
                    new_oracle, oracle_actions = fsm_oracle.table_step(
                        table, oracle_state, event, SMT, HMT
                    )
                    oracle_failed = False
                except LookupError:
                    oracle_failed = True
                assert step_failed == oracle_failed, (state.phase, event)
                if step_failed:
                    continue
                assert fsm_oracle.normalize_actions(actions) == oracle_actions
                assert new_state.phase.value == new_oracle[0]
                assert new_state.held == new_oracle[1]
                assert new_state.outstanding_request == new_oracle[2]
                yield new_state, new_oracle

        def dfs(state, oracle_state, depth):
            if depth == 0:
                return
            for new_state, new_oracle in advance(state, oracle_state):
                dfs(new_state, new_oracle, depth - 1)

        dfs(fresh(), fsm_oracle.initial_state(table), 7)
        # one legal branch from AWAIT_BUFFER, then four per resting phase
        assert visited > 1000

    def test_seeded_random_walks_preserve_invariants(self):
        rng = random.Random(0xF5A)
        table = gw.transition_table()
        legal = {
            "AWAIT_BUFFER": [gw.BufferLocation()],
            "POLLING": [
                gw.DelegateResponse(msg("peer-smt", 1)),
                gw.DelegateResponse(msg(SMT, 2)),
                gw.HmtArrival(msg("peer-hmt", 3)),
                gw.HmtArrival(msg(HMT, 4)),
            ],
            "CANCELLING": [
                gw.CancelResult(None),
                gw.CancelResult(msg("peer-smt", 5)),
                gw.CancelResult(msg(SMT, 6)),
            ],
        }
        for _ in range(200):
            state = fresh()
            oracle_state = fsm_oracle.initial_state(table)
            for _ in range(40):
                event = rng.choice(legal[state.phase.value])
                state, actions = gw.step(state, event)
                oracle_state, oracle_actions = fsm_oracle.table_step(
                    table, oracle_state, event, SMT, HMT
                )
                assert fsm_oracle.normalize_actions(actions) == oracle_actions
                assert state.phase in gw.RESTING_PHASES
                assert (state.held is not None) == (state.phase is gw.Phase.CANCELLING)
                assert state.outstanding_request == (state.phase is not gw.Phase.AWAIT_BUFFER)


class TestTwoGatewayBridge:
    """Two gateways sharing one HMT stream must not ping-pong messages.

    Each republication loops back to its own sender under the gateway's
    endpoint identity, so the identity filter is the only thing standing
    between this topology and an infinite forwarding loop.
    """

    def test_ten_rounds_cross_domain_no_duplicates(self):
        g1, _ = gw.init("gw1", "gw1.hmt")
        g2, _ = gw.init("gw2", "gw2.hmt")
        g1, a = gw.step(g1, gw.BufferLocation())
        assert a == [gw.RequestSmtMessage()]
        g2, a = gw.step(g2, gw.BufferLocation())
        assert a == [gw.RequestSmtMessage()]

        delivered_b = []
        hmt_writes = 0
        discards = 0
        loop_injections = 0

        for seq in range(10):
            # domain A publisher satisfies gw1's outstanding read
            m = gw.Message("pubA", seq, "t", 256)
            g1, actions = gw.step(g1, gw.DelegateResponse(m))
            assert actions == [gw.TransferToHmt(m), gw.RequestSmtMessage()]
            hmt_writes += 1

            # the stream carries the message under gw1's hardware identity
            on_hmt = gw.Message("gw1.hmt", seq, "t", 256)

            # gw1's own tap sees its own write and must drop it
            loop_injections += 1
            g1, actions = gw.step(g1, gw.HmtArrival(on_hmt))
            assert actions == [gw.Discard(on_hmt)]
            discards += 1

            # gw2 accepts, forwards to main memory, cancels its SMT read
            g2, actions = gw.step(g2, gw.HmtArrival(on_hmt))
            assert actions == [gw.TransferToMain(on_hmt), gw.CancelSmtRequest()]
            delivered_b.append(actions[0].message.seq)

            # domain B is otherwise idle: the cancel lands cleanly
            g2, actions = gw.step(g2, gw.CancelResult(None))
            assert actions == [gw.PublishSmt(on_hmt), gw.RequestSmtMessage()]

            # that publication loops back through gw2's own delegate
            loop_injections += 1
            back = gw.Message("gw2", seq, "t", 256)
            g2, actions = gw.step(g2, gw.DelegateResponse(back))
            assert actions == [gw.Discard(back), gw.RequestSmtMessage()]
            discards += 1
            # no TransferToHmt here: the loop stops at the filter
            assert not any(isinstance(x, gw.TransferToHmt) for x in actions)

        assert delivered_b == list(range(10))
        assert hmt_writes == 10
        assert discards == 20
        assert discards == loop_injections
        assert g1.phase is gw.Phase.POLLING and g1.held is None
        assert g2.phase is gw.Phase.POLLING and g2.held is None
