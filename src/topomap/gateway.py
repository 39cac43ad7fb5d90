"""Gateway protocol state machine.

A gateway bridges one topic between the software transport (SMT) and the
hardware transport (HMT).  It keeps exactly one cancellable read request
open against its SMT delegate at all times, forwards whatever that request
returns onto the HMT, and forwards HMT arrivals into main memory followed
by a publication on the SMT side.  Because its own publications loop back
to it on both sides, every inbound message is checked first: it is the
gateway's own, and is discarded, exactly when its publisher id is the
gateway's id on the side it arrived on.

The machine is deliberately small: three resting phases, four transient
phases that a single step passes through, four event kinds.  ``step`` is a
pure function from (state, event) to (state, actions); anything not in the
transition table raises ``GatewayProtocolError``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Phase(enum.Enum):
    AWAIT_BUFFER = "AWAIT_BUFFER"
    POLLING = "POLLING"
    FWD_SMT_TO_HMT = "FWD_SMT_TO_HMT"
    FWD_HMT_TO_MAIN = "FWD_HMT_TO_MAIN"
    CANCELLING = "CANCELLING"
    FLUSH_PENDING = "FLUSH_PENDING"
    PUBLISH_SMT = "PUBLISH_SMT"


RESTING_PHASES = (Phase.AWAIT_BUFFER, Phase.POLLING, Phase.CANCELLING)


@dataclass(frozen=True)
class Message:
    publisher_id: str
    seq: int
    topic: str
    size_bytes: int
    # derived once: the engine reads it for every trace row of the message
    message_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "message_id", f"{self.publisher_id}/{self.seq}")


# -- events ---------------------------------------------------------------


@dataclass(frozen=True)
class BufferLocation:
    """Shared buffer negotiated; the gateway may start polling."""


@dataclass(frozen=True)
class DelegateResponse:
    """The SMT delegate answered the outstanding read request."""

    message: Message


@dataclass(frozen=True)
class HmtArrival:
    """A message arrived on the hardware transport stream."""

    message: Message


@dataclass(frozen=True)
class CancelResult:
    """The delegate confirmed the cancel; ``message`` is the response that
    was already in flight when the cancel landed, if any."""

    message: Message | None = None


Event = BufferLocation | DelegateResponse | HmtArrival | CancelResult


# -- actions --------------------------------------------------------------


@dataclass(frozen=True)
class RequestSmtMessage:
    """Open a new cancellable read against the SMT delegate."""


@dataclass(frozen=True)
class CancelSmtRequest:
    """Ask the delegate to abort the outstanding read."""


@dataclass(frozen=True)
class TransferToHmt:
    message: Message


@dataclass(frozen=True)
class TransferToMain:
    message: Message


@dataclass(frozen=True)
class PublishSmt:
    message: Message


@dataclass(frozen=True)
class Discard:
    message: Message


Action = RequestSmtMessage | CancelSmtRequest | TransferToHmt | TransferToMain | PublishSmt | Discard

# the argument-less actions are values, so every step shares one of each
_REQUEST, _CANCEL = RequestSmtMessage(), CancelSmtRequest()


class GatewayProtocolError(RuntimeError):
    """Event not legal in the current phase."""

    def __init__(self, phase: Phase, event: Event):
        self.phase = phase
        self.event = event
        super().__init__(f"event {type(event).__name__} is illegal in phase {phase.value}")


@dataclass(frozen=True)
class GatewayState:
    """Immutable snapshot between steps.

    ``held`` is the HMT message parked while the SMT-side cancel resolves.
    """

    own_smt_id: str
    own_hmt_id: str
    phase: Phase = Phase.AWAIT_BUFFER
    held: Message | None = None

    @property
    def outstanding_request(self) -> bool:
        return _outstanding(self.phase)


def _outstanding(phase: Phase) -> bool:
    """A delegate read is open (or being cancelled) from the buffer location on."""
    return phase is not Phase.AWAIT_BUFFER


def init(own_smt_id: str, own_hmt_id: str) -> tuple[GatewayState, list[Action]]:
    """Fresh gateway; nothing happens until the buffer location arrives."""
    return GatewayState(own_smt_id=own_smt_id, own_hmt_id=own_hmt_id), []


def step(state: GatewayState, event: Event) -> tuple[GatewayState, list[Action]]:
    """Apply one event; returns the next resting state and the emitted actions.

    Actions are ordered exactly as the gateway performs them.
    """
    phase = state.phase

    if phase is Phase.AWAIT_BUFFER and isinstance(event, BufferLocation):
        return GatewayState(state.own_smt_id, state.own_hmt_id, Phase.POLLING), [_REQUEST]

    if phase is Phase.POLLING and isinstance(event, DelegateResponse):
        m = event.message
        if m.publisher_id != state.own_smt_id:
            # passes through FWD_SMT_TO_HMT and back to POLLING
            return state, [TransferToHmt(m), _REQUEST]
        return state, [Discard(m), _REQUEST]

    if phase is Phase.POLLING and isinstance(event, HmtArrival):
        m = event.message
        if m.publisher_id != state.own_hmt_id:
            # passes through FWD_HMT_TO_MAIN, then parks m until the cancel resolves
            new = GatewayState(state.own_smt_id, state.own_hmt_id, Phase.CANCELLING, m)
            return new, [TransferToMain(m), _CANCEL]
        return state, [Discard(m)]

    if phase is Phase.CANCELLING and isinstance(event, CancelResult):
        held = state.held
        if held is None:  # pragma: no cover - unreachable via legal steps
            raise GatewayProtocolError(phase, event)
        new = GatewayState(state.own_smt_id, state.own_hmt_id, Phase.POLLING)
        if event.message is None:
            # clean cancel: publish the parked message, reopen the read
            return new, [PublishSmt(held), _REQUEST]
        m2 = event.message
        if m2.publisher_id != state.own_smt_id:
            # the read raced the cancel; flush its response first
            return new, [TransferToHmt(m2), PublishSmt(held), _REQUEST]
        return new, [Discard(m2), PublishSmt(held), _REQUEST]

    raise GatewayProtocolError(phase, event)


# -- machine-readable transition table ------------------------------------

_EVENT_KIND = {
    BufferLocation: "BUFFER_LOCATION",
    DelegateResponse: "DELEGATE_RESPONSE",
    HmtArrival: "HMT_ARRIVAL",
    CancelResult: "CANCEL_RESULT",
}

_ACTION_KIND = {
    RequestSmtMessage: "REQUEST_SMT_MESSAGE",
    CancelSmtRequest: "CANCEL_SMT_REQUEST",
    TransferToHmt: "TRANSFER_TO_HMT",
    TransferToMain: "TRANSFER_TO_MAIN",
    PublishSmt: "PUBLISH_SMT",
    Discard: "DISCARD",
}


def transition_table() -> dict:
    """The full protocol as data.

    Action arguments: ``"EVENT_MESSAGE"`` is the message carried by the
    triggering event, ``"HELD"`` the parked message, ``null`` no argument.
    ``via`` lists the transient phases a step passes through, in order.
    Guards on message-bearing events name the side's loop-back check that
    selects the rule: ``REJECT`` when the publisher id is the gateway's own
    id on that side.  The state columns ``holds``, ``outstanding`` and
    ``clears_held`` follow from the rule: a message is held exactly while
    ``CANCELLING``, and a read is outstanding from ``POLLING`` on.
    """
    table = {
        "initial_phase": Phase.AWAIT_BUFFER.value,
        "phases": [p.value for p in Phase],
        "resting_phases": [p.value for p in RESTING_PHASES],
        "event_kinds": sorted(_EVENT_KIND.values()),
        "action_kinds": sorted(_ACTION_KIND.values()),
        "rules": [
            {
                "phase": "AWAIT_BUFFER",
                "event": "BUFFER_LOCATION",
                "guard": "NONE",
                "actions": [["REQUEST_SMT_MESSAGE", None]],
                "next": "POLLING",
                "via": [],
            },
            {
                "phase": "POLLING",
                "event": "DELEGATE_RESPONSE",
                "guard": "SMT_ACCEPT",
                "actions": [["TRANSFER_TO_HMT", "EVENT_MESSAGE"], ["REQUEST_SMT_MESSAGE", None]],
                "next": "POLLING",
                "via": ["FWD_SMT_TO_HMT"],
            },
            {
                "phase": "POLLING",
                "event": "DELEGATE_RESPONSE",
                "guard": "SMT_REJECT",
                "actions": [["DISCARD", "EVENT_MESSAGE"], ["REQUEST_SMT_MESSAGE", None]],
                "next": "POLLING",
                "via": [],
            },
            {
                "phase": "POLLING",
                "event": "HMT_ARRIVAL",
                "guard": "HMT_ACCEPT",
                "actions": [["TRANSFER_TO_MAIN", "EVENT_MESSAGE"], ["CANCEL_SMT_REQUEST", None]],
                "next": "CANCELLING",
                "via": ["FWD_HMT_TO_MAIN"],
            },
            {
                "phase": "POLLING",
                "event": "HMT_ARRIVAL",
                "guard": "HMT_REJECT",
                "actions": [["DISCARD", "EVENT_MESSAGE"]],
                "next": "POLLING",
                "via": [],
            },
            {
                "phase": "CANCELLING",
                "event": "CANCEL_RESULT",
                "guard": "EMPTY",
                "actions": [["PUBLISH_SMT", "HELD"], ["REQUEST_SMT_MESSAGE", None]],
                "next": "POLLING",
                "via": ["PUBLISH_SMT"],
            },
            {
                "phase": "CANCELLING",
                "event": "CANCEL_RESULT",
                "guard": "MESSAGE_SMT_ACCEPT",
                "actions": [
                    ["TRANSFER_TO_HMT", "EVENT_MESSAGE"],
                    ["PUBLISH_SMT", "HELD"],
                    ["REQUEST_SMT_MESSAGE", None],
                ],
                "next": "POLLING",
                "via": ["FLUSH_PENDING", "PUBLISH_SMT"],
            },
            {
                "phase": "CANCELLING",
                "event": "CANCEL_RESULT",
                "guard": "MESSAGE_SMT_REJECT",
                "actions": [
                    ["DISCARD", "EVENT_MESSAGE"],
                    ["PUBLISH_SMT", "HELD"],
                    ["REQUEST_SMT_MESSAGE", None],
                ],
                "next": "POLLING",
                "via": ["FLUSH_PENDING", "PUBLISH_SMT"],
            },
        ],
    }
    for rule in table["rules"]:
        rule["holds"] = rule["next"] == Phase.CANCELLING.value
        rule["outstanding"] = _outstanding(Phase(rule["next"]))
        rule["clears_held"] = rule["phase"] == Phase.CANCELLING.value
    return table


def _accepted_events() -> dict[Phase, tuple[type, ...]]:
    ruled = {(rule["phase"], rule["event"]) for rule in transition_table()["rules"]}
    return {p: tuple(c for c, kind in _EVENT_KIND.items() if (p.value, kind) in ruled) for p in RESTING_PHASES}


# Event classes each resting phase has a rule for; a driver holds any other
# event back until the phase changes.
ACCEPTED_EVENTS = _accepted_events()
