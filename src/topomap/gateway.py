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
phases that a single step passes through, four event kinds.  Its eight
rules are stated once, as data in ``_RULES``.  ``step``, a pure function
from (state, event) to (state, actions), runs them; ``transition_table``
exports them for ``topomap fsm-export``; ``ACCEPTED_EVENTS`` lists the
events each resting phase has a rule for.  An event no rule takes raises
``GatewayProtocolError``.

The simulator's gateway actor drives ``step``: it hands the machine each
event its resting phase accepts, then runs the actions the step returns
through one table keyed by action class, built once, so ``step`` stays
the only code that reads the rules.  A run builds a protocol object for
every message, event, action and state change, so each ``__init__``
writes the fields straight into the instance dict (see ``_Carrier``)
instead of through the frozen ``__setattr__``, one call per field;
fields, ``repr``, equality, hash and frozenness stay the dataclass's own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class Phase(enum.Enum):
    AWAIT_BUFFER = "AWAIT_BUFFER"
    POLLING = "POLLING"
    FWD_SMT_TO_HMT = "FWD_SMT_TO_HMT"
    FWD_HMT_TO_MAIN = "FWD_HMT_TO_MAIN"
    CANCELLING = "CANCELLING"
    FLUSH_PENDING = "FLUSH_PENDING"
    PUBLISH_SMT = "PUBLISH_SMT"


RESTING_PHASES = (Phase.AWAIT_BUFFER, Phase.POLLING, Phase.CANCELLING)


_new = object.__new__


@dataclass(frozen=True, init=False)
class Message:
    """A message; every trace row about it, a gateway's loop-back copy's included, names it ``topic#seq``."""

    publisher_id: str
    seq: int
    topic: str
    size_bytes: int
    t_pub_ns: int = field(default=0, kw_only=True, repr=False, compare=False)
    # derived once: the engine reads it for every trace row of the message
    message_id: str = field(init=False, repr=False, compare=False)

    def __init__(self, publisher_id: str, seq: int, topic: str, size_bytes: int, *, t_pub_ns: int = 0):
        self.__dict__.update(
            publisher_id=publisher_id,
            seq=seq,
            topic=topic,
            size_bytes=size_bytes,
            t_pub_ns=t_pub_ns,
            message_id=f"{topic}#{seq}",
        )

    def loop_back(self, publisher_id: str) -> Message:
        """``replace(self, publisher_id=publisher_id)``, sharing this message's id and publish time."""
        copy = _new(Message)
        copy.__dict__.update(self.__dict__, publisher_id=publisher_id)
        return copy


# -- events ---------------------------------------------------------------


class _Carrier:
    """Base of the events and actions that carry one message.

    Its ``__init__`` stores the message straight into the instance dict; each
    subclass is a frozen dataclass with ``init=False``, which keeps it.
    """

    __slots__ = ()

    def __init__(self, message: Message):
        self.__dict__["message"] = message


@dataclass(frozen=True)
class BufferLocation:
    """Shared buffer negotiated; the gateway may start polling."""


@dataclass(frozen=True, init=False)
class DelegateResponse(_Carrier):
    """The SMT delegate answered the outstanding read request."""

    message: Message


@dataclass(frozen=True, init=False)
class HmtArrival(_Carrier):
    """A message arrived on the hardware transport stream."""

    message: Message


@dataclass(frozen=True, init=False)
class CancelResult(_Carrier):
    """The delegate confirmed the cancel; ``message`` is the response that
    was already in flight when the cancel landed, if any."""

    message: Message | None = None

    def __init__(self, message: Message | None = None):
        self.__dict__["message"] = message


Event = BufferLocation | DelegateResponse | HmtArrival | CancelResult


# -- actions --------------------------------------------------------------


@dataclass(frozen=True)
class RequestSmtMessage:
    """Open a new cancellable read against the SMT delegate."""


@dataclass(frozen=True)
class CancelSmtRequest:
    """Ask the delegate to abort the outstanding read."""


@dataclass(frozen=True, init=False)
class TransferToHmt(_Carrier):
    message: Message


@dataclass(frozen=True, init=False)
class TransferToMain(_Carrier):
    message: Message


@dataclass(frozen=True, init=False)
class PublishSmt(_Carrier):
    message: Message


@dataclass(frozen=True, init=False)
class Discard(_Carrier):
    message: Message


Action = RequestSmtMessage | CancelSmtRequest | TransferToHmt | TransferToMain | PublishSmt | Discard


class GatewayProtocolError(RuntimeError):
    """Event not legal in the current phase."""

    def __init__(self, phase: Phase, event: Event):
        self.phase = phase
        self.event = event
        super().__init__(f"event {type(event).__name__} is illegal in phase {phase.value}")


@dataclass(frozen=True, init=False)
class GatewayState:
    """Immutable snapshot between steps.

    ``held`` is the HMT message parked while the SMT-side cancel resolves.
    """

    own_smt_id: str
    own_hmt_id: str
    phase: Phase = Phase.AWAIT_BUFFER
    held: Message | None = None

    def __init__(self, own_smt_id: str, own_hmt_id: str, phase: Phase = Phase.AWAIT_BUFFER, held: Message | None = None):
        self.__dict__.update(own_smt_id=own_smt_id, own_hmt_id=own_hmt_id, phase=phase, held=held)

    @property
    def outstanding_request(self) -> bool:
        return _outstanding(self.phase)


def _outstanding(phase: Phase) -> bool:
    """A delegate read is open (or being cancelled) from the buffer location on."""
    return phase is not Phase.AWAIT_BUFFER


def init(own_smt_id: str, own_hmt_id: str) -> tuple[GatewayState, list[Action]]:
    """Fresh gateway; nothing happens until the buffer location arrives."""
    return GatewayState(own_smt_id=own_smt_id, own_hmt_id=own_hmt_id), []


# -- the protocol ---------------------------------------------------------


class _Rule(NamedTuple):
    """One transition, with the columns ``transition_table`` exports."""

    phase: Phase
    event: type
    guard: str
    actions: tuple[tuple[type, str | None], ...]  # (action class, argument)
    next: Phase
    via: tuple[Phase, ...] = ()


_MSG, _HELD, _REQ = "EVENT_MESSAGE", "HELD", (RequestSmtMessage, None)
_FLUSH = (Phase.FLUSH_PENDING, Phase.PUBLISH_SMT)

# The whole machine: ``step`` runs these rules, ``transition_table`` exports
# them and ``ACCEPTED_EVENTS`` lists their events.
_RULES = (
    _Rule(Phase.AWAIT_BUFFER, BufferLocation, "NONE", (_REQ,), Phase.POLLING),
    _Rule(
        Phase.POLLING, DelegateResponse, "SMT_ACCEPT",
        ((TransferToHmt, _MSG), _REQ), Phase.POLLING, (Phase.FWD_SMT_TO_HMT,),
    ),
    _Rule(Phase.POLLING, DelegateResponse, "SMT_REJECT", ((Discard, _MSG), _REQ), Phase.POLLING),
    # park the message until the cancel resolves
    _Rule(
        Phase.POLLING, HmtArrival, "HMT_ACCEPT",
        ((TransferToMain, _MSG), (CancelSmtRequest, None)), Phase.CANCELLING, (Phase.FWD_HMT_TO_MAIN,),
    ),
    _Rule(Phase.POLLING, HmtArrival, "HMT_REJECT", ((Discard, _MSG),), Phase.POLLING),
    # clean cancel: publish the parked message, reopen the read
    _Rule(Phase.CANCELLING, CancelResult, "EMPTY", ((PublishSmt, _HELD), _REQ), Phase.POLLING, (Phase.PUBLISH_SMT,)),
    # the read raced the cancel: its response goes first
    _Rule(
        Phase.CANCELLING, CancelResult, "MESSAGE_SMT_ACCEPT",
        ((TransferToHmt, _MSG), (PublishSmt, _HELD), _REQ), Phase.POLLING, _FLUSH,
    ),
    _Rule(
        Phase.CANCELLING, CancelResult, "MESSAGE_SMT_REJECT",
        ((Discard, _MSG), (PublishSmt, _HELD), _REQ), Phase.POLLING, _FLUSH,
    ),
)

# Each guard tests the event's message against the state; REJECT means the
# message is the gateway's own loop-back on that side.
_GUARDS = {
    "NONE": lambda state, m: True,
    "SMT_ACCEPT": lambda state, m: m.publisher_id != state.own_smt_id,
    "SMT_REJECT": lambda state, m: m.publisher_id == state.own_smt_id,
    "HMT_ACCEPT": lambda state, m: m.publisher_id != state.own_hmt_id,
    "HMT_REJECT": lambda state, m: m.publisher_id == state.own_hmt_id,
    "EMPTY": lambda state, m: m is None,
    "MESSAGE_SMT_ACCEPT": lambda state, m: m is not None and m.publisher_id != state.own_smt_id,
    "MESSAGE_SMT_REJECT": lambda state, m: m is not None and m.publisher_id == state.own_smt_id,
}

# Event classes each resting phase has a rule for; a driver holds any other
# event back until the phase changes.
ACCEPTED_EVENTS = {p: tuple(dict.fromkeys(r.event for r in _RULES if r.phase is p)) for p in RESTING_PHASES}

# the argument-less actions are values, so every step shares one of each
_SHARED = {RequestSmtMessage: RequestSmtMessage(), CancelSmtRequest: CancelSmtRequest()}

# ``_RULES`` as ``step`` reads them: event class -> its rules in table order,
# each as (phase, guard, next phase, whether the next phase holds the event's
# message, actions), each action as (class, shared instance or None, whether
# its argument is the held message); keyed by class alone, since hashing an
# enum member costs a Python-level call
_BY_EVENT = {
    event: [
        (
            r.phase,
            _GUARDS[r.guard],
            r.next,
            r.next is Phase.CANCELLING,
            tuple((kind, _SHARED.get(kind), arg == _HELD) for kind, arg in r.actions),
        )
        for r in _RULES
        if r.event is event
    ]
    for event in dict.fromkeys(r.event for r in _RULES)
}


def step(state: GatewayState, event: Event) -> tuple[GatewayState, list[Action]]:
    """Apply one event; returns the next resting state and the emitted actions.

    Actions are ordered exactly as the gateway performs them.  The first rule
    for the phase and event whose guard holds applies; a message is held
    exactly while ``CANCELLING``.
    """
    phase, message = state.phase, getattr(event, "message", None)
    for rule_phase, guard, next_phase, holds, plan in _BY_EVENT.get(type(event), ()):
        if rule_phase is phase and guard(state, message):
            break
    else:
        raise GatewayProtocolError(phase, event)
    held = state.held
    actions = []
    for kind, shared, from_held in plan:
        actions.append(kind(held if from_held else message) if shared is None else shared)
    new_held = message if holds else None
    if next_phase is not phase or new_held is not held:
        state = GatewayState(state.own_smt_id, state.own_hmt_id, next_phase, new_held)
    return state, actions


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
    """The full protocol as data: ``_RULES`` with names for its classes and phases.

    Action arguments: ``"EVENT_MESSAGE"`` is the message carried by the
    triggering event, ``"HELD"`` the parked message, ``null`` no argument.
    ``via`` lists the transient phases a step passes through, in order.
    Guards on message-bearing events name the side's loop-back check that
    selects the rule: ``REJECT`` when the publisher id is the gateway's own
    id on that side.  The state columns ``holds``, ``outstanding`` and
    ``clears_held`` follow from the rule: a message is held exactly while
    ``CANCELLING``, and a read is outstanding from ``POLLING`` on.
    """
    return {
        "initial_phase": Phase.AWAIT_BUFFER.value,
        "phases": [p.value for p in Phase],
        "resting_phases": [p.value for p in RESTING_PHASES],
        "event_kinds": sorted(_EVENT_KIND.values()),
        "action_kinds": sorted(_ACTION_KIND.values()),
        "rules": [
            {
                "phase": rule.phase.value,
                "event": _EVENT_KIND[rule.event],
                "guard": rule.guard,
                "actions": [[_ACTION_KIND[kind], arg] for kind, arg in rule.actions],
                "next": rule.next.value,
                "via": [p.value for p in rule.via],
                "holds": rule.next is Phase.CANCELLING,
                "outstanding": _outstanding(rule.next),
                "clears_held": rule.phase is Phase.CANCELLING,
            }
            for rule in _RULES
        ],
    }
