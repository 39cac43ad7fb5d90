"""Independent interpreter of the exported gateway transition table.

Used as an oracle: it executes the machine purely from the exported
JSON, with its own guard logic, and shares no code with
``gateway._RULES`` or ``gateway.step``.
"""

from topomap import gateway as gw

EVENT_KIND = {
    gw.BufferLocation: "BUFFER_LOCATION",
    gw.DelegateResponse: "DELEGATE_RESPONSE",
    gw.HmtArrival: "HMT_ARRIVAL",
    gw.CancelResult: "CANCEL_RESULT",
}

ACTION_KIND = {
    gw.RequestSmtMessage: "REQUEST_SMT_MESSAGE",
    gw.CancelSmtRequest: "CANCEL_SMT_REQUEST",
    gw.TransferToHmt: "TRANSFER_TO_HMT",
    gw.TransferToMain: "TRANSFER_TO_MAIN",
    gw.PublishSmt: "PUBLISH_SMT",
    gw.Discard: "DISCARD",
}


def initial_state(table):
    # (phase, held, outstanding)
    return (table["initial_phase"], None, False)


def _guard_matches(guard, event, held, own_smt, own_hmt):
    message = getattr(event, "message", None)
    if guard == "NONE":
        return True
    if guard == "EMPTY":
        return message is None
    if guard in ("SMT_ACCEPT", "SMT_REJECT"):
        rejected = message.publisher_id == own_smt
        return rejected == guard.endswith("REJECT")
    if guard in ("HMT_ACCEPT", "HMT_REJECT"):
        rejected = message.publisher_id == own_hmt
        return rejected == guard.endswith("REJECT")
    if guard in ("MESSAGE_SMT_ACCEPT", "MESSAGE_SMT_REJECT"):
        if message is None:
            return False
        rejected = message.publisher_id == own_smt
        return rejected == guard.endswith("REJECT")
    raise AssertionError(f"unknown guard {guard!r}")


def table_step(table, state, event, own_smt, own_hmt):
    """Pure interpretation: (state, event) -> (state', actions) or LookupError."""
    phase, held, _ = state
    kind = EVENT_KIND[type(event)]
    for rule in table["rules"]:
        if rule["phase"] != phase or rule["event"] != kind:
            continue
        if not _guard_matches(rule["guard"], event, held, own_smt, own_hmt):
            continue
        actions = []
        for akind, arg in rule["actions"]:
            if arg == "EVENT_MESSAGE":
                actions.append((akind, event.message))
            elif arg == "HELD":
                actions.append((akind, held))
            elif arg is None:
                actions.append((akind, None))
            else:
                raise AssertionError(f"unknown action argument {arg!r}")
        new_held = held
        if rule["holds"]:
            new_held = event.message
        if rule["clears_held"]:
            new_held = None
        return (rule["next"], new_held, rule["outstanding"]), actions
    raise LookupError(f"no rule for ({phase}, {kind})")


def normalize_actions(actions):
    """Actions returned by ``gateway.step`` -> (kind, message|None) pairs, the oracle's own form."""
    return [(ACTION_KIND[type(a)], getattr(a, "message", None)) for a in actions]
