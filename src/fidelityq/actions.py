"""Operator actions and shared ordering conventions."""

from enum import Enum


class Action(str, Enum):
    """The five operator actions.

    WAIT is only available at an empty queue, REST only above the resting
    level; SKIP discards the head-of-queue task, NORMAL and HIGH service it
    at the corresponding fidelity.
    """

    WAIT = "W"
    REST = "R"
    SKIP = "S"
    NORMAL = "N"
    HIGH = "H"

    def __str__(self):
        return self.value


# Argmax scans actions in this order and keeps the first maximizer, so on
# exact ties the earlier entry wins.
TIE_ORDER = (Action.SKIP, Action.REST, Action.NORMAL, Action.HIGH, Action.WAIT)

# Queue decrement per action: servicing or skipping consumes the head task.
DECREMENT = {
    Action.WAIT: 0,
    Action.REST: 0,
    Action.SKIP: 1,
    Action.NORMAL: 1,
    Action.HIGH: 1,
}

ACTIONS = tuple(Action)

# Per-unit-time drift rates of the cognitive chain; multiplied by the step
# scale to obtain per-step probabilities. Waiting and resting relax the
# state downward, servicing pushes it upward, high fidelity harder than
# normal. Its keys are the actions that move the chain.
UNIT_RATES = {
    Action.WAIT: (0.02, 0.5),
    Action.REST: (0.02, 0.5),
    Action.NORMAL: (0.6, 0.02),
    Action.HIGH: (1.1, 0.02),
}


def from_symbol(symbol):
    """Map a one-letter symbol back to an Action."""
    try:
        return Action(symbol)
    except ValueError:
        raise ValueError(f"unknown action symbol {symbol!r}") from None
