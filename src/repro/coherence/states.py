"""Coherence states: MESI plus the user-defined reducible state U.

Fig. 3 of the paper shows the CommTM-MSI state machine; our implementation
extends MESI (as the paper's evaluation does, Sec. III-D):

* ``M`` — modified, exclusive, dirty; satisfies all requests.
* ``E`` — exclusive clean; silently upgrades to M on a store.
* ``S`` — shared read-only; satisfies conventional loads only.
* ``U`` — user-defined reducible, tagged with a label; satisfies labeled
  loads/stores with a matching label only. Multiple caches may hold U
  copies of the same line with the same label.
* ``I`` — invalid (absent lines are implicitly I).
"""

from __future__ import annotations

import enum


class State(enum.Enum):
    M = "M"
    E = "E"
    S = "S"
    U = "U"
    I = "I"  # noqa: E741 - standard MESI naming


# Per-member membership flags, precomputed once: the protocol's per-access
# handlers (and its private-hit fast path) read these as plain attribute
# loads instead of constructing membership tuples per call.
for _st in State:
    _st.readable = _st in (State.M, State.E, State.S)
    _st.writable = _st in (State.M, State.E)
del _st
