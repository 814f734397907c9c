"""Read-only miss-latency certifier, as a pure function of protocol state.

This is the vector backend's K_PROTO oracle (see DESIGN.md §6.3),
extracted from the engine so it is a *pure* function of a
:class:`~repro.coherence.protocol.MemorySystem` — no engine, no
mutation.  Two consumers share the one definition:

* :class:`~repro.sim.vector.engine.VectorEngine` calls it to decide
  whether a fast-path miss may execute inside an epoch and at what
  closed-form latency (validated post-hoc via
  ``host_vector_miss_predicted`` / ``_mispredicts``); and
* the exhaustive model checker (``python -m repro.analysis modelcheck``)
  proves its *soundness obligation*: on every reachable directory state
  of a bounded config, a non-``None`` prediction must equal the charge
  the real transition handlers produce — not just on the states
  benchmarks happen to visit.

:func:`certify_access` inspects cache/directory internals but never
writes them, never touches LRU order, and never draws the rng, so a
certification probe is invisible to the simulation.
"""

from __future__ import annotations

from typing import Optional

from ...coherence.messages import AccessKind
from ...coherence.states import State

_M = State.M
_E = State.E
_S = State.S
_U = State.U

_LOAD = AccessKind.LOAD
_STORE = AccessKind.STORE
_LLOAD = AccessKind.LABELED_LOAD
_LSTORE = AccessKind.LABELED_STORE
_GATHER = AccessKind.GATHER


def certify_access(msys, core: int, kind: AccessKind, addr: int, label,
                   now: int, spec: bool = False) -> Optional[int]:
    """Decide whether one access that missed the private-hit fast
    path is *fully determined by the current snapshot* and predict its
    closed-form latency.

    Returns the predicted charge in cycles (``>= 0``), ``-1`` for a
    transition that is certified deterministic but whose latency is
    not worth predicting closed-form (reductions, gathers with
    donors), or ``None`` to decline.

    The certification invariant: the access must not abort or NACK
    anyone — every private copy it downgrades, invalidates, reduces, or
    splits is non-speculative; every handler it runs is word-wise pure
    (no HandlerContext memory traffic); every install it performs either
    replaces an existing line or evicts a victim whose writeback is
    deterministic (never a U line, whose eviction draws the rng and
    may abort foreign transactions); and it never allocates an L3
    entry when the directory is at capacity (an inclusive L3 eviction
    can abort transactions).

    The predicted latency mirrors ``_charge_dir_access`` and the
    occupancy postlude of ``_finish``, and calls the handlers' own pure
    NoC charges, ``_fanout_cycles`` / ``_forward_cycles``.

    ``spec`` marks a transactional (speculative) requester. The same
    transitions certify, with two extra obligations: no victim
    anywhere may be speculative (a NACK would abort *us*, and which
    of NACK/abort fires depends on timestamp order), and the L1
    insert this access performs must not evict one of our own
    speculatively-accessed lines (a self-abort)."""
    config = msys.config
    cache = msys.caches[core]
    l1_lat = msys.l1_latency
    l12_lat = msys.l12_latency
    line_no = addr // 64
    entry = cache.lookup(line_no)
    directory = msys.directory
    ent = directory.peek(line_no)
    if spec and not l1_touch_safe(cache, line_no):
        return None

    if kind is _GATHER:
        if not config.gather_enabled:
            # Ablation: _gather delegates to _labeled_access.
            return certify_access(msys, core, _LLOAD, addr, label, now, spec)
        if entry is None:
            return None  # acquire-U-then-gather: two transitions
        st = entry.state
        if st is _M or st is _E:
            # _gather's acquire-U probe short-circuits to a plain
            # labeled hit: the core already holds the full value.
            return l1_lat if line_no in cache._l1 else l12_lat
        if (st is not _U or entry.label is not label
                or entry.speculative or entry.clean_words is not None):
            return None
        if ent is None or core not in ent.u_sharers:
            return None
        others = ent.u_sharers - {core}
        if not others:
            stall = max(0, msys._line_busy.get(line_no, 0) - now)
            return (msys._dir_rt[core][line_no % msys._l3_banks]
                    + config.l3.latency + stall
                    + (l1_lat if line_no in cache._l1 else l12_lat))
        if label._split_word is None:
            return None  # line-level splitters touch memory
        for other in others:
            oentry = msys.caches[other].lookup(line_no)
            if oentry is None or oentry.speculative:
                return None
        return -1  # split+merge latency: no closed form kept

    # --- shared prediction pieces ---------------------------------
    bank = line_no % msys._l3_banks
    dir_rt = msys._dir_rt[core][bank]
    l3lat = config.l3.latency
    stall = max(0, msys._line_busy.get(line_no, 0) - now)
    caches = msys.caches
    base = l12_lat + dir_rt + l3lat  # every miss route below

    if entry is not None and entry.state is _U:
        # Unlabeled (or differently-labeled) access to an own U line:
        # _noncommutative_own_u.
        if (kind is _LLOAD or kind is _LSTORE) and entry.label is label:
            # Matching-label labeled hit (only reachable via the
            # disabled-gather delegation; the fast path owns it
            # otherwise).
            return l1_lat if line_no in cache._l1 else l12_lat
        return _certify_own_u(msys, core, line_no, entry, ent, cache, stall)

    if kind is _LOAD:
        if entry is not None:
            return None  # M/E/S load hits belong to the fast path
        if ent is None:
            if 0 < directory.num_lines <= len(directory._entries):
                return None  # allocation would force an L3 eviction
            if not l2_install_safe(cache, line_no):
                return None
            return base + config.mem_latency + stall
        owner = ent.owner
        if owner is not None:
            if owner == core:
                return None  # directory/cache disagree; let it raise
            oentry = caches[owner].lookup(line_no)
            if oentry is None or oentry.spec_written \
                    or oentry.spec_labeled:
                # spec_read-only owners downgrade without conflict.
                return None
            if not l2_install_safe(cache, line_no):
                return None
            return (base + msys._fanout_cycles(line_no, (owner,))
                    + msys._forward_cycles(owner, core) + stall)
        if ent.u_sharers:
            return _certify_reduce(msys, core, line_no, ent, cache)
        if not l2_install_safe(cache, line_no):
            return None
        return base + stall  # E-if-unshared / S fill from the L3

    if kind is _STORE:
        if entry is not None and entry.state is not _S:
            return None  # M/E store hits belong to the fast path
        if ent is None:
            if entry is not None:
                return None  # S copy without an L3 entry: inconsistent
            if 0 < directory.num_lines <= len(directory._entries):
                return None
            if not l2_install_safe(cache, line_no):
                return None
            return base + config.mem_latency + stall
        if ent.u_sharers:
            return _certify_reduce(msys, core, line_no, ent, cache)
        if ent.owner == core:
            return None
        victims = []
        if ent.owner is not None:
            victims.append(ent.owner)
        victims.extend(s for s in ent.sharers if s != core)
        fwd = 0
        for victim in victims:
            ventry = caches[victim].lookup(line_no)
            if ventry is None or ventry.speculative:
                return None  # lost line raises; spec line conflicts
            vst = ventry.state
            if vst is _M or vst is _E:
                fwd = msys._forward_cycles(victim, core)
        if entry is None and not l2_install_safe(cache, line_no):
            return None  # an S copy upgrades in place, no install
        return base + msys._fanout_cycles(line_no, victims) + fwd + stall

    # LABELED_LOAD / LABELED_STORE miss (I or S): GETU, Sec. III-B3
    # cases 1-5.
    if entry is not None and entry.state is not _S:
        return None  # M/E and matching-U hits belong to the fast path
    if ent is None:
        if entry is not None:
            return None  # S copy without an L3 entry: inconsistent
        if 0 < directory.num_lines <= len(directory._entries):
            return None
        if not l2_install_safe(cache, line_no):
            return None
        return base + config.mem_latency + stall
    if ent.u_sharers:
        if ent.u_label is label:
            # Case 4: same label -> identity install, no data moves.
            if not l2_install_safe(cache, line_no):
                return None
            return base + stall
        if core in ent.u_sharers:
            return None  # inconsistent with entry I/S; let it raise
        # Case 3: reduce at the requester, re-enter U relabeled.
        return _certify_reduce(msys, core, line_no, ent, cache)
    owner = ent.owner
    if owner is not None:
        if owner == core:
            return None
        oentry = caches[owner].lookup(line_no)
        if oentry is None or oentry.speculative:
            return None  # case 5 NACK-checks *any* speculative bit
        if not l2_install_safe(cache, line_no):
            return None
        # The owner keeps its data: no forward.
        return base + msys._fanout_cycles(line_no, (owner,)) + stall
    # Cases 1-2: invalidate S sharers, install the L3 data.
    victims = [s for s in ent.sharers if s != core]
    for victim in victims:
        ventry = caches[victim].lookup(line_no)
        if ventry is not None and ventry.speculative:
            return None
    if entry is None and not l2_install_safe(cache, line_no):
        return None  # an own S copy is dropped first: no net growth
    return base + msys._fanout_cycles(line_no, victims) + stall


def _certify_own_u(msys, core: int, line_no: int, entry, ent,
                   cache, stall: int) -> Optional[int]:
    """Certify ``_noncommutative_own_u``: an unlabeled or relabeling
    access to a line this core holds in U. Sole sharer converts in
    place (closed-form); multiple sharers reduce here (certified,
    unpredicted)."""
    if (entry.clean_words is not None or entry.spec_read
            or entry.spec_written or entry.spec_labeled):
        return None
    if ent is None or core not in ent.u_sharers:
        return None  # directory/cache disagree; let the full path raise
    if len(ent.u_sharers) == 1:
        return ((msys.l1_latency if line_no in cache._l1
                 else msys.l12_latency)
                + msys._dir_rt[core][line_no % msys._l3_banks]
                + msys.config.l3.latency + stall)
    if ent.u_label._reduce_word is None:
        return None
    caches = msys.caches
    for other in ent.u_sharers:
        if other == core:
            continue
        oentry = caches[other].lookup(line_no)
        if oentry is None or oentry.speculative:
            return None
    # _install_reduced replaces this core's own line: no growth.
    return -1


def _certify_reduce(msys, core: int, line_no: int, ent,
                    cache) -> Optional[int]:
    """Certify a reduction collapsing all U copies at a core that does
    *not* hold the line: every sharer's copy present and
    non-speculative (no NACK, no abort, no lost-line error), a
    word-wise label (the fold never touches memory), and a safe
    install of the merged line."""
    label = ent.u_label
    if label is None or label._reduce_word is None:
        return None
    caches = msys.caches
    for sharer in ent.u_sharers:
        if sharer == core:
            return None  # own copy missed but directory says U: raise
        sentry = caches[sharer].lookup(line_no)
        if sentry is None or sentry.speculative:
            return None
    if not l2_install_safe(cache, line_no):
        return None
    return -1


def l2_install_safe(cache, line_no: int) -> bool:
    """True when installing ``line_no`` cannot trigger a
    nondeterministic private eviction: the key already exists
    (replace in place), there is headroom, or the LRU victim's
    eviction is deterministic (M/E writeback, S drop — but not U,
    whose eviction draws the rng and may abort foreign transactions,
    and not a speculative line, whose eviction aborts)."""
    lines = cache._lines
    if line_no in lines:
        return True
    cap = cache._l2_capacity
    if cap <= 0 or len(lines) < cap:
        return True
    victim = lines[next(iter(lines))]
    return victim.state is not _U and not victim.speculative


def l1_touch_safe(cache, line_no: int) -> bool:
    """True when the L1 insert of ``line_no`` (every certified access
    touches its target) cannot evict one of this core's own
    speculatively-accessed lines, which would abort the requester's
    transaction (Sec. III-B1). Only consulted for speculative
    requesters — without a transaction this core has no speculative
    lines to lose."""
    l1 = cache._l1
    if line_no in l1:
        return True
    cap = cache._l1_capacity
    if cap <= 0 or len(l1) < cap:
        return True
    victim = cache._lines.get(next(iter(l1)))
    return victim is None or not victim.speculative
