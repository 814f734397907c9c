"""The MESI+U invariant suite — one per-line definition, two consumers.

CommTM extends MESI with the U state, and every protocol transition must
preserve the invariants of Sec. III-B (Fig. 6):

* **single writer** — at most one M/E holder per line, and no other
  copies while one exists;
* **no S/U mixing** — S and U never coexist with M/E, and S never
  coexists with U;
* **label agreement** — every U sharer of a line holds it under the same
  label, which is the directory's ``u_label``;
* **directory inclusion** — the directory's owner/sharer/U-sharer sets
  exactly match the lines the private caches actually hold, in both
  directions.

Every one of the eleven checks reads a single line: its valid private
copies and its directory entry. :func:`check_line` is that per-line
check, and it is the only definition. Two callers run it:

* :func:`check_invariants` sweeps the whole machine — one pass over the
  caches collects every line's holders, then :func:`check_line` runs on
  every line any cache or the directory knows. It returns *all*
  violations as :class:`~repro.analysis.findings.Finding` records. The
  exhaustive model checker (``python -m repro.analysis modelcheck``)
  evaluates it on every reachable state of a bounded config, and the
  runtime sanitizer uses it for its full sweeps (``check()`` and the
  run-start and run-end sweeps of a sanitized ``Machine.run``).
* The runtime sanitizer's per-op checkpoints
  (:mod:`repro.analysis.sanitizer`) call :func:`check_line` on the few
  lines an operation may have changed, collecting each line's holders
  with :func:`line_holders` — a probe of every cache for that one line.

Because both callers run the same function, a new invariant (or a fixed
message) lands in every tier at once — the checker can never drift from
what the sanitizer enforces. A new check must stay per-line, or the
sanitizer's dirty-line checkpoints stop being sound.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..coherence.states import State
from .findings import ERROR, Finding

_M, _E, _S, _U, _I = State.M, State.E, State.S, State.U, State.I

#: Check names the suite can emit, in per-line order — documentation and
#: test surface for the enforcement-tier table in PROTOCOL.md.
INVARIANT_CHECKS = (
    "multiple-owners",
    "owner-with-sharers",
    "s-u-coexist",
    "u-label-disagreement",
    "missing-directory-entry",
    "directory-mismatch",
    "directory-mixed-sets",
    "u-without-label",
    "stale-owner",
    "stale-sharer",
    "stale-u-sharer",
)

#: ``fail(check, line_no, message)`` — called once per violation.
FailFn = Callable[[str, int, str], None]


def line_holders(line_no: int, maps: Sequence[dict]) -> Dict[int, object]:
    """The valid private copies of ``line_no`` as ``{core: CacheLine}``.

    ``maps`` holds every cache's line map (``PrivateCache._lines``),
    indexed by core. Every cache is probed: a copy the directory does
    not know about is exactly what inclusion checks must see."""
    return {core: cl for core in range(len(maps))
            if line_no in maps[core]
            and (cl := maps[core][line_no]).state is not _I}


def check_line(line_no: int, by_core: Dict[int, object], ent,
               fail: FailFn) -> None:
    """Run every MESI+U check on one line.

    ``by_core`` maps each core holding a valid (non-I) copy to its
    ``CacheLine``, in core order; ``ent`` is the line's ``DirEntry`` or
    None. Reads nothing else, so the result depends only on this line's
    copies and directory entry. Reports each violation through ``fail``
    and returns nothing."""
    if by_core:
        owners: List[int] = []
        s_sharers: List[int] = []
        u_sharers: List[int] = []
        for core, cl in by_core.items():
            st = cl.state
            if st is _M or st is _E:
                owners.append(core)
            elif st is _S:
                s_sharers.append(core)
            elif st is _U:
                u_sharers.append(core)
        if len(owners) > 1:
            fail("multiple-owners", line_no,
                 f"line {line_no:#x} held M/E by cores {owners}")
        if owners and (s_sharers or u_sharers):
            fail("owner-with-sharers", line_no,
                 f"line {line_no:#x} held M/E by core "
                 f"{owners[0]} while cores "
                 f"{sorted(s_sharers + u_sharers)} hold S/U "
                 f"copies")
        if s_sharers and u_sharers:
            fail("s-u-coexist", line_no,
                 f"line {line_no:#x} held S by {s_sharers} and "
                 f"U by {u_sharers}")
        if u_sharers:
            labels = {id(by_core[c].label): by_core[c].label
                      for c in u_sharers}
            if len(labels) > 1 or None in labels.values():
                names = {c: getattr(by_core[c].label, "name", None)
                         for c in u_sharers}
                fail("u-label-disagreement", line_no,
                     f"line {line_no:#x} U sharers disagree on "
                     f"label: {names}")
        if ent is None:
            fail("missing-directory-entry", line_no,
                 f"line {line_no:#x} held by cores "
                 f"{sorted(by_core)} but the directory has no "
                 f"entry (inclusion violated)")
            return  # every remaining check needs the entry
        # Directory membership must match each copy's actual state.
        for core, cl in by_core.items():
            dir_state = ent.private_state_of(core)
            cache_kind = _M if cl.state is _E else cl.state
            dir_kind = _M if dir_state is _E else dir_state
            if cache_kind is not dir_kind:
                fail("directory-mismatch", line_no,
                     f"line {line_no:#x}: core {core} caches it "
                     f"in {cl.state.value} but the directory "
                     f"records {dir_state.value}")
        if u_sharers and ent.u_label is not None:
            cached = by_core[u_sharers[0]].label
            if cached is not None and cached is not ent.u_label \
                    and getattr(cached, "name", None) \
                    != getattr(ent.u_label, "name", None):
                fail("u-label-disagreement", line_no,
                     f"line {line_no:#x}: caches hold U under "
                     f"label {getattr(cached, 'name', cached)!r} "
                     f"but directory records "
                     f"{getattr(ent.u_label, 'name', None)!r}")
    elif ent is None:
        return

    # Directory-side view: every recorded copy must exist in a cache.
    owner = ent.owner
    if (owner is not None) + bool(ent.sharers) + bool(ent.u_sharers) > 1:
        fail("directory-mixed-sets", line_no,
             f"line {line_no:#x}: directory entry has "
             f"multiple sharer kinds (owner={owner}, "
             f"S={sorted(ent.sharers)}, "
             f"U={sorted(ent.u_sharers)})")
    if ent.u_sharers and ent.u_label is None:
        fail("u-without-label", line_no,
             f"line {line_no:#x}: directory records U "
             f"sharers {sorted(ent.u_sharers)} with no "
             f"label")
    if owner is not None:
        cl = by_core.get(owner)
        if cl is None or (cl.state is not _M and cl.state is not _E):
            fail("stale-owner", line_no,
                 f"line {line_no:#x}: directory owner is "
                 f"core {owner} but that cache holds "
                 f"{cl.state.value if cl else 'nothing'}")
    for core in ent.sharers:
        cl = by_core.get(core)
        if cl is None or cl.state is not _S:
            fail("stale-sharer", line_no,
                 f"line {line_no:#x}: directory records "
                 f"core {core} as an S sharer but that "
                 f"cache holds "
                 f"{cl.state.value if cl else 'nothing'}")
    for core in ent.u_sharers:
        cl = by_core.get(core)
        if cl is None or cl.state is not _U:
            fail("stale-u-sharer", line_no,
                 f"line {line_no:#x}: directory records "
                 f"core {core} as a U sharer but that "
                 f"cache holds "
                 f"{cl.state.value if cl else 'nothing'}")


def check_invariants(msys, pass_name: str = "invariants") -> List[Finding]:
    """Sweep every cache and the directory of ``msys`` for MESI+U
    invariant violations and return them all (empty list = clean).
    ``msys`` is anything that holds the ``caches`` and the ``directory``:
    a memory system, or the sanitizer checking one.

    :func:`check_line` over every line any cache or the directory holds,
    in line order. Reads cache and directory internals directly
    (``_lines``, ``_entries``) so the sweep itself cannot perturb LRU
    order or stats. ``pass_name`` tags the findings with the consuming
    tier ("sanitizer", "modelcheck", ...).
    """
    findings: List[Finding] = []

    def fail(check: str, line_no: Optional[int], message: str) -> None:
        findings.append(Finding(
            pass_name=pass_name, check=check, severity=ERROR,
            message=message,
            label=None if line_no is None else hex(line_no)))

    # One pass over the caches: line -> {core: CacheLine} for every
    # valid copy, in core order.
    holders: Dict[int, Dict[int, object]] = {}
    for cache in msys.caches:
        core = cache.core
        for line_no, cl in cache._lines.items():
            if cl.state is not _I:
                holders.setdefault(line_no, {})[core] = cl
    entries = msys.directory._entries
    empty: Dict[int, object] = {}
    for line_no in sorted(holders.keys() | entries.keys()):
        check_line(line_no, holders.get(line_no, empty),
                   entries.get(line_no), fail)
    return findings
