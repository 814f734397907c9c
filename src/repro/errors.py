"""Exception hierarchy for the CommTM reproduction.

Every error raised by the simulator derives from :class:`ReproError` so that
callers can distinguish simulator-detected protocol violations from ordinary
Python bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """Invalid or inconsistent system configuration."""


class MemoryError_(ReproError):
    """Invalid memory access (unmapped address, misalignment, ...)."""


class ProtocolError(ReproError):
    """Coherence protocol invariant violation.

    Raised when the simulated protocol reaches a state that the real
    hardware design rules out (e.g. two exclusive owners). Always a bug in
    the simulator or in user-supplied handlers, never expected at runtime.
    """


class LabelError(ReproError):
    """Invalid label usage (unregistered label, duplicate registration,
    exceeding the hardware label budget without virtualization)."""


class ReductionError(ReproError):
    """Illegal action inside a reduction or split handler.

    The paper (Sec. III-B4) forbids reduction handlers from triggering
    further reductions, i.e. from touching lines held in U state by other
    caches. We detect and raise instead of deadlocking.
    """


class SanitizerError(ReproError):
    """A coherence invariant was violated at a sanitizer checkpoint.

    Raised by :mod:`repro.analysis.sanitizer` (opt-in, ``REPRO_SANITIZE=1``)
    when the memory system's global state breaks an SWMR-style invariant:
    two exclusive holders, M/E coexisting with S/U copies, U sharers with
    disagreeing labels, or a directory entry out of sync with the private
    caches. Unlike :class:`ProtocolError` these are checked *between*
    protocol steps, over the whole machine, not at the point of a single
    illegal transition."""


class TransactionError(ReproError):
    """Misuse of the transactional API (e.g. tx_end without tx_begin,
    labeled access outside a transaction)."""


class SimulationError(ReproError):
    """Engine-level failure: deadlock (no runnable thread), livelock guard
    exceeded, or a thread raised inside its coroutine."""


class AbortTransaction(ReproError):
    """Internal control-flow signal: the current transaction must abort.

    Thrown into the transaction's generator by the engine; user code never
    catches it (the ``Atomic`` runner handles replay).
    """

    def __init__(self, cause: str = "conflict"):
        super().__init__(cause)
        self.cause = cause
