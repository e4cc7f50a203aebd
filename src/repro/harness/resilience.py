"""Resilient execution policies: retries, timeouts, quarantine, chaos.

The paper's thesis is that an idempotent region can recover from a
failure by jumping back to its entry and re-executing.  Harness work
units have exactly that property — a fault-campaign unit is a pure
function of its payload (spawn-key seeds, content-addressed builds) —
so the orchestration layer can apply the same recovery idea to itself:
a unit whose *worker* fails (killed by a signal, hung, pool torn down)
is simply re-executed from its entry on a fresh worker, and the merged
campaign result is unchanged.

Three pieces live here:

- an **error taxonomy** separating *transient* failures (worker lost,
  wall-clock timeout) — where re-execution is sound and likely to
  succeed — from *permanent* ones (the unit's own code raised), where
  re-execution would deterministically fail again;
- :class:`RetryPolicy` — how many attempts a unit gets, and how long to
  back off between them (the ``BACKOFF_*`` constants), with
  *deterministic* jitter (spawn-key style, like
  :func:`repro.harness.executor.derive_seed`) so two runs of the same
  campaign schedule identically;
- :class:`ChaosPolicy` — a test hook that makes pool workers crash,
  hang, or raise on chosen units, so the recovery machinery is provable
  under test.  Tests hand it to :class:`repro.harness.executor.TaskExecutor`
  (``chaos=``), the one place it is injected.

Quarantine (recording a unit that exhausted its budget so resume skips
it) is implemented by :class:`repro.harness.campaign.CampaignRunner` on
top of the attempt/category accounting these policies produce.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
#: The worker process died or the pool could not transport the result:
#: a killed worker, ``BrokenProcessPool``, an unpicklable result.  The
#: unit itself may never have run — re-execution is sound.
WORKER_LOST = "worker-lost"
#: The unit exceeded its wall-clock budget and its worker was killed.
TIMEOUT = "timeout"
#: The unit's own code raised: deterministic, re-execution would fail
#: again.  Never retried; quarantined when a retry policy is active.
UNIT_ERROR = "unit-error"

TRANSIENT_CATEGORIES = frozenset({WORKER_LOST, TIMEOUT})


def is_transient(category: Optional[str]) -> bool:
    """Whether re-executing a unit that failed this way is worthwhile."""
    return category in TRANSIENT_CATEGORIES


class ChaosError(RuntimeError):
    """Raised inside a work unit by :class:`ChaosPolicy` ``raise`` mode."""


class PermanentUnitError(RuntimeError):
    """A unit failure known to be deterministic (never retried).

    Work functions raise this to assert "retrying cannot help" — e.g.
    a fault-campaign unit whose *reference* run crashes, which means the
    build itself is broken for every future attempt too.
    """


def _unit_interval(*path: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from a derivation path.

    The same spawn-key idea as :func:`repro.harness.executor.derive_seed`
    (SHA-256 over the ``repr`` of each path component), kept local so the
    policy layer has no import cycle with the executor.
    """
    digest = hashlib.sha256()
    for part in path:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest()[:8], "big") / 2.0 ** 64


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
#: Backoff for the retry after attempt ``n`` is
#: ``min(BACKOFF_BASE * BACKOFF_FACTOR**(n-1), BACKOFF_MAX)`` seconds,
#: scaled by ``1 + BACKOFF_JITTER * u`` where ``u`` is a deterministic
#: uniform draw from ``(BACKOFF_SEED, key, n)`` — so a re-run of the same
#: campaign backs off by the same amounts, yet distinct units never
#: thundering-herd.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0
BACKOFF_JITTER = 0.5
BACKOFF_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget for transient unit failures.

    ``max_attempts`` counts *total* executions: 1 means no retries.
    """

    max_attempts: int = 2

    def should_retry(self, category: Optional[str], attempt: int) -> bool:
        """Whether a unit failing this way on this attempt gets another."""
        return is_transient(category) and attempt < self.max_attempts

    def delay(self, key: object, attempt: int) -> float:
        """Seconds to back off before re-submitting after ``attempt``."""
        base = min(BACKOFF_BASE * BACKOFF_FACTOR ** max(attempt - 1, 0),
                   BACKOFF_MAX)
        return base * (1.0 + BACKOFF_JITTER * _unit_interval(
            BACKOFF_SEED, "retry", repr(key), attempt
        ))


#: Executor default when no policy is given: one free re-execution for
#: pool-level failures (worker lost, timeout) and none for unit errors.
#: Invisible unless a worker actually dies.
DEFAULT_RETRY = RetryPolicy(max_attempts=2)


# ----------------------------------------------------------------------
# Chaos policy (test hook)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosPolicy:
    """Deterministic worker-failure injection for pool work units.

    Only applies on the process-pool path (never inline — a chaos crash
    inline would kill the orchestrating process) and only to the first
    ``affect_attempts`` attempts of a unit, so retried units recover and
    a chaotic campaign converges to the undisturbed result.  Units are
    chosen by ``str(key)``: ``crash_units`` / ``hang_units`` /
    ``raise_units``.
    """

    hang_seconds: float = 3600.0
    affect_attempts: int = 1
    crash_units: Tuple[str, ...] = ()
    hang_units: Tuple[str, ...] = ()
    raise_units: Tuple[str, ...] = ()

    def mode(self, key: object, attempt: int) -> Optional[str]:
        """``"crash"`` | ``"hang"`` | ``"raise"`` | None for this attempt."""
        if attempt > self.affect_attempts:
            return None
        name = str(key)
        if name in self.crash_units:
            return "crash"
        if name in self.hang_units:
            return "hang"
        if name in self.raise_units:
            return "raise"
        return None

    def apply(self, key: object, attempt: int) -> None:
        """Worker-side: fault this attempt according to :meth:`mode`."""
        mode = self.mode(key, attempt)
        if mode is None:
            return
        if mode == "crash":
            print(f"[chaos] crashing worker on unit {key} "
                  f"(attempt {attempt})", file=sys.stderr, flush=True)
            os._exit(86)
        if mode == "hang":
            print(f"[chaos] hanging unit {key} (attempt {attempt})",
                  file=sys.stderr, flush=True)
            time.sleep(self.hang_seconds)
            return
        raise ChaosError(f"chaos raise on unit {key} (attempt {attempt})")
