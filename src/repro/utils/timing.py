"""Timers used by the online-linking efficiency experiments.

The paper's Figure 11 decomposes online linking time into four parts:
out-of-vocabulary replacement (OR), candidate retrieval (CR), the
encode-decode forward passes (ED), and ranking (RT).  The
:class:`PhaseTimer` accumulates wall-clock time per named phase so the
linker can report exactly that breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Tuple


class Stopwatch:
    """A restartable wall-clock stopwatch with accumulated elapsed time."""

    def __init__(self) -> None:
        self._started_at: float = 0.0
        self._elapsed: float = 0.0
        self._running = False

    def start(self) -> "Stopwatch":
        """Begin (or resume) timing; returns self for chaining."""
        if self._running:
            raise RuntimeError("stopwatch is already running")
        self._started_at = time.perf_counter()
        self._running = True
        return self

    def stop(self) -> float:
        """Stop and return the total accumulated elapsed seconds."""
        if not self._running:
            raise RuntimeError("stopwatch is not running")
        self._elapsed += time.perf_counter() - self._started_at
        self._running = False
        return self._elapsed

    def reset(self) -> None:
        """Clear accumulated time / recorded phases."""
        self._started_at = 0.0
        self._elapsed = 0.0
        self._running = False

    @property
    def elapsed(self) -> float:
        """Accumulated elapsed seconds (including the running segment)."""
        if self._running:
            return self._elapsed + (time.perf_counter() - self._started_at)
        return self._elapsed

    @property
    def running(self) -> bool:
        return self._running


@dataclass
class TimingBreakdown:
    """Per-phase accumulated seconds, e.g. ``{"OR": .., "CR": .., ...}``."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` seconds under ``phase``."""
        if elapsed < 0:
            raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed

    def merge(self, other: "TimingBreakdown") -> None:
        """Add another breakdown's phases into this one."""
        for phase, elapsed in other.seconds.items():
            self.add(phase, elapsed)

    def total(self) -> float:
        """Sum of all phases' seconds."""
        return sum(self.seconds.values())

    def fractions(self) -> Mapping[str, float]:
        """Each phase's share of the total (empty dict if no time logged)."""
        total = self.total()
        if total == 0.0:
            return {phase: 0.0 for phase in self.seconds}
        return {phase: elapsed / total for phase, elapsed in self.seconds.items()}

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict copy of the per-phase seconds."""
        return dict(self.seconds)

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate ``(phase, seconds)`` pairs over a snapshot copy.

        The copy makes iteration safe while another thread (e.g. a
        metrics aggregator in the serving layer) merges into the same
        breakdown.
        """
        return iter(list(self.seconds.items()))

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return self.items()


class PhaseTimer:
    """Accumulates wall-clock time under named phases.

    Usage::

        timer = PhaseTimer()
        with timer.phase("CR"):
            candidates = index.search(query)
        breakdown = timer.breakdown
    """

    def __init__(self) -> None:
        self.breakdown = TimingBreakdown()

    def phase(self, name: str) -> "_Phase":
        """Context manager timing its body under ``name``."""
        return _Phase(self.breakdown, name)

    def reset(self) -> None:
        """Discard all recorded phases."""
        self.breakdown = TimingBreakdown()


class _Phase:
    """:meth:`PhaseTimer.phase`'s context manager: a slotted class, not
    a generator, since linking enters several per query."""

    __slots__ = ("_breakdown", "_name", "_started")

    def __init__(self, breakdown: TimingBreakdown, name: str) -> None:
        self._breakdown = breakdown
        self._name = name
        self._started = 0.0

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        self._breakdown.add(self._name, time.perf_counter() - self._started)
