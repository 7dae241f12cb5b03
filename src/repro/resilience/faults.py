"""Fault-plan description: what to break, how often, under which seed.

A :class:`FaultPlan` is a frozen, fully deterministic recipe.  The same
plan applied to the same sample stream always injects the same faults
(the injector derives every decision from ``seed``), so degraded runs
are as reproducible as clean ones — a property the stability benches
and the CI smoke step rely on.

Fault classes (mirroring how real telemetry degrades):

``drop``      sample loss — the overflow fired but the record vanished.
``corrupt``   payload corruption — bad ``leaf_iid`` or garbage frame
              addresses (bit flips, torn writes).
``truncate``  stack-walk truncation at depth *k* — the walker gave up
              before reaching the root.
``tagloss``   spawn-tag loss — the tasking-layer breadcrumb needed for
              pre/post-spawn gluing is gone.
``strip``     debug-info stripping — a fraction of functions resolve to
              raw addresses only.
``crash``     locale crash — a locale's run dies (multi-locale only).
``straggle``  locale straggler — a locale finishes late (multi-locale).

CLI spec grammar (``--inject-faults``)::

    drop=0.1,truncate=0.1:3,tagloss=0.05,corrupt=0.02,strip=0.1,seed=42
    crash=1;3,straggle=2,straggle-delay=0.05,crash-rate=0.2

Rates are fractions in [0, 1]; ``truncate`` takes an optional ``:k``
depth (default 2); ``crash``/``straggle`` take ``;``-separated locale
ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..errors import SampleFormatError

#: The per-sample fault classes a plan can sweep (locale faults are
#: orchestrated by the multi-locale harness, not per sample).
FAULT_CLASSES = ("drop", "corrupt", "truncate", "tagloss", "strip")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault-injection recipe."""

    seed: int = 0
    #: Per-sample fault rates, each in [0, 1].
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0
    truncate_depth: int = 2
    tag_loss_rate: float = 0.0
    #: Fraction of user functions whose debug info is stripped.
    strip_rate: float = 0.0
    #: Locales that always crash (every attempt).
    crash_locales: tuple[int, ...] = ()
    #: Per-attempt crash probability for every locale (retries can
    #: succeed, unlike ``crash_locales``).
    crash_rate: float = 0.0
    #: Locales that straggle (finish after ``straggler_delay`` host s).
    straggler_locales: tuple[int, ...] = ()
    straggler_delay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "corrupt_rate", "truncate_rate",
                     "tag_loss_rate", "strip_rate", "crash_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SampleFormatError(f"{name} must be in [0, 1], got {v}")
        if self.truncate_depth < 1:
            raise SampleFormatError("truncate_depth must be >= 1")

    @property
    def is_clean(self) -> bool:
        """True when the plan injects nothing at the sample level."""
        return (
            self.drop_rate == 0.0
            and self.corrupt_rate == 0.0
            and self.truncate_rate == 0.0
            and self.tag_loss_rate == 0.0
            and self.strip_rate == 0.0
        )

    def with_rate(self, fault: str, rate: float) -> "FaultPlan":
        """Returns a copy with one fault class set to ``rate`` (used by
        the stability sweep to isolate classes)."""
        field = {
            "drop": "drop_rate",
            "corrupt": "corrupt_rate",
            "truncate": "truncate_rate",
            "tagloss": "tag_loss_rate",
            "strip": "strip_rate",
        }.get(fault)
        if field is None:
            raise SampleFormatError(f"unknown fault class {fault!r}")
        return replace(self, **{field: rate})

    def for_locale(self, locale_id: int) -> "FaultPlan":
        """Derives a per-locale plan: same rates, decorrelated seed, so
        every locale degrades independently but reproducibly."""
        return replace(self, seed=self.seed * 1000003 + locale_id * 7919)

    # -- locale-level decisions (used by the multi-locale harness) ----------

    def should_crash(self, locale_id: int, attempt: int) -> bool:
        if locale_id in self.crash_locales:
            return True
        if self.crash_rate <= 0.0:
            return False
        rng = random.Random(f"{self.seed}:crash:{locale_id}:{attempt}")
        return rng.random() < self.crash_rate

    def straggle_seconds(self, locale_id: int) -> float:
        if locale_id in self.straggler_locales:
            return self.straggler_delay
        return 0.0

    # -- CLI spec -----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parses the ``--inject-faults`` spec grammar (see module doc)."""
        kwargs: dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise SampleFormatError(
                    f"bad fault spec item {item!r} (want name=value)"
                )
            name, raw = item.split("=", 1)
            name = name.strip().lower()
            raw = raw.strip()
            try:
                if name == "seed":
                    kwargs["seed"] = int(raw)
                elif name == "drop":
                    kwargs["drop_rate"] = float(raw)
                elif name == "corrupt":
                    kwargs["corrupt_rate"] = float(raw)
                elif name == "truncate":
                    rate, _, depth = raw.partition(":")
                    kwargs["truncate_rate"] = float(rate)
                    if depth:
                        kwargs["truncate_depth"] = int(depth)
                elif name == "tagloss":
                    kwargs["tag_loss_rate"] = float(raw)
                elif name == "strip":
                    kwargs["strip_rate"] = float(raw)
                elif name == "crash":
                    kwargs["crash_locales"] = tuple(
                        int(x) for x in raw.split(";") if x
                    )
                elif name == "crash-rate":
                    kwargs["crash_rate"] = float(raw)
                elif name == "straggle":
                    kwargs["straggler_locales"] = tuple(
                        int(x) for x in raw.split(";") if x
                    )
                elif name == "straggle-delay":
                    kwargs["straggler_delay"] = float(raw)
                else:
                    raise SampleFormatError(
                        f"unknown fault spec key {name!r} "
                        f"(want {'|'.join(FAULT_CLASSES)}|crash|crash-rate|"
                        f"straggle|straggle-delay|seed)"
                    )
            except ValueError as exc:
                if isinstance(exc, SampleFormatError):
                    raise
                raise SampleFormatError(
                    f"bad value in fault spec item {item!r}: {exc}"
                ) from exc
        return cls(**kwargs)  # type: ignore[arg-type]
