"""Three-valued verdicts with checkable certificates.

Every decision procedure in this package returns a :class:`Tri`: ``yes`` or
``no`` verdicts carry a certificate that an independent checker can replay,
``unknown`` verdicts carry the bound that was exhausted.  Certificates are
plain (kind, data) records; the replay functions live next to the procedures
that emit them and are registered here by kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Certificate:
    """A replayable witness for a yes/no verdict.

    ``kind`` names the replay routine, ``data`` is the witness payload (kept
    JSON-friendly where practical).
    """

    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Tri:
    """A three-valued verdict: yes / no / unknown."""

    value: str
    certificate: Optional[Certificate] = None
    note: str = ""

    def __post_init__(self):
        if self.value not in (YES, NO, UNKNOWN):
            raise ValueError(f"bad verdict {self.value!r}")

    def __bool__(self) -> bool:
        # Truthiness is deliberately strict: only a certified yes is true.
        return self.value == YES

    @property
    def is_yes(self) -> bool:
        return self.value == YES

    @property
    def is_no(self) -> bool:
        return self.value == NO

    @property
    def is_unknown(self) -> bool:
        return self.value == UNKNOWN


def yes(cert: Optional[Certificate] = None, note: str = "") -> Tri:
    return Tri(YES, cert, note)


def no(cert: Optional[Certificate] = None, note: str = "") -> Tri:
    return Tri(NO, cert, note)


def unknown(note: str = "") -> Tri:
    return Tri(UNKNOWN, None, note)


# kind -> replay function (graph, certificate, data) -> bool
_REPLAYERS: Dict[str, Callable] = {}


def register_replayer(kind: str):
    def deco(fn):
        _REPLAYERS[kind] = fn
        return fn

    return deco


def replay(graph, tri: Tri) -> bool:
    """Re-verify a yes/no verdict from its stored certificate.

    Returns True when the certificate checks out.  Unknown verdicts have
    nothing to replay and always pass.  A yes/no verdict without a
    certificate, or with an unregistered kind, fails replay, and so does one
    whose data the graph cannot take (a level below an offset, a degree of
    the wrong length or sign): the procedures that replayers call raise
    ValueError on such input, and a tampered certificate is a rejection,
    not a crash.
    """
    if tri.is_unknown:
        return True
    if tri.certificate is None:
        return False
    fn = _REPLAYERS.get(tri.certificate.kind)
    if fn is None:
        return False
    try:
        return bool(fn(graph, tri))
    except ValueError:
        return False
