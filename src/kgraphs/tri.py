"""Three-valued verdicts with checkable certificates.

Every decision procedure in this package returns a :class:`Tri`: ``yes`` or
``no`` verdicts carry a certificate that an independent checker can replay,
``unknown`` verdicts carry the bound that was exhausted.  Certificates are
plain (kind, data) records; the replay functions live next to the procedures
that emit them and are registered here by kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

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


# kind -> (replay function (graph, tri) -> bool, the verdicts it certifies)
_REPLAYERS: Dict[str, Tuple[Callable, FrozenSet[str]]] = {}


def register_replayer(kind: str, *verdicts: str):
    """Register the replay of ``kind``, which certifies only ``verdicts``
    (YES, NO or both); under any other verdict the kind is rejected."""
    def deco(fn):
        _REPLAYERS[kind] = fn, frozenset(verdicts)
        return fn

    return deco


def replay(graph, tri: Tri) -> bool:
    """Re-verify a yes/no verdict from its stored certificate.

    Returns True when the certificate checks out.  Unknown verdicts have
    nothing to replay and always pass.  A yes/no verdict without a
    certificate, with an unregistered kind, or with a kind that does not
    certify that verdict fails replay, and so does one whose data the graph
    cannot take (a level below an offset, a degree of the wrong length or
    sign, a structure past its size cap): the procedures that replayers call
    raise ValueError on such input, and a tampered certificate is a
    rejection, not a crash.
    """
    if tri.is_unknown:
        return True
    if tri.certificate is None:
        return False
    fn, verdicts = _REPLAYERS.get(tri.certificate.kind, (None, ()))
    if tri.value not in verdicts:
        return False
    try:
        return bool(fn(graph, tri))
    except ValueError:
        return False
