"""Columnar certification: one predicate for adversary fast-path eligibility.

The columnar crash engine (:mod:`repro.core.columnar`) reproduces exactly
the public :class:`~repro.adversary.base.AdversaryContext` surface —
round number, running/alive sets, outbox payloads, the adversary's own
RNG.  An adversary whose :meth:`plan` is a pure function of those fields
produces bit-identical plans on the fast path, so runs under it may leave
the reference engine.

Certification is declared *where the plan is written*: a strategy module
marks its class with the :func:`certified` decorator, and every consumer
— kernel selection in :mod:`repro.sim.kernel`, the schedule compiler in
:mod:`repro.search.schedule` — asks the same :func:`certification_failure`
predicate.  Registration is by exact type: a subclass may override
``plan`` with logic the certification does not cover, so it must certify
itself explicitly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Type

from repro.adversary.base import FAULT_FAMILIES, Adversary

_CERTIFIED: set = set()


def certified(cls: Type[Adversary]) -> Type[Adversary]:
    """Class decorator: mark ``cls`` (exactly) as columnar-certified.

    Only decorate strategies whose ``plan`` reads nothing beyond the
    public :class:`~repro.adversary.base.AdversaryContext` fields.
    """
    _CERTIFIED.add(cls)
    return cls


def certified_types() -> Tuple[Type[Adversary], ...]:
    """The currently certified exact types, in a stable (name) order."""
    return tuple(sorted(_CERTIFIED, key=lambda cls: cls.__name__))


def is_certified(adversary: Optional[Adversary]) -> bool:
    """True when ``adversary`` (or no adversary at all) may run columnar."""
    return adversary is None or type(adversary) in _CERTIFIED


def certification_failure(
    adversary: Optional[Adversary],
    *,
    supported: Sequence[str] = ("crash",),
) -> Optional[str]:
    """Why ``adversary`` cannot run on a fast path (None = it can).

    Two gates behind one predicate, consulted identically by kernel
    selection and the schedule compiler:

    * *type certification* — the adversary's plan must read only the
      public :class:`~repro.adversary.base.AdversaryContext` surface
      (declared via :func:`certified` where the strategy is written);
    * *family support* — every fault family the adversary declares
      (:meth:`~repro.adversary.base.Adversary.fault_families`) must be
      in the kernel's ``supported`` tuple; a rejection names the first
      unsupported family, so ``auto`` fallbacks are diagnosable.
    """
    if adversary is None:
        return None
    if not is_certified(adversary):
        return (
            f"adversary type {type(adversary).__name__} is not columnar-"
            "certified (its plan may inspect process internals the fast "
            "path never materializes); certified types: "
            + ", ".join(cls.__name__ for cls in certified_types())
        )
    families = tuple(adversary.fault_families())
    unsupported = [family for family in families if family not in supported]
    if unsupported:
        return (
            f"adversary type {type(adversary).__name__} plans fault family "
            f"{unsupported[0]!r}, which this kernel does not apply "
            f"(supported fault families: {', '.join(supported)}; "
            f"the full vocabulary is {', '.join(FAULT_FAMILIES)})"
        )
    return None
