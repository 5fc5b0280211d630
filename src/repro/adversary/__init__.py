"""Failure adversaries for the synchronous crash model.

The paper's adversary is *strong* and *adaptive*: each round it sees the
full state, including the messages about to be sent (and hence the
processes' random choices for the round), then picks up to ``t`` victims
and, for each victim, the subset of receivers that still get its
broadcast — the "crash while broadcasting" semantics of Section 4.

Strategies provided:

* :class:`NoFailures` — fault-free runs.
* :class:`RandomCrashAdversary` — oblivious random crashes.
* :class:`ScheduledAdversary` — scripted crash and omission plans
  (tests, figures, compiled hunt genotypes).
* :class:`TargetedPriorityAdversary` — adaptively crashes the highest
  ``<R``-priority-relevant ball mid-broadcast each phase, splitting views.
* :class:`SandwichAdversary` — the order-equivalence crash pattern behind
  the CHT Omega(log n) lower bound, aimed at deterministic algorithms.
* :class:`HalfSplitAdversary` — Section 6's example: the lowest-label ball
  delivers to every second process and crashes, forcing ~n/2 collisions.

Beyond crashes, the :class:`FaultPlan` protocol composes one more
injectable fault family, per-link message omission (see
:mod:`repro.adversary.base`):

* :class:`IIDOmissionAdversary` / :class:`TargetedOmissionAdversary` —
  drop victim -> receiver edges without crashing the sender
  (:class:`ScheduledAdversary` scripts them as :class:`ScheduledOmission`
  entries).
"""

from repro.adversary.base import (
    FAULT_FAMILIES,
    Adversary,
    AdversaryContext,
    CrashPlan,
    FaultBudget,
    FaultPlan,
    clamp_fault_plan,
)
from repro.adversary.certification import (
    certification_failure,
    certified,
    is_certified,
)
from repro.adversary.none import NoFailures
from repro.adversary.omission import (
    IIDOmissionAdversary,
    TargetedOmissionAdversary,
)
from repro.adversary.random_crash import RandomCrashAdversary
from repro.adversary.scheduled import (
    ScheduledAdversary,
    ScheduledCrash,
    ScheduledOmission,
)
from repro.adversary.targeted import TargetedPriorityAdversary
from repro.adversary.sandwich import SandwichAdversary
from repro.adversary.splitter import HalfSplitAdversary

__all__ = [
    "Adversary",
    "AdversaryContext",
    "CrashPlan",
    "FAULT_FAMILIES",
    "FaultBudget",
    "FaultPlan",
    "clamp_fault_plan",
    "certification_failure",
    "certified",
    "is_certified",
    "NoFailures",
    "RandomCrashAdversary",
    "ScheduledAdversary",
    "ScheduledCrash",
    "ScheduledOmission",
    "IIDOmissionAdversary",
    "TargetedOmissionAdversary",
    "TargetedPriorityAdversary",
    "SandwichAdversary",
    "HalfSplitAdversary",
]
