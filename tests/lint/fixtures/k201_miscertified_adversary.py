"""Golden violation: a @certified plan off the columnar surface (K201).

``ctx.processes`` exposes reference-engine process objects the columnar
crash engine never materializes; a certified plan reading it would
produce different crash plans on the two kernels.
"""


class Adversary:
    pass


def certified(cls):
    return cls


@certified
class PeekingAdversary(Adversary):
    def plan(self, ctx):
        if ctx.round_no < 2 or not ctx.budget_remaining:
            return {}
        victim = min(ctx.processes, key=repr)  # expect: K201
        return {victim: frozenset(ctx.alive)}


@certified
class PeekingOmissionAdversary(Adversary):
    """A fault plan is held to the same surface as a crash plan."""

    def plan(self, ctx):
        return {}

    def plan_faults(self, ctx):
        # The omission budget field IS on the materialized surface:
        # reading it must stay clean.
        if ctx.omission_budget_remaining == 0:
            return None
        inboxes = ctx.processes  # expect: K201
        sender = min(inboxes, key=repr)
        return {"omissions": {sender: frozenset(ctx.alive)}}
