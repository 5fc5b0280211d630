"""Columnar Balls-into-Leaves: the whole population as flat arrays.

The lock-step engine materializes one :class:`BallProcess` per ball and
moves a dict inbox per delivery signature per round.  Almost none of that
machinery is observable: what a ball sees is a function of which
broadcasts reached it, and receivers with the same delivery history share
one local view.  :class:`ColumnarCrashEngine` executes exactly that
function as list passes:

* per-ball state — decided name, naming/halting/crash rounds, halted and
  crashed flags — lives in parallel lists indexed by *label rank* (balls
  are numbered in sorted-label order, so ``<R`` tie-breaks and Section 6
  label ranks are plain integer comparisons), and every round appends its
  counters (messages sent and delivered, crashes, balls alive and
  running, links omitted and the senders that omitted them) to per-round
  lists, the rows the stacked engine keeps per trial: the kernels decode
  both through one :class:`repro.sim.record.TrialRecord`;
* receivers sharing one inbox history share one *equivalence class*
  (:class:`_ClassView`, the flat-array twin of
  :class:`repro.core.views.SharedViewStore`): per-ball node indices over
  :class:`~repro.tree.arrays.TopologyArrays`, lifecycle status bytes
  (the announced-termination lifecycle of :mod:`repro.core.lifecycle`),
  and subtree ball / leaf-occupancy counts.  Partial deliveries split
  classes; classes re-merge when their states coincide;
* a round is one pass to choose candidate paths (consuming each ball's
  private RNG stream exactly as :mod:`repro.core.policies` does, with
  the left/right probabilities memoized per class node per round — the
  view is frozen while everyone composes, so many balls crossing the
  same node share one division) and one pass per delivery group to move
  balls in ``<R`` order (bucketed by depth — a counting sort — instead
  of a comparison sort) under the capacity rule of
  :func:`repro.core.movement.apply_path_round`.

A failure-free run is the degenerate case: every survivor hears every
broadcast, so the run stays one class, and a round with no partial
delivery updates each class in place without building delivery
signatures or merge keys.

A faulted run can wedge, and the engine proves when it has.  A phase (a
path round, then a position round) is a deterministic function of the
state it starts in, the coins its path round draws and the adversary's
plans.  :attr:`ColumnarCrashEngine.fixed_point` is set when, from round
4 on (after hybrid's phase-1 rank walk), a path round drew no coin with
a real choice (every left-child probability it used was 0 or 1),
neither round of the phase applied a fault, the adversary has declared
through :meth:`~repro.adversary.base.Adversary.last_fault_round` that it
acts no more, and the position round ended in exactly the phase's
starting state: the live class views' positions and lifecycle bytes in
live order, which class each running ball holds, the running list, and
the decision, halted and crashed lists.  The next phase then starts
from the same state, computes the same forced probabilities and meets
no fault, so it is the same phase, and so is every later one: the run
can only reach the round limit with the same balls running.  The engine
only reports it; :class:`~repro.sim.columnar.ColumnarKernel` decides
whether to stop.

The adversary reads each round's context through
:class:`_AdversaryContexts`, which both fast engines share: its
``running``, ``alive`` and ``crashed_so_far`` are rebuilt only when they
change, and its outbox builds a payload only when a plan reads it.

Bit-for-bit equivalence with the reference engine — same round counts,
same names, same per-round metrics — is asserted by the differential
oracle in ``tests/test_oracle.py``; any behavioural change here must
keep it green.

Runs the fast path cannot model (full traces, phase statistics, the
faithful view store, uncertified adversary types) are rejected up front
by :func:`repro.sim.kernel.kernel_rejection` and fall back to the
reference kernel.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.adversary.base import (
    AdversaryContext,
    FaultBudget,
    FaultPlan,
    clamp_fault_plan,
)
from repro.adversary.none import NoFailures
from repro.errors import ConfigurationError, SimulationError
from repro.ids import require_distinct
from repro.sim.rng import derive_seed
from repro.tree.topology import cached_topology
from repro.core.lifecycle import BallStatus
from repro.core.messages import hello_message, path_message, position_message

try:  # The C Mersenne-Twister base type.  random.Random passes integer
    # seeds straight through to it, so the streams are bit-identical to
    # derive_rng's — this only skips the Python subclass construction.
    from _random import Random as _MTRandom
except ImportError:  # pragma: no cover - CPython always has _random
    from random import Random as _MTRandom

BallId = Hashable

#: Path policies the columnar layout models: the policy of every BiL-based
#: workload (``random-unweighted`` is an ablation-only policy that never
#: reaches a kernel request).
SUPPORTED_POLICIES = ("random", "hybrid", "rank", "leftmost")

#: Sentinels in the per-node probability memo: the rare both-children-full
#: fallback of ``random_capacity_path`` picks a side *without* consuming a
#: random draw, so it cannot be encoded as a comparison threshold.
_FORCE_LEFT = 2.0
_FORCE_RIGHT = -1.0

#: The plan of a round nobody faults (shared; never mutated).
_NO_FAULTS = FaultPlan()


_ACTIVE = int(BallStatus.ACTIVE)
_ANNOUNCED = int(BallStatus.ANNOUNCED)


class _ProcessIntrospectionUnavailable(Mapping):
    """Stands in for ``AdversaryContext.processes`` on the fast path.

    Columnar-certified adversaries plan from the public context fields
    only; any attempt to introspect process objects fails loudly instead
    of silently diverging from the reference engine.
    """

    def _unavailable(self) -> SimulationError:
        return SimulationError(
            "the columnar kernel does not materialize process objects; "
            "adversaries that introspect ctx.processes must run on the "
            "reference kernel"
        )

    def __getitem__(self, key: Hashable) -> Any:
        raise self._unavailable()

    def __iter__(self) -> Any:
        # Iteration and len() would also diverge from the reference
        # engine's mapping (all processes, crashed included) — fail
        # loudly on every access, not just item lookup.
        raise self._unavailable()

    def __len__(self) -> int:
        raise self._unavailable()


#: The one stand-in every fast-path context shares (it holds no state).
_NO_PROCESSES = _ProcessIntrospectionUnavailable()


class _LazyOutbox(Mapping):
    """One round's outbox, payloads materialized on first access.

    Keyed and ordered like the reference engine's outbox (the running
    pids in input order).  Certified adversaries are pure functions of
    the public context, so building a payload (and the key set) only
    when a plan reads one is observationally identical — and most plans
    read none.
    """

    __slots__ = ("_pids", "_members", "_fetch", "_memo")

    def __init__(self, pids: Sequence[BallId], fetch: Callable[[BallId], Any]) -> None:
        self._pids = pids
        self._members: Optional[frozenset] = None
        self._fetch = fetch
        self._memo: Dict[BallId, Any] = {}

    def __getitem__(self, key: BallId) -> Any:
        memo = self._memo
        if key in memo:
            return memo[key]
        if self._members is None:
            self._members = frozenset(self._pids)
        if key not in self._members:
            raise KeyError(key)
        value = self._fetch(key)
        memo[key] = value
        return value

    def __iter__(self) -> Iterator[BallId]:
        return iter(self._pids)

    def __len__(self) -> int:
        return len(self._pids)


class _AdversaryContexts:
    """Builds one trial's :class:`AdversaryContext` each round, for both
    fast engines.

    The running set only shrinks and the crashed set only grows, so
    their sizes say when they change: ``running``, ``alive`` and
    ``crashed_so_far`` are rebuilt only then and shared by the rounds in
    between, and the outbox is a :class:`_LazyOutbox` over the engine's
    ``fetch``.  Masks are indexed by label rank; pids are listed in input
    order, like the reference engine's process dict.
    """

    __slots__ = (
        "_labels", "_input_order", "_running_left", "_running",
        "_crash_count", "_alive", "_crashed",
    )

    def __init__(self, labels: Sequence[BallId], input_order: Sequence[int]) -> None:
        self._labels = labels
        self._input_order = input_order
        self._running_left = -1
        self._running: Tuple[BallId, ...] = ()
        self._crash_count = -1
        self._alive: Tuple[BallId, ...] = ()
        self._crashed: frozenset = frozenset()

    def build(
        self,
        round_no: int,
        *,
        crashed: Sequence[Any],
        halted: Sequence[Any],
        running_left: int,
        crash_count: int,
        fetch: Callable[[BallId], Any],
        budget_remaining: int,
        omission_budget_remaining: Optional[int] = None,
    ) -> AdversaryContext:
        labels = self._labels
        if crash_count != self._crash_count:
            self._crash_count = crash_count
            self._alive = tuple(
                labels[j] for j in self._input_order if not crashed[j]
            )
            self._crashed = frozenset(
                labels[j] for j in range(len(labels)) if crashed[j]
            )
        if running_left != self._running_left:
            self._running_left = running_left
            self._running = tuple(
                labels[j]
                for j in self._input_order
                if not crashed[j] and not halted[j]
            )
        return AdversaryContext(
            round_no=round_no,
            running=self._running,
            alive=self._alive,
            outbox=_LazyOutbox(self._running, fetch),
            crashed_so_far=self._crashed,
            budget_remaining=budget_remaining,
            processes=_NO_PROCESSES,
            omission_budget_remaining=omission_budget_remaining,
        )


class _ClassView:
    """One receiver equivalence class: a shared flat-array local tree.

    The array twin of one :class:`~repro.core.views._ViewClass` tree:
    ``pos[j]`` is ball ``j``'s node index (``-1`` = not in this view),
    ``status[j]`` its lifecycle byte, ``count``/``leaf_occ`` the subtree
    aggregates of :class:`~repro.tree.local_view.LocalTreeView`.
    """

    __slots__ = (
        "pos",
        "status",
        "count",
        "leaf_occ",
        "n_at_leaf",
        "present",
        "memo_tick",
        "thr",
        "thr_stamp",
        "rank_all",
        "rank_here",
    )

    def __init__(
        self,
        pos: List[int],
        status: bytearray,
        count: List[int],
        leaf_occ: Optional[List[int]],
        n_at_leaf: int,
        present: int,
    ) -> None:
        self.pos = pos
        self.status = status
        self.count = count
        self.leaf_occ = leaf_occ
        self.n_at_leaf = n_at_leaf
        self.present = present
        # Per-round compose caches, keyed by the engine tick: the
        # left-probability memo (valid where thr_stamp[node] == tick),
        # present-prefix ranks and at-node ranks (valid while
        # memo_tick == tick).
        self.thr: Optional[List[float]] = None
        self.thr_stamp: List[int] = []
        self.memo_tick = -1
        self.rank_all: Optional[List[int]] = None
        self.rank_here: Optional[Dict[int, int]] = None

    def clone(self) -> "_ClassView":
        return _ClassView(
            list(self.pos),
            bytearray(self.status),
            list(self.count),
            None if self.leaf_occ is None else list(self.leaf_occ),
            self.n_at_leaf,
            self.present,
        )

    def merge_key(self) -> Tuple[Tuple[int, ...], bytes]:
        """The view's identity: positions *and* lifecycle bytes (the
        array twin of :meth:`LocalTreeView.state_set`)."""
        return (tuple(self.pos), bytes(self.status))


class ColumnarCrashEngine:
    """Balls-into-Leaves under a crashing adversary, as array passes.

    The lock-step round structure, the ``<R`` movement rule, the
    announced-termination lifecycle and the adversary protocol are all
    reproduced bit-for-bit (same per-ball RNG streams, same adversary
    context, same clamping) — asserted by the differential suite.
    Receivers sharing one inbox history share one :class:`_ClassView`;
    classes split on partial delivery and re-merge when their states
    coincide, mirroring :class:`~repro.core.views.SharedViewStore`.
    """

    def __init__(
        self,
        ids: Sequence[BallId],
        *,
        seed: int = 0,
        policy: str = "random",
        halt_on_name: bool = False,
        adversary: Any = None,
        crash_budget: int = 0,
    ) -> None:
        require_distinct(ids)
        if not ids:
            raise ConfigurationError("renaming needs at least one participant")
        if policy not in SUPPORTED_POLICIES:
            raise ConfigurationError(
                f"policy {policy!r} is not columnar-modeled; "
                f"choose from {SUPPORTED_POLICIES}"
            )
        self.labels: List[BallId] = sorted(ids)
        n = len(self.labels)
        self.n = n
        self._index_of: Dict[BallId, int] = {
            pid: j for j, pid in enumerate(self.labels)
        }
        # Adversary context exposes pids in *input* order (the reference
        # simulator's process-dict insertion order), not label order.
        self._input_order: List[int] = [self._index_of[pid] for pid in ids]
        self._seed = seed
        self._policy = policy
        self._halt_on_name = halt_on_name
        # NoFailures plans nothing: the engine skips the adversary protocol.
        self._adversary = None if type(adversary) is NoFailures else adversary
        self._budget = crash_budget
        self._arr = cached_topology(n).arrays()
        self._height = self._arr.topology.height
        self._track_leaf_occ = policy in ("rank", "leftmost")
        self._tick = 0
        # Per-ball run state, indexed by label rank.
        self.halted: List[bool] = [False] * n
        self.crashed: List[bool] = [False] * n
        self.decision: List[Optional[int]] = [None] * n
        self.round_named: List[Optional[int]] = [None] * n
        self.round_halted: List[Optional[int]] = [None] * n
        #: Round each ball crashed (None = survived) — trace capture.
        self.round_crashed: List[Optional[int]] = [None] * n
        self._rngs: List[Optional[_MTRandom]] = [None] * n
        self._class_of: List[Optional[_ClassView]] = [None] * n
        #: The running balls in input order and their distinct classes
        #: (maintained per step).
        self._running: List[int] = list(self._input_order)
        self._live: List[_ClassView] = []
        self._crashed_count = 0
        self.running_count = n
        # Omission state: the adversary's declared budget and the links
        # dropped so far (for clamping).
        self._fault_budget = (
            self._adversary.fault_budget()
            if self._adversary is not None
            else FaultBudget()
        )
        self._omissions_used = 0
        self._contexts = _AdversaryContexts(self.labels, self._input_order)
        #: First round each sender index was silenced by omission.
        self.silenced_round: Dict[int, int] = {}
        # The current phase's livelock evidence (see _note_phase): did its
        # path round draw a real coin, did either round apply a fault, and
        # the state the last counted phase ended in.
        self._coin_tossed = False
        self._faulted = False
        self._phase_end: Optional[Tuple[Any, ...]] = None
        #: The phase just ended is a proven livelock: every later phase
        #: repeats it, so the run can only reach the round limit.
        self.fixed_point = False
        # Metrics trail: one entry per executed round, the rows the
        # stacked engine keeps per trial (decoded by repro.sim.record), plus
        # the links each round dropped by omission and the senders that
        # dropped them, in clamped-plan order.
        self.round_sent: List[int] = []
        self.round_delivered: List[int] = []
        self.round_crashes: List[int] = []
        self.round_alive: List[int] = []
        self.round_running: List[int] = []
        self.round_omissions: List[int] = []
        self.round_omitters: List[List[int]] = []

    # ------------------------------------------------------------------ driving
    def step(self, round_no: int) -> None:
        """Execute one full round: compose, crash plan, deliver, halt."""
        labels = self.labels
        halted = self.halted
        crashed = self.crashed
        running = self._running
        sent = len(running)
        self._tick += 1

        if round_no == 1:
            kind = "init"
            paths: Optional[List[Optional[List[int]]]] = None
        elif round_no % 2 == 0:
            kind = "path"
            self._coin_tossed = self._faulted = False
            paths = self._choose_paths(round_no, running)
        else:
            kind = "pos"
            paths = None

        fault = self._plan_faults(round_no, kind, paths)
        plan = fault.crashes
        if plan or fault.omissions:
            self._faulted = True
        for victim in plan:
            j = self._index_of[victim]
            crashed[j] = True
            self.round_crashed[j] = round_no
            self._crashed_count += 1
            if not halted[j]:
                self.running_count -= 1

        # Victims that composed this round (halted victims sent nothing).
        running_set = set(running) if plan or fault.omissions else set()
        partial: List[Tuple[int, frozenset]] = [
            (self._index_of[victim], kept)
            for victim, kept in plan.items()
            if self._index_of[victim] in running_set
        ]
        # Omitting senders join the same partial-delivery machinery —
        # kept = everyone minus the dropped links — without being marked
        # crashed: they stay receivers, keep composing, and (clamp
        # guarantees the sender is never dropped to itself) always keep
        # their own ball in their own class view.  The purge test below
        # (``i in unheard``, a victim missing from the group's delivery
        # signature) then reproduces the reference semantics bit-for-bit:
        # masked receivers see silence and treat the sender exactly like
        # a crash.
        if fault.omissions:
            alive_pids = [
                labels[j] for j in self._input_order if not crashed[j]
            ]
            for sender in sorted(fault.omissions, key=repr):
                j = self._index_of[sender]
                if j not in running_set:
                    continue  # no broadcast this round, nothing to drop
                dropped = fault.omissions[sender]
                kept = frozenset(p for p in alive_pids if p not in dropped)
                partial.append((j, kept))
        victim_idx: Set[int] = {vi for vi, _kept in partial}
        base_count = sent - len(partial)

        receivers = running if not plan else [
            j for j in self._input_order if not crashed[j] and not halted[j]
        ]
        omissions = 0
        omitters: List[int] = []
        if fault.omissions:
            receiver_pids = {labels[j] for j in receivers}
            for sender in fault.omissions:
                j = self._index_of[sender]
                if j not in running_set:
                    continue
                drops = len(fault.omissions[sender] & receiver_pids)
                if drops:
                    omissions += drops
                    self.silenced_round.setdefault(j, round_no)
                    omitters.append(j)
        class_of = self._class_of
        apply: Any = (
            self._apply_path_round if kind == "path" else self._apply_position_round
        )
        # A position round's payload, the announcements, is built only
        # where delivery reads it (a settled round reads none).
        payload: Any = paths
        if not partial:
            # Fast path: no broadcast was cut short, so every receiver's
            # delivery group is its own pre-class.  Each live class (one,
            # failure-free) advances in place — no delivery signatures,
            # no clones, and merge keys only when several classes live.
            # In-place is safe for the stale classes crashed and halted
            # balls point at: a crashed ball's last class died in its
            # (partial) crash round, and a halted ball stays put in a
            # live class as an announced terminator.
            delivered = len(receivers) * base_count
            if kind == "init":
                post = self._initialize_class(running, victim_idx)
                for j in receivers:
                    class_of[j] = post
                self._live = [post]
            elif (
                kind == "pos"
                and not self._halt_on_name
                and len(self._live) == 1
                and self._live[0].present == len(receivers)
            ):
                # Settled: the one view holds exactly the receivers (a
                # running ball is always present in its own view), each
                # at the position it announces — nothing moves, nothing
                # is purged, and no lifecycle byte changes.
                pass
            else:
                # The receivers are last round's survivors, so their
                # classes are exactly the live list kept below.
                if kind == "pos":
                    payload = self._announcements(running)
                for cv in self._live:
                    apply(cv, payload, victim_idx)
                if len(self._live) > 1:
                    self._merge_live(receivers)
        else:
            if kind == "pos":
                payload = self._announcements(running)
            delivered = self._deliver_partial(
                kind, receivers, partial, base_count, running,
                victim_idx, apply, payload,
            )

        # Per-ball bookkeeping against the ball's own (post) view.  A
        # ball's own entry only moves in path rounds (its position
        # announcement always reaches itself), so path rounds name and
        # position rounds halt.  Not for the hello round: a ball only
        # notes its leaf after a path or position exchange
        # (BallProcess._note_leaf), so the n == 1 root-leaf is named in
        # round 2, not round 1.
        if kind == "path":
            span = self._arr.span
            leaf_rank = self._arr.leaf_rank
            round_named = self.round_named
            for j in receivers:
                if round_named[j] is None:
                    p = class_of[j].pos[j]
                    if span[p] == 1:
                        round_named[j] = round_no
                        self.decision[j] = leaf_rank[p]
        elif kind == "pos":
            receivers = self._halt(round_no, receivers)
        # Next round's senders (the balls still running), and their
        # classes in self._live: exactly next round's receivers and live
        # classes unless a running ball crashes.
        self._running = receivers
        self.round_sent.append(sent)
        self.round_delivered.append(delivered)
        self.round_crashes.append(len(plan))
        self.round_alive.append(self.n - self._crashed_count)
        self.round_running.append(self.running_count)
        self.round_omissions.append(omissions)
        self.round_omitters.append(omitters)
        if kind == "pos":
            self._note_phase(round_no)

    def _note_phase(self, round_no: int) -> None:
        """Set :attr:`fixed_point` when the phase just ended proves a
        livelock (the rule, and why it is exact: the module docstring).

        Its start state is the one recorded at the previous position
        round, so the first phase compared is the one with path round 4,
        and hybrid's rank walk (phase 1) is never taken for one of its
        random phases.  States are recorded only while the adversary is
        quiet; a run without an adversary has no fault to livelock on
        and records none.
        """
        adversary = self._adversary
        last = None if adversary is None else adversary.last_fault_round()
        if last is None or last > round_no:
            self._phase_end = None
            self.fixed_point = False
            return
        state = self._phase_state()
        self.fixed_point = (
            not (self._coin_tossed or self._faulted) and state == self._phase_end
        )
        self._phase_end = state

    def _phase_state(self) -> Tuple[Any, ...]:
        """Everything a later phase reads: the live class views in live
        order, which class each running ball holds, the running list, and
        the decision, halted and crashed lists."""
        live = self._live
        index: Dict[Optional[_ClassView], int] = {
            cv: k for k, cv in enumerate(live)
        }
        class_of = self._class_of
        return (
            [cv.merge_key() for cv in live],
            [index[class_of[j]] for j in self._running],
            tuple(self._running),
            tuple(self.decision),
            tuple(self.halted),
            tuple(self.crashed),
        )

    def _halt(self, round_no: int, receivers: List[int]) -> List[int]:
        """The termination rule of a position round; returns the balls
        still running and keeps :attr:`_live` to their classes."""
        halt_on_name = self._halt_on_name
        if not halt_on_name and all(
            cv.n_at_leaf != cv.present for cv in self._live
        ):
            return receivers
        span = self._arr.span
        leaf_rank = self._arr.leaf_rank
        class_of = self._class_of
        survivors: List[int] = []
        live: List[_ClassView] = []
        seen: Set[int] = set()
        last: Optional[_ClassView] = None
        for j in receivers:
            cv = class_of[j]
            p = cv.pos[j]
            # All present balls at leaves includes j, so both halting
            # rules only ever fire at a leaf.
            if span[p] == 1 and (halt_on_name or cv.n_at_leaf == cv.present):
                self.round_halted[j] = round_no
                self.decision[j] = leaf_rank[p]
                self.halted[j] = True
                self.running_count -= 1
                continue
            survivors.append(j)
            if cv is not last and cv is not None:
                last = cv
                # repro: lint-ok[D104] identity dedup; live keeps deterministic j order
                if id(cv) not in seen:
                    # repro: lint-ok[D104] identity dedup; live keeps deterministic j order
                    seen.add(id(cv))
                    live.append(cv)
        self._live = live
        return survivors

    def _merge_live(self, receivers: Sequence[int]) -> None:
        """Re-merge live classes whose states coincide after a round."""
        merge_index: Dict[Tuple[Tuple[int, ...], bytes], _ClassView] = {}
        canonical = {
            # repro: lint-ok[D104] identity-keyed remap table, read only by lookup
            id(cv): merge_index.setdefault(cv.merge_key(), cv)
            for cv in self._live
        }
        if len(merge_index) == len(self._live):
            return
        self._live = list(merge_index.values())
        class_of = self._class_of
        for j in receivers:
            # repro: lint-ok[D104] lookup in the identity-keyed remap table
            class_of[j] = canonical[id(class_of[j])]

    def _announcements(self, running: Sequence[int]) -> List[Optional[int]]:
        """Each running ball's position in its own view (None = silent)."""
        announced: List[Optional[int]] = [None] * self.n
        class_of = self._class_of
        for j in running:
            announced[j] = class_of[j].pos[j]
        return announced

    def _deliver_partial(
        self,
        kind: str,
        receivers: Sequence[int],
        partial: Sequence[Tuple[int, frozenset]],
        base_count: int,
        running: Sequence[int],
        victim_idx: Set[int],
        apply: Any,
        payload: Any,
    ) -> int:
        """Deliver a round some broadcasts reached only partially; returns
        the round's delivery count.

        Receivers are grouped by (pre-class, delivery signature); each
        group advances one clone of its pre-class, and clones whose
        states coincide merge, like the shared store's memo.
        """
        labels = self.labels
        # Distinct delivery camps: victims usually share receiver sets
        # (split-mode adversaries build two), so a receiver's signature
        # is a function of its camp-membership pattern, computed with
        # one membership test per distinct camp instead of per victim.
        camps: List[Tuple[frozenset, List[int]]] = []
        camp_index: Dict[frozenset, List[int]] = {}
        for vi, kept in partial:
            bucket = camp_index.get(kept)
            if bucket is None:
                bucket = []
                camp_index[kept] = bucket
                camps.append((kept, bucket))
            bucket.append(vi)
        sig_cache: Dict[Tuple[bool, ...], Tuple[frozenset, int]] = {}
        groups: Dict[Tuple[int, frozenset], Tuple[Optional[_ClassView], frozenset, List[int]]] = {}
        delivered = 0
        for j in receivers:
            pid = labels[j]
            pattern = tuple(pid in kept for kept, _vis in camps)
            cached = sig_cache.get(pattern)
            if cached is None:
                members: List[int] = []
                for flag, (_kept, vis) in zip(pattern, camps):
                    if flag:
                        members.extend(vis)
                cached = (frozenset(members), len(members))
                sig_cache[pattern] = cached
            sig, sig_len = cached
            delivered += base_count + sig_len
            pre = self._class_of[j]
            # repro: lint-ok[D104] within-round grouping key; group order comes from the j loop, not the id
            key = (id(pre), sig)
            group = groups.get(key)
            if group is None:
                groups[key] = (pre, sig, [j])
            else:
                group[2].append(j)

        merge_index: Dict[Tuple[Tuple[int, ...], bytes], _ClassView] = {}
        for pre, sig, members in groups.values():
            if kind == "init":
                post = self._initialize_class(running, victim_idx - sig)
            else:
                post = pre.clone()
                apply(post, payload, victim_idx - sig)
            canonical = merge_index.setdefault(post.merge_key(), post)
            for j in members:
                self._class_of[j] = canonical
        self._live = list(merge_index.values())
        return delivered

    # -------------------------------------------------------- state interchange
    def export_state(self) -> Dict[str, Any]:
        """The protocol state as engine-independent plain lists.

        The shape ``VectorizedCrashEngine.export_trial_state`` emits
        (``-1`` sentinels for undecided/unnamed), so the splitting
        estimator can checkpoint on one engine and resume on the other.
        It describes one shared view, so only a run whose running balls
        share a single class, with no crash, can export.
        """
        if len(self._live) != 1 or self._crashed_count:
            raise ConfigurationError(
                f"the run holds {len(self._live)} live view class(es) and "
                f"{self._crashed_count} crash(es); a checkpoint captures "
                "one shared, crash-free view"
            )
        cv = self._live[0]
        return {
            "pos": list(cv.pos),
            "halted": list(self.halted),
            "decision": [-1 if d is None else d for d in self.decision],
            "round_named": [-1 if r is None else r for r in self.round_named],
            "round_halted": [-1 if r is None else r for r in self.round_halted],
            "count": list(cv.count),
            "leaf_occ": None if cv.leaf_occ is None else list(cv.leaf_occ),
            "n_at_leaf": cv.n_at_leaf,
            "running": self.running_count,
        }

    def restore_state(self, state: Dict[str, Any], round_no: int) -> None:
        """Load an exported state as of completed round ``round_no`` ≥ 1.

        Per-ball RNG streams restart fresh from this engine's seed (pass
        the clone's derived seed at construction) — valid because the
        protocol is Markov given the exported state.  Every ball shares
        the one restored class; a halted ball is an announced terminator
        under halt-on-name (failure-free, the two coincide).
        """
        if round_no < 1:
            raise ConfigurationError(
                "restore_state resumes after a completed round (round_no >= 1)"
            )
        self.halted = [bool(h) for h in state["halted"]]
        self.decision = [None if d < 0 else int(d) for d in state["decision"]]
        self.round_named = [
            None if r < 0 else int(r) for r in state["round_named"]
        ]
        self.round_halted = [
            None if r < 0 else int(r) for r in state["round_halted"]
        ]
        pos = [int(p) for p in state["pos"]]
        lifecycle = self._halt_on_name
        cv = _ClassView(
            pos,
            bytearray(
                _ANNOUNCED if lifecycle and h else _ACTIVE for h in self.halted
            ),
            [int(c) for c in state["count"]],
            (
                [int(c) for c in state["leaf_occ"]]
                if self._track_leaf_occ
                else None
            ),
            int(state["n_at_leaf"]),
            sum(1 for p in pos if p >= 0),
        )
        self._class_of = [cv for _ in range(self.n)]
        self._live = [cv]
        self._running = [j for j in self._input_order if not self.halted[j]]
        self.running_count = int(state["running"])
        self._rngs = [None] * self.n

    # -------------------------------------------------------------- adversary
    def _plan_faults(
        self, round_no: int, kind: str, paths: Optional[List[Optional[List[int]]]]
    ) -> FaultPlan:
        if self._adversary is None:
            return _NO_FAULTS
        remaining = self._budget - self._crashed_count
        if remaining <= 0 and tuple(self._adversary.fault_families()) == (
            "crash",
        ):
            # Crash-only adversaries are never consulted past the budget
            # (preserving the original engine's RNG consumption exactly);
            # omission adversaries still plan their omissions.
            return _NO_FAULTS
        if kind == "init":
            hello = hello_message()

            def fetch(pid: BallId) -> Any:
                return hello

        elif kind == "path":
            nodes = self._arr.nodes
            index_of = self._index_of

            def fetch(pid: BallId) -> Any:
                return path_message(tuple(nodes[i] for i in paths[index_of[pid]]))

        else:
            nodes = self._arr.nodes
            index_of = self._index_of
            class_of = self._class_of

            def fetch(pid: BallId) -> Any:
                j = index_of[pid]
                return position_message(nodes[class_of[j].pos[j]])

        budget = self._fault_budget
        ctx = self._contexts.build(
            round_no,
            crashed=self.crashed,
            halted=self.halted,
            running_left=self.running_count,
            crash_count=self._crashed_count,
            fetch=fetch,
            budget_remaining=max(0, remaining),
            omission_budget_remaining=(
                None
                if budget.omissions is None
                else max(0, budget.omissions - self._omissions_used)
            ),
        )
        plan = self._adversary.plan_faults(ctx)
        if plan is None or not (plan.crashes or plan.omissions):
            return _NO_FAULTS
        clamped = clamp_fault_plan(
            plan,
            alive=ctx.alive,
            budget_remaining=max(0, remaining),
            budget=budget,
            omissions_used=self._omissions_used,
        )
        self._omissions_used += sum(
            len(dropped) for dropped in clamped.omissions.values()
        )
        return clamped

    # --------------------------------------------------------------- the rounds
    def _initialize_class(
        self, running: Sequence[int], unheard: Set[int]
    ) -> "_ClassView":
        """Line 1: the heard-from senders at the root."""
        arr = self._arr
        node_count = len(arr.nodes)
        root = arr.root
        pos = [-1] * self.n
        members = 0
        for i in running:
            if i in unheard:
                continue
            pos[i] = root
            members += 1
        count = [0] * node_count
        count[root] = members
        leaf_occ = None
        n_at_leaf = 0
        if self._track_leaf_occ:
            leaf_occ = [0] * node_count
        if arr.span[root] == 1:  # n == 1: the root already is a leaf
            n_at_leaf = members
            if leaf_occ is not None:
                leaf_occ[root] = members
        return _ClassView(
            pos, bytearray(self.n), count, leaf_occ, n_at_leaf, members
        )

    def _apply_path_round(
        self,
        cv: "_ClassView",
        paths: Optional[List[Optional[List[int]]]],
        unheard: Set[int],
    ) -> None:
        """Lines 12-21 on ``cv`` in place, in the ``<R`` order.

        Mirrors :func:`repro.core.movement.apply_path_round`: silent
        balls are purged (or retained while ``ANNOUNCED``) interleaved
        with movers in priority order, and a delivered path is walked
        from *this view's* recorded position with the same defensive
        ghost handling as ``_descend``.
        """
        arr = self._arr
        span = arr.span
        depth = arr.depth
        parent = arr.parent
        pos = cv.pos
        status = cv.status
        count = cv.count
        leaf_occ = cv.leaf_occ
        lifecycle = self._halt_on_name
        # Depth buckets realize <R (deeper first, ties by label = index).
        # No-ops — retained announced terminators and length-1 paths —
        # change no capacity and drop out of the ordered walk.
        buckets: List[List[int]] = [[] for _ in range(self._height + 1)]
        for i in range(self.n):
            p = pos[i]
            if p < 0:
                continue
            path = paths[i]
            if path is not None and i not in unheard:
                if len(path) > 1:
                    buckets[depth[p]].append(i)
            else:
                if lifecycle and status[i] == _ANNOUNCED:
                    continue
                buckets[depth[p]].append(i)
        for bucket in reversed(buckets):
            for i in bucket:
                path = paths[i]
                p = pos[i]
                if path is None or i in unheard:
                    # Silent: crashed (ACTIVE silence).  Remove.
                    pos[i] = -1
                    status[i] = _ACTIVE
                    cv.present -= 1
                    walk = p
                    while walk != -1:
                        count[walk] -= 1
                        walk = parent[walk]
                    if span[p] == 1:
                        cv.n_at_leaf -= 1
                        if leaf_occ is not None:
                            walk = p
                            while walk != -1:
                                leaf_occ[walk] -= 1
                                walk = parent[walk]
                    continue
                # Mover: resume the walk from this view's position.
                if path[0] == p:
                    k0 = 0
                else:
                    try:
                        k0 = path.index(p)
                    except ValueError:
                        continue  # inconsistent ghost: stays put
                node = p
                k = k0
                length = len(path)
                while k + 1 < length:
                    nxt = path[k + 1]
                    if span[nxt] - count[nxt] > 0:
                        node = nxt
                        k += 1
                    else:
                        break
                if k > k0:
                    for m in range(k0 + 1, k + 1):
                        count[path[m]] += 1
                    pos[i] = node
                    if span[node] == 1:
                        cv.n_at_leaf += 1
                        if leaf_occ is not None:
                            walk = node
                            while walk != -1:
                                leaf_occ[walk] += 1
                                walk = parent[walk]

    def _apply_position_round(
        self,
        cv: "_ClassView",
        announced: Optional[List[Optional[int]]],
        unheard: Set[int],
    ) -> None:
        """Lines 22-28 on ``cv`` in place (order-independent)."""
        arr = self._arr
        span = arr.span
        parent = arr.parent
        pos = cv.pos
        status = cv.status
        count = cv.count
        leaf_occ = cv.leaf_occ
        lifecycle = self._halt_on_name
        for i in range(self.n):
            p = pos[i]
            if p < 0:
                continue
            new = announced[i]
            if new is not None and i not in unheard:
                if new != p:
                    walk = p
                    while walk != -1:
                        count[walk] -= 1
                        walk = parent[walk]
                    walk = new
                    while walk != -1:
                        count[walk] += 1
                        walk = parent[walk]
                    if span[p] == 1:
                        cv.n_at_leaf -= 1
                    if span[new] == 1:
                        cv.n_at_leaf += 1
                    if leaf_occ is not None:
                        if span[p] == 1:
                            walk = p
                            while walk != -1:
                                leaf_occ[walk] -= 1
                                walk = parent[walk]
                        if span[new] == 1:
                            walk = new
                            while walk != -1:
                                leaf_occ[walk] += 1
                                walk = parent[walk]
                    pos[i] = new
                if lifecycle:
                    status[i] = _ANNOUNCED if span[new] == 1 else _ACTIVE
            else:
                if lifecycle and status[i] == _ANNOUNCED:
                    continue
                pos[i] = -1
                status[i] = _ACTIVE
                cv.present -= 1
                walk = p
                while walk != -1:
                    count[walk] -= 1
                    walk = parent[walk]
                if span[p] == 1:
                    cv.n_at_leaf -= 1
                    if leaf_occ is not None:
                        walk = p
                        while walk != -1:
                            leaf_occ[walk] -= 1
                            walk = parent[walk]

    # ------------------------------------------------------------- path choice
    def _choose_paths(
        self, round_no: int, running: Sequence[int]
    ) -> List[Optional[List[int]]]:
        """Each running ball's candidate path against *its own* view."""
        phase = round_no // 2
        policy = self._policy
        paths: List[Optional[List[int]]] = [None] * self.n
        if policy == "random" or (policy == "hybrid" and phase > 1):
            self._random_paths(running, paths)
            return paths
        if policy == "hybrid":
            # Section 6, phase 1: aim at the leaf indexed by the ball's
            # label rank among all balls its view knows.
            arr = self._arr
            for j in running:
                cv = self._class_of[j]
                rank = self._rank_among_all(cv, j)
                start = cv.pos[j]
                lo, hi = arr.nodes[start]
                paths[j] = arr.path_to_rank(start, min(lo + rank, hi - 1))
            return paths
        if policy == "rank":
            arr = self._arr
            span = arr.span
            for j in running:
                cv = self._class_of[j]
                start = cv.pos[j]
                if span[start] == 1:
                    paths[j] = [start]
                    continue
                free = span[start] - cv.leaf_occ[start]
                if free <= 0:
                    paths[j] = [start]
                    continue
                rank = self._rank_at_node(cv, j)
                paths[j] = arr.path_to_kth_free_leaf(
                    start, min(rank, free - 1), cv.leaf_occ
                )
            return paths
        if policy == "leftmost":
            arr = self._arr
            for j in running:
                cv = self._class_of[j]
                paths[j] = arr.path_to_kth_free_leaf(cv.pos[j], 0, cv.leaf_occ)
            return paths
        raise ConfigurationError(f"policy {policy!r} is not columnar-modeled")

    def _random_paths(
        self, running: Sequence[int], paths: List[Optional[List[int]]]
    ) -> None:
        """Algorithm 1 lines 5-10 for every running ball, in its own view.

        Consumes ``rng.random()`` exactly where
        :func:`repro.tree.paths.random_capacity_path` does, so the
        per-ball streams stay bit-identical to the reference engine's.
        The left-child probability of each node is memoized per (class,
        round): the view is frozen while everyone composes, so balls
        sharing a class share one division per node.  A probability
        strictly between 0 and 1 is a coin with a real choice, which
        :meth:`_note_phase` must know of.
        """
        arr = self._arr
        left = arr.left
        right = arr.right
        span = arr.span
        tick = self._tick
        rngs = self._rngs
        labels = self.labels
        seed = self._seed
        class_of = self._class_of
        last: Optional[_ClassView] = None
        node_count = len(arr.nodes)
        pos: List[int] = []
        thr: List[float] = []
        stamp: List[int] = []
        count: List[int] = []
        tossed = False
        for j in running:
            cv = class_of[j]
            if cv is not last:
                last = cv
                memo = cv.thr
                if memo is None:
                    memo = cv.thr = [0.0] * node_count
                    cv.thr_stamp = [0] * node_count
                pos = cv.pos
                thr = memo
                stamp = cv.thr_stamp
                count = cv.count
            node = pos[j]
            path = [node]
            paths[j] = path
            if left[node] == -1:
                continue
            rng = rngs[j]
            if rng is None:
                rng = _MTRandom(derive_seed(seed, "ball", labels[j]))
                rngs[j] = rng
            rng_random = rng.random
            append = path.append
            while True:
                lft = left[node]
                if lft == -1:
                    break
                if stamp[node] != tick:
                    stamp[node] = tick
                    rgt = right[node]
                    raw_left = span[lft] - count[lft]
                    raw_right = span[rgt] - count[rgt]
                    cap_left = raw_left if raw_left > 0 else 0
                    cap_right = raw_right if raw_right > 0 else 0
                    total = cap_left + cap_right
                    if total <= 0:
                        # Both (apparently) full: larger raw residual
                        # wins, ties left, *no* draw is consumed.
                        threshold = (
                            _FORCE_LEFT if raw_left >= raw_right else _FORCE_RIGHT
                        )
                    else:
                        threshold = cap_left / total
                        if 0.0 < threshold < 1.0:
                            tossed = True
                    thr[node] = threshold
                threshold = thr[node]
                if threshold == _FORCE_LEFT:
                    node = lft
                elif threshold == _FORCE_RIGHT:
                    node = right[node]
                elif rng_random() < threshold:
                    node = lft
                else:
                    node = right[node]
                append(node)
        self._coin_tossed = tossed

    def _rank_among_all(self, cv: "_ClassView", j: int) -> int:
        """Label rank of ``j`` among the balls present in ``cv``."""
        if cv.memo_tick != self._tick or cv.rank_all is None:
            if cv.memo_tick != self._tick:
                cv.memo_tick = self._tick
                cv.rank_here = None
            ranks = [0] * self.n
            seen = 0
            pos = cv.pos
            for i in range(self.n):
                ranks[i] = seen
                if pos[i] >= 0:
                    seen += 1
            cv.rank_all = ranks
        return cv.rank_all[j]

    def _rank_at_node(self, cv: "_ClassView", j: int) -> int:
        """Label rank of ``j`` among the balls at its own node in ``cv``."""
        if cv.memo_tick != self._tick or cv.rank_here is None:
            if cv.memo_tick != self._tick:
                cv.memo_tick = self._tick
                cv.rank_all = None
            rank_here: Dict[int, int] = {}
            seen_at: Dict[int, int] = {}
            pos = cv.pos
            for i in range(self.n):
                p = pos[i]
                if p < 0:
                    continue
                rank = seen_at.get(p, 0)
                rank_here[i] = rank
                seen_at[p] = rank + 1
            cv.rank_here = rank_here
        return cv.rank_here[j]

    # ---------------------------------------------------------------- reporting
    def monitor_views(self) -> List[Tuple[List[int], bytes]]:
        """The distinct live local views in monitor form.

        One ``(pos, status)`` pair per equivalence class that still has a
        running member — the flat-array twin of iterating the running
        reference processes' ``LocalTreeView`` objects.
        """
        seen: Set[int] = set()
        views: List[Tuple[List[int], bytes]] = []
        for j in range(self.n):
            if self.crashed[j] or self.halted[j]:
                continue
            cv = self._class_of[j]
            # repro: lint-ok[D104] identity dedup; views keep deterministic j order
            if cv is None or id(cv) in seen:
                continue
            # repro: lint-ok[D104] identity dedup; views keep deterministic j order
            seen.add(id(cv))
            views.append((list(cv.pos), bytes(cv.status)))
        return views
