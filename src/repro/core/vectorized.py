"""Trial-stacked Balls-into-Leaves: a whole scenario cell as array passes.

The columnar engine (:mod:`repro.core.columnar`) removed the per-ball
object machinery but still advances *one trial at a time* with
Python-level loops over balls.  A scenario-matrix cell re-runs those
loops once per seed — for the paper's experiment shape (many independent
trials of one ``(algorithm, n, adversary)`` cell) the interpreter cost
dominates.  :class:`VectorizedCrashEngine` stacks an entire cell of ``T``
trials: the live receiver classes of every trial are rows of
``(C, n)`` / ``(C, node_count)`` matrices over the shared array-indexed
topology, and *all trials advance one lock-step round per batch of
ufunc passes*.  A failure-free trial is the degenerate case of one class
row; rounds in which no broadcast is cut short skip the delivery-group
machinery entirely.

Exactness is the design constraint, not a best effort: every trial's
:class:`~repro.sim.simulator.SimulationResult` is bit-for-bit the
columnar/reference kernels' (asserted by the differential oracle in
``tests/test_oracle.py``).  Three ideas make the stacking exact:

* **RNG** — per-ball Mersenne-Twister streams are reproduced by
  :class:`repro.core.mt19937.MTStreamBank` (vectorized CPython-MT), so a
  ball draws the same doubles at the same walk steps as under the
  scalar engines.
* **Movement** — the reference moves balls in ``<R`` order, each walking
  its candidate path while child capacity remains.  Because balls only
  ever *enter* subtrees during a round, a ball reaches node ``v`` iff
  its ``<R`` rank among the round's arrivals at ``v`` is below ``v``'s
  round-start free capacity.  That reformulation runs level by level as
  grouped admission quotas — no per-trial sequential loop — and only
  over-subscribed nodes (rare) need an actual within-group ranking.
* **Thresholds** — path-choice probabilities are pure functions of the
  frozen pre-round counts; recomputing them per ball vectorized yields
  the identical IEEE-754 doubles the scalar memo produced.

Supported grid: the BiL-family policies on the shared view store, with
no adversary or a certified crash adversary per trial, as decided by
:func:`repro.sim.kernel.kernel_rejection`.  Everything else (omission
faults, faithful views, full traces, ...) stays on the columnar or
reference engines via kernel fallback.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.adversary.base import clamp_plan
from repro.adversary.none import NoFailures
from repro.errors import ConfigurationError
from repro.ids import require_distinct
from repro.tree.topology import cached_topology
from repro.core.columnar import (
    SUPPORTED_POLICIES,
    _ACTIVE,
    _ANNOUNCED,
    _AdversaryContexts,
)
from repro.core.messages import hello_message, path_message, position_message
from repro.core.mt19937 import HAVE_NUMPY, MTStreamBank

if HAVE_NUMPY:
    import numpy as np

BallId = Hashable


def derive_ball_seeds(
    trial_seeds: Sequence[int],
    labels: Sequence[BallId],
    balls: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """``derive_seed(seed, "ball", label)`` for a whole cell, batched.

    Bit-identical to :func:`repro.sim.rng.derive_seed` (asserted in the
    stream tests): the SHA-256 material of a ball stream is
    ``repr((int(seed), repr("ball"), repr(label)))``, whose per-trial
    head and per-ball tail are each built once instead of ``T * n``
    times.  Returns a ``(T * n,)`` uint64 array, trial-major — or, given
    ``balls`` (flat trial-major indices), the seeds of those streams
    only, in that order.
    """
    tails = [(repr(repr(label)) + ")").encode("utf-8") for label in labels]
    heads = [
        ("(%r, \"'ball'\", " % int(seed)).encode("utf-8")
        for seed in trial_seeds
    ]
    # Priming one context per trial head and C-copying it per ball skips re-hashing the head 102k times; the 64-bit
    # truncation happens once, as a stride over the joined digests.
    sha = hashlib.sha256
    digests: List[bytes] = []
    append = digests.append
    if balls is None:
        for head in heads:
            primed = sha(head).copy
            for tail in tails:
                h = primed()
                h.update(tail)
                append(h.digest())
    else:
        n = len(tails)
        copies = [sha(head).copy for head in heads]
        for ball in balls.tolist():
            h = copies[ball // n]()
            h.update(tails[ball % n])
            append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8")[0::4].astype(np.uint64)


class _VecTopology:
    """The :class:`~repro.tree.arrays.TopologyArrays` lists as ndarrays."""

    __slots__ = (
        "n", "node_count", "height", "root",
        "left", "right", "parent", "span", "depth", "leaf_rank",
        "mid", "lo", "hi", "is_leaf",
    )

    def __init__(self, n: int) -> None:
        arr = cached_topology(n).arrays()
        i32 = np.int32
        self.n = n
        self.node_count = len(arr.nodes)
        self.height = arr.topology.height
        self.root = arr.root
        self.left = np.array(arr.left, dtype=i32)
        self.right = np.array(arr.right, dtype=i32)
        self.parent = np.array(arr.parent, dtype=i32)
        self.span = np.array(arr.span, dtype=i32)
        self.depth = np.array(arr.depth, dtype=i32)
        self.leaf_rank = np.array(arr.leaf_rank, dtype=i32)
        self.mid = np.array(arr.mid, dtype=i32)
        self.lo = np.array([node[0] for node in arr.nodes], dtype=i32)
        self.hi = np.array([node[1] for node in arr.nodes], dtype=i32)
        self.is_leaf = self.left == -1


def _grouped_ranks(keys: "np.ndarray") -> "np.ndarray":
    """Rank of each element within its key group, input order preserved.

    The segmented-cumcount kernel shared by label ranking (rank policy)
    and over-subscribed admission: a stable sort groups equal keys while
    keeping the caller's order — which *is* the tie-break order (label
    rank, ``<R``) at every call site — so the in-group offset is the rank.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.empty(sorted_keys.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    offsets = np.arange(sorted_keys.size, dtype=np.int64)
    offsets -= np.repeat(starts, np.diff(np.append(starts, sorted_keys.size)))
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = offsets
    return ranks


@lru_cache(maxsize=16)
def vectorized_topology(n: int) -> "_VecTopology":
    """Shared ndarray topology per ``n``.

    Bounded like ``cached_topology`` (same 16: the eight EXP-T2
    ``--scale deep`` sizes plus interleaved smoke sizes must not
    thrash), and strictly smaller per entry — flat ndarrays, no node
    dictionaries.
    """
    return _VecTopology(n)


# --------------------------------------------------------------------------
# Crash-capable stacked engine: every live view class of every trial is one
# matrix row; all trials advance one lock-step round per batch of passes.
# --------------------------------------------------------------------------


class VectorizedCrashEngine:
    """``T`` stacked trials of one cell, failure-free or under certified
    crash adversaries.

    :class:`~repro.core.columnar.ColumnarCrashEngine` advances one trial
    at a time, cloning and re-merging per-receiver view classes as Python
    list passes.  Here the live classes of *all* trials are rows of
    ``(C, n)`` / ``(C, node_count)`` matrices, and every round is a batch
    of ufunc passes over them; only the adversary ``plan`` calls (Python
    by contract) and the rare purge-dirtied admission nodes drop to
    scalar code.

    Exactness mirrors the columnar engine decision for decision — the
    same per-ball RNG streams, the same
    :class:`~repro.adversary.base.AdversaryContext` and clamping, the
    same frozen-capacity ``<R`` admission (purges enter the priority
    order as capacity-credit events), the same ``(pos, status)`` merge
    keys — asserted trial-for-trial by the stacked-crash differential
    suite.

    Unlike the scalar engines, a trial that exhausts ``max_rounds`` does
    not raise mid-stack: it is flagged in :attr:`overrun` (with the
    running count the columnar engine would have reported) and the other
    trials keep going; likewise a trial an observer stops (the stacked
    monitor's stall abort) is flagged in :attr:`stopped`.  The sim layer
    re-raises or captures per trial.
    """

    def __init__(
        self,
        ids: Sequence[BallId],
        trial_seeds: Sequence[int],
        *,
        policy: str = "random",
        halt_on_name: bool = False,
        adversaries: Optional[Sequence[Any]] = None,
        crash_budget: int = 0,
        max_rounds: int = 10_000,
    ) -> None:
        if not HAVE_NUMPY:
            raise ConfigurationError(
                "the vectorized engine requires numpy (pip install .[fast])"
            )
        require_distinct(ids)
        if not ids:
            raise ConfigurationError("renaming needs at least one participant")
        if policy not in SUPPORTED_POLICIES:
            raise ConfigurationError(
                f"policy {policy!r} is not columnar-modeled; "
                f"choose from {SUPPORTED_POLICIES}"
            )
        if not trial_seeds:
            raise ConfigurationError("a stacked cell needs at least one trial")
        self.labels: List[BallId] = sorted(ids)
        self.n = n = len(self.labels)
        self.trials = T = len(trial_seeds)
        if adversaries is None:
            adversaries = [None] * T
        if len(adversaries) != T:
            raise ConfigurationError(
                f"{len(adversaries)} adversar(ies) for {T} stacked trial(s)"
            )
        self._adversaries = list(adversaries)
        #: Each adversary trial's context helper, made at its first plan.
        self._contexts: Dict[int, _AdversaryContexts] = {}
        self._index_of: Dict[BallId, int] = {
            pid: j for j, pid in enumerate(self.labels)
        }
        # Adversary context exposes pids in *input* order (the reference
        # simulator's process-dict insertion order), not label order.
        self._input_order: List[int] = [self._index_of[pid] for pid in ids]
        self._policy = policy
        self._halt_on_name = halt_on_name
        self._budget = crash_budget
        self.max_rounds = max_rounds
        self._topo = topo = vectorized_topology(n)
        self._nodes = cached_topology(n).arrays().nodes
        M = topo.node_count
        S = T * n
        self._S = S
        self._trial_seeds = list(trial_seeds)
        self._bank: Optional[MTStreamBank] = None
        #: Each ball's bank column when the bank seeds only some streams
        #: (a resumed engine; -1 = not seeded); None when it seeds all.
        self._column: Optional["np.ndarray"] = None
        self._jcol = np.tile(np.arange(n, dtype=np.int64), T)
        self._track_leaf_occ = policy in ("rank", "leftmost")
        # Per-ball run state (trial-major, -1 sentinels like the scalar
        # engines' None).
        self.crashed = np.zeros(S, dtype=bool)
        self.halted = np.zeros(S, dtype=bool)
        self.decision = np.full(S, -1, dtype=np.int32)
        self.round_named = np.full(S, -1, dtype=np.int32)
        self.round_halted = np.full(S, -1, dtype=np.int32)
        #: Round each ball crashed (-1 = survived) — trace capture.
        self.round_crashed = np.full(S, -1, dtype=np.int32)
        #: Row of each *running* ball's view class in the class matrices
        #: (-1 before round 1 and for non-running balls).
        self.cls_of = np.full(S, -1, dtype=np.int64)
        self._victim = np.zeros(S, dtype=bool)
        # Class matrices: one row per live receiver equivalence class.
        self._crows = 0
        self._cpos = np.zeros((0, n), dtype=np.int32)
        self._cstat = np.zeros((0, n), dtype=np.uint8)
        self._ccount = np.zeros((0, M), dtype=np.int32)
        self._cocc = (
            np.zeros((0, M), dtype=np.int32) if self._track_leaf_occ else None
        )
        self._cpresent = np.zeros(0, dtype=np.int32)
        self._cleaf = np.zeros(0, dtype=np.int32)
        self._ctrial = np.zeros(0, dtype=np.int64)
        # Per-trial counters and termination state.
        self.crashed_count = np.zeros(T, dtype=np.int32)
        self.running = np.full(T, n, dtype=np.int32)
        self.rounds = np.zeros(T, dtype=np.int32)
        self.overrun = np.zeros(T, dtype=bool)
        self.running_at_limit = np.zeros(T, dtype=np.int32)
        #: Trials an observer stopped early; they take no further rounds.
        self.stopped = np.zeros(T, dtype=bool)
        # Candidate paths, rows indexed by absolute node depth.
        self._path = np.zeros((S, topo.height + 1), dtype=np.int32)
        self._start_depth = np.zeros(S, dtype=np.int32)
        self._end_depth = np.zeros(S, dtype=np.int32)
        self._announced = np.full(S, -1, dtype=np.int32)
        # Metrics trail: one (T,) row per executed round, inactive trials
        # zeroed so whole-column sums give per-trial totals directly.
        self.round_sent: List["np.ndarray"] = []
        self.round_delivered: List["np.ndarray"] = []
        self.round_crashes: List["np.ndarray"] = []
        self.round_alive: List["np.ndarray"] = []
        self.round_running: List["np.ndarray"] = []
        self._active = np.zeros(T, dtype=bool)
        self._round = 0

    # ------------------------------------------------------------------ driving
    def run(
        self,
        stop_after: Optional[int] = None,
        observer: Optional[Callable[..., None]] = None,
    ) -> None:
        """All trials to completion, to the shared round limit, or to a pause.

        Mirrors the per-trial kernel loop: a trial still running when
        ``max_rounds`` rounds have completed is marked overrun with the
        running count the columnar engine's raise would have carried.
        ``stop_after`` pauses the stack once that round number has been
        completed (trials stay resumable: the importance-splitting
        estimator stops at each level, clones survivors, and resumes the
        clones).  ``observer(engine, round_no, active)`` runs after every
        completed round — the hook the stacked invariant monitor attaches
        to; it may set :attr:`stopped` to end trials early.
        """
        round_no = self._round
        while True:
            active = (self.running > 0) & ~self.overrun & ~self.stopped
            if not active.any():
                break
            if stop_after is not None and round_no >= stop_after:
                break
            if round_no >= self.max_rounds:
                self.overrun |= active
                self.running_at_limit = np.where(
                    active, self.running, self.running_at_limit
                )
                break
            self._active = active
            round_no += 1
            self._round = round_no
            self.step(round_no)
            self.rounds[active] = round_no
            if observer is not None:
                observer(self, round_no, active)

    # -------------------------------------------------------- state interchange
    def export_trial_state(self, t: int) -> Dict[str, Any]:
        """Trial ``t``'s protocol state in engine-independent form.

        The shape ``ColumnarCrashEngine.export_state`` shares (plain
        lists, ``-1`` sentinels for undecided/unnamed), so checkpoints
        move between kernels.  It describes one shared view, so only a
        running trial with a single class and no crash can export.
        """
        rows = np.flatnonzero(self._ctrial == t)
        if rows.size != 1 or self.crashed_count[t]:
            raise ConfigurationError(
                f"trial {t} holds {rows.size} view class(es) and "
                f"{int(self.crashed_count[t])} crash(es); a checkpoint "
                "captures one shared, crash-free view"
            )
        c = int(rows[0])
        balls = slice(t * self.n, (t + 1) * self.n)
        return {
            "pos": self._cpos[c].tolist(),
            "halted": self.halted[balls].tolist(),
            "decision": self.decision[balls].tolist(),
            "round_named": self.round_named[balls].tolist(),
            "round_halted": self.round_halted[balls].tolist(),
            "count": self._ccount[c].tolist(),
            "leaf_occ": (
                self._cocc[c].tolist() if self._cocc is not None else None
            ),
            "n_at_leaf": int(self._cleaf[c]),
            "running": int(self.running[t]),
        }

    def inject_trial_states(
        self, states: Sequence[Dict[str, Any]], round_no: int
    ) -> None:
        """Load one exported state per trial, as of completed ``round_no``.

        The engine must be freshly constructed with one trial seed per
        state (the clones' derived seeds); the next :meth:`run` resumes
        at round ``round_no + 1`` with fresh per-ball streams — valid
        because the protocol is Markov given the exported state.  Each
        trial becomes one class row; a halted ball is an announced
        terminator under halt-on-name (failure-free, the two coincide).

        Only the streams of balls neither halted nor named are seeded: a
        ball draws only while its own view puts it off a leaf, and a
        named ball sits on its leaf.  A resumed splitting stage draws
        from a few percent of its balls, so this skips most of the
        seeding a fresh engine pays; a stream's seed depends only on its
        trial and ball, so the draws are unchanged.
        """
        if len(states) != self.trials:
            raise ConfigurationError(
                f"{len(states)} state(s) for {self.trials} stacked trial(s)"
            )
        T = self.trials
        halted = np.array([s["halted"] for s in states], dtype=bool)
        self.halted[:] = halted.reshape(-1)
        self.decision[:] = np.concatenate([s["decision"] for s in states])
        self.round_named[:] = np.concatenate([s["round_named"] for s in states])
        self.round_halted[:] = np.concatenate(
            [s["round_halted"] for s in states]
        )
        self.running[:] = [s["running"] for s in states]
        self._cpos = np.array([s["pos"] for s in states], dtype=np.int32)
        self._cstat = np.where(
            halted & self._halt_on_name, np.uint8(_ANNOUNCED), np.uint8(_ACTIVE)
        ).astype(np.uint8)
        self._ccount = np.array([s["count"] for s in states], dtype=np.int32)
        if self._cocc is not None:
            self._cocc = np.array(
                [s["leaf_occ"] for s in states], dtype=np.int32
            )
        self._cpresent = (self._cpos >= 0).sum(axis=1).astype(np.int32)
        self._cleaf = np.array([s["n_at_leaf"] for s in states], dtype=np.int32)
        self._ctrial = np.arange(T, dtype=np.int64)
        self._crows = T
        self.cls_of = np.where(
            self.halted, -1, np.repeat(np.arange(T, dtype=np.int64), self.n)
        )
        self.rounds[:] = round_no
        self._round = round_no
        drawing = np.flatnonzero(~self.halted & (self.round_named < 0))
        self._column = np.full(self._S, -1, dtype=np.int64)
        self._column[drawing] = np.arange(drawing.size)

    def step(self, round_no: int) -> None:
        """One full round for every active trial: compose, crash plan,
        deliver per (pre-class, signature) group, merge, halt."""
        n = self.n
        T = self.trials
        topo = self._topo
        M = topo.node_count
        active = self._active
        active_balls = np.repeat(active, n)
        sent_balls = active_balls & ~self.crashed & ~self.halted
        sent_row = np.where(active, self.running, 0).astype(np.int64)
        if round_no == 1:
            kind = "init"
        elif round_no % 2 == 0:
            kind = "path"
            senders = np.flatnonzero(sent_balls)
            if senders.size:
                self._choose_paths(round_no, senders)
        else:
            kind = "pos"
            senders = np.flatnonzero(sent_balls)
            self._announced.fill(-1)
            if senders.size:
                self._announced[senders] = self._cpos[
                    self.cls_of[senders], self._jcol[senders]
                ]
        crashes_row, partial = self._plan_and_crash(
            round_no, kind, sent_balls, active
        )
        alive_row = np.where(
            active, n - self.crashed_count.astype(np.int64), 0
        )

        # Receivers: running balls after this round's crashes land.
        recv = np.flatnonzero(active_balls & ~self.crashed & ~self.halted)
        r_trial = recv // n
        r_j = recv - r_trial * n
        g_pre: Optional["np.ndarray"]
        if partial:
            g_trial, g_pre, inv, g_delivered, delivered_row = (
                self._delivery_groups(
                    partial, recv, r_trial, r_j, sent_balls, sent_row
                )
            )
        else:
            # Fast path: no broadcast was cut short, so every receiver's
            # delivery group is its own pre-class and hears every sender.
            # No camps, signatures or group-key sort; class rows advance
            # in place unless some row lost all its receivers.
            delivered_row = np.bincount(r_trial, minlength=T) * sent_row
            g_pre = None
            if kind == "init":
                g_trial = np.flatnonzero(np.bincount(r_trial, minlength=T))
                inv = np.searchsorted(g_trial, r_trial)
            else:
                g_trial = self._ctrial
                inv = self.cls_of[recv]
                has_recv = np.bincount(inv, minlength=self._crows) > 0
                if not has_recv.all():
                    g_pre = np.flatnonzero(has_recv)
                    g_trial = g_trial[g_pre]
                    row_of = np.cumsum(has_recv) - 1
                    inv = row_of[inv]
            g_delivered = sent_balls.reshape(T, n)[g_trial]
        G = g_trial.size

        if kind == "init":
            new_pos = np.where(g_delivered, np.int32(topo.root), np.int32(-1))
            new_stat = np.zeros((G, n), dtype=np.uint8)
            new_count = np.zeros((G, M), dtype=np.int32)
            mcount = g_delivered.sum(axis=1).astype(np.int32)
            new_count[:, topo.root] = mcount
            new_present = mcount.copy()
            new_leaf = np.zeros(G, dtype=np.int32)
            new_occ = (
                np.zeros((G, M), dtype=np.int32)
                if self._track_leaf_occ
                else None
            )
            if topo.span[topo.root] == 1:  # n == 1: the root is a leaf
                new_leaf = mcount.copy()
                if new_occ is not None:
                    new_occ[:, topo.root] = mcount
        else:
            if g_pre is None:
                new_pos, new_stat, new_count, new_occ = (
                    self._cpos, self._cstat, self._ccount, self._cocc
                )
                new_present, new_leaf = self._cpresent, self._cleaf
            else:
                # Gather each group's pre-class row (copies).
                new_pos = self._cpos[g_pre]
                new_stat = self._cstat[g_pre]
                new_count = self._ccount[g_pre]
                new_occ = self._cocc[g_pre] if self._cocc is not None else None
                new_present = self._cpresent[g_pre]
                new_leaf = self._cleaf[g_pre]
            apply = (
                self._apply_path_groups
                if kind == "path"
                else self._apply_pos_groups
            )
            apply(
                new_pos, new_stat, new_count, new_occ,
                new_present, new_leaf, g_trial, g_delivered,
            )

        if not partial and bool((g_trial[1:] > g_trial[:-1]).all()):
            # One row per trial: nothing can merge.
            keep = None
            rows = inv
        else:
            keep, rows = self._merge_rows(new_pos, new_stat, g_trial, inv)
        if keep is not None:
            new_pos = np.ascontiguousarray(new_pos[keep])
            new_stat = np.ascontiguousarray(new_stat[keep])
            new_count = np.ascontiguousarray(new_count[keep])
            if new_occ is not None:
                new_occ = np.ascontiguousarray(new_occ[keep])
            new_present = new_present[keep]
            new_leaf = new_leaf[keep]
            g_trial = g_trial[keep]
        self._cpos = new_pos
        self._cstat = new_stat
        self._ccount = new_count
        self._cocc = new_occ
        self._cpresent = new_present
        self._cleaf = new_leaf
        self._ctrial = g_trial
        self._crows = int(g_trial.size)
        cls = np.full(self._S, -1, dtype=np.int64)
        cls[recv] = rows
        self.cls_of = cls

        if kind != "init":
            # Per-ball bookkeeping against the ball's own (post) view;
            # skipped on the hello round exactly like the scalar engines.
            c = self.cls_of[recv]
            p = self._cpos[c, r_j]
            at_leaf = topo.span[p] == 1
            naming = at_leaf & (self.round_named[recv] < 0)
            if naming.any():
                named = recv[naming]
                self.round_named[named] = round_no
                self.decision[named] = topo.leaf_rank[p[naming]]
            if kind == "pos":
                halt = self._cleaf[c] == self._cpresent[c]
                if self._halt_on_name:
                    halt |= at_leaf
                if halt.any():
                    idx = recv[halt]
                    self.round_halted[idx] = round_no
                    self.decision[idx] = topo.leaf_rank[p[halt]]
                    self.halted[idx] = True
                    self.running -= np.bincount(
                        r_trial[halt], minlength=T
                    ).astype(np.int32)
        self.round_sent.append(sent_row)
        self.round_delivered.append(delivered_row)
        self.round_crashes.append(crashes_row)
        self.round_alive.append(alive_row)
        self.round_running.append(
            np.where(active, self.running.astype(np.int64), 0)
        )

    def _delivery_groups(
        self,
        partial: Dict[int, List[Any]],
        recv: "np.ndarray",
        r_trial: "np.ndarray",
        r_j: "np.ndarray",
        sent_balls: "np.ndarray",
        sent_row: "np.ndarray",
    ) -> Tuple[
        "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"
    ]:
        """Group receivers by (trial, pre-class, delivery signature).

        Returns each group's trial and pre-class row, every receiver's
        group index, the ``(G, n)`` mask of broadcasts each group heard,
        and the per-trial delivery counts.
        """
        n = self.n
        T = self.trials
        r_pre = self.cls_of[recv]
        r_pat = np.zeros(recv.size, dtype=np.int64)
        # Distinct delivery camps per trial: a receiver's signature is a
        # function of its camp-membership pattern, computed once per
        # distinct pattern.
        trial_sig: Dict[int, Any] = {}
        npat = 1
        for t, events in partial.items():
            where = np.flatnonzero(r_trial == t)
            if where.size == 0:
                continue
            camp_sets: List[frozenset] = []
            camp_idx: Dict[frozenset, int] = {}
            victims: List[int] = []
            camp_of: List[int] = []
            for j, kept in events:
                k = camp_idx.get(kept)
                if k is None:
                    camp_idx[kept] = k = len(camp_sets)
                    camp_sets.append(kept)
                victims.append(j)
                camp_of.append(k)
            mem = np.zeros((len(camp_sets), n), dtype=bool)
            index_of = self._index_of
            for k, kept in enumerate(camp_sets):
                # A kept receiver outside the trial (-1) is heard by no one.
                cols = np.fromiter(
                    map(index_of.get, kept, repeat(-1)), np.intp, len(kept)
                )
                mem[k, cols[cols >= 0]] = True
            patterns = mem[:, r_j[where]].T
            # Each row's packed bits as one opaque key: a 1-D unique over
            # byte strings, not a sort of one field per camp.
            packed = np.packbits(patterns, axis=1)
            keys = packed.view(np.dtype((np.void, packed.shape[1])))
            _uc, fidx, inverse = np.unique(
                keys.ravel(), return_index=True, return_inverse=True
            )
            r_pat[where] = inverse.reshape(-1)
            # Every victim sits in exactly one camp, so a pattern hears a
            # victim iff it holds the victim's camp.
            heard_victims = patterns[fidx][:, camp_of]
            heard = np.zeros((fidx.size, n), dtype=bool)
            heard[:, victims] = heard_victims
            trial_sig[t] = (heard, heard_victims.sum(axis=1))
            npat = max(npat, fidx.size)

        gkey = (
            r_trial * np.int64(self._crows + 1) + (r_pre + 1)
        ) * np.int64(npat) + r_pat
        _uk, first, inv = np.unique(
            gkey, return_index=True, return_inverse=True
        )
        inv = inv.reshape(-1)
        G = first.size
        g_trial = r_trial[first]
        g_pat = r_pat[first]
        g_sig = np.zeros((G, n), dtype=bool)
        g_siglen = np.zeros(G, dtype=np.int64)
        for t, (smask, slen) in trial_sig.items():
            rows = np.flatnonzero(g_trial == t)
            if rows.size:
                pat = g_pat[rows]
                g_sig[rows] = smask[pat]
                g_siglen[rows] = slen[pat]
        partial_count = np.zeros(T, dtype=np.int64)
        for t, events in partial.items():
            partial_count[t] = len(events)
        base_count = sent_row - partial_count
        delivered_row = np.zeros(T, dtype=np.int64)
        if recv.size:
            delivered_row = np.bincount(
                r_trial,
                weights=(base_count[r_trial] + g_siglen[inv]).astype(
                    np.float64
                ),
                minlength=T,
            ).astype(np.int64)
        victim_m = self._victim.reshape(T, n)[g_trial]
        g_delivered = sent_balls.reshape(T, n)[g_trial] & (~victim_m | g_sig)
        return g_trial, r_pre[first], inv, g_delivered, delivered_row

    @staticmethod
    def _merge_rows(
        new_pos: "np.ndarray",
        new_stat: "np.ndarray",
        g_trial: "np.ndarray",
        inv: "np.ndarray",
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Merge a trial's rows whose (pos, status) coincide.

        Returns the surviving row indices and every receiver's canonical
        row in the surviving numbering.
        """
        G = g_trial.size
        remap = np.empty(G, dtype=np.int64)
        canon: Dict[Any, int] = {}
        g_trial_l = g_trial.tolist()
        for g in range(G):
            mkey = (g_trial_l[g], new_pos[g].tobytes(), new_stat[g].tobytes())
            hit = canon.get(mkey)
            if hit is None:
                canon[mkey] = g
                remap[g] = g
            else:
                remap[g] = hit
        keep = np.flatnonzero(np.bincount(remap, minlength=G))
        ridx = np.full(G, -1, dtype=np.int64)
        ridx[keep] = np.arange(keep.size, dtype=np.int64)
        return keep, ridx[remap[inv]]

    # -------------------------------------------------------------- adversary
    def _plan_and_crash(
        self,
        round_no: int,
        kind: str,
        sent_balls: "np.ndarray",
        active: "np.ndarray",
    ) -> Tuple["np.ndarray", Dict[int, List[Any]]]:
        """Plan, clamp and apply every active trial's crashes.

        Returns the per-trial crash counts and the partial victims
        (``trial -> [(ball index, kept receivers), ...]`` in clamped plan
        order) whose broadcasts some receivers still see.
        """
        n = self.n
        T = self.trials
        labels = self.labels
        nodes = self._nodes
        crashes_row = np.zeros(T, dtype=np.int64)
        partial: Dict[int, List[Any]] = {}
        self._victim.fill(False)
        for t in np.flatnonzero(active).tolist():
            adv = self._adversaries[t]
            if adv is None or type(adv) is NoFailures:
                continue
            remaining = self._budget - int(self.crashed_count[t])
            if remaining <= 0:
                continue
            base = t * n
            if kind == "init":
                hello = hello_message()

                def fetch(pid: BallId, _hello: Any = hello) -> Any:
                    return _hello

            elif kind == "path":

                def fetch(pid: BallId, base: int = base) -> Any:
                    s = base + self._index_of[pid]
                    sd = int(self._start_depth[s])
                    ed = int(self._end_depth[s])
                    return path_message(
                        tuple(
                            nodes[int(i)] for i in self._path[s, sd : ed + 1]
                        )
                    )

            else:

                def fetch(pid: BallId, base: int = base) -> Any:
                    return position_message(
                        nodes[int(self._announced[base + self._index_of[pid]])]
                    )

            contexts = self._contexts.get(t)
            if contexts is None:
                contexts = _AdversaryContexts(labels, self._input_order)
                self._contexts[t] = contexts
            ctx = contexts.build(
                round_no,
                crashed=self.crashed[base : base + n].tolist(),
                halted=self.halted[base : base + n].tolist(),
                running_left=int(self.running[t]),
                crash_count=int(self.crashed_count[t]),
                fetch=fetch,
                budget_remaining=remaining,
            )
            plan = adv.plan(ctx)
            if not plan:
                continue
            plan = clamp_plan(plan, alive=ctx.alive, budget_remaining=remaining)
            if not plan:
                continue
            crashes_row[t] = len(plan)
            events = []
            for pid, kept in plan.items():
                j = self._index_of[pid]
                s = base + j
                self.crashed[s] = True
                self.round_crashed[s] = round_no
                self.crashed_count[t] += 1
                if not self.halted[s]:
                    self.running[t] -= 1
                if sent_balls[s]:
                    self._victim[s] = True
                    events.append((j, kept))
            if events:
                partial[t] = events
        return crashes_row, partial

    # --------------------------------------------------------------- the rounds
    def _apply_path_groups(
        self,
        new_pos: "np.ndarray",
        new_stat: "np.ndarray",
        new_count: "np.ndarray",
        new_occ: Optional["np.ndarray"],
        new_present: "np.ndarray",
        new_leaf: "np.ndarray",
        g_trial: "np.ndarray",
        delivered: "np.ndarray",
    ) -> None:
        """Lines 12-21 on every group row at once, level by level.

        The ``<R`` interleaving of movers and purges is realized against
        frozen round-start capacities: purges post capacity-credit events
        keyed by their priority, clean nodes admit by grouped rank, and
        only nodes holding both purge credit and arrivals replay the
        exact event merge sequentially (rare: a node's subtree must lose
        a silent ball and receive arrivals in the same round).
        """
        topo = self._topo
        M = topo.node_count
        H = topo.height
        n = self.n
        G = new_pos.shape[0]
        span = topo.span
        depth = topo.depth
        fc = new_count.reshape(-1)
        focc = new_occ.reshape(-1) if new_occ is not None else None
        lifecycle = self._halt_on_name
        present = new_pos >= 0
        # Frozen round-start capacity; purges must not open quota for
        # <R-earlier arrivals, so they go into the credit ledger instead.
        quota0 = (span[np.newaxis, :] - new_count).reshape(-1).copy()
        silent = present & ~delivered
        if lifecycle:
            silent &= new_stat != _ANNOUNCED
        credit = None
        purges = None
        pg, pi = np.nonzero(silent)
        if pg.size:
            credit = np.zeros(fc.size, dtype=np.int32)
            ppos = new_pos[pg, pi]
            pdep = depth[ppos]
            pleaf = span[ppos] == 1
            new_pos[pg, pi] = -1
            new_stat[pg, pi] = _ACTIVE
            new_present -= np.bincount(pg, minlength=G).astype(np.int32)
            if pleaf.any():
                new_leaf -= np.bincount(
                    pg[pleaf], minlength=G
                ).astype(np.int32)
            gb = pg * np.int64(M)
            self._chain_add(fc, gb, ppos, -1)
            self._chain_add(credit, gb, ppos, 1)
            if pleaf.any() and focc is not None:
                self._chain_add(focc, gb[pleaf], ppos[pleaf], -1)
            # Event lists for the (rare) purge-dirtied admission nodes
            # are reconstructed on demand in _admit_dirty from these.
            purges = (pg, pi, ppos, pdep)
        # Movers: delivered balls whose recorded path resumes from this
        # class's position (the columnar ghost rule: the position must
        # sit on the path strictly before its end, else the ball stays).
        mg, mi = np.nonzero(present & delivered)
        mball = g_trial[mg] * np.int64(n) + mi
        sd = self._start_depth[mball]
        ed = self._end_depth[mball]
        # A one-node path moves nobody in any view: drop those first.
        walking = np.flatnonzero(sd < ed)
        if walking.size == 0:
            return
        if walking.size < mg.size:
            mg, mi, mball, sd, ed = (
                mg[walking], mi[walking], mball[walking], sd[walking],
                ed[walking],
            )
        p = new_pos[mg, mi]
        dp = depth[p]
        valid = (sd <= dp) & (dp < ed) & (self._path[mball, dp] == p)
        keepm = np.flatnonzero(valid)
        if keepm.size == 0:
            return
        mg = mg[keepm]
        mi = mi[keepm]
        mball = mball[keepm]
        dp = dp[keepm]
        ed = ed[keepm]
        # <R order: deeper start first, ties by ball index (stable).
        order = np.argsort(
            mg * np.int64(H + 1) + (H - dp), kind="stable"
        )
        mg = mg[order]
        mi = mi[order]
        mball = mball[order]
        dp = dp[order]
        ed = ed[order]
        advancing = np.ones(mg.size, dtype=bool)
        gbase = mg * np.int64(M)
        for level in range(1, H + 1):
            elig = advancing & (dp < level) & (level <= ed)
            sel = np.flatnonzero(elig)
            if sel.size == 0:
                continue
            child = self._path[mball[sel], level]
            gid = gbase[sel] + child
            arrivals = np.bincount(gid, minlength=fc.size)
            admitted = np.ones(sel.size, dtype=bool)
            if credit is not None:
                is_dirty = credit[gid] > 0
                crowd = ~is_dirty & (arrivals[gid] > quota0[gid])
            else:
                is_dirty = None
                crowd = arrivals[gid] > quota0[gid]
            if crowd.any():
                cpos_ = np.flatnonzero(crowd)
                cgid = gid[cpos_]
                admitted[cpos_] = _grouped_ranks(cgid) < quota0[cgid]
            if is_dirty is not None and is_dirty.any():
                self._admit_dirty(
                    gid, is_dirty, admitted, quota0, purges,
                    dp[sel], mi[sel],
                )
            if not admitted.all():
                advancing[sel[~admitted]] = False
            msel = sel[admitted]
            if msel.size == 0:
                continue
            if admitted.all():
                np.add(fc, arrivals, out=fc, casting="unsafe")
            else:
                np.add(
                    fc,
                    np.bincount(gid[admitted], minlength=fc.size),
                    out=fc,
                    casting="unsafe",
                )
            mchild = child[admitted]
            new_pos[mg[msel], mi[msel]] = mchild
            leaf_hit = span[mchild] == 1
            if leaf_hit.any():
                lg = mg[msel][leaf_hit]
                new_leaf += np.bincount(lg, minlength=G).astype(np.int32)
                if focc is not None:
                    self._chain_add(
                        focc, lg * np.int64(M), mchild[leaf_hit], 1
                    )

    def _admit_dirty(
        self,
        gid: "np.ndarray",
        is_dirty: "np.ndarray",
        admitted: "np.ndarray",
        quota0: "np.ndarray",
        purges: Any,
        dp: "np.ndarray",
        mi: "np.ndarray",
    ) -> None:
        """Replay arrivals against purge-credit events at dirty nodes.

        Arrivals reach here already in ``<R`` order per node; a purge at
        ``p0`` posted one capacity credit at every ancestor, carrying the
        priority key the columnar depth buckets gave it, so a sorted
        two-stream merge reproduces the sequential capacity evolution
        exactly.  Each dirty node's event list is rebuilt here from the
        round's purge table (the purges whose position sits in the
        node's subtree) — almost every round has purges, almost no node
        has both credit and arrivals.
        """
        topo = self._topo
        M = topo.node_count
        lo = topo.lo
        hi = topo.hi
        pg, pi, ppos, pdep = purges
        by_gid: Dict[int, List[int]] = {}
        gid_l = gid.tolist()
        for k in np.flatnonzero(is_dirty).tolist():
            by_gid.setdefault(gid_l[k], []).append(k)
        dp_l = dp.tolist()
        mi_l = mi.tolist()
        for gidval, ks in by_gid.items():
            g, a = divmod(gidval, M)
            sel = (pg == g) & (lo[a] <= lo[ppos]) & (hi[ppos] <= hi[a])
            events = sorted(
                zip(pdep[sel].tolist(), pi[sel].tolist()),
                key=lambda e: (-e[0], e[1]),
            )
            cap = int(quota0[gidval])
            ei = 0
            ne = len(events)
            for k in ks:
                akey = (-dp_l[k], mi_l[k])
                while ei < ne and (-events[ei][0], events[ei][1]) < akey:
                    cap += 1
                    ei += 1
                if cap > 0:
                    cap -= 1
                else:
                    admitted[k] = False

    def _apply_pos_groups(
        self,
        new_pos: "np.ndarray",
        new_stat: "np.ndarray",
        new_count: "np.ndarray",
        new_occ: Optional["np.ndarray"],
        new_present: "np.ndarray",
        new_leaf: "np.ndarray",
        g_trial: "np.ndarray",
        delivered: "np.ndarray",
    ) -> None:
        """Lines 22-28 on every group row at once (order-independent)."""
        topo = self._topo
        M = topo.node_count
        n = self.n
        G = new_pos.shape[0]
        span = topo.span
        fc = new_count.reshape(-1)
        focc = new_occ.reshape(-1) if new_occ is not None else None
        lifecycle = self._halt_on_name
        present = new_pos >= 0
        ann = self._announced.reshape(self.trials, n)[g_trial]
        live = present & delivered
        tg, ti = np.nonzero(live & (ann != new_pos))
        if tg.size:
            old = new_pos[tg, ti]
            newp = ann[tg, ti]
            gb = tg * np.int64(M)
            self._chain_add(fc, gb, old, -1)
            self._chain_add(fc, gb, newp, 1)
            oldleaf = span[old] == 1
            newleaf = span[newp] == 1
            if oldleaf.any():
                new_leaf -= np.bincount(
                    tg[oldleaf], minlength=G
                ).astype(np.int32)
                if focc is not None:
                    self._chain_add(focc, gb[oldleaf], old[oldleaf], -1)
            if newleaf.any():
                new_leaf += np.bincount(
                    tg[newleaf], minlength=G
                ).astype(np.int32)
                if focc is not None:
                    self._chain_add(focc, gb[newleaf], newp[newleaf], 1)
            new_pos[tg, ti] = newp
        if lifecycle:
            lg, li = np.nonzero(live)
            if lg.size:
                a = ann[lg, li]
                new_stat[lg, li] = np.where(
                    span[a] == 1, np.uint8(_ANNOUNCED), np.uint8(_ACTIVE)
                )
        silent = present & ~delivered
        if lifecycle:
            silent &= new_stat != _ANNOUNCED
        pg, pi = np.nonzero(silent)
        if pg.size:
            ppos = new_pos[pg, pi]
            pleaf = span[ppos] == 1
            new_pos[pg, pi] = -1
            new_stat[pg, pi] = _ACTIVE
            new_present -= np.bincount(pg, minlength=G).astype(np.int32)
            gb = pg * np.int64(M)
            self._chain_add(fc, gb, ppos, -1)
            if pleaf.any():
                new_leaf -= np.bincount(
                    pg[pleaf], minlength=G
                ).astype(np.int32)
                if focc is not None:
                    self._chain_add(focc, gb[pleaf], ppos[pleaf], -1)

    def _chain_add(
        self,
        arr: "np.ndarray",
        base: "np.ndarray",
        start: "np.ndarray",
        delta: int,
    ) -> None:
        """``arr[base + v] += delta`` along every root chain from ``start``."""
        parent = self._topo.parent
        walk = start
        b = base
        while walk.size:
            np.add.at(arr, b + walk, delta)
            nxt = parent[walk]
            keep = nxt != -1
            walk = nxt[keep]
            b = b[keep]

    # ------------------------------------------------------------- path choice
    def _choose_paths(self, round_no: int, senders: "np.ndarray") -> None:
        """Each sender's candidate path against *its own* class row."""
        topo = self._topo
        M = topo.node_count
        c = self.cls_of[senders]
        j = self._jcol[senders]
        start = self._cpos[c, j]
        sd = topo.depth[start]
        self._path[senders, sd] = start
        self._start_depth[senders] = sd
        self._end_depth[senders] = sd
        policy = self._policy
        phase = round_no // 2
        nonleaf = ~topo.is_leaf[start]
        cbase = c * np.int64(M)
        if policy == "random" or (policy == "hybrid" and phase > 1):
            walkers = np.flatnonzero(nonleaf)
            if walkers.size:
                self._walk_random(
                    senders[walkers], start[walkers], cbase[walkers]
                )
            return
        if policy == "hybrid":
            pres = self._cpos >= 0
            rank_all = np.cumsum(pres, axis=1) - pres
            rank = rank_all[c, j]
            target = np.minimum(topo.lo[start] + rank, topo.hi[start] - 1)
            walkers = np.flatnonzero(nonleaf)
            if walkers.size:
                self._walk_to_rank(
                    senders[walkers], start[walkers], target[walkers]
                )
            return
        occ = self._cocc.reshape(-1)
        free = topo.span[start] - occ[cbase + start]
        if policy == "rank":
            go = np.flatnonzero(nonleaf & (free > 0))
            if go.size:
                rank = self._ranks_at_node()[c[go], j[go]]
                self._walk_to_kth_free(
                    senders[go], start[go], cbase[go],
                    np.minimum(rank, free[go] - 1),
                )
            return
        if policy == "leftmost":
            go = np.flatnonzero(nonleaf & (free > 0))
            if go.size:
                self._walk_to_kth_free(
                    senders[go], start[go], cbase[go],
                    np.zeros(go.size, dtype=np.int64),
                )
            fallback = np.flatnonzero(nonleaf & (free <= 0))
            if fallback.size:
                self._walk_to_rank(
                    senders[fallback], start[fallback],
                    topo.lo[start[fallback]],
                )
            return
        raise ConfigurationError(
            f"policy {policy!r} is not columnar-modeled"
        )

    def _ranks_at_node(self) -> "np.ndarray":
        """Label rank of every present ball among the balls at its node,
        per class row (the columnar ``rank_here`` memo, all at once)."""
        M = self._topo.node_count
        cc, ii = np.nonzero(self._cpos >= 0)
        keys = cc * np.int64(M) + self._cpos[cc, ii]
        out = np.zeros((self._crows, self.n), dtype=np.int64)
        out[cc, ii] = _grouped_ranks(keys)
        return out

    def _draw(self, balls: "np.ndarray") -> "np.ndarray":
        """The next double of each ball's stream, seeding the bank on the
        first draw.  A resumed engine's bank holds only the streams
        :attr:`_column` maps; a ball outside them raises instead of
        reading another ball's stream."""
        bank = self._bank
        column = self._column
        if bank is None:
            seeded = None if column is None else np.flatnonzero(column >= 0)
            bank = self._bank = MTStreamBank(
                derive_ball_seeds(self._trial_seeds, self.labels, seeded),
                block=max(4, self._topo.height),
            )
        if column is not None:
            balls = column[balls]
            if balls.size and balls.min() < 0:
                raise RuntimeError(
                    "a ball outside the seeded streams drew: a resumed "
                    "engine seeds only balls neither halted nor named"
                )
        return bank.draws(balls)

    def _walk_random(
        self, idx: "np.ndarray", cur: "np.ndarray", base: "np.ndarray"
    ) -> None:
        """Algorithm 1 lines 5-10 for every walker, one level per pass.

        Each ball consumes its private stream exactly where the scalar
        walk does — one draw per non-forced inner node, none when both
        children appear full (the larger raw residual wins, ties left) —
        against the counts of its own class row.
        """
        topo = self._topo
        span = topo.span
        count = self._ccount.reshape(-1)
        dcur = topo.depth[cur]
        while idx.size:
            left = topo.left[cur]
            right = topo.right[cur]
            raw_l = span[left] - count[base + left]
            raw_r = span[right] - count[base + right]
            cap_l = np.maximum(raw_l, 0)
            total = cap_l + np.maximum(raw_r, 0)
            forced = total <= 0
            go_left = np.empty(idx.size, dtype=bool)
            if forced.any():
                go_left[forced] = raw_l[forced] >= raw_r[forced]
            free = ~forced
            if free.any():
                draws = self._draw(idx[free])
                go_left[free] = draws < cap_l[free] / total[free]
            cur = np.where(go_left, left, right)
            dcur = dcur + 1
            self._path[idx, dcur] = cur
            done = topo.is_leaf[cur]
            if done.any():
                self._end_depth[idx[done]] = dcur[done]
                keep = ~done
                idx = idx[keep]
                cur = cur[keep]
                dcur = dcur[keep]
                base = base[keep]

    def _walk_to_rank(
        self, idx: "np.ndarray", cur: "np.ndarray", target: "np.ndarray"
    ) -> None:
        topo = self._topo
        dcur = topo.depth[cur]
        while idx.size:
            cur = np.where(
                target < topo.mid[cur], topo.left[cur], topo.right[cur]
            )
            dcur = dcur + 1
            self._path[idx, dcur] = cur
            done = topo.is_leaf[cur]
            if done.any():
                self._end_depth[idx[done]] = dcur[done]
                keep = ~done
                idx = idx[keep]
                cur = cur[keep]
                dcur = dcur[keep]
                target = target[keep]

    def _walk_to_kth_free(
        self,
        idx: "np.ndarray",
        cur: "np.ndarray",
        base: "np.ndarray",
        k: "np.ndarray",
    ) -> None:
        topo = self._topo
        span = topo.span
        occ = self._cocc.reshape(-1)
        dcur = topo.depth[cur]
        remaining = k
        while idx.size:
            left = topo.left[cur]
            free_left = np.maximum(span[left] - occ[base + left], 0)
            go_left = remaining < free_left
            cur = np.where(go_left, left, topo.right[cur])
            remaining = np.where(go_left, remaining, remaining - free_left)
            dcur = dcur + 1
            self._path[idx, dcur] = cur
            done = topo.is_leaf[cur]
            if done.any():
                self._end_depth[idx[done]] = dcur[done]
                keep = ~done
                idx = idx[keep]
                cur = cur[keep]
                dcur = dcur[keep]
                remaining = remaining[keep]
                base = base[keep]
