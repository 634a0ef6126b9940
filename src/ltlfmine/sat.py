"""A small CDCL SAT solver with watched literals and assumptions.

Deterministic by construction: decisions follow activity with index
tie-breaks, and there is no randomized state.  Timeouts are cooperative:
`check_deadline`, the one clock test, raises `SolveTimeout` (so callers
can tell it from unsatisfiability); the solver calls it at each
conflict, the enumerator and the learner between their steps.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable, Optional, Sequence


class SolveTimeout(Exception):
    """Wall-clock deadline reached."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise `SolveTimeout` once `time.monotonic()` reaches `deadline`."""
    if deadline is not None and time.monotonic() >= deadline:
        raise SolveTimeout()


def _luby(i: int) -> int:
    # Luby restart sequence, 1-based: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    k = i.bit_length()
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


class SatSolver:
    """CDCL over clauses of signed DIMACS-style integer literals, whose
    variables `new_var` numbers 1, 2, ..."""

    RESTART_BASE = 100
    _VAR_DECAY = 0.95

    def __init__(self):
        self.nvars = 0
        self.clauses: list[list[int]] = []   # internal literal codes
        # lit code -> watching clauses, and per entry a blocking literal of
        # the same clause; codes are 2v / 2v+1, slots 0-1 unused
        self.watch_clause: list[list[list[int]]] = [[], []]
        self.watch_blocker: list[list[int]] = [[], []]
        # lit code -> -1 unset / 0 false / 1 true; value[2v] is var v's value
        self.value: list[int] = [-1, -1]
        self.level: list[int] = [0]
        self.reason: list = [None]           # var -> implying clause or None
        self.activity: list[float] = [0.0]
        self.saved_phase: list[int] = [0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.order: list[tuple[float, int]] = []
        # var -> order holds an entry keyed by the var's current activity
        self.queued: list[bool] = [False]
        self.seen: list[bool] = [False]       # conflict analysis scratch
        self.units: list[int] = []
        self.unsat = False

    # -- variables and clauses --------------------------------------------

    def new_var(self) -> int:
        """A fresh variable, numbered nvars + 1: the one allocator."""
        self.nvars += 1
        self.value += (-1, -1)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.saved_phase.append(0)
        self.watch_clause += ([], [])
        self.watch_blocker += ([], [])
        self.queued.append(True)
        self.seen.append(False)
        heapq.heappush(self.order, (0.0, self.nvars))
        return self.nvars

    def _check_literal(self, lit: int) -> None:
        if not 0 < abs(lit) <= self.nvars:
            raise ValueError(f"literal {lit} outside variables "
                             f"1..{self.nvars}")

    def add_clause(self, lits: Iterable[int]) -> None:
        seen = set()
        clause = []
        for lit in lits:
            self._check_literal(lit)
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(self._code(lit))
        if not clause:
            self.unsat = True
            return
        if len(clause) == 1:
            self.units.append(clause[0])
            return
        self._attach(clause)

    def _attach(self, clause: list[int]) -> None:
        """Store `clause`, watching its first two literals."""
        self.clauses.append(clause)
        # each watch carries the other watched literal as its blocker
        self.watch_clause[clause[0]].append(clause)
        self.watch_blocker[clause[0]].append(clause[1])
        self.watch_clause[clause[1]].append(clause)
        self.watch_blocker[clause[1]].append(clause[0])

    @staticmethod
    def _code(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    # -- trail -------------------------------------------------------------

    def _enqueue(self, code: int, reason: Optional[list[int]]) -> bool:
        val = self.value[code]
        if val == 0:
            return False
        if val == -1:
            var = code >> 1
            self.value[code] = 1
            self.value[code ^ 1] = 0
            self.saved_phase[var] = 1 - (code & 1)
            self.level[var] = len(self.trail_lim)
            self.reason[var] = reason
            self.trail.append(code)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _backtrack(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        limit = self.trail_lim[target_level]
        value = self.value
        queued = self.queued
        activity = self.activity
        order = self.order
        for code in reversed(self.trail[limit:]):
            var = code >> 1
            value[code] = value[code ^ 1] = -1
            if not queued[var]:
                queued[var] = True
                heapq.heappush(order, (-activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)
        # Every bump leaves an entry keyed by an old activity behind; drop
        # those before they outnumber the variables.
        if len(self.order) > 2 * self.nvars:
            self._rebuild_order()

    def _rebuild_order(self) -> None:
        """One entry per unassigned variable, keyed by current activity."""
        value = self.value
        self.queued = [False] + [value[2 * v] == -1
                                 for v in range(1, self.nvars + 1)]
        self.order = [(-self.activity[v], v) for v in range(1, self.nvars + 1)
                      if value[2 * v] == -1]
        heapq.heapify(self.order)

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> Optional[list[int]]:
        """Run unit propagation; return a conflicting clause or None."""
        # Hot loop: literal values are read straight from `value` by code,
        # and blocking literals short-cut already-satisfied clauses without
        # touching the clause itself.
        value = self.value
        watch_clause = self.watch_clause
        watch_blocker = self.watch_blocker
        trail = self.trail
        saved_phase = self.saved_phase
        level = self.level
        reason = self.reason
        current_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            code = trail[qhead]
            qhead += 1
            falsified = code ^ 1
            wblocker = watch_blocker[falsified]
            end = len(wblocker)
            # Most blockers are true.  A true literal stays true for the
            # rest of propagation, so only the other positions need a visit;
            # they are collected first, in one comprehension.
            pending = [i for i in range(end) if value[wblocker[i]] != 1]
            if not pending:
                continue
            wclause = watch_clause[falsified]
            p = 0
            q = len(pending)
            while p < q:
                i = pending[p]
                p += 1
                while value[wblocker[i]] != 1:
                    clause = wclause[i]
                    if clause[0] == falsified:
                        clause[0] = clause[1]
                        clause[1] = falsified
                    first = clause[0]
                    fval = value[first]
                    if fval == 1:
                        wblocker[i] = first
                        break
                    for k in range(2, len(clause)):
                        lit = clause[k]
                        if value[lit] != 0:
                            # Watch lit instead of falsified.
                            clause[1] = lit
                            clause[k] = falsified
                            watch_clause[lit].append(clause)
                            watch_blocker[lit].append(first)
                            # The last watch moves into slot i.
                            end -= 1
                            wclause[i] = wclause[end]
                            wblocker[i] = wblocker[end]
                            wclause.pop()
                            wblocker.pop()
                            break
                    else:
                        if fval == 0:
                            self.qhead = qhead
                            return clause  # first watch false: conflict
                        # unit: enqueue first
                        value[first] = 1
                        value[first ^ 1] = 0
                        var = first >> 1
                        saved_phase[var] = 1 - (first & 1)
                        level[var] = current_level
                        reason[var] = clause
                        trail.append(first)
                        break
                    # Visit the moved watch in slot i now if it is pending.
                    if q > p and pending[q - 1] == end:
                        q -= 1
                        continue
                    break
        self.qhead = qhead
        return None

    # -- conflict analysis -------------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
        self.queued[var] = True
        heapq.heappush(self.order, (-self.activity[var], var))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learned = [0]  # slot for the asserting literal
        # `seen` is all False between calls: a current-level variable is
        # cleared when the trail walk reaches it, the others at the end.
        seen = self.seen
        level = self.level
        trail = self.trail
        counter = 0
        code = -1
        index = len(trail)
        reason_clause = conflict
        cur_level = self._decision_level()
        while True:
            for lit in reason_clause:
                var = lit >> 1
                if lit == code:
                    continue
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(lit)
            while True:
                index -= 1
                code = trail[index]
                if seen[code >> 1]:
                    break
            seen[code >> 1] = False
            counter -= 1
            if counter == 0:
                break
            reason_clause = self.reason[code >> 1]
        learned[0] = code ^ 1
        for lit in learned[1:]:
            seen[lit >> 1] = False
        back_level = max((level[l >> 1] for l in learned[1:]), default=0)
        return learned, back_level

    def _learn(self, learned: list[int]) -> None:
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        # Put a highest-level literal in the second watch slot.
        best = max(range(1, len(learned)),
                   key=lambda k: self.level[learned[k] >> 1])
        learned[1], learned[best] = learned[best], learned[1]
        self._attach(learned)
        self._enqueue(learned[0], learned)

    # -- search ------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, or 0 when every
        variable is assigned: every unassigned variable has an `order`
        entry keyed by its current activity."""
        while self.order:
            key, var = heapq.heappop(self.order)
            if -key == self.activity[var]:
                self.queued[var] = False
            if self.value[2 * var] == -1:
                return var
        return 0

    def solve(self, assumptions: Sequence[int] = (),
              deadline: Optional[float] = None) -> bool:
        """Decide satisfiability under `assumptions` (signed literals)."""
        for a in assumptions:
            self._check_literal(a)
        if self.unsat:
            return False
        self._backtrack(0)
        for code in self.units:
            if not self._enqueue(code, None):
                self.unsat = True
                return False
        # Re-propagate the full trail: clauses added since the last call
        # may already be unit or falsified under level-0 assignments.
        self.qhead = 0
        if self._propagate() is not None:
            self.unsat = True
            return False
        assumption_codes = [self._code(a) for a in assumptions]
        conflicts_since_restart = 0
        restart_round = 1
        restart_limit = self.RESTART_BASE * _luby(restart_round)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                check_deadline(deadline)
                if self._decision_level() == 0:
                    self.unsat = True
                    return False
                if self._decision_level() <= len(assumption_codes):
                    # Conflict forced by the assumption prefix alone.
                    return False
                learned, back_level = self._analyze(conflict)
                # Backtracking may drop part of the assumption prefix;
                # the loop below re-applies it.
                self._backtrack(back_level)
                self._learn(learned)
                self.var_inc /= self._VAR_DECAY
                conflicts_since_restart += 1
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    restart_round += 1
                    restart_limit = self.RESTART_BASE * _luby(restart_round)
                    self._backtrack(0)
                continue
            # Re-apply any assumption that is not yet decided.
            next_code = None
            depth = self._decision_level()
            if depth < len(assumption_codes):
                code = assumption_codes[depth]
                val = self.value[code]
                if val == 0:
                    return False
                if val == 1:
                    # Already implied; open a level to keep prefix depths
                    # aligned with assumption indices.
                    self.trail_lim.append(len(self.trail))
                    continue
                next_code = code
            if next_code is None:
                var = self._pick_branch_var()
                if var == 0:
                    return True
                next_code = 2 * var + (1 - self.saved_phase[var])
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_code, None)

    def model(self) -> dict[int, bool]:
        """Assignment of every variable after a satisfiable `solve` call;
        unassigned variables read as False."""
        return {v: self.value[2 * v] == 1 for v in range(1, self.nvars + 1)}
