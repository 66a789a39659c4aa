"""The vector engine: memoized stepping over interned product states.

The packed engine (:mod:`repro.mc.packed`) made snapshots flat 64-bit
word buffers, but every transition of the search still re-executes the
full Python pipeline model.  This module is the layer that actually
consumes the packed representation:

- **Machine-transition memoization.**  A core's ``step`` is a pure
  function of ``(canonical machine words, fetch bundle, data memory)``
  -- the canonical rebasing makes every search-visible quantity of a
  step frame-invariant, which is the same argument that lets the serial
  engine mix restored (rebased) and live (DFS-descent) stepping.  The
  two-copy cross product makes the *same* machine transition recur
  across many product states (measured: 92.6% of the 1.18M machine
  steps of the Fig. 2 ROB-8 cell are repeats of 87k distinct
  transitions), so the vector engine keys transitions on the interned
  machine state and replays memoized outcomes instead of stepping.
  Memo tables key on the data-memory *value*, so the two orientations
  of a mirrored secret pair -- root ``(A, B)`` side 0 and root
  ``(B, A)`` side 1 -- share one table.
- **Cycle-level composition.**  On top of the per-machine memo, one
  product cycle is keyed by ``(shadow state id, transition id pair)``:
  assumption checks, shadow-logic verdicts and the child product state
  are computed once per distinct combination on a scratch
  :class:`repro.core.shadow.ContractShadowLogic` and replayed as a
  single dict probe afterwards.  A product state is then just a triple
  of small integers ``(sid0, sid1, shadow_id)``.
- **An exact, stdlib visited set.**  A visited key packs the search
  row ``(root index, environment id, sid0, sid1, shadow id)`` -- every
  field a dense id below 2^32 -- into one Python ``int``
  (:func:`visited_key`), and the visited table is a plain ``set`` of
  those ints: one C-level hash and probe per pop, about 48 bytes per
  key, and membership is exact.  The root index rides in the key's top
  bits, so a stack node needs no separate root field.

The push path and the LIFO contract
-----------------------------------
A node's surviving children are pushed in choice order with no visited
prefilter.  This replays the serial merge exactly: pushing in choice
order preserves the serial pop order, and a child already visited at
push time is popped later and skipped silently (the serial engine checks
visited *before* counting a state or charging the budget), so the dead
push changes no statistic.  The attack short-circuit is untouched:
transitions are evaluated in choice order and the first failure returns
before any push.

Selection rides :func:`repro.mc.packed.resolve_engine`: ``auto``
prefers ``vector`` whenever the product advertises ``vector_capable``
(two-copy shadow products with packed-capable cores), degrading to
``packed`` -- and through packed's own rules to ``object`` --
otherwise.  ``REPRO_MC_ENGINE`` forces any of the three.
Equivalence is pinned bit-for-bit (verdicts, ``SearchStats``,
counterexamples) against both frozen engines by
``tests/mc/test_engine_equivalence.py``.
"""

from __future__ import annotations

from repro.core.products import FetchRequest, _check_assumptions
from repro.core.shadow import ContractShadowLogic
from repro.events import CycleOutput
from repro.isa.instruction import HALT, Opcode
from repro.mc.intern import deep_sizeof

#: Bits per field of a packed visited key (see :func:`visited_key`).
#: Every field is a dense id -- a count of distinct roots, environments,
#: machine states or shadow states of one search -- far below 2^32.
_FIELD_BITS = 32

#: Shift of the root index, the key's top field.
ROOT_SHIFT = 4 * _FIELD_BITS


def visited_key(root_index: int, env_id: int, state: tuple) -> int:
    """Pack one search row into the int the visited set stores.

    Fixed-width fields make the packing injective, so two keys are
    equal exactly when their rows are; ``key >> ROOT_SHIFT`` recovers
    the root index.
    """
    sid0, sid1, shadow_id = state
    # Fields sit at bit offsets 128 (root), 96, 64, 32 and 0.
    return (
        ((root_index << _FIELD_BITS | env_id) << 96)
        | (sid0 << 64)
        | (sid1 << 32)
        | shadow_id
    )


class VectorEngine:
    """Memoizing product engine over interned machine/shadow states.

    One engine serves one :class:`repro.mc.explorer.Explorer`.  Product
    states are ``(sid0, sid1, shadow_id)`` triples of dense ids; the
    real product materializes only on memo misses (one machine restore
    + step per *distinct* transition, one scratch shadow replay per
    distinct cycle combination).  See the module docstring for the
    frame-invariance argument that makes canonical-frame memoization
    bit-identical to the serial engine.
    """

    def __init__(self, product):
        if not getattr(product, "vector_capable", False) or not product.packed_capable:
            raise ValueError(f"product {product!r} cannot run the vector engine")
        self.product = product
        machines = product.machines
        self._machine0, self._machine1 = machines
        self._predictors = [m.config.predictor for m in machines]
        self._assumptions = product.assumptions
        self._gate_fetch = product.gate_fetch
        from repro.mc.packed import AtomTable

        self.atoms = AtomTable()
        #: Visited rows (root_index, env_id, sid0, sid1, shadow_id),
        #: packed by :func:`visited_key`.
        self.visited: set[int] = set()
        # Machine-state interning: canonical packed words -> dense sid.
        self._sid_ids: dict[tuple, int] = {}
        self._sid_words: list[tuple] = []
        # Per-sid frame-invariant facts: (halted, poll pc, occurrence,
        # canonical tail, canonical head, cached pause CycleOutput).
        self._sid_info: list[tuple] = []
        # Shadow-state interning (canonical shadow snapshot tuples).
        self._shadow_ids: dict[tuple, int] = {}
        self._shadow_states: list[tuple] = []
        # Transition memo: one dict per data-memory value (sid, bundle)
        # -> dense transition id; payloads live in ``_trans``.
        self._mach_tables: dict[tuple, dict] = {}
        self._table0: dict | None = None
        self._table1: dict | None = None
        #: tid -> (CycleOutput, new_sid, tail, head, new seq base).
        self._trans: list[tuple] = []
        # Cycle memo: (shadow_id, leg0, leg1) -> folded StepResult where
        # a leg is a transition id (stepped) or -1 - sid (paused).
        self._cycle_memo: dict = {}
        # Node-expansion memo: fetch requests per product state, and the
        # choice expansion folded to a summary per (state, env
        # projection) -- ``(transitions, pruned, reason counts, pushed
        # children's env deltas, terminal attack or None)``; see
        # :meth:`expansion_key` and ``Explorer._search_vector``.
        self._imem_size = product.params.imem_size
        self._req_memo: dict[tuple, tuple] = {}
        self._expand_memo: dict[tuple, tuple] = {}
        # Expansion outcomes depend on the *bound data memories* (the
        # one piece of root state outside the interned machine words),
        # so expansion keys carry a dense id of the active dmem pair --
        # mirror roots bind the same tables but must not share node
        # expansions (their sides step under swapped memories).
        self._pair_ids: dict[tuple, int] = {}
        self._pair_id: int | None = None
        self._scratch_shadow = ContractShadowLogic(
            product.contract, gate_fetch=product.gate_fetch
        )
        # Environment interning for visited rows (value-keyed; keeps
        # each distinct environment alive once, like the object
        # engine's visited keys do).
        self._env_ids: dict = {}

    # ------------------------------------------------------------------
    # Root / seeding management
    # ------------------------------------------------------------------
    def select_root(self, root) -> None:
        """Reset the product to a root and bind its memo tables.

        Tables key on the data-memory *value*: the copies of one root
        see different memories, and the mirror root's opposite side
        shares the table (same core config, same memory -- the same
        pure transition function).
        """
        self.product.reset(root.dmem_pair)
        tables = self._mach_tables
        first, second = root.dmem_pair
        table = tables.get(first)
        if table is None:
            table = tables[first] = {}
        self._table0 = table
        table = tables.get(second)
        if table is None:
            table = tables[second] = {}
        self._table1 = table
        pair_ids = self._pair_ids
        self._pair_id = pair_ids.setdefault(root.dmem_pair, len(pair_ids))

    def capture(self) -> tuple[int, int, int]:
        """Intern the product's live state as a (sid0, sid1, shadow_id).

        The live state must be canonical-frame (freshly reset or
        restored from a canonical snapshot), which is every caller: root
        seeding and seeded-frontier re-encoding.
        """
        machine0, machine1 = self.product.machines
        sid0 = self._intern_machine(machine0)
        sid1 = self._intern_machine(machine1)
        shadow = self.product.shadow.snapshot(
            (machine0.seq_base(), machine1.seq_base())
        )
        return (sid0, sid1, self._shadow_id(shadow))

    def seed_node(self, root_index: int, env, state, depth: int) -> tuple:
        """Build one stack node (visited key, env, depth, state)."""
        env_ids = self._env_ids
        env_id = env_ids.setdefault(env, len(env_ids))
        return (visited_key(root_index, env_id, state), env, depth, state)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern_machine(self, machine) -> int:
        words: list[int] = []
        machine.snapshot_words(words, self.atoms)
        key = tuple(words)
        sid = self._sid_ids.get(key)
        if sid is None:
            sid = len(self._sid_words)
            self._sid_ids[key] = sid
            self._sid_words.append(key)
            base = machine.seq_base()
            tail = machine.max_inflight_seq()
            head = machine.min_inflight_seq()
            pc = machine.poll_fetch()
            halted = machine.halted
            self._sid_info.append(
                (
                    halted,
                    pc,
                    0 if pc is None else machine.fetch_occurrence(pc),
                    None if tail is None else tail - base,
                    None if head is None else head - base,
                    CycleOutput(commits=(), membus=(), halted=halted),
                )
            )
        return sid

    def _shadow_id(self, shadow: tuple) -> int:
        ids = self._shadow_ids
        shadow_id = ids.get(shadow)
        if shadow_id is None:
            shadow_id = len(self._shadow_states)
            ids[shadow] = shadow_id
            self._shadow_states.append(shadow)
        return shadow_id

    # ------------------------------------------------------------------
    # The product protocol, memoized
    # ------------------------------------------------------------------
    def fetch_requests(self, state: tuple) -> list[FetchRequest]:
        """Fetch demands at a state (cf. ``ShadowProduct.fetch_requests``)."""
        sid0, sid1, shadow_id = state
        shadow = self._shadow_states[shadow_id]
        if shadow[0] == ContractShadowLogic.PHASE_LOCKSTEP:
            paused0 = paused1 = False
        else:
            if self._gate_fetch:
                return []
            paused0 = len(shadow[2]) > 0
            paused1 = len(shadow[3]) > 0
        info = self._sid_info
        predictors = self._predictors
        requests: list[FetchRequest] = []
        for slot, sid, paused in ((0, sid0, paused0), (1, sid1, paused1)):
            if paused:
                continue
            facts = info[sid]
            pc = facts[1]
            if pc is None:
                continue
            requests.append(FetchRequest(slot, pc, facts[2], predictors[slot]))
        return requests

    def expansion_key(self, state: tuple, env) -> tuple:
        """``((dmem pair, state, env projection), requests)`` of a node.

        A node's whole choice expansion -- which slots and predictor
        bits the enumeration opens, every child's environment delta, and
        every transition outcome -- is a pure function of the active
        data-memory pair, the product state, and the slice of the
        environment the fetch requests can observe: the instruction (or
        openness) of each requested pc and the oracle answer for each
        nondeterministically predicted fetch.  The returned key captures
        exactly that, so the search loop can replay a memoized expansion
        recorded under the same key (``requests`` rides along for the
        memo-miss path, cached per state).
        """
        cached = self._req_memo.get(state)
        if cached is None:
            requests = self.fetch_requests(state)
            # Probe plan: per request, the pc to project and -- for
            # nondeterministically predicted fetches only -- the oracle
            # key whose answer can shape the expansion.
            probes = tuple(
                (
                    req.pc,
                    (req.pc, req.occurrence)
                    if req.predictor == "nondet"
                    else None,
                )
                for req in requests
            )
            cached = self._req_memo[state] = (requests, probes)
        requests, probes = cached
        imem = env.imem
        imem_len = len(imem)
        if not probes:
            # Nothing to project (gated drain / both sides paused): the
            # expansion cannot observe the environment at all.
            return (self._pair_id, state, imem_len, ()), requests
        imem_size = self._imem_size if self._imem_size < imem_len else imem_len
        proj = []
        prediction = env.prediction
        branch_op = Opcode.BRANCH
        for pc, pred_key in probes:
            inst = imem[pc] if 0 <= pc < imem_size else HALT
            if pred_key is not None and (inst is None or inst.op is branch_op):
                proj.append((inst, prediction(pred_key)))
            else:
                proj.append(inst)
        return (self._pair_id, state, imem_len, tuple(proj)), requests

    def transition(self, state: tuple, bundles) -> tuple:
        """One memoized product cycle from ``state`` under ``bundles``.

        Returns ``(pruned, failed, reason, child_state, quiescent)`` --
        the folded ``StepResult`` plus the canonical child and the
        quiescence flag the search loop needs.
        """
        sid0, sid1, shadow_id = state
        shadow = self._shadow_states[shadow_id]
        if shadow[0] == ContractShadowLogic.PHASE_LOCKSTEP:
            paused0 = paused1 = False
        else:
            paused0 = len(shadow[2]) > 0
            paused1 = len(shadow[3]) > 0
        if paused0:
            leg0 = -1 - sid0
        else:
            table = self._table0
            key = (sid0, bundles[0])
            leg0 = table.get(key)
            if leg0 is None:
                leg0 = self._step_miss(table, key, self._machine0)
        if paused1:
            leg1 = -1 - sid1
        else:
            table = self._table1
            key = (sid1, bundles[1])
            leg1 = table.get(key)
            if leg1 is None:
                leg1 = self._step_miss(table, key, self._machine1)
        cycle_key = (shadow_id, leg0, leg1)
        cached = self._cycle_memo.get(cycle_key)
        if cached is None:
            cached = self._cycle_miss(cycle_key)
        return cached

    def _step_miss(self, table: dict, key: tuple, machine) -> int:
        """Materialize and step one distinct machine transition."""
        sid, bundle = key
        machine.restore_words(self._sid_words[sid], 0, self.atoms)
        out = machine.step(bundle)
        tid = len(self._trans)
        self._trans.append(
            (
                out,
                self._intern_machine(machine),
                machine.max_inflight_seq(),
                machine.min_inflight_seq(),
                machine.seq_base(),
            )
        )
        table[key] = tid
        return tid

    def _cycle_miss(self, cycle_key: tuple) -> tuple:
        """Fold one distinct (shadow, transition pair) product cycle.

        Mirrors ``ShadowProduct.step_cycle`` stage for stage on a
        scratch shadow: assumption check, shadow verdicts, the
        stuck-drain prune, then the canonical child state (shadow
        snapshot against the post-step sequence bases; a paused side's
        canonical state has base 0 by construction).
        """
        shadow_id, leg0, leg1 = cycle_key
        trans = self._trans
        info = self._sid_info
        if leg0 < 0:
            facts = info[-1 - leg0]
            out0, new_sid0, tail0, head0, base0 = (
                facts[5], -1 - leg0, facts[3], facts[4], 0,
            )
            stepped0 = False
        else:
            out0, new_sid0, tail0, head0, base0 = trans[leg0]
            stepped0 = True
        if leg1 < 0:
            facts = info[-1 - leg1]
            out1, new_sid1, tail1, head1, base1 = (
                facts[5], -1 - leg1, facts[3], facts[4], 0,
            )
            stepped1 = False
        else:
            out1, new_sid1, tail1, head1, base1 = trans[leg1]
            stepped1 = True
        outputs = (out0, out1)
        result = None
        if self._assumptions:
            reason = _check_assumptions(self._assumptions, outputs)
            if reason is not None:
                result = (True, False, reason, None, False)
        if result is None:
            shadow = self._scratch_shadow
            shadow.restore(self._shadow_states[shadow_id], (0, 0))
            verdict = shadow.on_cycle(
                outputs, (tail0, tail1), (head0, head1), (stepped0, stepped1)
            )
            if verdict.assume_violated:
                result = (True, False, "contract", None, False)
            elif verdict.assertion_failed:
                result = (False, True, "leakage", None, False)
            elif (
                shadow.phase == ContractShadowLogic.PHASE_DRAIN
                and out0.halted
                and out1.halted
            ):
                result = (True, False, "stuck-drain", None, False)
            else:
                child = (
                    new_sid0,
                    new_sid1,
                    self._shadow_id(shadow.snapshot((base0, base1))),
                )
                quiescent = (
                    out0.halted
                    and out1.halted
                    and shadow.phase == ContractShadowLogic.PHASE_LOCKSTEP
                )
                result = (False, False, None, child, quiescent)
        self._cycle_memo[cycle_key] = result
        return result

    # ------------------------------------------------------------------
    # The push
    # ------------------------------------------------------------------
    def push_wave(self, root_index: int, depth: int, children, stack) -> None:
        """Push a node's surviving children onto the DFS stack.

        ``children`` is ``[(env, child_state), ...]`` in choice order;
        all of them are appended to ``stack`` in that order, replaying
        the serial LIFO merge exactly (see the module docstring).
        """
        env_ids = self._env_ids
        append = stack.append
        setdefault = env_ids.setdefault
        for env, state in children:
            env_id = setdefault(env, len(env_ids))
            append((visited_key(root_index, env_id, state), env, depth, state))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def footprint(self) -> tuple[int, int]:
        """(visited key count, approx deep bytes of the search state).

        Counts the visited set and its keys plus everything backing
        them -- interned machine words, shadow states, atom
        values and the environment intern dict -- so the number is
        comparable to the object/packed engines' visited + intern
        accounting.
        """
        seen: set[int] = set()
        total = deep_sizeof(self.visited, seen)
        total += deep_sizeof(self._sid_words, seen)
        total += deep_sizeof(self._shadow_states, seen)
        total += deep_sizeof(self.atoms.values, seen)
        total += deep_sizeof(self._env_ids, seen)
        total += deep_sizeof(self._req_memo, seen)
        total += deep_sizeof(self._expand_memo, seen)
        total += deep_sizeof(self._cycle_memo, seen)
        return len(self.visited), total
