"""The compartment micro-machine.

Execution model: instructions live outside the simulated byte memory in a
plain list indexed by the program counter.  The program-counter capability
(pcc) is carried in two parts: the capability `code` that authorizes the
fetch, and the cursor `pc` as a plain int.  A fall-through moves only `pc`;
a branch installs its target as `code`.  The pcc itself, `code` with its
cursor at `pc`, is built only where it is observed: the link register and
`MachineState.pcc`.  Every retire follows a passed execute check on `code`,
so once the cursor has moved, `code` is tagged and unsealed and moving its
cursor keeps the tag.  Every legacy load/store is checked against the
installed default data capability (ddc); capability-operand accesses are
checked against the operand itself.  A step either retires completely or
faults without touching any register, memory byte, or tag, with one third
outcome: a capability store of a value whose fields do not fit the slot
record raises OverflowError before any byte is written; that step changes
no register, byte, tag, counter or record.

`run` is the interpreter loop.  Each iteration checks the fetch, runs the
opcode's handler, and retires: the handler returns the next pc, or None
when it faulted or halted.  Only a step that does not retire can halt or
fault the machine, so `run` tests `halted` and `fault` on entry and after
such a step, never after a retire.  `step` is a one-step `run` behind two
guards.  The fetch check and the data-access check test the allowed case
inline and call `check_access` only when that test fails, so `check_access`
alone decides which fault kind is reported.

One pattern leaves the per-step path: a slot run, such as a gate's register
save, restore and scrub.  When a legacy `stc` or `ldc` retires and the slot
`run` would fetch next holds the same op on the same address register,
`_slot_run` retires the whole run of such accesses in one tight loop.  It
hands back to the per-step path at the first slot that holds another
instruction, a capability operand or a load into the address register, or
that fails its bounds, alignment or end-of-memory test.  It never passes the
step budget, the code capability's top, the end of the program, the current
compartment's interval or the edge of the switcher window, and it reads a
slot only where the per-step loop would fetch it next.  Each of its slots
retires as the handler would retire it, with its access record, then its
step record.  A lone access keeps the handler path.

Two data-access handlers, one for integer and one for capability loads and
stores, are the one place that checks an access outside a slot run, which
repeats the capability handler's tests for each of its slots.  Once the
authority, alignment (capabilities only) and end-of-memory tests pass, the
handler moves the data itself: an integer access packs or unpacks
`memory.WORD` in place and clears the tag of every granule a store
overlaps, and a capability access calls `memory.write_slot` or
`memory.read_slot`, the slot codec whose docstrings, with memory.py's, say
how a capability maps onto its slot.  `TaggedMemory`'s methods keep their
own alignment and range tests for their other callers (boot, layout,
tests); on this path the handler has just made the same tests, so it does
not call them.

The loop re-derives two facts only when they can have changed, and both are
locals of one `run` call.  The code capability's tag, seal and execute bit
are tested once per `code` value: a `Capability` is immutable, so while
`st.code` is the very object that passed (`code is checked`), it still
passes, and only a branch or load-pair-branch installs a new one.  The
bounds test runs on every step.  The current compartment is the first code
region that holds the retired pc (a pc in none keeps it), and each
resolution also yields the interval around that pc, clipped by every
earlier region it passed, on which first match gives the same answer; the
regions are scanned again only when a retire leaves that interval.  Nothing
else in the loop writes the compartment, so skipping the scan inside the
interval changes nothing.

Privileged operations (seal, install-ddc, read-ddc) only execute while the
pc lies inside the switcher's code window, `MachineState.switcher_bounds`,
which is empty on a bare machine.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .capability import (
    ADDR_MASK,
    Capability,
    FaultKind,
    NULL_CAP,
    Perm,
    check_access,
    int_cap,
    restrict_perms,
    seal as seal_cap,
    set_address,
    set_bounds,
    unseal,
)
from .isa import (
    INT_WIDTH,
    Ins,
    NUM_REGS,
    Op,
    REG_LINK,
    REG_SHARED,
    REG_ZERO,
    format_ins,
)
from .memory import CAP_SLOT, GRANULE, WORD, TaggedMemory, read_slot, write_slot

PAIR_BYTES = 2 * CAP_SLOT      # a (pcc, ddc) capability pair in memory

# Permission masks as plain ints, so the checks below do no IntFlag arithmetic.
_LOAD, _STORE, _EXECUTE, _LOAD_CAP, _STORE_CAP = (
    int(p) for p in (Perm.LOAD, Perm.STORE, Perm.EXECUTE, Perm.LOAD_CAP, Perm.STORE_CAP))
_PC_LIMIT = ADDR_MASK + 2  # above every pc a retire can reach
_pack_word, _unpack_word = WORD.pack_into, WORD.unpack_from
_STORE_CAP_OP = Op.STORE_CAP


class MachineError(Exception):
    """Harness misuse (stepping a faulted or halted machine, bad setup)."""


@dataclass(frozen=True, slots=True)
class Fault:
    """A recorded machine fault: what went wrong, where, and at which pc."""

    kind: FaultKind
    addr: int
    pc: int
    length: int = 1
    ddc_access: bool = False   # true only for legacy data accesses checked against ddc

    def __str__(self) -> str:
        return f"{self.kind}@{self.addr:#x} pc={self.pc}"


class _FaultBuilder:
    """Builds a `Fault` as `capability._CapBuilder` builds a `Capability`."""
    __slots__ = Fault.__slots__

    def __init__(self, kind, addr, pc, length, ddc_access):
        self.kind = kind
        self.addr = addr
        self.pc = pc
        self.length = length
        self.ddc_access = ddc_access
        self.__class__ = Fault


@dataclass(slots=True)
class MachineState:
    """Full architectural state plus the retire, switch and swap counters
    the CLI, the fuzzer and the bench read (the cost model reads step
    records, not counters).

    The register file holds capability values; plain integers travel as
    untagged capabilities whose cursor is the integer.  Register 16 is
    hardwired to zero.  The pcc is `code`, the capability the fetch is
    checked against, plus the program counter `pc`; the `pcc` property reads
    and writes the two as one capability.  `run` and `step` mutate the state
    in place and return it.
    """

    regs: list[Capability] = field(default_factory=lambda: [NULL_CAP] * NUM_REGS)
    code: Capability = NULL_CAP
    pc: int = 0
    ddc: Capability = NULL_CAP
    current_compartment: int | None = None
    fault: Fault | None = None
    halted: bool = False

    instructions_retired: int = 0
    switches: int = 0          # domain switches (load-pair-branch commits)
    ddc_swap_events: int = 0

    # Privileged-code window [lo, hi) in instruction-index space.  Empty by
    # default, so a bare machine has no privileged pc and checks every
    # legacy access against its ddc.
    switcher_bounds: tuple[int, int] = (0, 0)
    # Object types load-pair-branch accepts; by default none.
    lpb_otypes: frozenset[int] = frozenset()
    # (base, top, compartment) in instruction-index space.  A booted image's
    # regions are pairwise disjoint (`audit_plan` checks the plan); where
    # hand-built regions overlap, the first one that holds the pc wins.
    code_regions: list[tuple[int, int, int]] = field(default_factory=list)

    # The event list.  While it is a list, `run` appends
    # ("step", pc, compartment, fault) after every attempted step, with the
    # compartment from before the step and the fault or None, and every
    # successful data access appends ("access", pc, addr, length, is_write).
    # None records nothing.
    events: list | None = None

    @property
    def pcc(self) -> Capability:
        """The program-counter capability: `code` with its cursor at `pc`."""
        code = self.code
        return code if code.address == self.pc else set_address(code, self.pc)

    @pcc.setter
    def pcc(self, cap: Capability) -> None:
        self.code = cap
        self.pc = cap.address


def _privileged(st: MachineState, pc: int) -> bool:
    lo, hi = st.switcher_bounds
    return lo <= pc < hi


def _blocked_entry(st: MachineState, target: int, pc: int) -> bool:
    """Ordinary branches may not land inside the privileged region; invoking
    a sealed capability is the only way in.  Without this, a leaked switcher
    code capability would turn mid-sequence instructions into gadgets."""
    return _privileged(st, target) and not _privileged(st, pc)


def _fault(st: MachineState, kind: FaultKind, addr: int, pc: int,
           length: int = 1, ddc_access: bool = False) -> None:
    st.fault = _FaultBuilder(kind, addr, pc, length, ddc_access)


def _setreg(st: MachineState, idx: int, value: Capability) -> None:
    if idx != REG_ZERO:
        st.regs[idx] = value


def _enter_region(st: MachineState, pc: int) -> tuple[int, int]:
    """Make the first code region that holds `pc` the current compartment
    (a pc outside every region, such as the switcher's, leaves it
    unchanged), and return the interval [lo, hi) on which first match gives
    the same answer: the matched region or the gap, clipped by every
    earlier region the scan passed."""
    lo, hi = 0, _PC_LIMIT
    for base, top, comp in st.code_regions:
        if base <= pc < top:
            st.current_compartment = comp
            return max(lo, base), min(hi, top)
        if top <= pc:
            lo = max(lo, top)
        else:
            hi = min(hi, base)
    return lo, hi


# One handler per opcode: handler(st, mem, ins, pc) executes `ins`, fetched
# from `pc` and past the fetch checks.  The handler returns the next pc, or
# None when it faulted or halted; `run` retires.  Only `_halt` counts its
# own retire.


def _load_pair_branch(st, mem, ins, pc):
    """Load-pair-branch, on sealed register `ins.a` into register `ins.b`.

    Unseals the operand, loads the (branch target, data) capability pair at
    its cursor, branches to the first element, leaves the second in
    `ins.b`, the unsealed operand back in `ins.a`, and a return capability
    (old pcc advanced past this instruction) in the link register.
    """
    sc = st.regs[ins.a]
    if not sc.tag:
        return _fault(st, FaultKind.TAG, sc.address, pc)
    if not sc.sealed:
        return _fault(st, FaultKind.SEAL, sc.address, pc)
    if sc.otype not in st.lpb_otypes:
        return _fault(st, FaultKind.SEAL, sc.address, pc)
    u = unseal(sc)
    addr = u.address
    f = check_access(u, addr, PAIR_BYTES, _LOAD_CAP)
    if f is not None:
        return _fault(st, f, addr, pc, PAIR_BYTES)
    if addr % CAP_SLOT != 0:
        return _fault(st, FaultKind.ALIGNMENT, addr, pc, PAIR_BYTES)
    if addr + PAIR_BYTES > mem.size:
        return _fault(st, FaultKind.ADDRESS, addr, pc, PAIR_BYTES)
    first = read_slot(mem, addr)
    second = read_slot(mem, addr + CAP_SLOT)
    if not first.tag:
        return _fault(st, FaultKind.TAG, addr, pc, CAP_SLOT)
    if not second.tag:
        return _fault(st, FaultKind.TAG, addr + CAP_SLOT, pc, CAP_SLOT)
    bf = check_access(first, first.address, 1, _EXECUTE)
    if bf is not None:
        return _fault(st, bf, first.address, pc)

    ret_cap = set_address(st.code, pc + 1)
    _setreg(st, ins.b, second)
    _setreg(st, ins.a, u)
    _setreg(st, REG_LINK, ret_cap)
    # The pair read is architectural, like a fetch: it is not an explicit
    # data access by the running compartment, so it records no access event.
    st.switches += 1
    st.code = first
    return first.address


def _nop(st, mem, ins, pc):
    return pc + 1


def _halt(st, mem, ins, pc):
    st.halted = True
    st.instructions_retired += 1
    return None


def _int_access(need: int, is_store: bool):
    """The handler of an integer load or store: it moves one INT_WIDTH-byte
    word, at any alignment, where the authority grants `need`.  The
    authority is the ddc for a legacy operand, whose register holds a plain
    address, and the operand register itself in capability mode.

    Once the authority and end-of-memory tests pass, the handler copies the
    word in one struct call under `memory.WORD`, with no call into
    TaggedMemory (whose methods re-test the range for their other
    callers)."""

    def access(st, mem, ins, pc):
        regs = st.regs
        if ins.cap:
            auth = regs[ins.b]
            addr = (auth.address + ins.imm) & ADDR_MASK
            checked = True
        else:
            auth = st.ddc
            addr = (regs[ins.b].address + ins.imm) & ADDR_MASK
            # Legacy accesses from inside the privileged region are physical:
            # the switcher return leg must reach the table while the caller's
            # ddc is already installed.  Explicit capability operands stay
            # checked.  This is `_privileged`, inline.
            bounds = st.switcher_bounds
            checked = not bounds[0] <= pc < bounds[1]
        # The allowed case of `check_access`, inline; it runs only to name
        # the fault.
        if checked and not (auth.tag and not auth.otype
                            and (auth.perms & need) == need
                            and auth.base <= addr and addr + INT_WIDTH <= auth.top):
            return _fault(st, check_access(auth, addr, INT_WIDTH, need), addr, pc, INT_WIDTH,
                          ddc_access=not ins.cap)
        if addr + INT_WIDTH > mem.size:
            return _fault(st, FaultKind.ADDRESS, addr, pc, INT_WIDTH)
        if is_store:
            _pack_word(mem.data, addr, regs[ins.a].address & ADDR_MASK)
            # An integer is narrower than a granule, so it overlaps at most
            # two; each loses its tag, as in `write_bytes`.
            tags = mem.tags
            tags[addr // GRANULE] = tags[(addr + INT_WIDTH - 1) // GRANULE] = 0
        elif ins.a != REG_ZERO:      # skips the zero register, as `_setreg` does
            regs[ins.a] = int_cap(_unpack_word(mem.data, addr)[0])
        if st.events is not None:
            st.events.append(("access", pc, addr, INT_WIDTH, is_store))
        return pc + 1

    return access


def _cap_access(st, mem, ins, pc):
    """The handler of a capability load or store: it moves one CAP_SLOT-
    aligned slot and both its granule tags where the authority grants
    STORE_CAP or LOAD_CAP, the authority being chosen as for `_int_access`.
    Both ops share this one handler, so `run` knows a capability access by
    a single identity test.

    Once the authority, alignment and end-of-memory tests pass, the handler
    moves the slot through memory's codec, `write_slot` or `read_slot`, with
    no call into TaggedMemory."""
    is_store = ins.op is _STORE_CAP_OP
    need = _STORE_CAP if is_store else _LOAD_CAP
    regs = st.regs
    if ins.cap:
        auth = regs[ins.b]
        addr = (auth.address + ins.imm) & ADDR_MASK
        checked = True
    else:
        auth = st.ddc
        addr = (regs[ins.b].address + ins.imm) & ADDR_MASK
        bounds = st.switcher_bounds       # `_privileged`, inline
        checked = not bounds[0] <= pc < bounds[1]
    if checked and not (auth.tag and not auth.otype
                        and (auth.perms & need) == need
                        and auth.base <= addr and addr + CAP_SLOT <= auth.top):
        return _fault(st, check_access(auth, addr, CAP_SLOT, need), addr, pc, CAP_SLOT,
                      ddc_access=not ins.cap)
    if addr % CAP_SLOT != 0:
        return _fault(st, FaultKind.ALIGNMENT, addr, pc, CAP_SLOT)
    if addr + CAP_SLOT > mem.size:
        return _fault(st, FaultKind.ADDRESS, addr, pc, CAP_SLOT)
    if is_store:
        write_slot(mem, addr, regs[ins.a])
    elif ins.a != REG_ZERO:      # skips the zero register, as `_setreg` does
        regs[ins.a] = read_slot(mem, addr)
    if st.events is not None:
        st.events.append(("access", pc, addr, CAP_SLOT, is_store))
    return pc + 1


def _set_bounds(st, mem, ins, pc):
    regs = st.regs
    _setreg(st, ins.a, set_bounds(regs[ins.b], regs[ins.c].address, regs[ins.d].address))
    return pc + 1


def _set_address(st, mem, ins, pc):
    regs = st.regs
    _setreg(st, ins.a, set_address(regs[ins.b], regs[ins.c].address))
    return pc + 1


def _restrict(st, mem, ins, pc):
    _setreg(st, ins.a, restrict_perms(st.regs[ins.b], ins.imm))
    return pc + 1


def _seal(st, mem, ins, pc):
    if not _privileged(st, pc) or not 0 < ins.imm <= 0xFFFF:
        return _fault(st, FaultKind.PERMISSION, pc, pc)
    _setreg(st, ins.a, seal_cap(st.regs[ins.b], ins.imm))
    return pc + 1


def _move(st, mem, ins, pc):
    _setreg(st, ins.a, st.regs[ins.b])
    return pc + 1


def _add_imm(st, mem, ins, pc):
    src = st.regs[ins.b]
    _setreg(st, ins.a, set_address(src, src.address + ins.imm))
    return pc + 1


def _jump(st: MachineState, target: Capability, pc: int) -> int | None:
    """Branch to `target` if it is executable and not a way into the
    privileged region; returns the target pc, or None on a fault."""
    f = check_access(target, target.address, 1, _EXECUTE)
    if f is not None:
        return _fault(st, f, target.address, pc)
    if _blocked_entry(st, target.address, pc):
        return _fault(st, FaultKind.PERMISSION, target.address, pc)
    st.code = target
    return target.address


def _branch_cap(st, mem, ins, pc):
    return _jump(st, st.regs[ins.a], pc)


def _call_local(st, mem, ins, pc):
    code = st.code
    target = _jump(st, set_address(code, st.regs[ins.a].address), pc)
    if target is not None:
        _setreg(st, REG_LINK, set_address(code, pc + 1))
    return target


def _return_local(st, mem, ins, pc):
    return _jump(st, st.regs[REG_LINK], pc)


def _install_ddc(st, mem, ins, pc):
    if not _privileged(st, pc):
        return _fault(st, FaultKind.PERMISSION, pc, pc)
    cap = st.regs[ins.a]
    if not cap.tag:
        return _fault(st, FaultKind.TAG, cap.address, pc)
    if cap.sealed:
        return _fault(st, FaultKind.SEAL, cap.address, pc)
    st.ddc = cap
    return pc + 1


def _read_ddc(st, mem, ins, pc):
    if not _privileged(st, pc):
        return _fault(st, FaultKind.PERMISSION, pc, pc)
    _setreg(st, ins.a, st.ddc)
    return pc + 1


def _derive_ddc(st, mem, ins, pc):
    regs = st.regs
    _setreg(st, ins.a, set_bounds(st.ddc, regs[ins.b].address, regs[ins.c].address))
    return pc + 1


# Keyed by the op's mnemonic: a str hashes faster than an Enum member.
_HANDLERS = {op.value: handler for op, handler in (
    (Op.NOP, _nop),
    (Op.HALT, _halt),
    (Op.LOAD_INT, _int_access(_LOAD, is_store=False)),
    (Op.STORE_INT, _int_access(_STORE, is_store=True)),
    (Op.LOAD_CAP, _cap_access),
    (Op.STORE_CAP, _cap_access),
    (Op.SET_BOUNDS, _set_bounds),
    (Op.SET_ADDRESS, _set_address),
    (Op.RESTRICT_PERMS, _restrict),
    (Op.SEAL, _seal),
    (Op.MOVE, _move),
    (Op.ADD_IMM, _add_imm),
    (Op.BRANCH_CAP, _branch_cap),
    (Op.CALL_LOCAL, _call_local),
    (Op.RETURN_LOCAL, _return_local),
    (Op.LOAD_PAIR_BRANCH, _load_pair_branch),
    (Op.INSTALL_DDC, _install_ddc),
    (Op.READ_DDC, _read_ddc),
    (Op.DERIVE_DDC, _derive_ddc),
)}


def step(st: MachineState, mem: TaggedMemory, program: Sequence[Ins]) -> MachineState:
    """Execute exactly one instruction (or record exactly one fault): a
    one-step `run`, so it appends one step record while `st.events` is a
    list."""
    if st.fault is not None:
        raise MachineError("step with a pending fault; clear or handle it first")
    if st.halted:
        raise MachineError("step after halt")
    return run(st, mem, program, max_steps=1)


def handle_fault_ddc_swap(st: MachineState, mem: TaggedMemory) -> bool:
    """Exception-based sharing handler, which `run` calls on every pending
    fault.

    If the pending fault is a bounds miss on a legacy (ddc-checked) data
    access and the faulting range lies inside the shared-region capability in
    r18, swap ddc and r18, clear the fault, and report True; execution then
    resumes at the faulting instruction.  The swap is symmetric, so the next
    private access swaps straight back.  r18 alone decides: a compartment
    without an exception-mode region enters with r18 null, so its bounds
    misses stay faults.
    """
    f = st.fault
    if f is None:
        raise MachineError("no pending fault to handle")
    if f.kind is not FaultKind.BOUNDS or not f.ddc_access:
        return False
    shared = st.regs[REG_SHARED]
    if not shared.tag or shared.sealed:
        return False
    if not (shared.base <= f.addr and f.addr + f.length <= shared.top):
        return False
    st.regs[REG_SHARED] = st.ddc
    st.ddc = shared
    st.fault = None
    st.ddc_swap_events += 1
    return True


def _slot_run(st: MachineState, mem: TaggedMemory, program: Sequence[Ins], first: Ins,
              p: int, stop: int) -> int:
    """Retire the run of legacy accesses from slot `p` on that repeat
    `first`'s op on its address register, and return the pc it leaves.
    `first`, at p - 1, has just retired, and `run` would fetch p next.
    `stop`, which `run` puts at or below the step budget, the code
    capability's top, the end of the program and the top of the compartment
    interval, bounds the run, and so does the switcher window.

    The ddc's tag, seal and permission are those `first` just passed, since
    no `stc` or `ldc` changes the ddc, and the address register keeps its
    value: a store changes no register, and a load into it ends the run.
    Each slot gets its own bounds, alignment and end-of-memory test; the
    first slot that fails one, or holds another instruction, is left for
    `run` to step.  An OverflowError from `write_slot` leaves pc at that
    store, with the slots before it retired.
    """
    # Inside the window `first` was not checked against the ddc.
    window, window_top = st.switcher_bounds
    if window <= p - 1 < window_top:
        return p
    if p <= window:
        stop = min(stop, window)
    op, b = first.op, first.b
    is_store = op is _STORE_CAP_OP
    regs, events = st.regs, st.events
    ddc = st.ddc
    base, last = ddc.base, min(ddc.top, mem.size) - CAP_SLOT   # the last slot address allowed
    at = regs[b].address
    comp = st.current_compartment
    start = p
    try:
        while p < stop:
            ins = program[p]
            if ins.op is not op or ins.b != b or ins.cap:
                break
            addr = (at + ins.imm) & ADDR_MASK
            if addr % CAP_SLOT or not base <= addr <= last:
                break
            if is_store:
                write_slot(mem, addr, regs[ins.a])
            elif ins.a == b:
                break
            elif ins.a != REG_ZERO:
                regs[ins.a] = read_slot(mem, addr)
            if events is not None:
                events.append(("access", p, addr, CAP_SLOT, is_store))
                events.append(("step", p, comp, None))
            p += 1
    finally:
        st.instructions_retired += p - start
        st.pc = p
    return p


def run(st: MachineState, mem: TaggedMemory, program: Sequence[Ins],
        max_steps: int = 100_000) -> MachineState:
    """Run until halt, an unhandled fault, or the step budget is exhausted.

    A pending fault goes to `handle_fault_ddc_swap` first: a legacy bounds
    miss inside the tagged, unsealed shared-region capability in r18 swaps
    the two and is retried (the retry consumes budget).  While `st.events` is
    a list, one ("step", pc, compartment, fault) record is appended per
    attempted step; `format_trace` turns them into lines.
    """
    events = st.events
    handlers = _HANDLERS
    end = len(program)
    checked = None         # the last `code` that passed tag, seal and execute
    cbase = ctop = 0       # its bounds, the top clipped to the end of the program
    lo = hi = 0            # retired pcs in [lo, hi) keep the compartment
    steps = 0
    nxt = None             # no step has retired yet
    handler = None         # the handler of the last step that fetched
    while steps < max_steps:
        # Only a step that did not retire can have halted or faulted.
        if nxt is None:
            if st.halted:
                break
            if st.fault is not None and not handle_fault_ddc_swap(st, mem):
                break
        steps += 1
        pc = st.pc
        comp = st.current_compartment
        # The fetch check: the allowed case inline, `check_access` names the
        # fault.  Only a new `code` needs its tag, seal and execute bit tested.
        code = st.code
        if code is not checked and code.tag and not code.otype and code.perms & _EXECUTE:
            checked, cbase, ctop = code, code.base, code.top
            if ctop > end:
                ctop = end
        if code is not checked or not cbase <= pc < ctop:
            # `check_access` names the fault; a pc past the end of the program
            # that `code` allows is an AddressError.
            nxt = _fault(st, check_access(code, pc, 1, _EXECUTE) or FaultKind.ADDRESS, pc, pc)
        else:
            ins = program[pc]
            handler = handlers[ins.op._value_]
            nxt = handler(st, mem, ins, pc)
            if nxt is not None:    # retire
                st.instructions_retired += 1
                st.pc = nxt
                if not lo <= nxt < hi:
                    lo, hi = _enter_region(st, nxt)
        if events is not None:
            events.append(("step", pc, comp, st.fault))
        # A retired legacy capability access whose successor, the slot the
        # loop would fetch next, repeats its op on the same address register
        # starts a slot run.
        if (handler is _cap_access and nxt is not None and not ins.cap
                and steps < max_steps and nxt < ctop):
            following = program[nxt]
            if following.op is ins.op and following.b == ins.b:
                run_end = _slot_run(st, mem, program, ins, nxt,
                                    min(ctop, hi, nxt + max_steps - steps))
                steps += run_end - nxt
                nxt = run_end
                if not lo <= nxt < hi:
                    lo, hi = _enter_region(st, nxt)
    return st


def format_trace(events: list, program: list[Ins]) -> list[str]:
    """One line per step record: `idx | pc | op | compartment | fault?`."""
    lines = []
    for ev in events:
        if ev[0] != "step":
            continue
        _, pc, comp, fault = ev
        opname = format_ins(program[pc]) if pc < len(program) else "??"
        who = f"c{comp}" if comp is not None else "-"
        tail = f" | {fault}" if fault is not None else ""
        lines.append(f"{len(lines)} | {pc} | {opname} | {who}{tail}")
    return lines
