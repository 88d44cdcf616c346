"""An executable specification of the capability machine.

This is the suite's one statement of what `capcomp.machine.run` and `step`
should do: a slow, obvious small-step interpreter written from the README
design notes and the module docstrings, with each rule written once.  It
keeps no cache: every step checks its fetch from scratch and every retire
scans the code regions from the front.

It works on the machine's own `MachineState`, `Fault` and `MachineError`,
the capability operations of `capcomp.capability` and the public methods
of `TaggedMemory`, and on nothing else of the program, so a rewrite of the
machine's loop or handlers is checked against rules it does not share.
`spec_check.py` runs the two side by side.
"""

from capcomp.capability import (
    ADDR_MASK,
    OTYPE_MAX,
    FaultKind,
    Perm,
    check_access,
    int_cap,
    restrict_perms,
    seal,
    set_address,
    set_bounds,
    unseal,
)
from capcomp.isa import INT_WIDTH, REG_LINK, REG_SHARED, REG_ZERO, Op
from capcomp.machine import Fault, MachineError, MachineState
from capcomp.memory import CAP_SLOT, TaggedMemory

PAIR = 2 * CAP_SLOT    # a (branch target, data) capability pair in memory
HALT = "halt"          # an instruction's outcome beside a Fault or the next pc


def run(st: MachineState, mem: TaggedMemory, program: list,
        max_steps: int = 100_000) -> MachineState:
    """Attempt up to `max_steps` steps.  Before each one, a halted machine
    stops, and a pending fault stops it unless `ddc_swap` clears it; the
    faulting instruction's retry is then the next attempt and counts
    against `max_steps` like any other."""
    for _ in range(max_steps):
        if st.halted:
            break
        if st.fault is not None and not ddc_swap(st):
            break
        attempt(st, mem, program)
    return st


def step(st: MachineState, mem: TaggedMemory, program: list) -> MachineState:
    """Attempt exactly one step; a pending fault or a halt is refused, not
    swapped or skipped."""
    if st.fault is not None:
        raise MachineError("step with a pending fault; clear or handle it first")
    if st.halted:
        raise MachineError("step after halt")
    attempt(st, mem, program)
    return st


def attempt(st: MachineState, mem: TaggedMemory, program: list) -> None:
    """One step: the fetch check, then the instruction, which faults,
    halts or retires; a fault changes nothing but `fault`.  While `events`
    is a list, the step then appends ("step", pc, compartment, fault), with
    the compartment from before the step.  An instruction that raises
    (`store_cap` below) leaves no record."""
    pc, comp = st.pc, st.current_compartment
    outcome = fetch_fault(st, program, pc) or execute(st, mem, program[pc], pc)
    if isinstance(outcome, Fault):
        st.fault = outcome
    elif outcome is HALT:           # counts its own retire; pc and compartment stay
        st.halted = True
        st.instructions_retired += 1
    else:
        retire(st, outcome)
    record(st, ("step", pc, comp, st.fault))


def fetch_fault(st: MachineState, program: list, pc: int) -> Fault | None:
    """The code capability must allow executing one byte at the pc, and the
    pc must then lie inside the program."""
    kind = check_access(st.code, pc, 1, Perm.EXECUTE)
    if kind is None and pc >= len(program):
        kind = FaultKind.ADDRESS
    return None if kind is None else Fault(kind, pc, pc)


def retire(st: MachineState, pc: int) -> None:
    """Count the retire and move to `pc`.  The first code region holding
    `pc` names the current compartment; a pc in none (the switcher's) keeps
    it.

    The compartment follows the pc, not the code that ran: a fall-through
    off the end of one compartment's code capability retires into the next
    region, so a fetch fault there is recorded for that neighbour.  That is
    the machine's attribution today, pinned by `test_step.py::
    test_fall_through_into_the_next_region_then_fetch_fault`; ROADMAP item
    11 owns the decision."""
    st.instructions_retired += 1
    st.pc = pc
    for base, top, comp in st.code_regions:
        if base <= pc < top:
            st.current_compartment = comp
            break


def ddc_swap(st: MachineState) -> bool:
    """Exception-based sharing: a bounds fault raised by the ddc check of a
    legacy access, on a range inside the tagged, unsealed capability in
    r18, swaps r18 and the ddc and clears the fault."""
    f, shared = st.fault, st.regs[REG_SHARED]
    if not (f.kind is FaultKind.BOUNDS and f.ddc_access
            and shared.tag and not shared.sealed
            and shared.base <= f.addr and f.addr + f.length <= shared.top):
        return False
    st.regs[REG_SHARED], st.ddc = st.ddc, shared
    st.fault = None
    st.ddc_swap_events += 1
    return True


def record(st: MachineState, event: tuple) -> None:
    if st.events is not None:
        st.events.append(event)


def privileged(st: MachineState, pc: int) -> bool:
    """Whether `pc` lies in the switcher's code window [lo, hi)."""
    lo, hi = st.switcher_bounds
    return lo <= pc < hi


def setreg(st: MachineState, idx: int, value) -> None:
    """Write a register; writes to the zero register are dropped."""
    if idx != REG_ZERO:
        st.regs[idx] = value


def execute(st: MachineState, mem: TaggedMemory, ins, pc: int):
    """Execute `ins`, fetched from `pc`; returns a Fault, HALT or the next
    pc.  Every check comes before the first write, so a fault leaves the
    state as it was."""
    op, regs = ins.op, st.regs
    if op is Op.NOP:
        return pc + 1
    if op is Op.HALT:
        return HALT
    if op in ACCESSES:
        return access(st, mem, ins, pc, *ACCESSES[op])
    if op is Op.BRANCH_CAP:
        return branch(st, regs[ins.a], pc)
    if op is Op.CALL_LOCAL:         # within the code capability; links past the call
        return branch(st, set_address(st.code, regs[ins.a].address), pc, link=True)
    if op is Op.RETURN_LOCAL:
        return branch(st, regs[REG_LINK], pc)
    if op is Op.LOAD_PAIR_BRANCH:
        return load_pair_branch(st, mem, ins, pc)
    # Sealing, installing the ddc and reading it run only at a privileged
    # pc, and a seal's otype must lie in [1, OTYPE_MAX].
    if (op in (Op.SEAL, Op.INSTALL_DDC, Op.READ_DDC) and not privileged(st, pc)
            or op is Op.SEAL and not 0 < ins.imm <= OTYPE_MAX):
        return Fault(FaultKind.PERMISSION, pc, pc)
    if op is Op.INSTALL_DDC:
        cap = regs[ins.a]
        if not cap.tag:
            return Fault(FaultKind.TAG, cap.address, pc)
        if cap.sealed:
            return Fault(FaultKind.SEAL, cap.address, pc)
        st.ddc = cap
        return pc + 1
    # The rest write register `a` and retire.
    src, c, d = regs[ins.b], regs[ins.c].address, regs[ins.d].address
    setreg(st, ins.a, {
        Op.READ_DDC: lambda: st.ddc,
        Op.SEAL: lambda: seal(src, ins.imm),
        Op.SET_BOUNDS: lambda: set_bounds(src, c, d),
        Op.SET_ADDRESS: lambda: set_address(src, c),
        Op.RESTRICT_PERMS: lambda: restrict_perms(src, ins.imm),
        Op.MOVE: lambda: src,
        Op.ADD_IMM: lambda: set_address(src, src.address + ins.imm),
        Op.DERIVE_DDC: lambda: set_bounds(st.ddc, src.address, c),
    }[op]())
    return pc + 1


# The data accesses: (needed permission, width, is_store).
ACCESSES = {
    Op.LOAD_INT: (Perm.LOAD, INT_WIDTH, False),
    Op.STORE_INT: (Perm.STORE, INT_WIDTH, True),
    Op.LOAD_CAP: (Perm.LOAD_CAP, CAP_SLOT, False),
    Op.STORE_CAP: (Perm.STORE_CAP, CAP_SLOT, True),
}


def access(st, mem, ins, pc, need, width, is_store):
    """A load or store at the operand register's cursor plus the immediate,
    modulo 2^64.  The authority is the operand itself in capability mode
    and the ddc for a legacy operand, and `check_access` decides its fault,
    marked `ddc_access` when the ddc was checked.  A legacy access from a
    privileged pc is physical: nothing checks it.  Then a capability access
    must be slot-aligned, and every access must end inside memory.  A
    successful access appends ("access", pc, addr, width, is_store)."""
    operand = st.regs[ins.b]
    addr = (operand.address + ins.imm) & ADDR_MASK
    if ins.cap or not privileged(st, pc):
        kind = check_access(operand if ins.cap else st.ddc, addr, width, need)
        if kind is not None:
            return Fault(kind, addr, pc, width, ddc_access=not ins.cap)
    if width == CAP_SLOT and addr % CAP_SLOT != 0:
        return Fault(FaultKind.ALIGNMENT, addr, pc, width)
    if addr + width > mem.size:
        return Fault(FaultKind.ADDRESS, addr, pc, width)
    value = st.regs[ins.a]
    if ins.op is Op.LOAD_INT:
        setreg(st, ins.a, int_cap(int.from_bytes(mem.read_bytes(addr, INT_WIDTH), "little")))
    elif ins.op is Op.STORE_INT:    # the integer modulo 2^64; clears overlapped tags
        mem.write_bytes(addr, (value.address & ADDR_MASK).to_bytes(INT_WIDTH, "little"))
    elif ins.op is Op.LOAD_CAP:
        setreg(st, ins.a, mem.load_cap(addr))
    else:
        # A value whose fields do not fit the slot record raises
        # OverflowError here, before any byte is written: the step neither
        # retires nor faults.
        mem.store_cap(addr, value)
    record(st, ("access", pc, addr, width, is_store))
    return pc + 1


def branch(st, target, pc, link=False):
    """A branch target must pass the fetch check at its own cursor, and an
    ordinary branch may not enter the privileged window from outside it.
    With `link`, the link register gets the pcc moved past the branch."""
    kind = check_access(target, target.address, 1, Perm.EXECUTE)
    if kind is None and privileged(st, target.address) and not privileged(st, pc):
        kind = FaultKind.PERMISSION
    if kind is not None:
        return Fault(kind, target.address, pc)
    if link:
        setreg(st, REG_LINK, set_address(st.code, pc + 1))
    st.code = target
    return target.address


def load_pair_branch(st, mem, ins, pc):
    """Invoke the sealed capability in `a`: load the (target, data) pair at
    its cursor, branch to the target and leave the data in `b`.  The
    faults, in order: the operand's tag, its seal and otype, the pair's
    authority, alignment and memory end, the two slots' tags, and the
    target's fetch check; the way into the privileged window is this one.
    Where registers coincide, the link wins over the unsealed operand,
    which wins over the data."""
    sealed = st.regs[ins.a]
    if not sealed.tag:
        return Fault(FaultKind.TAG, sealed.address, pc)
    if sealed.otype not in st.lpb_otypes or not sealed.sealed:
        return Fault(FaultKind.SEAL, sealed.address, pc)
    pair = unseal(sealed)
    addr = pair.address
    kind = check_access(pair, addr, PAIR, Perm.LOAD_CAP)
    if kind is None and addr % CAP_SLOT != 0:
        kind = FaultKind.ALIGNMENT
    if kind is None and addr + PAIR > mem.size:
        kind = FaultKind.ADDRESS
    if kind is not None:
        return Fault(kind, addr, pc, PAIR)
    target, data = mem.load_cap(addr), mem.load_cap(addr + CAP_SLOT)
    if not target.tag:
        return Fault(FaultKind.TAG, addr, pc, CAP_SLOT)
    if not data.tag:
        return Fault(FaultKind.TAG, addr + CAP_SLOT, pc, CAP_SLOT)
    kind = check_access(target, target.address, 1, Perm.EXECUTE)
    if kind is not None:
        return Fault(kind, target.address, pc)
    setreg(st, ins.b, data)
    setreg(st, ins.a, pair)
    setreg(st, REG_LINK, set_address(st.code, pc + 1))
    st.switches += 1
    st.code = target
    return target.address
