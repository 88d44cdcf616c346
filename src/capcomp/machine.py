"""The compartment micro-machine.

Execution model: instructions live outside the simulated byte memory in a
plain list indexed by the program counter, which is the cursor of the
program-counter capability (pcc).  Every legacy load/store is checked against
the installed default data capability (ddc); capability-operand accesses are
checked against the operand itself.  A step either retires completely or
faults without touching any register, memory byte, or tag.

Privileged operations (seal, install-ddc, read-ddc) only execute while the
pcc lies inside the switcher/boot code region.  The one exception is the
gate-return path: a successful load-pair-branch arms a one-shot grant that
lets exactly the next instruction install the ddc from the pair's second
register.  Since load-pair-branch always transfers control, untrusted code
cannot place itself inside that window.
"""

from __future__ import annotations

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
from .memory import CAP_SLOT, TaggedMemory

PAIR_BYTES = 2 * CAP_SLOT      # a (pcc, ddc) capability pair in memory

# Permission masks as plain ints, so the checks below do no IntFlag arithmetic.
_LOAD, _STORE, _EXECUTE, _LOAD_CAP, _STORE_CAP = (
    int(p) for p in (Perm.LOAD, Perm.STORE, Perm.EXECUTE, Perm.LOAD_CAP, Perm.STORE_CAP))


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


@dataclass(slots=True)
class MachineState:
    """Full architectural state plus the counters the cost model reads.

    The register file holds capability values; plain integers travel as
    untagged capabilities whose cursor is the integer.  Register 16 is
    hardwired to zero.  `step` mutates the state in place and returns it.
    """

    regs: list[Capability] = field(default_factory=lambda: [NULL_CAP] * NUM_REGS)
    pcc: Capability = NULL_CAP
    ddc: Capability = NULL_CAP
    current_compartment: int | None = None
    fault: Fault | None = None
    halted: bool = False

    instructions_retired: int = 0
    memory_accesses: int = 0
    switches: int = 0          # domain switches (load-pair-branch commits)
    ddc_swap_events: int = 0

    # Exception-based sharing: when enabled, `run` lets a bounds fault on a
    # legacy access swap ddc with the shared-region capability in r18.
    exception_sharing: bool = False

    # Privileged-code window in instruction-index space; None means the whole
    # program is boot context (bare-machine tests).
    switcher_bounds: tuple[int, int] | None = None
    # Object types load-pair-branch accepts; None accepts any sealed value.
    lpb_otypes: frozenset[int] | None = None
    # (base, top, compartment) in instruction-index space, most specific first.
    code_regions: list[tuple[int, int, int]] = field(default_factory=list)

    # One-shot install-ddc window armed by load-pair-branch.
    ddc_grant: int | None = None

    # When a list is installed here, every successful data access appends
    # (pc, addr, length, is_write).  Used by the isolation fuzzer.
    access_log: list | None = None


def _privileged(st: MachineState, pc: int) -> bool:
    bounds = st.switcher_bounds
    return bounds is None or bounds[0] <= pc < bounds[1]


def _blocked_entry(st: MachineState, target: int, pc: int) -> bool:
    """Ordinary branches may not land inside the privileged region; invoking
    a sealed capability is the only way in.  Without this, a leaked switcher
    code capability would turn mid-sequence instructions into gadgets."""
    return _privileged(st, target) and not _privileged(st, pc)


def _fault(st: MachineState, kind: FaultKind, addr: int, pc: int,
           length: int = 1, ddc_access: bool = False) -> MachineState:
    st.fault = Fault(kind, addr, pc, length, ddc_access)
    return st


def _setreg(st: MachineState, idx: int, value: Capability) -> None:
    if idx != REG_ZERO:
        st.regs[idx] = value


def _retire(st: MachineState, new_pcc: Capability) -> MachineState:
    st.instructions_retired += 1
    st.pcc = new_pcc
    pc = new_pcc.address
    for base, top, comp in st.code_regions:
        if base <= pc < top:
            st.current_compartment = comp
            break
    return st


def _next(st: MachineState, pc: int) -> MachineState:
    """Retire the instruction at `pc` and fall through to the next one."""
    return _retire(st, set_address(st.pcc, pc + 1))


# One handler per opcode: handler(st, mem, ins, pc, grant) executes `ins`,
# fetched from `pc` and past the fetch checks; `grant` is the install-ddc
# grant armed for this instruction.


def _load_pair_branch(st, mem, ins, pc, grant):
    """Load-pair-branch, on sealed register `ins.a` into register `ins.b`.

    Unseals the operand, loads the (branch target, data) capability pair at
    its cursor, branches to the first element, leaves the second in
    `ins.b`, the unsealed operand back in `ins.a`, and a return capability
    (old pcc advanced past this instruction) in the link register.  Arms the
    one-shot install-ddc window for `ins.b`.
    """
    sc = st.regs[ins.a]
    if not sc.tag:
        return _fault(st, FaultKind.TAG, sc.address, pc)
    if not sc.sealed:
        return _fault(st, FaultKind.SEAL, sc.address, pc)
    if st.lpb_otypes is not None and sc.otype not in st.lpb_otypes:
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
    first = mem.load_cap(addr)
    second = mem.load_cap(addr + CAP_SLOT)
    if not first.tag:
        return _fault(st, FaultKind.TAG, addr, pc, CAP_SLOT)
    if not second.tag:
        return _fault(st, FaultKind.TAG, addr + CAP_SLOT, pc, CAP_SLOT)
    bf = check_access(first, first.address, 1, _EXECUTE)
    if bf is not None:
        return _fault(st, bf, first.address, pc)

    ret_cap = set_address(st.pcc, pc + 1)
    _setreg(st, ins.b, second)
    _setreg(st, ins.a, u)
    _setreg(st, REG_LINK, ret_cap)
    st.ddc_grant = ins.b
    # The pair read is architectural, like a fetch: it is not an explicit
    # data access by the running compartment, so it stays out of access_log.
    st.memory_accesses += 1
    st.switches += 1
    return _retire(st, first)


def _nop(st, mem, ins, pc, grant):
    return _next(st, pc)


def _halt(st, mem, ins, pc, grant):
    st.halted = True
    st.instructions_retired += 1
    return st


def _access(need: int, is_store: bool, is_cap: bool):
    """The handler of one data-access op: it loads or stores an integer
    (INT_WIDTH bytes) or a capability (a CAP_SLOT-aligned slot) where the
    authority grants `need`.  The authority is the ddc for a legacy operand,
    whose register holds a plain address, and the operand register itself
    in capability mode."""
    width, align = (CAP_SLOT, CAP_SLOT) if is_cap else (INT_WIDTH, 1)

    def access(st, mem, ins, pc, grant):
        regs = st.regs
        if ins.cap:
            auth = regs[ins.b]
            addr = (auth.address + ins.imm) & ADDR_MASK
        else:
            auth = st.ddc
            addr = (regs[ins.b].address + ins.imm) & ADDR_MASK
        # Legacy accesses from inside the privileged region are physical: the
        # switcher return leg must reach the table while the caller's ddc is
        # already installed.  Explicit capability operands stay checked.
        if ins.cap or not _privileged(st, pc):
            f = check_access(auth, addr, width, need)
            if f is not None:
                return _fault(st, f, addr, pc, width, ddc_access=not ins.cap)
        if addr % align != 0:
            return _fault(st, FaultKind.ALIGNMENT, addr, pc, width)
        if addr + width > mem.size:
            return _fault(st, FaultKind.ADDRESS, addr, pc, width)
        if is_store and is_cap:
            mem.store_cap(addr, regs[ins.a])
        elif is_store:
            mem.write_bytes(addr, (regs[ins.a].address & ADDR_MASK).to_bytes(INT_WIDTH, "little"))
        elif is_cap:
            _setreg(st, ins.a, mem.load_cap(addr))
        else:
            _setreg(st, ins.a, int_cap(int.from_bytes(mem.read_bytes(addr, INT_WIDTH), "little")))
        st.memory_accesses += 1
        if st.access_log is not None:
            st.access_log.append((pc, addr, width, is_store))
        return _next(st, pc)

    return access


def _set_bounds(st, mem, ins, pc, grant):
    regs = st.regs
    _setreg(st, ins.a, set_bounds(regs[ins.b], regs[ins.c].address, regs[ins.d].address))
    return _next(st, pc)


def _set_address(st, mem, ins, pc, grant):
    regs = st.regs
    _setreg(st, ins.a, set_address(regs[ins.b], regs[ins.c].address))
    return _next(st, pc)


def _restrict(st, mem, ins, pc, grant):
    _setreg(st, ins.a, restrict_perms(st.regs[ins.b], ins.imm))
    return _next(st, pc)


def _seal(st, mem, ins, pc, grant):
    if not _privileged(st, pc) or not 0 < ins.imm <= 0xFFFF:
        return _fault(st, FaultKind.PERMISSION, pc, pc)
    _setreg(st, ins.a, seal_cap(st.regs[ins.b], ins.imm))
    return _next(st, pc)


def _move(st, mem, ins, pc, grant):
    _setreg(st, ins.a, st.regs[ins.b])
    return _next(st, pc)


def _add_imm(st, mem, ins, pc, grant):
    src = st.regs[ins.b]
    _setreg(st, ins.a, set_address(src, src.address + ins.imm))
    return _next(st, pc)


def _jump(st: MachineState, target: Capability, pc: int) -> MachineState:
    """Branch to `target` if it is executable and not a way into the
    privileged region."""
    f = check_access(target, target.address, 1, _EXECUTE)
    if f is not None:
        return _fault(st, f, target.address, pc)
    if _blocked_entry(st, target.address, pc):
        return _fault(st, FaultKind.PERMISSION, target.address, pc)
    return _retire(st, target)


def _branch_cap(st, mem, ins, pc, grant):
    return _jump(st, st.regs[ins.a], pc)


def _call_local(st, mem, ins, pc, grant):
    pcc = st.pcc
    _jump(st, set_address(pcc, st.regs[ins.a].address), pc)
    if st.fault is None:
        _setreg(st, REG_LINK, set_address(pcc, pc + 1))
    return st


def _return_local(st, mem, ins, pc, grant):
    return _jump(st, st.regs[REG_LINK], pc)


def _install_ddc(st, mem, ins, pc, grant):
    if not (_privileged(st, pc) or grant == ins.a):
        return _fault(st, FaultKind.PERMISSION, pc, pc)
    cap = st.regs[ins.a]
    if not cap.tag:
        return _fault(st, FaultKind.TAG, cap.address, pc)
    if cap.sealed:
        return _fault(st, FaultKind.SEAL, cap.address, pc)
    st.ddc = cap
    return _next(st, pc)


def _read_ddc(st, mem, ins, pc, grant):
    if not _privileged(st, pc):
        return _fault(st, FaultKind.PERMISSION, pc, pc)
    _setreg(st, ins.a, st.ddc)
    return _next(st, pc)


def _derive_ddc(st, mem, ins, pc, grant):
    regs = st.regs
    _setreg(st, ins.a, set_bounds(st.ddc, regs[ins.b].address, regs[ins.c].address))
    return _next(st, pc)


# Keyed by the op's mnemonic: a str hashes faster than an Enum member.
_HANDLERS = {op.value: handler for op, handler in (
    (Op.NOP, _nop),
    (Op.HALT, _halt),
    (Op.LOAD_INT, _access(_LOAD, is_store=False, is_cap=False)),
    (Op.STORE_INT, _access(_STORE, is_store=True, is_cap=False)),
    (Op.LOAD_CAP, _access(_LOAD_CAP, is_store=False, is_cap=True)),
    (Op.STORE_CAP, _access(_STORE_CAP, is_store=True, is_cap=True)),
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


def step(st: MachineState, mem: TaggedMemory, program: list[Ins]) -> MachineState:
    """Execute exactly one instruction (or record exactly one fault)."""
    if st.fault is not None:
        raise MachineError("step with a pending fault; clear or handle it first")
    if st.halted:
        raise MachineError("step after halt")

    pc = st.pcc.address
    grant = st.ddc_grant
    st.ddc_grant = None            # the window is exactly one instruction wide

    ff = check_access(st.pcc, pc, 1, _EXECUTE)
    if ff is not None:
        return _fault(st, ff, pc, pc)
    if pc >= len(program):
        return _fault(st, FaultKind.ADDRESS, pc, pc)

    ins = program[pc]
    return _HANDLERS[ins.op._value_](st, mem, ins, pc, grant)


def invoke_sealed(st: MachineState, mem: TaggedMemory, sealed_reg: int,
                  second_reg: int = 19) -> MachineState:
    """Invoke a sealed capability: the only road into the switcher.

    Equivalent to executing a load-pair-branch on `sealed_reg`.  On success
    the pcc points at the loaded branch target, the pair's second element is
    in `second_reg`, and the link register holds the return capability.  The
    ddc is not switched here; the landing code does that itself.
    """
    if st.fault is not None:
        raise MachineError("invoke_sealed with a pending fault")
    st.ddc_grant = None
    return _load_pair_branch(st, mem, Ins(Op.LOAD_PAIR_BRANCH, sealed_reg, second_reg),
                             st.pcc.address, None)


def handle_fault_ddc_swap(st: MachineState, mem: TaggedMemory) -> bool:
    """Exception-based sharing handler.

    If the pending fault is a bounds miss on a legacy (ddc-checked) data
    access and the faulting range lies inside the shared-region capability in
    r18, swap ddc and r18, clear the fault, and report True; execution then
    resumes at the faulting instruction.  The swap is symmetric, so the next
    private access swaps straight back.
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


def run(st: MachineState, mem: TaggedMemory, program: list[Ins],
        max_steps: int = 100_000, trace: list[str] | None = None) -> MachineState:
    """Run until halt, an unhandled fault, or the step budget is exhausted.

    With exception sharing enabled, eligible bounds faults are transparently
    swapped and retried (each retry consumes budget).  When `trace` is given,
    one formatted line is appended per attempted step:
    `idx | pc | op | compartment | fault?`.
    """
    steps = 0
    while steps < max_steps:
        if st.halted:
            break
        if st.fault is not None:
            if st.exception_sharing and handle_fault_ddc_swap(st, mem):
                continue
            break
        pc = st.pcc.address
        comp = st.current_compartment
        step(st, mem, program)
        if trace is not None:
            opname = format_ins(program[pc]) if pc < len(program) else "??"
            who = f"c{comp}" if comp is not None else "-"
            tail = f" | {st.fault}" if st.fault is not None else ""
            trace.append(f"{steps} | {pc} | {opname} | {who}{tail}")
        steps += 1
    return st
