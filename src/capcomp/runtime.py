"""Compartment-switching runtime: gates, switcher, trampolines, sandboxes.

A cross-compartment call is a fixed choreography:

  gate prologue (caller code)   saves every caller register to the caller
                                stack, loads the arguments, loads the caller's
                                sealed entry capability and invokes it;
  switcher (privileged code)    builds the on-stack switch frame (return
                                capability, caller ddc, sp, fp), seals a
                                capability to it, installs its own ddc, saves
                                the caller's resume stack pointer, loads the
                                callee's capability pair and resume stack,
                                installs the callee ddc, scrubs every
                                non-argument register, and branches to the
                                callee trampoline;
  trampoline enter (callee)     stashes the sealed frame capability on the
                                callee stack and calls the target function;
  trampoline return (callee)    pops the sealed frame capability and invokes
                                it, which unseals the frame, restores the
                                caller pcc, and hands back the caller ddc;
  gate epilogue (caller code)   reinstalls the caller ddc (one-shot window),
                                restores sp/fp from the frame, restores every
                                saved register, and scrubs the frame and save
                                area back to zero bytes.

The return path never re-enters the switcher.  If the callee corrupts the
stashed sealed capability, the return faults with a tag fault: a detected,
not silent, attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .capability import Capability, Perm, set_address
from .isa import (
    Ins,
    REG_FP,
    REG_LINK,
    REG_SP,
    REG_ZERO,
    addi,
    bcap,
    calll,
    cvtd,
    halt,
    installddc,
    ldc,
    ldi,
    lpb,
    mov,
    movi,
    readddc,
    restrict,
    sealr,
    setaddr,
    setbounds,
    stc,
    sti,
)
from .layout import (
    BootImage,
    FRAME_OTYPE,
    OFF_SP,
    OFF_TRAMP,
    TABLE_ENTRY,
    TRAMP_SLOTS,
    install_function,
    shared_alloc,
)
from .machine import MachineState, run, step

# Register conventions shared by the emitted sequences.
R_ARG_MAX = 8                  # r0..r7 carry arguments
R_STASH = 8                    # return-value stash / switcher temp
R_FRAME_OUT = 9                # sealed frame capability, switcher -> trampoline
R_CALLER_OFF = 10              # caller table offset (pre-scaled by entry size)
R_CALLEE_OFF = 11
R_TARGET = 12                  # callee function entry
R_SEALED = 14                  # gate temp: the sealed entry capability
R_ADDR = 15                    # gate temp: its address
R_PAIR2 = 19                   # second element of a loaded pair
R_FRAME = 20                   # frame base / unsealed frame capability

# Switch frame, built by the switcher in the caller's stack.  The first two
# slots are the pair invoked on return: a switcher code capability (inert to
# compartments, which cannot branch into the privileged region) and the
# caller's ddc.  Nothing in the frame carries authority beyond the caller's
# own; the table-restore fields are plain integers the return leg interprets
# under its own privilege.
FRAME_SIZE = 128
FRAME_OFF_RETLEG = 0           # pair element 0: switcher return-leg entry
FRAME_OFF_DDC = 32             # pair element 1: caller ddc
FRAME_OFF_RET = 64             # caller resume capability (the epilogue)
FRAME_OFF_SP = 96
FRAME_OFF_FP = 104
FRAME_OFF_CALLEE_SLOT = 112    # absolute address of the callee's resume field
FRAME_OFF_CALLEE_SP = 120      # stack pointer the callee was entered with

# Registers the gate preserves bit-exact across a call: everything except the
# hardwired zero and the two the switch frame itself carries (fp, sp).
SAVE_SET = tuple(r for r in range(31) if r not in (REG_ZERO, REG_FP))
SAVE_BYTES = len(SAVE_SET) * 32
SCRUB_BYTES = SAVE_BYTES + FRAME_SIZE      # one capability-width zeroing loop

# Switcher scrub: what the callee must never see.  Arguments r0..r7, the
# sealed frame capability (r9), the target entry (r12) and the branch
# register itself survive; fp/sp were just switched.
_SWITCHER_KEEP = set(range(8)) | {R_FRAME_OUT, R_TARGET, REG_ZERO, 26, REG_FP, REG_SP}
SWITCHER_SCRUB = tuple(r for r in range(32) if r not in _SWITCHER_KEEP)

# Instruction index of the return leg inside the switcher region: the call
# leg's fixed length.  Sealed frames branch here when invoked.
SWITCHER_RET_ENTRY = 32 + len(SWITCHER_SCRUB) + 1


class GateError(Exception):
    """Gate misconfiguration or misuse detected before execution."""


class ShareError(Exception):
    """No overlap window exists between the two compartments."""


@dataclass(frozen=True, slots=True)
class GateDescriptor:
    """Static description of one cross-compartment call site."""

    caller: str
    callee: str
    entry: int                       # callee function entry, instruction index
    dest: int | None = 0             # register receiving the return value

    def validate(self) -> None:
        if self.caller == self.callee:
            raise GateError("a gate must cross a compartment boundary")
        if self.dest is not None and (not 0 <= self.dest <= 28 or self.dest == REG_ZERO):
            raise GateError(f"bad return destination r{self.dest}")


@dataclass(frozen=True, slots=True)
class RegionArg:
    """A memory-region argument: the gate derives a bounded capability for
    [base, base+length) from the caller's ddc and restricts it to perms."""

    base: int
    length: int
    perms: Perm = Perm.LOAD | Perm.STORE


@dataclass(frozen=True, slots=True)
class SandboxParam:
    kind: str                        # "scalar" or "region"
    length: int = 0
    perms: Perm = Perm.LOAD | Perm.STORE


@dataclass(frozen=True, slots=True)
class SandboxSignature:
    """Declared interface of a sandboxed function."""

    name: str                        # sandbox (from the configuration)
    entry: int                       # installed function entry
    params: tuple[SandboxParam, ...] = ()
    dest: int | None = 0


@dataclass(frozen=True, slots=True)
class SwitchFrame:
    """Decoded on-stack switch frame (for inspection and tests)."""

    addr: int
    ret_leg: Capability
    caller_ddc: Capability
    ret_cap: Capability
    sp: int
    fp: int
    callee_slot: int
    callee_sp: int


@dataclass(frozen=True, slots=True)
class GateCode:
    """Emitted gate sequence plus the split point for instrumentation."""

    instructions: tuple[Ins, ...]
    prologue_len: int                # entry lpb is the last prologue slot

    @property
    def epilogue_len(self) -> int:
        return len(self.instructions) - self.prologue_len


def read_switch_frame(img: BootImage, addr: int) -> SwitchFrame:
    mem = img.mem

    def word(off):
        return int.from_bytes(mem.read_bytes(addr + off, 8), "little")

    return SwitchFrame(
        addr,
        mem.load_cap(addr + FRAME_OFF_RETLEG),
        mem.load_cap(addr + FRAME_OFF_DDC),
        mem.load_cap(addr + FRAME_OFF_RET),
        word(FRAME_OFF_SP),
        word(FRAME_OFF_FP),
        word(FRAME_OFF_CALLEE_SLOT),
        word(FRAME_OFF_CALLEE_SP),
    )


# ---------------------------------------------------------------------------
# Emitters


def emit_switcher(plan) -> list[Ins]:
    """The privileged switch sequence, with plan constants baked in.

    Table slots are addressed through bounded sub-capabilities derived from
    the locator, so a garbled compartment offset dies with a tag fault
    instead of scribbling over the table.
    """
    tb = plan.table_base
    seq = [
        # Frame construction under the caller's ddc.
        addi(R_FRAME, REG_SP, -FRAME_SIZE),
        readddc(21),
        stc(REG_LINK, R_FRAME, FRAME_OFF_RET),
        stc(21, R_FRAME, FRAME_OFF_DDC),
        sti(REG_SP, R_FRAME, FRAME_OFF_SP),
        sti(REG_FP, R_FRAME, FRAME_OFF_FP),
        addi(22, R_FRAME, FRAME_SIZE),
        setbounds(23, 21, R_FRAME, 22),
        # Switch to the switcher's own data view.
        installddc(R_PAIR2),
        # Record where the caller resumes (just below its live frame).
        addi(24, R_CALLER_OFF, tb),
        addi(25, 24, TABLE_ENTRY),
        setbounds(24, R_PAIR2, 24, 25),
        sti(R_FRAME, 24, OFF_SP, cap=True),
        # Load the callee's pair, resume stack, and trampoline entry.
        addi(25, R_CALLEE_OFF, tb),
        addi(26, 25, TABLE_ENTRY),
        setbounds(25, R_PAIR2, 25, 26),
        ldc(26, 25, 0, cap=True),
        ldc(27, 25, 32, cap=True),
        ldi(22, 25, OFF_SP, cap=True),
        ldi(R_STASH, 25, OFF_TRAMP, cap=True),
        # Finish the frame: the return-leg entry capability (derived from the
        # switcher's own boot pair) and the two fields the return leg needs to
        # reset the callee's resume slot when this call comes back.
        ldc(28, REG_ZERO, 0),
        movi(17, SWITCHER_RET_ENTRY),
        setaddr(28, 28, 17),
        stc(28, 23, FRAME_OFF_RETLEG, cap=True),
        addi(17, R_CALLEE_OFF, tb + OFF_SP),
        sti(17, 23, FRAME_OFF_CALLEE_SLOT, cap=True),
        sti(22, 23, FRAME_OFF_CALLEE_SP, cap=True),
        sealr(R_FRAME_OUT, 23, FRAME_OTYPE),
        installddc(27),
        mov(REG_SP, 22),
        mov(REG_FP, REG_SP),
        setaddr(26, 26, R_STASH),
    ]
    for r in SWITCHER_SCRUB:
        seq.append(mov(r, REG_ZERO))
    seq.append(bcap(26))
    assert len(seq) == SWITCHER_RET_ENTRY

    # Return leg, entered by invoking a sealed frame.  r20 holds the unsealed
    # frame capability, r19 the caller's ddc.  The resume-slot store runs on
    # switcher privilege (the installed ddc is already the caller's again).
    seq += [
        installddc(R_PAIR2),
        ldi(24, R_FRAME, FRAME_OFF_CALLEE_SLOT, cap=True),
        ldi(25, R_FRAME, FRAME_OFF_CALLEE_SP, cap=True),
        sti(25, 24, 0),
        ldi(22, R_FRAME, FRAME_OFF_SP, cap=True),
        ldi(23, R_FRAME, FRAME_OFF_FP, cap=True),
        ldc(26, R_FRAME, FRAME_OFF_RET, cap=True),
        mov(REG_SP, 22),
        mov(REG_FP, 23),
        bcap(26),
    ]
    return seq


def emit_trampoline() -> list[Ins]:
    """Callee-side stub: stash the sealed frame capability, call the target,
    then pop, scrub, and invoke it to return.  The scrub keeps the callee
    stack inductively zero; a replayed stale frame capability would fault on
    the scrubbed frame anyway, so this is hygiene, not the security boundary."""
    return [
        addi(REG_SP, REG_SP, -32),
        stc(R_FRAME_OUT, REG_SP, 0),
        mov(R_FRAME_OUT, REG_ZERO),
        calll(R_TARGET),
        ldc(R_FRAME, REG_SP, 0),
        stc(REG_ZERO, REG_SP, 0),
        addi(REG_SP, REG_SP, 32),
        lpb(R_FRAME, R_PAIR2),
    ]


TRAMP_ENTER_SLOTS = 4      # instructions before control enters the callee
TRAMP_RETURN_SLOTS = 4


def emit_gate_sequence(plan, gate: GateDescriptor, args: list) -> GateCode:
    """Emit one inline call-site sequence (prologue through epilogue)."""
    gate.validate()
    if gate.caller not in plan.code_bounds:
        raise GateError(f"gate caller {gate.caller!r} is not a compartment")
    if gate.callee in plan.sandboxes:
        c_lo, c_hi = (plan.sandboxes[gate.callee].code_base,
                      plan.sandboxes[gate.callee].code_top)
    elif gate.callee in plan.code_bounds:
        c_lo, c_hi = plan.code_bounds[gate.callee]
    else:
        raise GateError(f"unknown gate callee {gate.callee!r}")
    if not c_lo <= gate.entry < c_hi:
        raise GateError(f"entry {gate.entry} outside the code region of {gate.callee!r}")
    if len(args) > R_ARG_MAX:
        raise GateError(f"{len(args)} arguments do not fit the argument registers")

    caller_id = plan.comp_ids[gate.caller]
    callee_id = plan.comp_ids[gate.callee]

    seq: list[Ins] = [addi(REG_SP, REG_SP, -SAVE_BYTES)]
    for j, r in enumerate(SAVE_SET):
        seq.append(stc(r, REG_SP, 32 * j))
    for i, a in enumerate(args):
        if isinstance(a, RegionArg):
            seq.append(movi(20, a.base))
            seq.append(movi(21, a.base + a.length))
            seq.append(cvtd(i, 20, 21))
            seq.append(restrict(i, i, a.perms))
        else:
            seq.append(movi(i, int(a)))
    seq.append(movi(R_CALLER_OFF, caller_id * TABLE_ENTRY))
    seq.append(movi(R_CALLEE_OFF, callee_id * TABLE_ENTRY))
    seq.append(movi(R_TARGET, gate.entry))
    seq.append(movi(R_ADDR, plan.sealed_cap_addr(gate.caller)))
    seq.append(ldc(R_SEALED, R_ADDR, 0))
    seq.append(lpb(R_SEALED, R_PAIR2))
    prologue_len = len(seq)

    # Epilogue.  The switcher return leg already reinstalled the caller's ddc
    # and restored sp/fp; what remains is moving the return value aside,
    # restoring the saved registers, and zeroing the dead frame+save area.
    dest = gate.dest
    if dest not in (None, 0):
        seq.append(mov(R_STASH, 0))
    if dest not in (None, 0) and dest != R_STASH:
        seq.append(mov(dest, R_STASH))
    for j, r in enumerate(SAVE_SET):
        if dest is not None and r == dest:
            continue
        seq.append(ldc(r, REG_SP, 32 * j))
    seq.append(addi(REG_SP, REG_SP, SAVE_BYTES))
    for j in range(SCRUB_BYTES // 32):
        seq.append(stc(REG_ZERO, REG_SP, -SCRUB_BYTES + 32 * j))

    return GateCode(tuple(seq), prologue_len)


# ---------------------------------------------------------------------------
# Execution helpers


def _run_while(img: BootImage, in_phase, max_steps: int) -> MachineState:
    st = img.machine
    budget = max_steps
    while (budget > 0 and not st.halted and st.fault is None
           and in_phase(st.pcc.address)):
        step(st, img.mem, img.program)
        budget -= 1
    if budget == 0:
        raise GateError("phase did not converge within its step budget")
    return st


def gate_call(img: BootImage, gate: GateDescriptor, args: list, *,
              at: int | None = None, max_steps: int = 2000) -> MachineState:
    """Install the gate sequence at a caller call site and execute it up to
    the switcher entry (the sealed invoke included).

    Preconditions: no pending fault, and the machine is currently executing
    the caller compartment.  Returns with the pcc inside the switcher, the
    argument registers loaded, and the return capability in the link
    register; compose with `switcher_switch`/`trampoline_enter`/... or use
    `call_compartment` for a full round trip.
    """
    st = img.machine
    if st.fault is not None:
        raise GateError("gate_call with a pending fault")
    if st.halted:
        raise GateError("gate_call on a halted machine")
    if st.current_compartment != img.compartment_id(gate.caller):
        raise GateError(
            f"machine is in compartment {st.current_compartment}, "
            f"gate belongs to {gate.caller!r}")
    code = emit_gate_sequence(img.plan, gate, list(args))
    site = install_function(img, gate.caller, list(code.instructions) + [halt()], at=at)
    st.pcc = set_address(st.pcc, site)
    lo, hi = img.plan.switcher_code
    _run_while(img, lambda pc: not lo <= pc < hi, max_steps)
    return st


def switcher_switch(img: BootImage, max_steps: int = 200) -> MachineState:
    """Run the privileged switch sequence to its exit branch."""
    lo, hi = img.plan.switcher_code
    if not lo <= img.machine.pcc.address < hi:
        raise GateError("switcher_switch: pcc is not inside the switcher")
    return _run_while(img, lambda pc: lo <= pc < hi, max_steps)


def trampoline_enter(img: BootImage, max_steps: int = 16) -> MachineState:
    """Run the callee trampoline up to the call into the target function."""
    pc = img.machine.pcc.address
    entries = set(img.tramp_entries.values())
    if pc not in entries:
        raise GateError("trampoline_enter: pcc is not at a trampoline entry")
    return _run_while(img, lambda p: pc <= p < pc + TRAMP_ENTER_SLOTS, max_steps)


def trampoline_return(img: BootImage, max_steps: int = 16) -> MachineState:
    """Run the pop-and-invoke tail of the trampoline (back to the caller)."""
    pc = img.machine.pcc.address
    base = pc - TRAMP_ENTER_SLOTS
    if base not in set(img.tramp_entries.values()):
        raise GateError("trampoline_return: pcc is not at a trampoline return point")
    return _run_while(img, lambda p: pc <= p < pc + TRAMP_RETURN_SLOTS, max_steps)


def call_compartment(img: BootImage, gate: GateDescriptor, args: list, *,
                     at: int | None = None, max_steps: int = 100_000) -> MachineState:
    """Full gate round trip: returns after the epilogue's final scrub (the
    installed sequence ends in halt) or on the first unhandled fault."""
    gate_call(img, gate, args, at=at)
    st = img.machine
    if st.fault is None and not st.halted:
        run(st, img.mem, img.program, max_steps=max_steps)
    return st


def sandbox_call(img: BootImage, sig: SandboxSignature, args: list, *,
                 max_steps: int = 100_000) -> MachineState:
    """Call a sandboxed function from its host compartment.

    Scalar arguments pass by value; region arguments pass as capabilities
    bounded to exactly the declared length and permissions, derived from the
    host's ddc at the call site.
    """
    if sig.name not in img.plan.sandboxes:
        raise GateError(f"{sig.name!r} is not a declared sandbox")
    sb = img.plan.sandboxes[sig.name]
    if len(args) != len(sig.params):
        raise GateError(f"{sig.name!r} takes {len(sig.params)} arguments, got {len(args)}")
    lowered: list = []
    for p, a in zip(sig.params, args):
        if p.kind == "region":
            lowered.append(RegionArg(int(a), p.length, p.perms))
        elif p.kind == "scalar":
            lowered.append(int(a))
        else:
            raise GateError(f"unknown parameter kind {p.kind!r}")
    gate = GateDescriptor(sb.host, sig.name, sig.entry, dest=sig.dest)
    return call_compartment(img, gate, lowered, max_steps=max_steps)


def promote_shared(img: BootImage, frm: str, to: str, size: int) -> int:
    """Move a would-be stack allocation into the overlap window shared by
    the two compartments; returns its address.  Raises ShareError when no
    overlap-mode region joins them."""
    for name, owners in img.plan.shared_owners.items():
        if img.plan.shared_mode[name] != "overlap":
            continue
        if set(owners) == {frm, to}:
            addr = shared_alloc(img, name, size)
            img.promotion_count += 1
            return addr
    raise ShareError(f"no overlap window between {frm!r} and {to!r}")


# ---------------------------------------------------------------------------
# Isolation fuzzing

FUZZ_CONFIG = """
compartment west code=256 data=512 stack=4096 heap=4352
compartment east code=256 data=512 stack=4096 heap=256
shared window size=256 between west,east mode=overlap
shared mailbox size=256 between west,east mode=exception
sandbox lens host=west
"""


@dataclass(frozen=True, slots=True)
class FuzzReport:
    sequences: int
    steps: int
    switches: int
    faults: dict[str, int]           # fault kind -> occurrences
    violations: list[str]            # confinement breaches (empty = isolated)


def _fuzz_ins(r, addr_regs: tuple[int, ...]):
    """One random instruction, biased toward capability and memory traffic."""
    from .isa import retl
    k = r.randrange(20)
    rd = r.randrange(16)
    ra = r.choice(addr_regs) if r.randrange(2) else r.randrange(32)
    off = r.randrange(-64, 256)
    capm = bool(r.randrange(2))
    if k < 3:
        return sti(rd, ra, off, cap=capm)
    if k < 6:
        return ldi(rd, ra, off, cap=capm)
    if k < 8:
        return stc(rd, ra, off, cap=capm)
    if k < 10:
        return ldc(rd, ra, off, cap=capm)
    if k == 10:
        return setbounds(rd, r.randrange(32), r.randrange(32), r.randrange(32))
    if k == 11:
        return cvtd(rd, r.randrange(32), r.randrange(32))
    if k == 12:
        return restrict(rd, r.randrange(32), Perm(r.randrange(64)))
    if k == 13:
        return sealr(rd, r.randrange(32), r.randrange(1, 8))
    if k == 14:
        return installddc(r.randrange(32))
    if k == 15:
        # r7 is seeded with the sealed entry capability, so half of these
        # genuinely reach the switcher with junk in the parameter registers
        return lpb(7 if r.randrange(2) else r.randrange(32), r.randrange(1, 16))
    if k == 16:
        return addi(rd, r.randrange(32), r.randrange(-256, 4096))
    if k == 17:
        return mov(rd, r.randrange(32))
    if k == 18:
        return bcap(r.randrange(32)) if r.randrange(2) else calll(r.randrange(32))
    return retl() if r.randrange(2) else setaddr(rd, r.randrange(32), r.randrange(32))


def fuzz_isolation(img: BootImage, sequences: int = 1000, seed: int = 0,
                   max_len: int = 8, max_steps: int = 32,
                   report_cap: int = 20) -> FuzzReport:
    """Throw random instruction sequences at every compartment and check the
    confinement property: each successful data access, attributed to the
    compartment owning the executing pc, must land inside that compartment's
    legitimate view (its default-capability range, windows included, plus any
    exception-mode region it owns; a sandbox sees only its scratch).

    Accesses made while the pc is inside the switcher are trusted-computing
    base activity and exempt.  Faults are the machine working as intended and
    are tallied, not flagged.
    """
    import random

    from .capability import NULL_CAP, int_cap, make_root
    from .layout import DDC_PERMS
    from .machine import run

    plan = img.plan
    st = img.machine
    rng = random.Random(seed)

    # Allowed views, by compartment id.
    allowed: dict[int, list[tuple[int, int]]] = {}
    names: dict[int, str] = {}
    for name, cid in plan.comp_ids.items():
        names[cid] = name
        if name in plan.sandboxes:
            sb = plan.sandboxes[name]
            allowed[cid] = [(sb.scratch_base, sb.scratch_top)]
        else:
            ivs = [plan.ddc_bounds[name]]
            for sname, owners in plan.shared_owners.items():
                if plan.shared_mode[sname] == "exception" and name in owners:
                    ivs.append(plan.shared_bounds[sname])
            allowed[cid] = ivs

    code_regions = list(st.code_regions)

    def owner_of(pc: int) -> int | None:
        for lo, hi, cid in code_regions:
            if lo <= pc < hi:
                return cid
        return None

    comps = [c.name for c in plan.config.compartments]
    sites = {c: img.user_entry(c) for c in comps}

    exc_cap: dict[str, Capability | None] = {}
    for c in comps:
        exc_cap[c] = None
        for sname, owners in plan.shared_owners.items():
            if plan.shared_mode[sname] == "exception" and c in owners:
                lo, hi = plan.shared_bounds[sname]
                exc_cap[c] = make_root(lo, hi, DDC_PERMS)
                break

    log: list = []
    st.access_log = log
    faults: dict[str, int] = {}
    violations: list[str] = []
    total_steps = 0
    switches0 = st.switches
    addr_regs = (0, 1, 2, 3, 4, 5, 6, 7, 31)

    for i in range(sequences):
        home = comps[i % len(comps)]
        site = sites[home]
        seq_len = rng.randrange(1, max_len + 1)
        for j in range(seq_len):
            img.program[site + j] = _fuzz_ins(rng, addr_regs)
        img.program[site + seq_len] = halt()

        # Fresh architectural state in the home compartment; interesting
        # addresses preloaded as plain integers, plus one honest capability
        # to the home data region and the sealed entry capability.
        for r in range(32):
            st.regs[r] = NULL_CAP
        st.regs[0] = int_cap(plan.data_base[home])
        st.regs[1] = int_cap(plan.stack_top[home] - 128)
        st.regs[2] = int_cap(plan.table_base)
        st.regs[3] = int_cap(0)
        st.regs[4] = int_cap(rng.randrange(0, plan.data_top))
        st.regs[5] = int_cap(plan.sealed_cap_addr(home))
        dlo, dhi = plan.data_base[home], plan.data_base[home] + 64
        st.regs[6] = make_root(dlo, dhi, DDC_PERMS)
        st.regs[7] = img.mem.load_cap(plan.sealed_cap_addr(home))
        st.regs[18] = exc_cap[home] or NULL_CAP
        st.regs[REG_SP] = int_cap(plan.stack_top[home])
        st.regs[REG_FP] = int_cap(plan.stack_top[home])
        st.pcc = set_address(img.pcc_caps[home], site)
        st.ddc = img.ddc_caps[home]
        st.current_compartment = plan.comp_ids[home]
        st.exception_sharing = exc_cap[home] is not None
        st.fault = None
        st.halted = False
        st.ddc_grant = None

        n0 = st.instructions_retired
        run(st, img.mem, img.program, max_steps=max_steps)
        total_steps += st.instructions_retired - n0
        if st.fault is not None:
            kind = st.fault.kind.value
            faults[kind] = faults.get(kind, 0) + 1
            st.fault = None

        if log:
            for pc, addr, ln, is_write in log:
                cid = owner_of(pc)
                if cid is None:
                    continue
                ivs = allowed[cid]
                if not any(a <= addr and addr + ln <= b for a, b in ivs):
                    if len(violations) < report_cap:
                        violations.append(
                            f"sequence {i}: pc {pc} ({names[cid]}) "
                            f"{'wrote' if is_write else 'read'} "
                            f"[{addr:#x}, {addr + ln:#x}) outside its view")
                    else:
                        violations.append("...")
                        log.clear()
                        st.access_log = None
                        return FuzzReport(i + 1, total_steps,
                                          st.switches - switches0,
                                          faults, violations)
            log.clear()

    st.access_log = None
    return FuzzReport(sequences, total_steps,
                      st.switches - switches0,
                      faults, violations)
