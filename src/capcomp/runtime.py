"""Compartment-switching runtime: gates, switcher, trampolines, sandboxes.

A cross-compartment call is a fixed choreography:

  gate prologue (caller code)   saves every caller register to the caller
                                stack, loads the arguments, loads the caller's
                                sealed entry capability and invokes it;
  switcher (privileged code)    builds the on-stack switch frame (return
                                capability, caller ddc, sp, fp) through a
                                capability bounded by the caller's ddc,
                                seals a capability to it, installs its own
                                ddc, saves the caller's resume stack
                                pointer, loads the callee's capability pair
                                and resume stack, installs the callee ddc,
                                scrubs every non-argument register, and
                                branches to the callee trampoline;
  trampoline enter (callee)     stashes the sealed frame capability on the
                                callee stack and calls the target function;
  trampoline return (callee)    pops the sealed frame capability and invokes
                                it, which unseals the frame and lands in the
                                switcher's return leg with the caller ddc;
  switcher return leg           (`SWITCHER_RET_ENTRY`) reinstalls the caller
  (privileged code)             ddc, resets the callee's resume stack pointer,
                                restores sp/fp from the frame, and branches to
                                the caller's resume capability;
  gate epilogue (caller code)   moves the return value aside, restores every
                                saved register, and scrubs the frame and save
                                area back to zero bytes.

If the callee corrupts the stashed sealed capability, the return faults with
a tag fault: a detected, not silent, attack.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable
from dataclasses import dataclass

from .capability import NULL_CAP, Capability, Perm, int_cap, make_root, set_address
from .isa import (
    Ins,
    Op,
    REG_FP,
    REG_LINK,
    REG_SP,
    REG_ZERO,
    _InsBuilder,
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
    DDC_PERMS,
    FRAME_OTYPE,
    FUZZ_SITE_SLOTS,
    OFF_SP,
    OFF_TRAMP,
    SWITCHER_CODE,
    SWITCHER_CODE_SLOTS,
    TABLE_BASE,
    TABLE_ENTRY,
    TRAMP_SLOTS,
    install_function,
    shared_alloc,
)
from .machine import MachineState, run
from .memory import CAP_SLOT

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
SWITCHER_END = SWITCHER_RET_ENTRY + 10   # one past the return leg


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
class GateCode:
    """Emitted gate sequence plus the split point for instrumentation."""

    instructions: tuple[Ins, ...]
    prologue_len: int                # entry lpb is the last prologue slot


# ---------------------------------------------------------------------------
# Emitters


# The privileged switch sequence, the same for every plan: boot copies it to
# slots SWITCHER_CODE, and it reaches the table at TABLE_BASE, where every
# plan puts it.  Ins values are frozen, so every boot image's program shares
# these objects.
#
# Table slots are addressed through bounded sub-capabilities derived from
# the locator, so a garbled compartment offset dies with a tag fault instead
# of scribbling over the table.
SWITCHER = (
    # Frame construction through a capability to the frame, bounded from the
    # caller's ddc: sp is the caller's to set, so a frame its ddc does not
    # cover yields an untagged capability and the first store faults.
    addi(R_FRAME, REG_SP, -FRAME_SIZE),
    readddc(21),
    addi(22, R_FRAME, FRAME_SIZE),
    setbounds(23, 21, R_FRAME, 22),
    stc(REG_LINK, 23, FRAME_OFF_RET, cap=True),
    stc(21, 23, FRAME_OFF_DDC, cap=True),
    sti(REG_SP, 23, FRAME_OFF_SP, cap=True),
    sti(REG_FP, 23, FRAME_OFF_FP, cap=True),
    # Switch to the switcher's own data view.
    installddc(R_PAIR2),
    # Record where the caller resumes (just below its live frame).
    addi(24, R_CALLER_OFF, TABLE_BASE),
    addi(25, 24, TABLE_ENTRY),
    setbounds(24, R_PAIR2, 24, 25),
    sti(R_FRAME, 24, OFF_SP, cap=True),
    # Load the callee's pair, resume stack, and trampoline entry.
    addi(25, R_CALLEE_OFF, TABLE_BASE),
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
    addi(17, R_CALLEE_OFF, TABLE_BASE + OFF_SP),
    sti(17, 23, FRAME_OFF_CALLEE_SLOT, cap=True),
    sti(22, 23, FRAME_OFF_CALLEE_SP, cap=True),
    sealr(R_FRAME_OUT, 23, FRAME_OTYPE),
    installddc(27),
    mov(REG_SP, 22),
    mov(REG_FP, REG_SP),
    setaddr(26, 26, R_STASH),
    *(mov(r, REG_ZERO) for r in SWITCHER_SCRUB),
    bcap(26),
    # Return leg, entered by invoking a sealed frame.  r20 holds the unsealed
    # frame capability, r19 the caller's ddc.  The resume-slot store runs on
    # switcher privilege (the installed ddc is already the caller's again).
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
)
assert SWITCHER[SWITCHER_RET_ENTRY - 1:SWITCHER_RET_ENTRY + 1] == (bcap(26), installddc(R_PAIR2))
assert len(SWITCHER) == SWITCHER_END <= SWITCHER_CODE_SLOTS


# The callee-side stub at the base of every code region: stash the sealed
# frame capability, call the target, then pop, scrub, and invoke it to
# return.  The scrub keeps the callee stack inductively zero; a replayed
# stale frame capability would fault on the scrubbed frame anyway, so this
# is hygiene, not the security boundary.
TRAMPOLINE = (
    addi(REG_SP, REG_SP, -32),
    stc(R_FRAME_OUT, REG_SP, 0),
    mov(R_FRAME_OUT, REG_ZERO),
    calll(R_TARGET),
    ldc(R_FRAME, REG_SP, 0),
    stc(REG_ZERO, REG_SP, 0),
    addi(REG_SP, REG_SP, 32),
    lpb(R_FRAME, R_PAIR2),
)
assert len(TRAMPOLINE) == TRAMP_SLOTS


TRAMP_ENTER_SLOTS = 4      # instructions before control enters the callee
TRAMP_RETURN_SLOTS = 4


# The parts of a call site that do not depend on the call, built once.  Ins
# values are immutable, so every emitted site shares these objects, and so do
# the program slots they are installed into.
_SAVE_BLOCK = (addi(REG_SP, REG_SP, -SAVE_BYTES),) + tuple(
    stc(r, REG_SP, 32 * j) for j, r in enumerate(SAVE_SET))
_INVOKE_BLOCK = (ldc(R_SEALED, R_ADDR, 0), lpb(R_SEALED, R_PAIR2))
_SCRUB_BLOCK = (addi(REG_SP, REG_SP, SAVE_BYTES),) + tuple(
    stc(REG_ZERO, REG_SP, -SCRUB_BYTES + 32 * j) for j in range(SCRUB_BYTES // 32))
_HALT = halt()


@functools.cache
def _epilogue(dest: int | None) -> tuple[Ins, ...]:
    """The epilogue for a validated return destination (29 possible values).

    The switcher return leg already reinstalled the caller's ddc and restored
    sp/fp; what remains is moving the return value aside, restoring the saved
    registers, and zeroing the dead frame+save area.
    """
    seq: list[Ins] = []
    if dest not in (None, 0):
        seq.append(mov(R_STASH, 0))
    if dest not in (None, 0) and dest != R_STASH:
        seq.append(mov(dest, R_STASH))
    for j, r in enumerate(SAVE_SET):
        if dest is not None and r == dest:
            continue
        seq.append(ldc(r, REG_SP, 32 * j))
    return tuple(seq) + _SCRUB_BLOCK


def emit_gate_sequence(plan, gate: GateDescriptor, args: list) -> GateCode:
    """Emit one inline call-site sequence (prologue through epilogue).

    Only the argument loads and the four gate constants are built per call;
    the save block, the sealed invoke and the epilogue are shared.
    """
    gate.validate()
    if gate.caller not in plan.comp_ids or gate.caller in plan.sandboxes:
        raise GateError(f"gate caller {gate.caller!r} is not a compartment")
    if gate.callee not in plan.comp_ids:
        raise GateError(f"unknown gate callee {gate.callee!r}")
    if gate.entry not in plan.region(f"{gate.callee}.code"):
        raise GateError(f"entry {gate.entry} outside the code region of {gate.callee!r}")
    if len(args) > R_ARG_MAX:
        raise GateError(f"{len(args)} arguments do not fit the argument registers")

    caller_id = plan.comp_ids[gate.caller]
    callee_id = plan.comp_ids[gate.callee]

    loads: list[Ins] = []
    for i, a in enumerate(args):
        if isinstance(a, RegionArg):
            loads.append(movi(20, a.base))
            loads.append(movi(21, a.base + a.length))
            loads.append(cvtd(i, 20, 21))
            loads.append(restrict(i, i, a.perms))
        else:
            loads.append(movi(i, int(a)))
    loads.append(movi(R_CALLER_OFF, caller_id * TABLE_ENTRY))
    loads.append(movi(R_CALLEE_OFF, callee_id * TABLE_ENTRY))
    loads.append(movi(R_TARGET, gate.entry))
    loads.append(movi(R_ADDR, plan.sealed_cap_addr(gate.caller)))
    prologue = _SAVE_BLOCK + tuple(loads) + _INVOKE_BLOCK
    return GateCode(prologue + _epilogue(gate.dest), len(prologue))


# ---------------------------------------------------------------------------
# Execution helpers


def _run_phase(img: BootImage, length: int) -> MachineState:
    """Run one straight-line phase of `length` steps through `run`."""
    st = img.machine
    return run(st, img.mem, img.program, max_steps=length)


def _check_caller(img: BootImage, gate: GateDescriptor) -> None:
    st = img.machine
    if st.fault is not None:
        raise GateError("gate call with a pending fault")
    if st.halted:
        raise GateError("gate call on a halted machine")
    if st.current_compartment != img.plan.comp_ids[gate.caller]:
        raise GateError(
            f"machine is in compartment {st.current_compartment}, "
            f"gate belongs to {gate.caller!r}")


def install_call_site(img: BootImage, gate: GateDescriptor, args, *,
                      at: int | None = None) -> tuple[int, GateCode]:
    """Emit the gate sequence for `args`, install it followed by a halt in
    the caller's code (at `at`, or at the next free slot), and point the pcc
    at it.  Returns the site and the emitted code; nothing has run yet."""
    code = emit_gate_sequence(img.plan, gate, list(args))
    site = install_function(img, gate.caller, code.instructions + (_HALT,), at=at)
    st = img.machine
    st.pcc = set_address(st.pcc, site)
    return site, code


def gate_call(img: BootImage, gate: GateDescriptor, args: list, *,
              at: int | None = None) -> MachineState:
    """Install the gate sequence at a caller call site and run its prologue
    through `run`, up to the switcher entry (the sealed invoke included).

    Preconditions: no pending fault, and the machine is currently executing
    the caller compartment.  Returns with the pcc inside the switcher, the
    argument registers loaded, and the return capability in the link
    register; compose with `switcher_switch`/`trampoline_enter`/... or use
    `call_compartment` for a full round trip.
    """
    _check_caller(img, gate)
    _, code = install_call_site(img, gate, args, at=at)
    return _run_phase(img, code.prologue_len)


def switcher_switch(img: BootImage) -> MachineState:
    """Run the privileged switch sequence to the exit branch of the leg the
    pcc is in: the call leg, or the return leg a sealed frame invokes."""
    off = img.machine.pc - SWITCHER_CODE[0]
    if not 0 <= off < SWITCHER_END:
        raise GateError("switcher_switch: pcc is not inside the switcher")
    end = SWITCHER_RET_ENTRY if off < SWITCHER_RET_ENTRY else SWITCHER_END
    return _run_phase(img, end - off)


def _at_trampoline(img: BootImage, offset: int) -> bool:
    """Whether the pc is `offset` slots into a trampoline.  Every entity's
    code region starts with its trampoline copy."""
    pc = img.machine.pc - offset
    return any(r.base == pc for r in img.plan.regions if r.kind == "code")


def trampoline_enter(img: BootImage) -> MachineState:
    """Run the callee trampoline up to the call into the target function."""
    if not _at_trampoline(img, 0):
        raise GateError("trampoline_enter: pcc is not at a trampoline entry")
    return _run_phase(img, TRAMP_ENTER_SLOTS)


def trampoline_return(img: BootImage) -> MachineState:
    """Run the pop-and-invoke tail of the trampoline (back to the caller)."""
    if not _at_trampoline(img, TRAMP_ENTER_SLOTS):
        raise GateError("trampoline_return: pcc is not at a trampoline return point")
    return _run_phase(img, TRAMP_RETURN_SLOTS)


def call_compartment(img: BootImage, gate: GateDescriptor, args: list, *,
                     at: int | None = None, max_steps: int = 100_000) -> MachineState:
    """Full gate round trip in one `run`, so every step, the prologue's
    included, leaves its step record: returns after the epilogue's final
    scrub (the installed sequence ends in halt), on the first unhandled
    fault, or after `max_steps` steps, prologue included."""
    _check_caller(img, gate)
    install_call_site(img, gate, args, at=at)
    return run(img.machine, img.mem, img.program, max_steps=max_steps)


def sandbox_call(img: BootImage, sig: SandboxSignature, args: list) -> MachineState:
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
    return call_compartment(img, gate, lowered)


def promote_shared(img: BootImage, frm: str, to: str, size: int) -> int:
    """Move a would-be stack allocation into the overlap window shared by
    the two compartments; returns its address.  Raises ShareError when no
    overlap-mode region joins them."""
    for s in img.plan.config.shared:
        if s.mode == "overlap" and {s.a, s.b} == {frm, to}:
            return shared_alloc(img, s.name, size)
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

# The one fuzz configuration: each sequence is at most FUZZ_SITE_SLOTS drawn
# slots and its halt, runs at most FUZZ_MAX_STEPS steps, and a report lists
# at most FUZZ_REPORT_CAP violations.
FUZZ_MAX_STEPS = 32
FUZZ_REPORT_CAP = 20


@dataclass(frozen=True, slots=True)
class FuzzReport:
    sequences: int
    steps: int
    switches: int
    faults: dict[str, int]           # fault kind -> occurrences
    violations: list[str]            # confinement breaches (empty = isolated), see FUZZ_REPORT_CAP


def _draw(getrandbits, n: int) -> int:
    """A uniform int in [0, n), drawn exactly as `random.Random._randbelow`
    draws it: `n.bit_length()` bits at a time until the result is below n.
    So `a + _draw(gb, b - a)` (an int in [a, b)) and `seq[_draw(gb,
    len(seq))]` (an element of seq) make the same `getrandbits` calls, and
    leave the generator in the same state, as the `Random` methods that draw
    them.  n must be at least 1: with n == 0 the loop never ends.

    `_fuzz_ins` and `fuzz_isolation` write this loop out inline for each of
    their draws; this is the form the tests check against `randrange`."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# The memory ops `_fuzz_ins` picks for k = 0..9: 3 sti, 3 ldi, 2 stc, 2 ldc.
_FUZZ_MEM_OPS = (Op.STORE_INT,) * 3 + (Op.LOAD_INT,) * 3 + (Op.STORE_CAP,) * 2 + (Op.LOAD_CAP,) * 2


def _fuzz_ins(gb, addr_regs: tuple[int, ...]) -> Ins:
    """One random instruction, biased toward capability and memory traffic.
    `gb` is the fuzzer's `Random.getrandbits`.

    Each draw is `_draw` written out: an int in [0, n) is `n.bit_length()`
    bits, drawn again while it is `>= n`.  Every instruction first draws k
    (its kind, 0..19), rd, ra (from `addr_regs` or any register, on a coin),
    an offset and the operand mode, and then, in order, the operands its
    kind needs; it is built by `isa._InsBuilder`, as the `isa` helper of
    its op builds it."""
    k = gb(5)
    while k >= 20: k = gb(5)
    rd = gb(5)
    while rd >= 16: rd = gb(5)
    coin = gb(2)
    while coin >= 2: coin = gb(2)
    if coin:
        n = len(addr_regs)
        ra = gb(n.bit_length())
        while ra >= n: ra = gb(n.bit_length())
        ra = addr_regs[ra]
    else:
        ra = gb(6)
        while ra >= 32: ra = gb(6)
    off = gb(9)
    while off >= 320: off = gb(9)
    capm = gb(2)
    while capm >= 2: capm = gb(2)
    if k < 10:                      # sti, ldi, stc, ldc
        return _InsBuilder(_FUZZ_MEM_OPS[k], rd, ra, 0, 0, off - 64, capm == 1)
    if k == 15:
        # lpb: r7 is seeded with the sealed entry capability, so half of
        # these genuinely reach the switcher with junk in the parameter
        # registers
        coin = gb(2)
        while coin >= 2: coin = gb(2)
        if coin:
            a = 7
        else:
            a = gb(6)
            while a >= 32: a = gb(6)
        b = gb(4)
        while b >= 15: b = gb(4)
        return _InsBuilder(Op.LOAD_PAIR_BRANCH, a, 1 + b)
    if k >= 18:                     # bcap or call, ret or setaddr: a coin first
        coin = gb(2)
        while coin >= 2: coin = gb(2)
        if k == 19 and coin:
            return _InsBuilder(Op.RETURN_LOCAL)
    a = gb(6)
    while a >= 32: a = gb(6)
    if k == 14:
        return _InsBuilder(Op.INSTALL_DDC, a)
    if k == 17:
        return _InsBuilder(Op.MOVE, rd, a)
    if k == 18:
        return _InsBuilder(Op.BRANCH_CAP if coin else Op.CALL_LOCAL, a)
    if k == 16:
        imm = gb(13)
        while imm >= 4352: imm = gb(13)
        return _InsBuilder(Op.ADD_IMM, rd, a, 0, 0, imm - 256)
    if k == 13:
        otype = gb(3)
        while otype >= 7: otype = gb(3)
        return _InsBuilder(Op.SEAL, rd, a, 0, 0, 1 + otype)
    if k == 12:
        perms = gb(7)
        while perms >= 64: perms = gb(7)
        return _InsBuilder(Op.RESTRICT_PERMS, rd, a, 0, 0, perms)
    b = gb(6)
    while b >= 32: b = gb(6)
    if k == 11:
        return _InsBuilder(Op.DERIVE_DDC, rd, a, b)
    if k == 19:
        return _InsBuilder(Op.SET_ADDRESS, rd, a, b)
    c = gb(6)
    while c >= 32: c = gb(6)
    return _InsBuilder(Op.SET_BOUNDS, rd, a, b, c)      # k == 10


class _FuzzProgram:
    """`img.program` as `run` reads it while fuzzing: the first read of a
    slot in the live sequence's [site, end), not yet in `drawn`, writes
    `draw(pc)` into the image's program and returns it.  `run` needs only
    `len` and indexing, and reads a slot only where it fetches it, or where
    its per-step loop would fetch it next."""

    site = end = 0          # no live sequence: nothing is drawn

    def __init__(self, program: list[Ins], draw: Callable[[int], Ins]):
        self.program, self.draw = program, draw
        self.drawn: set[int] = set()     # cleared before each sequence

    def __len__(self) -> int:
        return len(self.program)

    def __getitem__(self, pc: int) -> Ins:
        if self.site <= pc < self.end and pc not in self.drawn:
            self.drawn.add(pc)
            self.program[pc] = ins = self.draw(pc)
            return ins
        return self.program[pc]


def fuzz_isolation(img: BootImage, sequences: int = 1000, seed: int = 0) -> FuzzReport:
    """Throw random instruction sequences at every compartment and check the
    confinement property: each successful data access, attributed to the
    compartment owning the executing pc, must land inside that compartment's
    legitimate view (its `plan.ddc_bounds` entry, as boot writes its ddc, plus
    any exception-mode region it owns; a sandbox's entry is its scratch).

    Accesses made while the pc is inside the switcher are trusted-computing
    base activity and exempt.  Faults are the machine working as intended and
    are tallied, not flagged.  So the fuzzer cannot see what the switcher
    writes: besides that exemption, no draw sets fp or sp, which place the
    switch frame.  Every drawn destination register is below r16; only
    `lpb` also writes the link register and the register that held the
    sealed capability it invokes.

    Each sequence draws, from one `random.Random(seed)`, its length (1 to
    `FUZZ_SITE_SLOTS`), then the address r4 starts with, and ends in a halt
    at `site + length`.  The planner keeps room for that in every
    compartment's code region (`layout.MIN_OWN_CODE`).  A sequence is one
    `run(FUZZ_MAX_STEPS)` call over a `_FuzzProgram` view of `img.program`,
    which draws each slot into the image's program at its first fetch; a
    slot never fetched keeps what was there before.
    The slots are independent draws from one distribution, so what runs is
    distributed as if every slot had been drawn up front.

    r7 starts each sequence as its home's sealed entry slot holds it then,
    since an earlier sequence may have written that slot.  The slot is
    decoded at its home's first sequence, and again only after an access
    record of this call names a write that overlaps it: every machine write
    leaves one, as the confinement check relies on.  Nothing is kept across
    calls.

    `seed` must be at least 0: `random.Random` seeds a negative int as its
    absolute value, so a negative seed would silently repeat another run.

    At most `FUZZ_REPORT_CAP` violations are listed.  At the first one beyond
    that, fuzzing stops and the list is truncated: its last entry becomes
    "...", and `sequences` counts the sequences run up to that point.
    """
    if sequences < 0:
        raise ValueError(f"sequences must be at least 0, not {sequences}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, not {seed}")
    plan = img.plan
    st = img.machine
    data_top = plan.data_top
    gb = random.Random(seed).getrandbits

    # Allowed views, by compartment id.
    names = {cid: name for name, cid in plan.comp_ids.items()}
    allowed = {plan.comp_ids[name]: [ddc] for name, ddc in plan.ddc_bounds.items()}
    for owner, exc in plan.exception_regions.items():
        allowed[plan.comp_ids[owner]].append((exc.base, exc.top))

    code_regions = list(st.code_regions)

    def owner_of(pc: int) -> int | None:
        for lo, hi, cid in code_regions:
            if lo <= pc < hi:
                return cid
        return None

    # What every sequence in a home compartment starts from: the state
    # `img.enter` gives it (code site, ddc, sp, fp and the exception-mode
    # region it owns in r18) over an otherwise null register file.
    # Interesting addresses are preloaded as plain integers, plus one honest
    # capability to the home data region.  Per sequence, r4 takes a random
    # address and r7 the sealed entry capability as its slot holds it then.
    homes = []
    for name in (c.name for c in plan.config.compartments):
        st.regs[:] = [NULL_CAP] * len(st.regs)
        img.enter(name)
        base = entry_at = plan.sealed_cap_addr(name)
        st.regs[0:4] = [int_cap(base), int_cap(plan.region(f"{name}.stack").top - 128),
                        int_cap(TABLE_BASE), int_cap(0)]
        st.regs[5] = int_cap(entry_at)
        st.regs[6] = make_root(base, base + 64, DDC_PERMS)
        homes.append((st.pc, list(st.regs), entry_at, st.code, st.ddc,
                      st.current_compartment))

    # r7's value per entry slot, kept until a write overlaps the slot.  Every
    # write the machine makes leaves an access record, which the loop below
    # scans, and a write is at most CAP_SLOT bytes, so the slots holding its
    # first and last bytes are all it can touch.  While no record names a
    # write into the slot, the kept capability is what `load_cap` would give.
    mem = img.mem
    r7_last: dict[int, Capability] = {}

    events: list = []
    st.events = events
    faults: dict[str, int] = {}
    violations: list[str] = []
    steps0, switches0 = st.instructions_retired, st.switches
    addr_regs = (0, 1, 2, 3, 4, 5, 6, 7, 31)
    program = _FuzzProgram(img.program, lambda pc: _fuzz_ins(gb, addr_regs))  # independent draws
    drawn = program.drawn
    st_regs, image_program = st.regs, img.program
    n_homes = len(homes)
    # The sequence length and the r4 address are `_draw`s, written out.
    len_bits, r4_bits = FUZZ_SITE_SLOTS.bit_length(), data_top.bit_length()

    try:
        for i in range(sequences):
            site, regs, entry_at, code, ddc, home_id = homes[i % n_homes]
            n = gb(len_bits)
            while n >= FUZZ_SITE_SLOTS: n = gb(len_bits)
            end = site + 1 + n
            st_regs[:] = regs
            r4 = gb(r4_bits)
            while r4 >= data_top: r4 = gb(r4_bits)
            st_regs[4] = int_cap(r4)
            r7 = r7_last.get(entry_at)
            if r7 is None:
                r7 = r7_last[entry_at] = mem.load_cap(entry_at)
            st_regs[7] = r7
            image_program[end] = _HALT
            program.site, program.end = site, end
            drawn.clear()
            st.code = code
            st.pc = site
            st.ddc = ddc
            st.current_compartment = home_id
            st.fault = None
            st.halted = False

            run(st, mem, program, FUZZ_MAX_STEPS)
            if st.fault is not None:
                kind = st.fault.kind._value_
                faults[kind] = faults.get(kind, 0) + 1
                st.fault = None

            for ev in events:
                if ev[0] != "access":
                    continue
                _, pc, addr, ln, is_write = ev
                if is_write:
                    r7_last.pop(addr & -CAP_SLOT, None)
                    r7_last.pop((addr + ln - 1) & -CAP_SLOT, None)
                cid = owner_of(pc)
                if cid is None or any(a <= addr and addr + ln <= b for a, b in allowed[cid]):
                    continue
                if len(violations) < FUZZ_REPORT_CAP:
                    violations.append(
                        f"sequence {i}: pc {pc} ({names[cid]}) "
                        f"{'wrote' if is_write else 'read'} "
                        f"[{addr:#x}, {addr + ln:#x}) outside its view")
                else:
                    violations[-1] = "..."
                    return FuzzReport(i + 1, st.instructions_retired - steps0,
                                      st.switches - switches0, faults, violations)
            events.clear()
        return FuzzReport(sequences, st.instructions_retired - steps0,
                          st.switches - switches0, faults, violations)
    finally:
        st.events = None
