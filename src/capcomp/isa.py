"""Micro instruction set for the compartment machine.

Instructions are plain records, stored outside the simulated byte memory and
indexed by the program counter.  Loads and stores come in two addressing
modes: legacy (the operand register supplies a plain integer address, checked
against the installed default data capability) and capability-operand (the
register itself is the authorizing capability, cursor plus immediate offset).

Register conventions used throughout the runtime:
  r0-r7   argument / return-value registers
  r9-r15  gate and switcher parameter registers
  r16     hardwired zero (reads as untagged 0, writes ignored)
  r18     shared-region capability for exception-based sharing
  r29     frame pointer
  r30     link register / return capability
  r31     stack pointer
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .capability import Perm, format_perms

NUM_REGS = 32
REG_ZERO = 16
REG_SHARED = 18
REG_FP = 29
REG_LINK = 30
REG_SP = 31

INT_WIDTH = 8    # every integer load/store moves 8 bytes


class Op(enum.Enum):
    NOP = "nop"
    HALT = "halt"
    LOAD_INT = "ldi"
    STORE_INT = "sti"
    LOAD_CAP = "ldc"
    STORE_CAP = "stc"
    SET_BOUNDS = "setbounds"
    SET_ADDRESS = "setaddr"
    RESTRICT_PERMS = "restrict"
    SEAL = "seal"
    MOVE = "mov"
    ADD_IMM = "addi"
    BRANCH_CAP = "bcap"
    CALL_LOCAL = "call"
    RETURN_LOCAL = "ret"
    LOAD_PAIR_BRANCH = "lpb"
    INSTALL_DDC = "installddc"
    READ_DDC = "readddc"
    DERIVE_DDC = "cvtd"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Ins:
    """One decoded instruction. Field meaning depends on the opcode:

    memory ops:      a=data reg, b=address reg, imm=offset, cap=operand mode
    set_bounds:      a=dest, b=source cap, c=base reg, d=top reg
    set_address:     a=dest, b=source cap, c=address reg
    restrict_perms:  a=dest, b=source, imm=permission mask
    seal:            a=dest, b=source, imm=otype
    move:            a=dest, b=source
    add_imm:         a=dest, b=source, imm=addend
    branch/call:     a=target reg
    lpb:             a=sealed cap reg, b=pair-second destination reg
    install/read ddc: a=register
    derive_ddc:      a=dest, b=base reg, c=top reg
    """

    op: Op
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0
    imm: int = 0
    cap: bool = False

    def __str__(self) -> str:
        return format_ins(self)


class _InsBuilder:
    """Builds an `Ins` as `capability._CapBuilder` builds a `Capability`."""
    __slots__ = Ins.__slots__

    def __init__(self, op, a=0, b=0, c=0, d=0, imm=0, cap=False):
        self.op = op
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.imm = imm
        self.cap = cap
        self.__class__ = Ins


def _reg(i: int) -> int:
    if not 0 <= i < NUM_REGS:
        raise ValueError(f"register index out of range: {i}")
    return i


# Constructor helpers, used by the runtime emitters and by tests.

def nop() -> Ins: return _InsBuilder(Op.NOP)
def halt() -> Ins: return _InsBuilder(Op.HALT)
def ldi(rd: int, ra: int, off: int = 0, cap: bool = False) -> Ins:
    return _InsBuilder(Op.LOAD_INT, _reg(rd), _reg(ra), imm=off, cap=cap)
def sti(rs: int, ra: int, off: int = 0, cap: bool = False) -> Ins:
    return _InsBuilder(Op.STORE_INT, _reg(rs), _reg(ra), imm=off, cap=cap)
def ldc(rd: int, ra: int, off: int = 0, cap: bool = False) -> Ins:
    return _InsBuilder(Op.LOAD_CAP, _reg(rd), _reg(ra), imm=off, cap=cap)
def stc(rs: int, ra: int, off: int = 0, cap: bool = False) -> Ins:
    return _InsBuilder(Op.STORE_CAP, _reg(rs), _reg(ra), imm=off, cap=cap)
def setbounds(rd: int, rs: int, rbase: int, rtop: int) -> Ins:
    return _InsBuilder(Op.SET_BOUNDS, _reg(rd), _reg(rs), _reg(rbase), _reg(rtop))
def setaddr(rd: int, rs: int, raddr: int) -> Ins:
    return _InsBuilder(Op.SET_ADDRESS, _reg(rd), _reg(rs), _reg(raddr))
def restrict(rd: int, rs: int, perms: Perm) -> Ins:
    return _InsBuilder(Op.RESTRICT_PERMS, _reg(rd), _reg(rs), imm=int(perms))
def sealr(rd: int, rs: int, otype: int) -> Ins:
    return _InsBuilder(Op.SEAL, _reg(rd), _reg(rs), imm=otype)
def mov(rd: int, rs: int) -> Ins:
    return _InsBuilder(Op.MOVE, _reg(rd), _reg(rs))
def addi(rd: int, rs: int, imm: int) -> Ins:
    return _InsBuilder(Op.ADD_IMM, _reg(rd), _reg(rs), imm=imm)
def bcap(rs: int) -> Ins:
    return _InsBuilder(Op.BRANCH_CAP, _reg(rs))
def calll(rs: int) -> Ins:
    return _InsBuilder(Op.CALL_LOCAL, _reg(rs))
def retl() -> Ins:
    return _InsBuilder(Op.RETURN_LOCAL)
def lpb(rs: int, rd_second: int) -> Ins:
    return _InsBuilder(Op.LOAD_PAIR_BRANCH, _reg(rs), _reg(rd_second))
def installddc(rs: int) -> Ins:
    return _InsBuilder(Op.INSTALL_DDC, _reg(rs))
def readddc(rd: int) -> Ins:
    return _InsBuilder(Op.READ_DDC, _reg(rd))
def cvtd(rd: int, rbase: int, rtop: int) -> Ins:
    return _InsBuilder(Op.DERIVE_DDC, _reg(rd), _reg(rbase), _reg(rtop))


def movi(rd: int, value: int) -> Ins:
    """Load a constant: add-immediate from the zero register."""
    return addi(rd, REG_ZERO, value)


def format_ins(ins: Ins) -> str:
    """Render an instruction back to its mnemonic form (for traces)."""
    op = ins.op
    if op in (Op.NOP, Op.HALT, Op.RETURN_LOCAL):
        return op.value
    if op in (Op.LOAD_INT, Op.STORE_INT, Op.LOAD_CAP, Op.STORE_CAP):
        prefix = "c" if ins.cap else "r"
        off = f" + {ins.imm}" if ins.imm >= 0 else f" - {-ins.imm}"
        return f"{op.value} r{ins.a}, [{prefix}{ins.b}{off}]"
    if op is Op.SET_BOUNDS:
        return f"setbounds r{ins.a}, r{ins.b}, r{ins.c}, r{ins.d}"
    if op is Op.SET_ADDRESS:
        return f"setaddr r{ins.a}, r{ins.b}, r{ins.c}"
    if op is Op.RESTRICT_PERMS:
        return f"restrict r{ins.a}, r{ins.b}, {format_perms(ins.imm)}"
    if op is Op.SEAL:
        return f"seal r{ins.a}, r{ins.b}, {ins.imm}"
    if op is Op.MOVE:
        return f"mov r{ins.a}, r{ins.b}"
    if op is Op.ADD_IMM:
        return f"addi r{ins.a}, r{ins.b}, {ins.imm}"
    if op is Op.BRANCH_CAP:
        return f"bcap r{ins.a}"
    if op is Op.CALL_LOCAL:
        return f"call r{ins.a}"
    if op is Op.LOAD_PAIR_BRANCH:
        return f"lpb r{ins.a}, r{ins.b}"
    if op is Op.INSTALL_DDC:
        return f"installddc r{ins.a}"
    if op is Op.READ_DDC:
        return f"readddc r{ins.a}"
    # Op.DERIVE_DDC, the one op left
    return f"cvtd r{ins.a}, r{ins.b}, r{ins.c}"
