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
import re
from dataclasses import dataclass

from .capability import Perm

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

    def __init__(self, op: Op, a: int = 0, b: int = 0, c: int = 0, d: int = 0,
                 imm: int = 0, cap: bool = False):
        # Same slot-descriptor stores as Capability.__init__: about half the
        # cost of the object.__setattr__ calls the generated frozen __init__
        # makes, on the path every emitter and the fuzzer take.
        _set_op(self, op)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)
        _set_imm(self, imm)
        _set_cap(self, cap)

    def __str__(self) -> str:
        return format_ins(self)


_set_op, _set_a, _set_b, _set_c, _set_d, _set_imm, _set_cap = (
    Ins.__dict__[f].__set__ for f in ("op", "a", "b", "c", "d", "imm", "cap"))


def _reg(i: int) -> int:
    if not 0 <= i < NUM_REGS:
        raise ValueError(f"register index out of range: {i}")
    return i


# Constructor helpers; these are the assembly surface used by the runtime
# emitters and by tests.

def nop() -> Ins: return Ins(Op.NOP)
def halt() -> Ins: return Ins(Op.HALT)
def ldi(rd: int, ra: int, off: int = 0, cap: bool = False) -> Ins:
    return Ins(Op.LOAD_INT, _reg(rd), _reg(ra), imm=off, cap=cap)
def sti(rs: int, ra: int, off: int = 0, cap: bool = False) -> Ins:
    return Ins(Op.STORE_INT, _reg(rs), _reg(ra), imm=off, cap=cap)
def ldc(rd: int, ra: int, off: int = 0, cap: bool = False) -> Ins:
    return Ins(Op.LOAD_CAP, _reg(rd), _reg(ra), imm=off, cap=cap)
def stc(rs: int, ra: int, off: int = 0, cap: bool = False) -> Ins:
    return Ins(Op.STORE_CAP, _reg(rs), _reg(ra), imm=off, cap=cap)
def setbounds(rd: int, rs: int, rbase: int, rtop: int) -> Ins:
    return Ins(Op.SET_BOUNDS, _reg(rd), _reg(rs), _reg(rbase), _reg(rtop))
def setaddr(rd: int, rs: int, raddr: int) -> Ins:
    return Ins(Op.SET_ADDRESS, _reg(rd), _reg(rs), _reg(raddr))
def restrict(rd: int, rs: int, perms: Perm) -> Ins:
    return Ins(Op.RESTRICT_PERMS, _reg(rd), _reg(rs), imm=int(perms))
def sealr(rd: int, rs: int, otype: int) -> Ins:
    return Ins(Op.SEAL, _reg(rd), _reg(rs), imm=otype)
def mov(rd: int, rs: int) -> Ins:
    return Ins(Op.MOVE, _reg(rd), _reg(rs))
def addi(rd: int, rs: int, imm: int) -> Ins:
    return Ins(Op.ADD_IMM, _reg(rd), _reg(rs), imm=imm)
def bcap(rs: int) -> Ins:
    return Ins(Op.BRANCH_CAP, _reg(rs))
def calll(rs: int) -> Ins:
    return Ins(Op.CALL_LOCAL, _reg(rs))
def retl() -> Ins:
    return Ins(Op.RETURN_LOCAL)
def lpb(rs: int, rd_second: int) -> Ins:
    return Ins(Op.LOAD_PAIR_BRANCH, _reg(rs), _reg(rd_second))
def installddc(rs: int) -> Ins:
    return Ins(Op.INSTALL_DDC, _reg(rs))
def readddc(rd: int) -> Ins:
    return Ins(Op.READ_DDC, _reg(rd))
def cvtd(rd: int, rbase: int, rtop: int) -> Ins:
    return Ins(Op.DERIVE_DDC, _reg(rd), _reg(rbase), _reg(rtop))


def movi(rd: int, value: int) -> Ins:
    """Load a constant: add-immediate from the zero register."""
    return addi(rd, REG_ZERO, value)


# ---------------------------------------------------------------------------
# Textual assembly

_ALIASES = {"sp": REG_SP, "fp": REG_FP, "lr": REG_LINK, "rz": REG_ZERO}
_PERM_NAMES = {
    "load": Perm.LOAD, "store": Perm.STORE, "exec": Perm.EXECUTE,
    "execute": Perm.EXECUTE, "loadcap": Perm.LOAD_CAP, "storecap": Perm.STORE_CAP,
    "invoke": Perm.INVOKE, "none": Perm(0),
}
_MEM_RE = re.compile(r"^\[\s*([cr][a-z0-9]+)\s*(?:([+-])\s*(\d+))?\s*\]$")


class AsmError(ValueError):
    """Assembly error, reported with its 1-based source line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_reg(tok: str, line_no: int) -> tuple[int, bool]:
    """Return (index, capability-operand flag) for r<N>/c<N>/alias."""
    t = tok.strip().lower()
    if t in _ALIASES:
        return _ALIASES[t], False
    m = re.fullmatch(r"([rc])(\d+)", t)
    if not m:
        raise AsmError(line_no, f"bad register {tok!r}")
    idx = int(m.group(2))
    if idx >= NUM_REGS:
        raise AsmError(line_no, f"register index out of range: {tok!r}")
    return idx, m.group(1) == "c"


def _parse_mem(tok: str, line_no: int) -> tuple[int, int, bool]:
    m = _MEM_RE.match(tok.strip().lower())
    if not m:
        raise AsmError(line_no, f"bad memory operand {tok!r}, expected [rN + off]")
    reg, cap = _parse_reg(m.group(1), line_no)
    off = int(m.group(3) or 0)
    if m.group(2) == "-":
        off = -off
    return reg, off, cap


def _parse_perms(tok: str, line_no: int) -> Perm:
    p = Perm(0)
    for part in tok.lower().split("|"):
        part = part.strip()
        if part not in _PERM_NAMES:
            raise AsmError(line_no, f"unknown permission {part!r}")
        p |= _PERM_NAMES[part]
    return p


def _parse_int(tok: str, line_no: int) -> int:
    try:
        return int(tok.strip(), 0)
    except ValueError:
        raise AsmError(line_no, f"bad integer {tok!r}") from None


def assemble_line(line: str, line_no: int = 1) -> Ins | None:
    """Assemble one line; returns None for blanks and comments."""
    text = line.split(";")[0].strip()
    if not text:
        return None
    parts = text.split(None, 1)
    mnem = parts[0].lower()
    ops = [o.strip() for o in (parts[1].split(",") if len(parts) > 1 else [])]

    def need(n: int) -> None:
        if len(ops) != n:
            raise AsmError(line_no, f"{mnem} expects {n} operands, got {len(ops)}")

    if mnem == "nop":
        need(0); return nop()
    if mnem == "halt":
        need(0); return halt()
    if mnem in ("ldi", "sti", "ldc", "stc"):
        need(2)
        r, _ = _parse_reg(ops[0], line_no)
        ra, off, cap = _parse_mem(ops[1], line_no)
        fn = {"ldi": ldi, "sti": sti, "ldc": ldc, "stc": stc}[mnem]
        return fn(r, ra, off, cap)
    if mnem == "setbounds":
        need(4)
        rs = [_parse_reg(o, line_no)[0] for o in ops]
        return setbounds(*rs)
    if mnem == "setaddr":
        need(3)
        rs = [_parse_reg(o, line_no)[0] for o in ops]
        return setaddr(*rs)
    if mnem == "restrict":
        need(3)
        rd, _ = _parse_reg(ops[0], line_no)
        rs, _ = _parse_reg(ops[1], line_no)
        return restrict(rd, rs, _parse_perms(ops[2], line_no))
    if mnem == "seal":
        need(3)
        rd, _ = _parse_reg(ops[0], line_no)
        rs, _ = _parse_reg(ops[1], line_no)
        return sealr(rd, rs, _parse_int(ops[2], line_no))
    if mnem == "mov":
        need(2)
        return mov(_parse_reg(ops[0], line_no)[0], _parse_reg(ops[1], line_no)[0])
    if mnem == "addi":
        need(3)
        rd, _ = _parse_reg(ops[0], line_no)
        rs, _ = _parse_reg(ops[1], line_no)
        return addi(rd, rs, _parse_int(ops[2], line_no))
    if mnem == "movi":
        need(2)
        return movi(_parse_reg(ops[0], line_no)[0], _parse_int(ops[1], line_no))
    if mnem == "bcap":
        need(1); return bcap(_parse_reg(ops[0], line_no)[0])
    if mnem == "call":
        need(1); return calll(_parse_reg(ops[0], line_no)[0])
    if mnem == "ret":
        need(0); return retl()
    if mnem == "lpb":
        need(2)
        return lpb(_parse_reg(ops[0], line_no)[0], _parse_reg(ops[1], line_no)[0])
    if mnem == "installddc":
        need(1); return installddc(_parse_reg(ops[0], line_no)[0])
    if mnem == "readddc":
        need(1); return readddc(_parse_reg(ops[0], line_no)[0])
    if mnem == "cvtd":
        need(3)
        rs = [_parse_reg(o, line_no)[0] for o in ops]
        return cvtd(*rs)
    raise AsmError(line_no, f"unknown mnemonic {mnem!r}")


def assemble(text: str) -> list[Ins]:
    """Assemble a whole program, one instruction per line."""
    out = []
    for i, line in enumerate(text.splitlines(), start=1):
        ins = assemble_line(line, i)
        if ins is not None:
            out.append(ins)
    return out


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
        return f"restrict r{ins.a}, r{ins.b}, {Perm(ins.imm)!r}"
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
    if op is Op.DERIVE_DDC:
        return f"cvtd r{ins.a}, r{ins.b}, r{ins.c}"
    return op.value
