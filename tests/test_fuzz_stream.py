"""The isolation fuzzer's random stream, pinned.

Every `FuzzReport` field of `fuzz_isolation`, for three seeds on each bundled
configuration and on `FUZZ_CONFIG`, and at other sequence widths.  Per
sequence, the harness draws from one `random.Random(seed)` the sequence
length, then the r4 address, and writes the halt after the last slot; it
then draws each slot's instruction just before the machine first fetches
that slot, so a slot that is never fetched is never drawn and keeps what an
earlier sequence left there.  Any change to those draws, to their order, or
to the machine's behaviour moves these numbers.  Fault kinds are pinned in
first-seen order, which `capcomp verify` uses to break ties in its tally.

The lazy drawing is checked three ways below: each sequence draws exactly
the slots its step records fetch, in first-fetch order; replaying every
sequence as one `run(max_steps)` call, with a poison instruction in each
undrawn slot, repeats the `FuzzReport` and every record; and on the r18
swap path, stepping a sequence leaves the state and records one
`run(max_steps)` call leaves.  Two more checks pin the per-sequence work
around the steps: every one-step `run` call leaves a step record, and
every sequence starts with r7 as its home's entry slot holds it, although
the fuzzer decodes that slot only when it changed.

Every draw goes through `runtime._draw`, which calls the generator's
`getrandbits` exactly as `Random._randbelow` does: `n.bit_length()` bits,
drawn again while the result is `>= n`.  An int in [a, b) is
`a + _draw(gb, b - a)` and an element of a sequence is
`seq[_draw(gb, len(seq))]`, so the stream is the one `randrange` and
`choice` gave, draw for draw.  The reference generator below keeps the
`randrange`/`choice` form, and the tests check the two against each other,
generator state included.
"""

import importlib.resources as ir
import random
from dataclasses import dataclass

import pytest

from capcomp import runtime
from capcomp.capability import FaultKind, Perm, make_root
from capcomp.isa import (
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
    restrict,
    retl,
    sealr,
    setaddr,
    setbounds,
    stc,
    sti,
)
from capcomp.layout import DDC_PERMS, OFF_DDC, boot_init, compute_layout, parse_config
from capcomp.machine import run
from capcomp.memory import CAP_SLOT
from capcomp.runtime import FUZZ_CONFIG, FuzzReport, _draw, _fuzz_ins, fuzz_isolation

SEQUENCES = 500

# (config, seed): (sequences, steps, switches, faults in first-seen order, violations)
PINNED = {
    ("two_comp", 3): (500, 382, 15, [("TagFault", 226), ("BoundsFault", 152), ("PermissionFault", 65), ("AlignmentFault", 20), ("SealFault", 7)], []),
    ("two_comp", 41): (500, 299, 8, [("TagFault", 214), ("BoundsFault", 150), ("AlignmentFault", 18), ("SealFault", 10), ("PermissionFault", 81)], []),
    ("two_comp", 1009): (500, 313, 8, [("TagFault", 235), ("BoundsFault", 130), ("SealFault", 9), ("PermissionFault", 70), ("AlignmentFault", 32)], []),
    ("three_comp_shared", 3): (500, 426, 17, [("TagFault", 221), ("SealFault", 9), ("BoundsFault", 143), ("PermissionFault", 73), ("AlignmentFault", 19)], []),
    ("three_comp_shared", 41): (500, 360, 11, [("TagFault", 208), ("AlignmentFault", 22), ("SealFault", 19), ("BoundsFault", 155), ("PermissionFault", 67)], []),
    ("three_comp_shared", 1009): (500, 417, 13, [("TagFault", 213), ("BoundsFault", 140), ("SealFault", 12), ("PermissionFault", 66), ("AlignmentFault", 32)], []),
    ("sandbox_host", 3): (500, 463, 24, [("TagFault", 221), ("BoundsFault", 151), ("PermissionFault", 68), ("SealFault", 11), ("AlignmentFault", 29)], []),
    ("sandbox_host", 41): (500, 315, 7, [("TagFault", 222), ("BoundsFault", 145), ("AlignmentFault", 19), ("PermissionFault", 80), ("SealFault", 3)], []),
    ("sandbox_host", 1009): (500, 309, 10, [("TagFault", 214), ("BoundsFault", 147), ("SealFault", 9), ("PermissionFault", 74), ("AlignmentFault", 30)], []),
    ("FUZZ_CONFIG", 3): (500, 400, 17, [("TagFault", 212), ("BoundsFault", 155), ("PermissionFault", 66), ("AlignmentFault", 28), ("SealFault", 15)], []),
    ("FUZZ_CONFIG", 41): (500, 373, 13, [("TagFault", 209), ("BoundsFault", 148), ("AlignmentFault", 22), ("PermissionFault", 79), ("SealFault", 9)], []),
    ("FUZZ_CONFIG", 1009): (500, 330, 10, [("TagFault", 220), ("BoundsFault", 137), ("SealFault", 10), ("PermissionFault", 68), ("AlignmentFault", 35)], []),
}


def config_text(name):
    if name == "FUZZ_CONFIG":
        return FUZZ_CONFIG
    return ir.files("capcomp").joinpath("fixtures", f"{name}.cfg").read_text()


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_fuzz_report_is_pinned(name, seed):
    img = boot_init(compute_layout(parse_config(config_text(name)), memory_size=1 << 20))
    rep = fuzz_isolation(img, sequences=SEQUENCES, seed=seed)
    got = (rep.sequences, rep.steps, rep.switches, list(rep.faults.items()), rep.violations)
    assert got == PINNED[name, seed]


# Widths the default-argument pins above do not exercise, on FUZZ_CONFIG
# seed 41.  max_len=1 still spends one draw on the sequence length.
# (keyword arguments): (sequences, steps, switches, faults in first-seen order, violations)
PINNED_WIDTHS = {
    (("max_len", 1),): (500, 390, 6, [("TagFault", 156), ("BoundsFault", 99), ("AlignmentFault", 13), ("PermissionFault", 61), ("SealFault", 3)], []),
    (("max_len", 16),): (500, 381, 15, [("TagFault", 226), ("BoundsFault", 150), ("AlignmentFault", 24), ("PermissionFault", 76), ("SealFault", 7)], []),
    (("max_steps", 4),): (500, 299, 12, [("TagFault", 194), ("BoundsFault", 148), ("AlignmentFault", 20), ("PermissionFault", 80), ("SealFault", 8)], []),
}


@pytest.mark.parametrize("kwargs", sorted(PINNED_WIDTHS), ids=lambda kw: "-".join(f"{k}{v}" for k, v in kw))
def test_fuzz_report_is_pinned_at_other_widths(kwargs):
    img = boot_init(compute_layout(parse_config(FUZZ_CONFIG), memory_size=1 << 20))
    rep = fuzz_isolation(img, sequences=SEQUENCES, seed=41, **dict(kwargs))
    got = (rep.sequences, rep.steps, rep.switches, list(rep.faults.items()), rep.violations)
    assert got == PINNED_WIDTHS[kwargs]


# The instruction generator as it was written with `randrange` and `choice`.
def reference_fuzz_ins(r, addr_regs):
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
        return lpb(7 if r.randrange(2) else r.randrange(32), r.randrange(1, 16))
    if k == 16:
        return addi(rd, r.randrange(32), r.randrange(-256, 4096))
    if k == 17:
        return mov(rd, r.randrange(32))
    if k == 18:
        return bcap(r.randrange(32)) if r.randrange(2) else calll(r.randrange(32))
    return retl() if r.randrange(2) else setaddr(rd, r.randrange(32), r.randrange(32))


ADDR_REGS = (0, 1, 2, 3, 4, 5, 6, 7, 31)     # fuzz_isolation's address registers
STREAM_INSTRUCTIONS = 100_000                # per seed


@pytest.mark.parametrize("seed", [3, 41, 1009])
def test_instruction_stream_matches_the_reference(seed):
    ref, new = random.Random(seed), random.Random(seed)
    gb = new.getrandbits
    for i in range(STREAM_INSTRUCTIONS):
        want = reference_fuzz_ins(ref, ADDR_REGS)
        got = _fuzz_ins(gb, ADDR_REGS)
        assert got == want, f"instruction {i}"
    assert new.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [1, 2, 3, 9, 16, 20, 320, 4352, "data_top", 2**64 + 1])
def test_draw_matches_randrange(n):
    if n == "data_top":             # the range of the r4 address
        plan = compute_layout(parse_config(config_text("three_comp_shared")), memory_size=1 << 20)
        n = plan.data_top
    for seed in (3, 41, 1009):
        ref, new = random.Random(seed), random.Random(seed)
        gb = new.getrandbits
        assert [_draw(gb, n) for _ in range(500)] == [ref.randrange(n) for _ in range(500)]
        assert new.getstate() == ref.getstate()


# --------------------------------------------------------------------------
# Lazy drawing: a slot is drawn just before its first fetch, and only then.

@dataclass
class Recorded:
    site: int
    end: int            # the halt's slot
    start: tuple        # regs, code, pc, ddc, compartment
    drawn: dict         # slot -> instruction, in draw order
    events: list        # the step and access records the sequence left


def start_of(st):
    assert (st.fault, st.halted, st.ddc_grant) == (None, False, None)
    return (list(st.regs), st.code, st.pc, st.ddc, st.current_compartment)


def record_sequences(monkeypatch):
    """Record every sequence `fuzz_isolation` runs, through `_run_sequence`,
    checking that no slot is drawn after it was fetched or drawn twice."""
    seqs = []
    real = runtime._run_sequence

    def recording(st, mem, program, site, end, max_steps, draw):
        rec = Recorded(site, end, start_of(st), {}, [])
        mark = len(st.events)

        def logged(pc):
            assert pc not in rec.drawn, f"slot {pc} drawn twice"
            assert pc not in [ev[1] for ev in st.events[mark:] if ev[0] == "step"]
            rec.drawn[pc] = ins = draw(pc)
            return ins

        real(st, mem, program, site, end, max_steps, logged)
        rec.events = st.events[mark:]
        seqs.append(rec)

    monkeypatch.setattr(runtime, "_run_sequence", recording)
    return seqs


def boot(name):
    return boot_init(compute_layout(parse_config(config_text(name)), memory_size=1 << 20))


@pytest.mark.parametrize("name, seed", [("three_comp_shared", 7), ("sandbox_host", 41), ("FUZZ_CONFIG", 3)])
def test_each_fetched_slot_is_drawn_once(monkeypatch, name, seed):
    seqs = record_sequences(monkeypatch)
    fuzz_isolation(boot(name), sequences=2000, seed=seed)
    assert len(seqs) == 2000
    for i, rec in enumerate(seqs):
        fetched = [ev[1] for ev in rec.events if ev[0] == "step"]
        first_fetches = dict.fromkeys(pc for pc in fetched if rec.site <= pc < rec.end)
        assert list(rec.drawn) == list(first_fetches), f"sequence {i}"
    # most sequences fault on their first instruction, so most slots stay undrawn
    assert sum(len(r.drawn) for r in seqs) < sum(r.end - r.site for r in seqs) / 2


@pytest.mark.parametrize("name", ["two_comp", "three_comp_shared", "sandbox_host"])
def test_each_sequence_starts_with_r7_as_its_entry_slot_holds_it(monkeypatch, name):
    # r7 is decoded again only when its home's entry slot changed, so a
    # sequence that rewrites an entry slot shows in its home's next r7.
    img = boot(name)
    plan = img.plan
    entry = {plan.comp_ids[c.name]: plan.sealed_cap_addr(c.name) for c in plan.config.compartments}
    seqs = record_sequences(monkeypatch)
    recording = runtime._run_sequence
    starts = []

    def checked(st, mem, program, site, end, max_steps, draw):
        home = st.current_compartment
        starts.append((home, st.regs[7], mem.load_cap(entry[home])))
        recording(st, mem, program, site, end, max_steps, draw)

    monkeypatch.setattr(runtime, "_run_sequence", checked)
    fuzz_isolation(img, sequences=2000, seed=7)
    assert len(starts) == 2000
    for i, (_, r7, loaded) in enumerate(starts):
        assert r7 == loaded, f"sequence {i}"
    # armed: a sequence wrote an entry slot, and a home started with two
    # different r7 values
    assert any(ev[0] == "access" and ev[4] and ev[2] < a + CAP_SLOT and a < ev[2] + ev[3]
               for rec in seqs for ev in rec.events for a in entry.values())
    assert any(len({r7 for h, r7, _ in starts if h == home}) > 1 for home in entry)


@pytest.mark.parametrize("name, seed", [("three_comp_shared", 7), ("sandbox_host", 41)])
def test_each_run_call_leaves_one_step_record(monkeypatch, name, seed):
    # a sequence ends after the step that halts or leaves a fault no swap
    # clears, with no further `run` call that would return without a record
    calls = []
    real = runtime.run

    def counted(st, mem, program, max_steps=100_000):
        calls.append(max_steps)
        return real(st, mem, program, max_steps)

    seqs = record_sequences(monkeypatch)
    monkeypatch.setattr(runtime, "run", counted)
    fuzz_isolation(boot(name), sequences=2000, seed=seed)
    assert set(calls) == {1}
    assert len(calls) == sum(ev[0] == "step" for rec in seqs for ev in rec.events)


class Poison:
    """What an undrawn slot holds in a replay: fetching it fails the test."""

    @property
    def op(self):
        raise AssertionError("the machine fetched a slot the fuzzer never drew")


POISON = Poison()


def views(plan):
    allowed = {plan.comp_ids[name]: [ddc] for name, ddc in plan.ddc_bounds.items()}
    for s in plan.config.shared:
        if s.mode == "exception":
            exc = plan.region(s.name)
            for owner in (s.a, s.b):
                allowed[plan.comp_ids[owner]].append((exc.base, exc.top))
    for sb in plan.sandboxes:
        scratch = plan.region(f"{sb}.scratch")
        allowed[plan.comp_ids[sb]] = [(scratch.base, scratch.top)]
    return allowed


def replay(img, seqs, max_steps=32):
    """Run each recorded sequence as one `run(max_steps)` call, from its
    recorded start, over a program holding its drawn instructions, a halt at
    its end and `POISON` in every slot of the sequence it did not draw.  An
    undrawn slot then gets back what it held, as the fuzzer never wrote it.
    Returns the `FuzzReport` the replay makes, judged as `fuzz_isolation`
    judges."""
    st, mem, program, plan = img.machine, img.mem, img.program, img.plan
    names = {cid: name for name, cid in plan.comp_ids.items()}
    allowed = views(plan)
    faults, violations, steps, switches0 = {}, [], 0, st.switches
    for i, rec in enumerate(seqs):
        kept = dict(zip(range(rec.site, rec.end), program[rec.site:rec.end]))
        program[rec.site:rec.end] = [rec.drawn.get(pc, POISON) for pc in kept]
        program[rec.end] = halt()
        regs, st.code, st.pc, st.ddc, st.current_compartment = rec.start
        st.regs[:] = regs
        st.fault, st.halted, st.ddc_grant, st.events = None, False, None, []
        n0 = st.instructions_retired
        run(st, mem, program, max_steps)
        steps += st.instructions_retired - n0
        if st.fault is not None:
            faults[st.fault.kind.value] = faults.get(st.fault.kind.value, 0) + 1
        assert st.events == rec.events, f"sequence {i}"
        for ev in st.events:
            if ev[0] == "access":
                _, pc, addr, ln, is_write = ev
                cid = next((c for lo, hi, c in st.code_regions if lo <= pc < hi), None)
                if cid is not None and not any(a <= addr and addr + ln <= b for a, b in allowed[cid]):
                    violations.append(f"sequence {i}: pc {pc} ({names[cid]}) "
                                      f"{'wrote' if is_write else 'read'} "
                                      f"[{addr:#x}, {addr + ln:#x}) outside its view")
        for pc, ins in kept.items():
            if pc not in rec.drawn:
                program[pc] = ins
    st.events = None
    return FuzzReport(len(seqs), steps, st.switches - switches0, faults, violations)


@pytest.mark.parametrize("name, seed, breach", [("three_comp_shared", 7, False),
                                                ("three_comp_shared", 1009, False),
                                                ("two_comp", 3, True)])
def test_undrawn_slots_are_never_seen(monkeypatch, name, seed, breach):
    # The breach widens app's ddc to all of data memory, so the replay must
    # also repeat every violation.
    def image():
        img = boot(name)
        if breach:
            img.mem.store_cap(img.table_slot("app") + OFF_DDC,
                              make_root(0, img.plan.data_top, DDC_PERMS))
        return img

    seqs = record_sequences(monkeypatch)
    rep = fuzz_isolation(image(), sequences=2000, seed=seed, report_cap=10**6)
    assert (rep.violations != []) == breach
    got = replay(image(), seqs)
    assert got == rep
    assert list(got.faults.items()) == list(rep.faults.items())


def observe(st, mem):
    return {
        "regs": tuple(st.regs), "code": st.code, "pc": st.pc, "ddc": st.ddc,
        "current_compartment": st.current_compartment, "fault": st.fault,
        "halted": st.halted, "instructions_retired": st.instructions_retired,
        "switches": st.switches, "ddc_swap_events": st.ddc_swap_events,
        "ddc_grant": st.ddc_grant, "events": list(st.events),
        "data": bytes(mem.data), "tags": bytes(mem.tags),
    }


SWAP_SCRIPTS = {
    # store into the mailbox and load from the stack, over and over: every
    # access swaps ddc, and slots are fetched again after they were drawn
    "loop": lambda mb, site, other: [addi(8, REG_ZERO, mb), sti(8, 8, 0), ldi(9, REG_SP, -8),
                                     addi(10, REG_ZERO, site + 1), calll(10)],
    # a swap each way, then a bounds fault that no swap clears
    "fault": lambda mb, site, other: [addi(8, REG_ZERO, mb), sti(8, 8, 0), ldi(9, REG_SP, -8),
                                      addi(11, REG_ZERO, other), ldi(9, 11, 0)],
    # a swap each way, then the halt
    "halt": lambda mb, site, other: [addi(8, REG_ZERO, mb), sti(8, 8, 0), ldi(9, REG_SP, -8)],
}


@pytest.mark.parametrize("script", sorted(SWAP_SCRIPTS))
def test_stepping_matches_one_run_on_the_swap_path(script):
    # app owns the mailbox, an exception-mode region: its accesses there
    # swap ddc and r18, and the faulting instruction runs again.
    def enter():
        img = boot("three_comp_shared")
        img.enter("app")
        st = img.machine
        st.events = []
        site = st.pc
        code = SWAP_SCRIPTS[script](img.plan.region("mailbox").base, site,
                                    img.plan.ddc_bounds["store"][0])
        end = site + len(code)
        img.program[end] = halt()
        return img, st, site, end, code

    swaps = set()
    for max_steps in range(1, 40):
        img, st, site, end, code = enter()
        img.program[site:end] = code
        run(st, img.mem, img.program, max_steps)
        want = observe(st, img.mem)

        img, st, site, end, code = enter()
        img.program[site:end] = [POISON] * len(code)
        drawn = []

        def draw(pc):
            drawn.append(pc)
            return code[pc - site]

        runtime._run_sequence(st, img.mem, img.program, site, end, max_steps, draw)
        fetched = [ev[1] for ev in st.events if ev[0] == "step"]
        assert drawn == list(dict.fromkeys(pc for pc in fetched if pc < end)), max_steps
        assert observe(st, img.mem) == want, max_steps
        assert img.program[site:end] == [code[j] if site + j in drawn else POISON
                                         for j in range(len(code))]
        swaps.add(st.ddc_swap_events)
    # the budget ran out before, between and after the swaps, also with a
    # fault pending that a swap would clear
    assert swaps == set(range(max(swaps) + 1)) and max(swaps) >= 2
    if script == "fault":
        assert st.fault.kind is FaultKind.BOUNDS
    assert st.halted == (script == "halt")

