"""The machine against the spec: the one comparison the machine tests make.

`assert_matches_spec(case, max_steps)` runs the machine and `spec` on
independent copies of what `case()` builds (a machine, its memory and its
program): once as one `run(max_steps)` call each, since `run` keeps its
code-capability and compartment caches only within one call, and once
`step` by step, comparing after every step, until a step raises or `steps`
steps (by default `max_steps`) have been taken.  The two must agree on
every state field, on which registers hold the `NULL_CAP` object itself, on
memory bytes and tags, and on the exception raised, if any.
"""

import dataclasses

import spec
from capcomp.capability import NULL_CAP
from capcomp.machine import MachineError, run, step
from capcomp.memory import TaggedMemory


def clone(st, mem, program):
    """An independent copy of a machine, its memory and its program."""
    copy = dataclasses.replace(st, regs=list(st.regs), code_regions=list(st.code_regions),
                               events=None if st.events is None else list(st.events))
    mem_copy = TaggedMemory(mem.size)
    mem_copy.data[:] = mem.data
    mem_copy.tags[:] = mem.tags
    return copy, mem_copy, list(program)


def observe(st, mem, raised):
    state = {f.name: getattr(st, f.name) for f in dataclasses.fields(st)}
    state["regs"] = tuple(st.regs)
    state["events"] = None if st.events is None else tuple(st.events)
    state["null regs"] = tuple(r is NULL_CAP for r in st.regs)
    state["data"], state["tags"] = bytes(mem.data), bytes(mem.tags)
    state["raised"] = None if raised is None else (type(raised), str(raised))
    return state


def outcome(fn, st, mem, program, **kw):
    """Call `fn` and observe what it left, the exception it raised included."""
    try:
        fn(st, mem, program, **kw)
    except (OverflowError, MachineError) as e:
        return observe(st, mem, e)
    return observe(st, mem, None)


def assert_matches_spec(case, max_steps, steps=None, label=None):
    """Compare the machine with the spec on `case()`; returns the spec's
    machine, memory and program after the whole-budget run, for the
    caller's tallies of the paths reached."""
    st, mem, program = case()
    want = clone(st, mem, program)
    got_steps, want_steps = clone(st, mem, program), clone(st, mem, program)
    assert (outcome(run, st, mem, program, max_steps=max_steps)
            == outcome(spec.run, *want, max_steps=max_steps)), label
    for n in range(max_steps if steps is None else steps):
        got = outcome(step, *got_steps)
        assert got == outcome(spec.step, *want_steps), (label, n)
        if got["raised"] is not None:
            break
    return want
