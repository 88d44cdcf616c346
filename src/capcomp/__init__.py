"""capcomp: a desk-scale simulator for capability-based software
compartmentalization in hybrid mode, plus layout planning and switching-cost
analysis tools."""

from .capability import (
    Capability,
    FaultKind,
    Perm,
    check_access,
    deserialize,
    int_cap,
    make_root,
    restrict_perms,
    seal,
    serialize,
    set_address,
    set_bounds,
    unseal,
)
from .memory import TaggedMemory
from .machine import Fault, MachineState, run, step
from .layout import (
    BootImage,
    CompartmentConfig,
    ConfigError,
    InfeasibleOverlap,
    LayoutError,
    LayoutPlan,
    audit_plan,
    boot_init,
    comp_alloc,
    compute_layout,
    install_function,
    parse_config,
    shared_alloc,
)
from .runtime import (
    GateDescriptor,
    GateError,
    RegionArg,
    SandboxParam,
    SandboxSignature,
    ShareError,
    call_compartment,
    gate_call,
    promote_shared,
    sandbox_call,
    switcher_switch,
    trampoline_enter,
    trampoline_return,
)

__version__ = "0.1.0"

__all__ = [
    "Capability", "FaultKind", "Perm", "check_access", "deserialize",
    "int_cap", "make_root", "restrict_perms", "seal", "serialize",
    "set_address", "set_bounds", "unseal",
    "TaggedMemory",
    "Fault", "MachineState", "run", "step",
    "BootImage", "CompartmentConfig", "ConfigError", "InfeasibleOverlap",
    "LayoutError", "LayoutPlan", "audit_plan", "boot_init", "comp_alloc",
    "compute_layout", "install_function", "parse_config", "shared_alloc",
    "GateDescriptor", "GateError", "RegionArg", "SandboxParam",
    "SandboxSignature", "ShareError", "call_compartment", "gate_call",
    "promote_shared", "sandbox_call", "switcher_switch", "trampoline_enter",
    "trampoline_return",
    "__version__",
]
