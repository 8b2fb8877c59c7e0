"""SDSP-like instruction-set architecture.

This package defines the RISC instruction set used throughout the
reproduction: the architectural register file model (128 physical
registers statically partitioned among threads), the opcode table with
per-opcode metadata (format, functional-unit class, context-switch
trigger flags), the in-memory :class:`~repro.isa.instruction.Instruction`
representation, and a fixed-width 32-bit binary encoding.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "instruction": ("Instruction",),
    "opcodes": ("Format", "FuClass", "Op", "OPCODE_INFO", "OpInfo"),
    "registers": ("NUM_PHYSICAL_REGS", "REG_GP", "REG_RA", "REG_SP",
                  "REG_ZERO", "RegisterFile", "regs_per_thread"),
    "encoding": ("decode", "encode"),
})

__all__ = [
    "Format",
    "FuClass",
    "Instruction",
    "NUM_PHYSICAL_REGS",
    "Op",
    "OPCODE_INFO",
    "OpInfo",
    "REG_GP",
    "REG_RA",
    "REG_SP",
    "REG_ZERO",
    "RegisterFile",
    "decode",
    "encode",
    "regs_per_thread",
]
