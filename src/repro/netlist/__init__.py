"""Gate-level netlist substrate: cells, library, container, writers."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".gates": "Gate GateType Pin",
        ".library": "Library DEFAULT_LIBRARY LEVEL_DELAY_NS",
        ".netlist": "Netlist NetlistError NetlistStats",
        ".verilog": "write_verilog",
        ".mhs_cell": "build_mhs_cell MHS_STAGE_NAMES",
        ".trees": "build_gate_tree MAX_FANIN",
    },
)
