"""x86-TSO: the flush-agent backend behind ``resolve_model("tso")``."""

from .backend import FlushAgent, FlushOp, TsoExecutionState, TsoExecutor

__all__ = [
    "FlushAgent",
    "FlushOp",
    "TsoExecutionState",
    "TsoExecutor",
]
