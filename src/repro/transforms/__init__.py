"""repro.transforms — IR-to-IR transformations.

- :func:`promote_to_ssa` — mem2reg/SSA construction (paper §4.1 transform 1)
- :func:`forward_stores_to_loads` — redundancy elimination of non-clobber
  memory antidependences (paper §4.1 transform 2, Fig. 5)
- :func:`unroll_once` — loop unroll-by-one (paper §5 enhancement)
- :func:`eliminate_dead_code` — cleanup
- :func:`optimize_function` / :func:`optimize_module` — standard pipeline
"""

from repro.transforms.clone import clone_blocks, clone_instruction, split_edge
from repro.transforms.dce import eliminate_dead_code
from repro.transforms.inline import can_inline, inline_call, inline_small_functions
from repro.transforms.mem2reg import promotable_allocas, promote_to_ssa
from repro.transforms.pipeline import optimize_function, optimize_module
from repro.transforms.redundancy import forward_stores_to_loads
from repro.transforms.unroll import UnrollNotSupported, can_unroll_once, unroll_once

__all__ = [
    "UnrollNotSupported",
    "can_unroll_once",
    "clone_blocks",
    "clone_instruction",
    "eliminate_dead_code",
    "can_inline",
    "inline_call",
    "inline_small_functions",
    "forward_stores_to_loads",
    "optimize_function",
    "optimize_module",
    "promotable_allocas",
    "promote_to_ssa",
    "split_edge",
    "unroll_once",
]
