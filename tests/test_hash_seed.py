"""Compiler output must not depend on the interpreter's hash seed.

Python randomizes ``str``/``bytes`` hashing per process, so any set or
dict whose iteration order leaks into the IR or the machine code makes
two processes disagree — linear-scan register allocation once broke
ties on ``(start, end)`` by ``Set[Reg]`` order and did exactly that
(see the Determinism section of ``docs/architecture.md``).  A single
process cannot see this class of bug; two processes under different
``PYTHONHASHSEED`` values can.

Each subprocess compiles the 19 suite workloads and a seeded fuzz
corpus in both flavours and prints one SHA-256 over every IR and
machine-code listing; the digests must match, and equal ``PINNED``, so
that a change which moves a listing the same way under every seed fails
too.  The fuzz generator draws only with ``choice``, ``randint`` and
``random``, whose values do not change between Python 3.10 and 3.12.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The digest line of the current compiler.  A change that means to move
#: a listing updates it and says why.
PINNED = "31 3eeff822da1665d7991962b4ac4ba8ab0b06d628680f12f1cdea854ab99e2465"

DIGEST_SCRIPT = """
import hashlib

from repro.compiler import compile_minic, format_asm_listing
from repro.fuzz.generator import sources
from repro.ir import format_module
from repro.workloads import all_workloads

programs = [(w.name, w.source) for w in all_workloads()]
programs += [(f"fuzz{i}", source) for i, source in enumerate(sources(12))]
digest = hashlib.sha256()
for name, source in programs:
    for idempotent in (False, True):
        build = compile_minic(source, idempotent=idempotent, name=name)
        digest.update(format_module(build.module).encode())
        digest.update(format_asm_listing(build).encode())
print(len(programs), digest.hexdigest())
"""


def _start(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, "-c", DIGEST_SCRIPT],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_listings_identical_across_hash_seeds():
    procs = [_start(seed) for seed in (0, 1)]
    digests = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        digests.append(out.strip())
    assert digests[0].startswith("31 ")  # 19 workloads + 12 fuzz programs
    assert digests[0] == digests[1], (
        f"compiler output depends on PYTHONHASHSEED: {digests}"
    )
    assert digests[0] == PINNED, f"compiler output changed: {digests[0]}"
