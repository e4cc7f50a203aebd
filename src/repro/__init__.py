"""repro — Static Analysis and Compiler Design for Idempotent Processing.

A complete reproduction of de Kruijf, Sankaralingam & Jha (PLDI 2012):
compiler IR, MiniC frontend, idempotent region construction, constrained
code generation, machine simulation, fault recovery, and the paper's
evaluation harness.

The most common entry point::

    from repro.compiler import compile_minic
    from repro.sim import Simulator

    build = compile_minic(source, idempotent=True)
    result = Simulator(build.program).run("main")

Subpackages: ``ir``, ``frontend``, ``analysis``, ``transforms``, ``core``,
``codegen``, ``interp``, ``sim``, ``recovery``, ``workloads``,
``experiments``.
"""

__version__ = "1.0.0"


def repro_version() -> str:
    """The installed package version, from importlib metadata.

    Falls back to the hardcoded ``__version__`` when the package is not
    installed (e.g. running from a source checkout via ``PYTHONPATH``).
    The string feeds ``repro --version``.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - Python < 3.8
        return __version__
    try:
        return version("repro")
    except PackageNotFoundError:
        return __version__


__all__ = ["__version__", "repro_version"]
