"""Named registry of the paper's system configurations.

One place maps the short names users type (``"emogi"``, ``"bam"``,
``"xlfdd"``, ``"cxl"``, ...) to the factory functions in
:mod:`repro.core.experiment`.  The CLI, the sweeps, and the evaluation
suite all resolve system names here, so adding a configuration means one
:func:`register` call — and an unknown name fails the same way
everywhere, with the valid choices spelled out.

Usage::

    from repro import systems

    system = systems.get("xlfdd", alignment_bytes=32)
    print(systems.available())  # ['bam', 'cxl', 'emogi', ...]

Factory keyword arguments pass through :func:`get` untouched, so every
knob of the underlying factory stays reachable
(``systems.get("cxl", added_latency=2e-6, devices=12)``); an option the
factory does not take raises :class:`~repro.errors.ModelError` naming
the accepted ones.
"""

from __future__ import annotations

import inspect
from typing import Callable

from .core.experiment import (
    bam_system,
    cxl_system,
    emogi_system,
    flash_cxl_system,
    uvm_system,
    xlfdd_system,
)
from .core.runtime_model import SystemModel
from .errors import ModelError
from .gpu.uvm import UVM_PAGE_BYTES
from .interconnect.pcie import PCIeLink

__all__ = ["register", "get", "available", "describe"]

#: Factory signature: keyword arguments in, a SystemModel out.
SystemFactory = Callable[..., SystemModel]

_REGISTRY: dict[str, SystemFactory] = {}


def register(name: str, factory: SystemFactory, *, replace: bool = False) -> None:
    """Add ``factory`` to the registry under ``name`` (lowercase).

    Re-registering an existing name raises unless ``replace=True`` — a
    silent override would make ``get`` depend on import order.
    """
    key = name.lower()
    if not key:
        raise ModelError("system name must be non-empty")
    if key in _REGISTRY and not replace:
        raise ModelError(
            f"system {key!r} is already registered; pass replace=True "
            "to override"
        )
    _REGISTRY[key] = factory


def available() -> list[str]:
    """All registered system names, sorted."""
    return sorted(_REGISTRY)


def get(name: str, link: PCIeLink | None = None, **kwargs: object) -> SystemModel:
    """Build the system configuration registered under ``name``.

    ``link`` and any keyword arguments forward to the factory (each
    factory picks its own default link generation when ``link`` is None).
    Unknown names and options raise :class:`~repro.errors.ModelError`
    listing the valid choices.
    """
    key = name.lower()
    factory = _REGISTRY.get(key)
    if factory is None:
        raise ModelError(
            f"unknown system {name!r}; available: {', '.join(available())}"
        )
    params = inspect.signature(factory).parameters.values()
    if not any(p.kind is p.VAR_KEYWORD for p in params):
        accepted = sorted(p.name for p in params if p.name != "link")
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise ModelError(
                f"system {key!r} does not take option(s) {', '.join(unknown)}; "
                f"accepted: {', '.join(accepted) or 'none'}"
            )
    return factory(link=link, **kwargs)


def describe() -> str:
    """One line per registered system: name and factory docstring head."""
    lines = []
    for key in available():
        doc = (_REGISTRY[key].__doc__ or "").strip().splitlines()
        lines.append(f"{key:<12} {doc[0] if doc else ''}")
    return "\n".join(lines)


def _uvm_system(
    link: PCIeLink | None = None,
    *,
    page_bytes: int = UVM_PAGE_BYTES,
    pool_fraction: float | None = None,
    edge_list_bytes: int | None = None,
) -> SystemModel:
    """Registry adapter: :func:`uvm_system` with an unbounded page pool.

    The factory's default ``pool_fraction=0.5`` needs ``edge_list_bytes``;
    by name, ``"uvm"`` gives the cold-fault (unbounded pool) baseline
    unless the caller sizes the pool explicitly.
    """
    return uvm_system(
        link,
        page_bytes=page_bytes,
        pool_fraction=pool_fraction,
        edge_list_bytes=edge_list_bytes,
    )


register("emogi", emogi_system)
register("bam", bam_system)
register("xlfdd", xlfdd_system)
register("cxl", cxl_system)
register("flash-cxl", flash_cxl_system)
register("uvm", _uvm_system)
