"""Pluggable resilience-scheme registry.

A *runtime scheme* couples a compile-time :class:`~repro.compiler.Scheme`
(what code the kernel runs) with a :class:`~repro.sim.ResilienceRuntime`
factory (what the hardware model does about faults at region boundaries)
plus campaign metadata.  The fault-injection campaign, the overhead
runner, and the tracer all resolve scheme names and build their runs
here (:func:`launcher`), so adding a new competitor is one
``@register_scheme`` declaration:

    @register_scheme("my_scheme", compile_scheme="renaming",
                     detects=True, description="...")
    def _my_scheme(wcdl=20, harden_rpt=True, harden_rbq=True):
        return MyRuntime(...)

Names resolve via :func:`runtime_scheme_by_name`; unknown names raise
:class:`ConfigError` listing the campaign-runnable choices.  Compile-only
entries (``campaign=False``) exist so timing studies (Figures 13-16) can
route through the same table, but campaigns reject them up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..compiler.pipeline import scheme_by_name as compile_scheme_by_name
from ..errors import ConfigError

#: Factory signature every registered scheme provides: build a fresh
#: (stateless, bindable) ResilienceRuntime for one kernel launch.
RuntimeFactory = Callable[..., object]


@dataclass(frozen=True)
class RuntimeScheme:
    """One registry entry: name -> compile binding + runtime factory."""

    name: str
    #: Key into the compiler's ``SCHEMES`` table (validated eagerly at
    #: registration so a typo fails at import, not mid-campaign).
    compile_scheme: str
    description: str
    factory: RuntimeFactory
    #: Eligible as a fault-injection campaign scheme.  Compile-only
    #: timing variants (hybrid_*, bare renaming/checkpointing) are not:
    #: they have no runtime detection story, so campaigning them would
    #: just re-measure the baseline outcome distribution.
    campaign: bool = True
    #: The runtime detects strikes (gates injection in traced runs).
    detects: bool = False
    #: Restrict to specific workloads (None = any).  ABFT only makes
    #: sense where the checksum relation holds.
    workloads: Optional[tuple] = None

    def build(self, wcdl: int = 20, harden_rpt: bool = True,
              harden_rbq: bool = True):
        """Instantiate the runtime for one launch."""
        return self.factory(wcdl=wcdl, harden_rpt=harden_rpt,
                            harden_rbq=harden_rbq)

    def supports_workload(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


#: Registration-ordered name -> entry table.  Ordering is meaningful:
#: ``campaign_schemes()`` preserves it for CLI listings and defaults.
RUNTIME_SCHEMES: "dict[str, RuntimeScheme]" = {}


def register_scheme(name: str, *, compile_scheme: str, description: str,
                    campaign: bool = True, detects: bool = False,
                    workloads=None):
    """Decorator registering ``factory`` under ``name``.

    Raises :class:`ConfigError` on duplicate names or on a
    ``compile_scheme`` the compiler does not know.
    """

    def decorate(factory: RuntimeFactory) -> RuntimeFactory:
        if name in RUNTIME_SCHEMES:
            raise ConfigError(f"resilience scheme {name!r} is already "
                              f"registered")
        compile_scheme_by_name(compile_scheme)  # validate the binding now
        RUNTIME_SCHEMES[name] = RuntimeScheme(
            name=name, compile_scheme=compile_scheme,
            description=description, factory=factory, campaign=campaign,
            detects=detects,
            workloads=None if workloads is None else tuple(workloads))
        return factory

    return decorate


def runtime_scheme_by_name(name: str) -> RuntimeScheme:
    """Resolve a scheme name, or raise :class:`ConfigError` naming the
    campaign-runnable choices (the set a user can actually ask for)."""
    try:
        return RUNTIME_SCHEMES[name]
    except KeyError:
        runnable = ", ".join(campaign_schemes())
        raise ConfigError(
            f"unknown resilience scheme {name!r}; campaign-runnable "
            f"schemes: {runnable}") from None


def campaign_schemes() -> tuple:
    """Campaign-eligible scheme names, in registration order."""
    return tuple(name for name, scheme in RUNTIME_SCHEMES.items()
                 if scheme.campaign)


def default_campaign_schemes() -> tuple:
    """The out-of-the-box campaign comparison (paper Figure 16 axis)."""
    return ("baseline", "flame")


def launcher(workload: str, scheme: str, scale: str, gpu: str = "GTX480",
             scheduler: str = "GTO", wcdl: int = 20, harden_rpt: bool = True,
             harden_rbq: bool = True, sanitize: bool = False):
    """The one way a configuration runs: compile once, launch many.

    Compiles ``workload`` at ``scale`` under ``scheme`` and returns
    ``(instance, compiled, launch)``.  Each ``launch(injector=None,
    tracer=None, **launch_kwargs)`` call builds a fresh runtime,
    sanitizer and :class:`~repro.sim.Gpu` and returns
    ``instance.run(compiled, gpu, **launch_kwargs)``, i.e. ``(RunResult,
    final memory)``.  The parameters are the run and trial spec fields.
    """
    from ..arch import gpu_by_name
    # Looked up at call time, so a rebound ``compile_kernel`` is used.
    from ..compiler import compile_kernel
    from ..sim import Gpu, Sanitizer
    from ..workloads import workload_by_name

    instance = workload_by_name(workload).instance(scale)
    rscheme = runtime_scheme_by_name(scheme)
    compiled = compile_kernel(
        instance.kernel, compile_scheme_by_name(rscheme.compile_scheme),
        wcdl=wcdl)
    config = gpu_by_name(gpu)

    def launch(injector=None, tracer=None, **launch_kwargs):
        runtime = rscheme.build(wcdl=wcdl, harden_rpt=harden_rpt,
                                harden_rbq=harden_rbq)
        machine = Gpu(config, resilience=runtime, scheduler=scheduler,
                      sanitizer=Sanitizer() if sanitize else None,
                      tracer=tracer)
        machine.fault_injector = injector
        return instance.run(compiled, machine, **launch_kwargs)

    return instance, compiled, launch


# --------------------------------------------------------------------------
# Built-in registrations.  Factories import lazily so this module stays
# importable from both the compiler and simulator layers without cycles.

@register_scheme("baseline", compile_scheme="baseline",
                 description="unprotected kernel, no runtime (the "
                             "overhead and SDC reference point)")
def _baseline(wcdl=20, harden_rpt=True, harden_rbq=True):
    from ..sim import NULL_RESILIENCE
    return NULL_RESILIENCE


@register_scheme("flame", compile_scheme="flame", detects=True,
                 description="acoustic-sensor detection with RBQ/RPT "
                             "idempotent-region rollback (the paper)")
def _flame(wcdl=20, harden_rpt=True, harden_rbq=True):
    from .runtime import FlameRuntime
    return FlameRuntime(wcdl, harden_rpt=harden_rpt, harden_rbq=harden_rbq)


@register_scheme("dmr", compile_scheme="duplication_renaming", detects=True,
                 description="full duplication (DMR): redundant issue with "
                             "compare-at-region-end, rollback on mismatch "
                             "(the 15-45% strawman)")
def _dmr(wcdl=20, harden_rpt=True, harden_rbq=True):
    from .competitors import DmrRuntime
    return DmrRuntime(harden_rpt=harden_rpt)


@register_scheme("partial_thread", compile_scheme="renaming", detects=True,
                 description="partial thread protection: only the "
                             "vulnerability-ranked warp subset pays "
                             "duplicate/verify cost; unprotected warps "
                             "carry SDC risk")
def _partial_thread(wcdl=20, harden_rpt=True, harden_rbq=True):
    from .competitors import PartialThreadRuntime
    return PartialThreadRuntime(harden_rpt=harden_rpt)


@register_scheme("abft_sgemm", compile_scheme="renaming", detects=True,
                 workloads=("SGEMM", "SGEMM_ABFT"),
                 description="ABFT checksum GEMM: row/column checksum "
                             "verification at region ends, single-warp "
                             "online correction")
def _abft_sgemm(wcdl=20, harden_rpt=True, harden_rbq=True):
    from .competitors import AbftSgemmRuntime
    return AbftSgemmRuntime(harden_rpt=harden_rpt)


@register_scheme("sensor_checkpointing", compile_scheme="sensor_checkpointing",
                 detects=True,
                 description="sensor detection over checkpoint-based "
                             "recovery regions")
@register_scheme("sensor_renaming", compile_scheme="sensor_renaming",
                 detects=True,
                 description="flame protocol without region extension "
                             "(sensor + renaming recovery)")
def _sensor(wcdl=20, harden_rpt=True, harden_rbq=True):
    from .runtime import FlameRuntime
    return FlameRuntime(wcdl, harden_rpt=harden_rpt, harden_rbq=harden_rbq)


_COMPILE_ONLY = (
    ("renaming", "register renaming only (timing study; no detection)"),
    ("checkpointing", "checkpoint stores only (timing study; no detection)"),
    ("duplication_renaming",
     "duplicated instruction stream over renaming (timing study)"),
    ("duplication_checkpointing",
     "duplicated instruction stream over checkpointing (timing study)"),
    ("hybrid_renaming", "hybrid duplication/sensor over renaming "
                        "(timing study)"),
    ("hybrid_checkpointing", "hybrid duplication/sensor over checkpointing "
                             "(timing study)"),
)

for _name, _desc in _COMPILE_ONLY:
    register_scheme(_name, compile_scheme=_name, campaign=False,
                    description=_desc)(_baseline)
del _name, _desc
