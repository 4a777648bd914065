"""Interconnectivity microbenchmark (paper Fig. 12).

Two equal-size kernels derived from VectorAdd.  The producer writes its
output in flat per-block slices (a 1-to-1 layout); the consumer reads
the producer's output in *groups* of ``degree`` block-slices, realizing
the n-group fully connected pattern whose group size is the paper's
"dependency degree" knob.  ``degree == 1`` is the plain 1-to-1
VectorAdd pair.

This module also hosts the ``analysis-fastpath`` microbench workloads
(:func:`fastpath_specs`): large-grid producer/consumer pairs, one per
Table-I pattern family, sized so the dependency-graph construction —
not parsing or simulation — dominates a cold pass.  They exist to
measure the :mod:`repro.analysis.fastpath` tiers against the scalar
reference builder and are deliberately *hidden*: resolvable by name
through :func:`repro.workloads.get_workload`, but absent from
``all_workloads()`` / ``--filter`` so the paper's Table-II suites stay
exactly the paper's.

The ``fast-engine`` microbench workloads (:func:`engine_specs`) are the
simulation-phase mirror image: long kernel chains whose dependency
analysis is closed-form cheap but whose thread-block population makes
the scalar event loop the dominant cost — the measurement bed for the
:mod:`repro.models.fastengine` tier (``repro bench engine``).  They
are hidden for the same reason.
"""

from repro.workloads import ptxgen
from repro.workloads.base import AppBuilder

_ELEM = 4
_THREADS = 256


def build_vecadd_pair(num_tbs=512, degree=1, intensity=8.0):
    """Producer/consumer VectorAdd pair with dependency degree ``degree``.

    ``num_tbs`` is the per-kernel thread-block count (the paper sweeps
    128..2048); ``degree`` blocks of the producer feed each group of
    ``degree`` consumer blocks (1 <= degree <= num_tbs).  Both kernels
    perform the same amount of work — only the consumer's read
    *footprint* widens with the degree, exactly like the paper's
    artificially-introduced n-group dependencies.
    """
    if num_tbs % max(degree, 1):
        raise ValueError("degree must divide num_tbs")
    b = AppBuilder("vecadd-deg{}-n{}".format(degree, num_tbs))
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    tmp = b.alloc("TMP", elems * _ELEM)
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    producer = ptxgen.elementwise("vadd_produce", num_inputs=1, alu=2)
    consumer = ptxgen.group_sample(
        "vadd_consume_deg{}".format(degree),
        group_span_elems=degree * _THREADS,
        stride_elems=degree,
        alu=2,
    )
    b.launch(
        producer,
        grid=num_tbs,
        block=_THREADS,
        args={"IN0": x, "OUT": tmp},
        intensity=intensity,
        tag="producer",
    )
    b.launch(
        consumer,
        grid=(degree, num_tbs // degree),
        block=_THREADS,
        args={"IN": tmp, "OUT": out},
        intensity=intensity,
        tag="consumer",
    )
    b.d2h(out)
    return b.build(degree=degree, num_tbs=num_tbs)


# ----------------------------------------------------------------------
# analysis-fastpath microbench workloads (hidden registry extras)
# ----------------------------------------------------------------------
def _chain_pair(name, producer, consumer, num_tbs, consumer_grid=None,
                consumer_args=None, intensity=4.0, **meta):
    """Producer writes TMP in flat blocks; consumer reads it."""
    b = AppBuilder(name)
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    tmp = b.alloc("TMP", elems * _ELEM)
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    b.launch(
        producer,
        grid=num_tbs,
        block=_THREADS,
        args={"IN0": x, "OUT": tmp},
        intensity=intensity,
        tag="producer",
    )
    args = {"IN": tmp, "OUT": out}
    args.update(consumer_args or {})
    b.launch(
        consumer,
        grid=consumer_grid if consumer_grid is not None else num_tbs,
        block=_THREADS,
        args=args,
        intensity=intensity,
        tag="consumer",
    )
    b.d2h(out)
    return b.build(num_tbs=num_tbs, **meta)


def build_fastpath_1to1(num_tbs=32768, intensity=4.0):
    """Flat map over flat map: Table I's 1-to-1 pattern at scale.

    The closed-form tier proves both footprints slide at the block
    stride and emits the diagonal analytically.
    """
    return _fastpath_map(
        num_tbs, consumer_name="fp_map_1to1", intensity=intensity
    )


def _fastpath_map(num_tbs, consumer_name, radius=None, intensity=4.0):
    b = AppBuilder("{}-n{}".format(consumer_name.replace("_", "-"), num_tbs))
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    # halo padding keeps stencil reads in range without guard code
    pad = (radius or 0) * _ELEM
    tmp = b.alloc("TMP", elems * _ELEM + 2 * pad)
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    producer = ptxgen.elementwise("fp_produce", num_inputs=1, alu=2)
    b.launch(
        producer, grid=num_tbs, block=_THREADS,
        args={"IN0": x, "OUT": tmp}, intensity=intensity, tag="producer",
    )
    if radius:
        consumer = ptxgen.stencil1d(consumer_name, radius=radius, alu=2)
        args = {"IN": tmp, "OUT": out}
    else:
        consumer = ptxgen.elementwise(consumer_name, num_inputs=1, alu=2)
        args = {"IN0": tmp, "OUT": out}
    b.launch(
        consumer, grid=num_tbs, block=_THREADS,
        args=args, intensity=intensity, tag="consumer",
    )
    b.d2h(out)
    return b.build(num_tbs=num_tbs)


def build_fastpath_stencil(num_tbs=16384, radius=2, intensity=4.0):
    """Flat producer into a radius-``radius`` stencil: the *overlapped*
    pattern — each consumer block depends on a sliding window of
    producer blocks; the closed-form tier emits the windows in O(N)."""
    return _fastpath_map(
        num_tbs, consumer_name="fp_stencil", radius=radius,
        intensity=intensity,
    )


def build_fastpath_nto1(num_tbs=16384, fan_in=8, intensity=4.0):
    """``fan_in`` producer blocks feed each consumer block (n-to-1).

    The consumer is a 1-D-grid group reader (grid ``(1, G)``): its read
    window slides linearly in the block id, so the closed-form tier
    still applies — unlike the 2-D n-group variant below.
    """
    if num_tbs % fan_in:
        raise ValueError("fan_in must divide num_tbs")
    groups = num_tbs // fan_in
    consumer = ptxgen.group_read(
        "fp_nto1", group_span_elems=fan_in * _THREADS, alu=2
    )
    return _chain_pair(
        "fp-nto1-n{}".format(num_tbs),
        ptxgen.elementwise("fp_produce", num_inputs=1, alu=2),
        consumer,
        num_tbs,
        consumer_grid=(1, groups),
        intensity=intensity,
        fan_in=fan_in,
    )


def build_fastpath_fc(num_tbs=1024, intensity=4.0):
    """Every consumer block reads the whole producer output — Table I's
    fully connected pattern.  The reference builder materializes all
    N*M candidate edges before collapsing; the closed-form tier answers
    in O(1) from the zero-stride shapes."""
    consumer = ptxgen.full_read_map("fp_fc", alu=2)
    return _chain_pair(
        "fp-fc-n{}".format(num_tbs),
        ptxgen.elementwise("fp_produce", num_inputs=1, alu=2),
        consumer,
        num_tbs,
        consumer_args={
            "SPAN": num_tbs * _THREADS,
            "INOFF": 0,
            "OUTOFF": 0,
        },
        intensity=intensity,
    )


def build_fastpath_ngroup(num_tbs=8192, degree=16, intensity=4.0):
    """The Fig. 12 n-group pair on a 2-D grid: the group shift is *not*
    linear in the linearized block id, so the closed-form prover
    declines and this lands in the vectorized tier."""
    return build_vecadd_pair(
        num_tbs=num_tbs, degree=degree, intensity=intensity
    )


# ----------------------------------------------------------------------
# fast-engine microbench workloads (hidden registry extras)
# ----------------------------------------------------------------------
def build_engine_chain(num_kernels=12, num_tbs=4096, intensity=4.0):
    """A long 1-to-1 map chain over ping-pong buffers.

    Dependency analysis collapses every hop to the closed-form Table-I
    diagonal, but the scalar engine still pays ``num_kernels * num_tbs``
    per-block event lifecycles — exactly the cost the fast engine
    removes.
    """
    b = AppBuilder("eng-chain-k{}-n{}".format(num_kernels, num_tbs))
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    bufs = [b.alloc("T{}".format(i), elems * _ELEM) for i in range(2)]
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    src = x
    for i in range(num_kernels):
        dst = out if i == num_kernels - 1 else bufs[i % 2]
        kernel = ptxgen.elementwise(
            "eng_map{}".format(i), num_inputs=1, alu=2
        )
        b.launch(
            kernel, grid=num_tbs, block=_THREADS,
            args={"IN0": src, "OUT": dst}, intensity=intensity,
            tag="map{}".format(i),
        )
        src = dst
    b.d2h(out)
    return b.build(num_kernels=num_kernels, num_tbs=num_tbs)


def build_engine_wide(num_tbs=65536, intensity=4.0):
    """One producer/consumer map pair with a very wide grid: the wave
    count per kernel is large, so per-event heap traffic — not launch
    bookkeeping — dominates the scalar simulate phase."""
    return _fastpath_map(
        num_tbs, consumer_name="eng_wide_map", intensity=intensity
    )


def build_engine_fc(num_kernels=6, num_tbs=512, intensity=4.0):
    """A chain of full-buffer readers: every hop is fully connected, so
    fine-grain models gate children on the whole parent kernel and the
    fast engine covers the entire roster on this workload."""
    b = AppBuilder("eng-fc-k{}-n{}".format(num_kernels, num_tbs))
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    bufs = [b.alloc("T{}".format(i), elems * _ELEM) for i in range(2)]
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    first = ptxgen.elementwise("eng_fc_produce", num_inputs=1, alu=2)
    b.launch(
        first, grid=num_tbs, block=_THREADS,
        args={"IN0": x, "OUT": bufs[0]}, intensity=intensity,
        tag="producer",
    )
    src = bufs[0]
    for i in range(1, num_kernels):
        dst = out if i == num_kernels - 1 else bufs[i % 2]
        kernel = ptxgen.full_read_map("eng_fc{}".format(i), alu=2)
        b.launch(
            kernel, grid=num_tbs, block=_THREADS,
            args={
                "IN": src, "OUT": dst,
                "SPAN": elems, "INOFF": 0, "OUTOFF": 0,
            },
            intensity=intensity,
            tag="fc{}".format(i),
        )
        src = dst
    b.d2h(out)
    return b.build(num_kernels=num_kernels, num_tbs=num_tbs)


def engine_specs():
    """Hidden :class:`~repro.workloads.registry.WorkloadSpec` rows for
    the ``fast-engine`` microbench suite (``repro bench engine``):
    simulation-heavy chains where the simulate phase dominates a cold
    pass, so the :mod:`repro.models.fastengine` tier carries the win."""
    from repro.workloads.registry import WorkloadSpec

    return (
        WorkloadSpec(
            "eng-chain", "engine microbench: long 1-to-1 map chain",
            "fast-engine", 12, (2,), build_engine_chain,
            small_overrides={"num_kernels": 4, "num_tbs": 256},
        ),
        WorkloadSpec(
            "eng-wide", "engine microbench: very wide map pair",
            "fast-engine", 2, (2,), build_engine_wide,
            small_overrides={"num_tbs": 512},
        ),
        WorkloadSpec(
            "eng-fc", "engine microbench: fully connected hop chain",
            "fast-engine", 6, (1,), build_engine_fc,
            small_overrides={"num_kernels": 3, "num_tbs": 64},
        ),
    )


def fastpath_specs():
    """Hidden :class:`~repro.workloads.registry.WorkloadSpec` rows for
    the ``analysis-fastpath`` microbench suite (``repro bench
    fastpath``), one per Table-I pattern family."""
    from repro.workloads.registry import WorkloadSpec

    return (
        WorkloadSpec(
            "fp-1to1", "fastpath microbench: 1-to-1 map chain",
            "analysis-fastpath", 2, (3,), build_fastpath_1to1,
            small_overrides={"num_tbs": 512},
        ),
        WorkloadSpec(
            "fp-stencil", "fastpath microbench: overlapped stencil windows",
            "analysis-fastpath", 2, (6,), build_fastpath_stencil,
            small_overrides={"num_tbs": 512},
        ),
        WorkloadSpec(
            "fp-nto1", "fastpath microbench: n-to-1 group reader",
            "analysis-fastpath", 2, (5,), build_fastpath_nto1,
            small_overrides={"num_tbs": 512},
        ),
        WorkloadSpec(
            "fp-fc", "fastpath microbench: fully connected full-buffer reads",
            "analysis-fastpath", 2, (1,), build_fastpath_fc,
            small_overrides={"num_tbs": 128},
        ),
        WorkloadSpec(
            "fp-ngroup", "fastpath microbench: 2-D n-group (vectorized tier)",
            "analysis-fastpath", 2, (2,), build_fastpath_ngroup,
            small_overrides={"num_tbs": 512, "degree": 8},
        ),
    )
