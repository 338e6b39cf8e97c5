"""``--explain RPR<code>``: the rule catalogue's long-form docs.

One entry per rule code, shown verbatim by ``python -m repro.checks
--explain <code>``.  A test asserts every registered rule (fast lint
and deep passes alike) has an explanation, so a new rule cannot ship
undocumented.
"""

from __future__ import annotations

from typing import Dict, Optional

EXPLANATIONS: Dict[str, str] = {
    "RPR001": """\
RPR001 — stdlib `random` outside util/rng.py

Every random draw must flow through the seeded stream machinery in
repro.util.rng so that trials are bit-for-bit reproducible from their
seed.  A stray `import random` draws from untracked global state and
silently breaks replay.

Fix: take a SeedStream (repro.util.rng) as a parameter, or derive a
child stream with derive_stream().""",
    "RPR002": """\
RPR002 — numpy.random outside util/rng.py

Same contract as RPR001: numpy's global RNG (np.random.*) and ad-hoc
default_rng() calls bypass the seeded streams and make trial results
depend on import order and process history.

Fix: route draws through repro.util.rng.""",
    "RPR003": """\
RPR003 — wall-clock read outside the allowlist

Simulation time is the integer slot clock.  Reading the host clock
(time.time, perf_counter, datetime.now, ...) inside simulation or
verdict code couples results to the machine running them.  Only the
throughput profiler (obs/profile.py) is allowlisted, and a test pins
the allowlist to reality.

Fix: use the engine's slot clock; convert with repro.util.units.""",
    "RPR101": """\
RPR101 — float literal in slot arithmetic

Slot timestamps are integers by design (the paper's timing claims are
slot-exact).  `slot + 0.5` re-introduces the floating-point event-time
drift the integer clock exists to prevent.

Fix: express the offset in whole slots, or convert via
microseconds_to_slots().""",
    "RPR102": """\
RPR102 — ==/!= between a slot value and a float literal

Exact equality against a float is either always false or accidentally
true; either way the comparison does not mean what it says for an
integer slot clock.

Fix: compare against an integer slot count.""",
    "RPR201": """\
RPR201 — mutable default argument

A list/dict/set default is evaluated once and shared across calls —
state leaks between engines and between trials, breaking run
isolation.

Fix: default to None and allocate inside the function.""",
    "RPR202": """\
RPR202 — bare `except:`

Bare except swallows KeyboardInterrupt/SystemExit and hides the
assertion failures the invariant checker raises on purpose.

Fix: catch the narrowest exception type that the handler can actually
handle.""",
    "RPR301": """\
RPR301 — public function missing type annotations

The annotated scopes (core/, mac/, sim/, obs/, phy/, geometry/,
serve/, experiments/) carry the engine-detector contract and the
unit-flow analysis (RPR5xx) reads their annotations as ground truth.
An unannotated public function is a hole in both.

Fix: annotate every parameter and the return type; use the unit
NewTypes (Slots, Microseconds, Seconds, Meters) from repro.util.units
for timing/geometry quantities.""",
    "RPR401": """\
RPR401 — module-level cache without a registered reset hook

Process-wide caches survive between trials unless
repro.util.caches.register_cache_reset knows how to clear them; a
stale cache makes trial N's result depend on trial N-1.

Fix: register a reset hook with @register_cache_reset in the module
that owns the cache.""",
    "RPR501": """\
RPR501 — mixed-unit arithmetic or comparison

The unit-flow pass tracked both operands to different physical units
(e.g. slots + microseconds, or seconds < meters).  Such expressions
are the canonical silent-corruption bug: the result is a number, just
the wrong one, and every rank-sum window built on it inherits the
error.

Fix: convert explicitly at the boundary with repro.util.units
(microseconds_to_slots, slots_to_microseconds, seconds_to_slots, ...)
so the conversion factor is visible and testable.  If the analyzer
mis-inferred a unit from a name suffix, rename the variable — the
suffix conventions (_slots, _us, _s/_seconds, _meters/_range) are part
of the codebase's contract.""",
    "RPR502": """\
RPR502 — call-argument unit mismatch

A value with one inferred unit is passed to a parameter declared (by
NewType annotation or name suffix) with a different unit.  The
resolution is whole-program: the callee may live in another module.

Fix: convert at the call site via repro.util.units, or fix the
callee's annotation if it is wrong.""",
    "RPR503": """\
RPR503 — float contamination of a slot-typed value

A structurally float expression (true division, float literal, or
float()-returning call) flows into a slot-typed target.  Slot counts
are integers; a float slot makes event ordering depend on rounding.

Fix: use // for slot division, or microseconds_to_slots() which owns
the ceil-to-int policy in one place.""",
    "RPR504": """\
RPR504 — declared unit violated by a binding or return

An annotated name (or a function with a unit return annotation) is
assigned/returns a value the dataflow traced to a *different* unit.
One of the two is lying; either is a latent bug.

Fix: correct the conversion, or correct the annotation — never
both-sides-cast to silence the finding.""",
    "RPR601": """\
RPR601 — shared mutable state reachable from parallel workers

run_trials() promises byte-identical results for any worker count,
which requires trial functions to be pure functions of their task
tuple.  This function is reachable from a worker entrypoint (a
function handed to run_trials, or an engine/observatory on_* hook) and
writes module-level state that is neither registered with
repro.util.caches.register_cache_reset nor part of the approved merge
machinery (repro.experiments.parallel, repro.obs.runtime/registry,
whose snapshots merge deterministically in task order).

In a forked worker such writes diverge silently: the parent never sees
them, and serial vs parallel runs stop agreeing.

Fix: thread the state through the task tuple and return value, merge
explicitly via MetricsRegistry.merge_snapshot, or register a reset
hook so every trial starts clean.""",
    "RPR602": """\
RPR602 — unsorted set iteration on a verdict/audit path

Set iteration order depends on the interpreter's hash seed.  Inside
repro.core and repro.obs — the code that computes verdicts and writes
audit trails — any value derived from that order (including float
accumulation order) is not reproducible across runs.

Fix: wrap the iterable in sorted(); if the elements are unorderable,
sort by a stable key.""",
    "RPR603": """\
RPR603 — os.environ mutation

The environment is process-wide state inherited by forked workers:
writing it from library code leaks configuration across trials,
invisibly to the run manifest that records inputs for replay.

Fix: pass configuration through task tuples or explicit parameters;
reserve environment variables for process-entry configuration read
once (os.environ.get is fine).""",
    "RPR701": """\
RPR701 — import against the layer DAG

The packages form a dependency DAG:

    util < geometry/traffic < phy/topology < mac < faults < sim
         < obs/checks < core < experiments < analysis/serve < cli

A lower layer importing a higher one (e.g. obs importing experiments)
creates a cycle-in-waiting and lets infrastructure depend on policy.
`if TYPE_CHECKING:` imports are exempt (they vanish at runtime), and
the cross-cutting planes repro.obs / repro.checks may be imported
lazily (inside a function) from anywhere — that is how the engine
attaches metrics without depending on them at import time.

Fix: move the shared code down to the layer both sides may use (see
repro.util.fidelity for the pattern), or invert the dependency with a
hook/callback.""",
    "RPR702": """\
RPR702 — detector code reads Medium internals

Detectors model the paper's monitor, whose whole point is *limited*
observability: it judges a sender only through what its own radio
senses.  Reaching into medium._* from repro.core grants the detector
channel-state omniscience the physical monitor cannot have, and every
detection-probability number measured with it overstates the paper.

Fix: consume the public observation API (ChannelObserver and the
handoff records); if data is genuinely observable, add a public
accessor to the Medium instead.""",
    "RPR703": """\
RPR703 — observation plane writes simulation state

repro.obs is read-only by contract: listeners and profilers may
observe any event but must not assign to engine/medium/network/mac
attributes.  A writing observer perturbs the run it measures, so
enabling --metrics would change the results being measured.

Fix: keep derived state on the observer object; if the engine must
expose a knob, put it on the engine's public API and call it from the
experiment layer, not from an observer.""",
}


def explain(code: str) -> Optional[str]:
    """Long-form documentation for a rule code, or None if unknown."""
    return EXPLANATIONS.get(code.upper())
