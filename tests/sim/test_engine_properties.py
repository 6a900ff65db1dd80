"""Property tests (hypothesis) for the calendar-queue engine.

The hybrid engine has three regimes an event can land in — the draining
cursor bucket, a future calendar bucket, and the overflow heap — plus two
migration moments (cursor advance, window jump).  These tests generate
random schedules that straddle all of the boundaries and assert the one
property everything else rests on: the calendar engine executes the exact
``(time, seq)`` sequence the reference heap engine does.

The delay strategy is deliberately lumpy: with the default geometry
(64 ns x 4096 buckets) the calendar window is 262,144 ns, so delays are
drawn from bands below, around, and far above that horizon.
"""

from bisect import bisect_right

from hypothesis import given, settings, strategies as st

from repro.sim.engine import DEFAULT_BUCKET_NS, DEFAULT_N_BUCKETS, Simulator

from tests.sim.heap_oracle import HeapSimulator

HORIZON_NS = DEFAULT_BUCKET_NS * DEFAULT_N_BUCKETS

#: Bands: same-bucket, near future, just below/above the window edge,
#: deep overflow (forces window jumps across empty stretches).
delays = st.one_of(
    st.integers(0, 2 * DEFAULT_BUCKET_NS),
    st.integers(0, HORIZON_NS // 4),
    st.integers(HORIZON_NS - 200, HORIZON_NS + 200),
    st.integers(2 * HORIZON_NS, 20 * HORIZON_NS),
)


def _run_program(sim_cls, initial, cancels, respawns):
    """Execute one generated schedule program; return the event log.

    ``initial`` seeds the queue; each executed callback consumes one
    entry of ``respawns`` to schedule a follow-up (inserts *during*
    drain, including into the currently-draining cursor bucket), and
    ``cancels`` marks initial handles to cancel before running.
    """
    sim = sim_cls()
    log = []
    sim.trace = lambda time, seq, callback: log.append((time, seq))
    state = {"next": 0}

    def callback(label):
        i = state["next"]
        if i < len(respawns):
            state["next"] = i + 1
            delay, use_fire = respawns[i]
            if use_fire:
                sim.fire(delay, callback, ("respawn", i))
            else:
                sim.schedule(delay, callback, ("respawn", i))

    handles = []
    for i, (delay, use_fire) in enumerate(initial):
        if use_fire:
            sim.fire(delay, callback, ("init", i))
            handles.append(None)          # fire entries have no handle
        else:
            handles.append(sim.schedule(delay, callback, ("init", i)))
    for i in cancels:
        handle = handles[i % len(handles)]
        if handle is not None:
            handle.cancel()
    sim.run()
    return log


@settings(max_examples=60, deadline=None)
@given(initial=st.lists(st.tuples(delays, st.booleans()),
                        min_size=1, max_size=40),
       cancels=st.lists(st.integers(0, 1_000), max_size=15),
       respawns=st.lists(st.tuples(delays, st.booleans()), max_size=30))
def test_calendar_matches_heap_for_random_programs(initial, cancels,
                                                   respawns):
    calendar_log = _run_program(Simulator, initial, cancels, respawns)
    heap_log = _run_program(HeapSimulator, initial, cancels, respawns)
    assert calendar_log == heap_log


@settings(max_examples=40, deadline=None)
@given(bucket_ns=st.integers(1, 256), n_buckets=st.integers(2, 64),
       initial=st.lists(st.tuples(st.integers(0, 50_000), st.booleans()),
                        min_size=1, max_size=40),
       respawns=st.lists(st.tuples(st.integers(0, 50_000), st.booleans()),
                         max_size=20))
def test_order_holds_for_tiny_geometries(bucket_ns, n_buckets, initial,
                                         respawns):
    """Shrunken rings force constant cursor wraps and window jumps."""
    def run_small(_unused):
        sim = Simulator(bucket_ns=bucket_ns, n_buckets=n_buckets)
        log = []
        sim.trace = lambda time, seq, callback: log.append((time, seq))
        state = {"next": 0}

        def callback(label):
            i = state["next"]
            if i < len(respawns):
                state["next"] = i + 1
                delay, use_fire = respawns[i]
                if use_fire:
                    sim.fire(delay, callback, i)
                else:
                    sim.schedule(delay, callback, i)

        for i, (delay, use_fire) in enumerate(initial):
            if use_fire:
                sim.fire(delay, callback, i)
            else:
                sim.schedule(delay, callback, i)
        sim.run()
        return log

    small_log = run_small(None)
    heap_log = _run_program(HeapSimulator, initial, [], respawns)
    assert small_log == heap_log


@settings(max_examples=20, deadline=None)
@given(n=st.integers(520, 1200), keep_every=st.integers(2, 9))
def test_overflow_compaction_drops_tombstones(n, keep_every):
    """Cancelled far-future timers must not grow the overflow heap
    without bound, and survivors must still run in order."""
    sim = Simulator()
    far = 10 * HORIZON_NS
    handles = [sim.schedule(far + i, lambda: None) for i in range(n)]
    live = 0
    for i, handle in enumerate(handles):
        if i % keep_every:
            handle.cancel()
        else:
            live += 1
    # Each new push may trigger compaction once tombstones dominate.
    for i in range(600):
        sim.schedule(far + n + i, lambda: None)
    live += 600
    # The lazy-compaction bound: at most max(512, 2 * live) retained
    # entries immediately after a compaction, plus what was pushed since.
    assert len(sim._overflow) <= max(512, 2 * live) + 600
    assert sim.run() == live


def test_compaction_preserves_fire_entries():
    """fire() entries have no cancelled flag; compaction must keep them."""
    sim = Simulator()
    ran = []
    far = 10 * HORIZON_NS
    for i in range(300):
        sim.fire(far + i, ran.append, i)
    doomed = [sim.schedule(far + 1000 + i, lambda: None)
              for i in range(600)]
    for handle in doomed:
        handle.cancel()
    for i in range(300):  # pushes that trigger compaction
        sim.fire(far + 2000 + i, ran.append, 300 + i)
    sim.run()
    assert ran == list(range(600))


# ----------------------------------------------------------------------
# Bounded runs: slicing a run must not change what executes
# ----------------------------------------------------------------------
#: Op kinds of a generated program; ``cancel`` cancels a still-pending
#: ``schedule`` handle instead of queueing anything.
op_kinds = st.sampled_from(("schedule", "fire", "fire2", "cancel"))

#: Op delays: the bands above plus a few ns, so callbacks respawn into
#: the bucket a slice is cutting, at or just past the cut.
op_delays = st.one_of(st.integers(0, 4), delays)

#: Cut selectors, mapped onto absolute ``until`` values by
#: :func:`_cut_times`: any time, a bucket edge (or one ns before it),
#: exactly an executed event's time (or a few ns after it), or past the
#: calendar window.
cut_specs = st.one_of(
    st.tuples(st.just("any"), st.integers(0, 3 * HORIZON_NS)),
    st.tuples(st.just("edge"), st.integers(0, 3 * HORIZON_NS
                                           // DEFAULT_BUCKET_NS)),
    st.tuples(st.just("edge-1"), st.integers(1, 3 * HORIZON_NS
                                             // DEFAULT_BUCKET_NS)),
    st.tuples(st.just("event"), st.integers(0, 10_000)),
    st.tuples(st.just("event+"), st.integers(0, 10_000)),
    st.tuples(st.just("overflow"), st.integers(HORIZON_NS,
                                               20 * HORIZON_NS)),
)


def _run_sliced(initial, respawns, cuts):
    """Run one generated program through ``run(until)`` for each cut in
    ``cuts`` and a final unbounded ``run()``.

    Returns the ``(time, seq, qualname)`` trace, the summed ``run()``
    return values, and ``(now, events traced so far)`` after each slice.
    Each executed callback consumes one ``respawns`` op, so slices see
    inserts into the bucket they straddle as well as cancellations.
    """
    sim = Simulator()
    trace = []
    sim.trace = lambda time, seq, callback: trace.append(
        (time, seq, callback.__qualname__))
    pending = {}          # label -> still-queued schedule() handle
    state = {"next": 0}

    def push(kind, delay, label):
        if kind == "schedule":
            pending[label] = sim.schedule(delay, on_event, label)
        elif kind == "fire":
            sim.fire(delay, on_fire, label)
        elif kind == "fire2":
            sim.fire2(delay, on_fire2, label, delay)
        elif pending:
            labels = sorted(pending)
            pending.pop(labels[delay % len(labels)]).cancel()

    def respawn():
        i = state["next"]
        if i < len(respawns):
            state["next"] = i + 1
            kind, delay = respawns[i]
            push(kind, delay, ("respawn", i))

    def on_event(label):
        del pending[label]
        respawn()

    def on_fire(label):
        respawn()

    def on_fire2(label, delay):
        respawn()

    for i, (kind, delay) in enumerate(initial):
        push(kind, delay, ("init", i))
    executed = 0
    stops = []
    for until in cuts:
        executed += sim.run(until)
        stops.append((sim.now, len(trace)))
    executed += sim.run()
    assert executed == sim.executed
    return trace, executed, stops


def _cut_times(specs, event_times):
    """Map cut selectors onto a non-decreasing list of ``until`` times."""
    cuts = []
    for kind, value in specs:
        if kind == "edge":
            cuts.append(value * DEFAULT_BUCKET_NS)
        elif kind == "edge-1":
            cuts.append(value * DEFAULT_BUCKET_NS - 1)
        elif kind in ("event", "event+"):
            time = (event_times[value % len(event_times)]
                    if event_times else value)
            cuts.append(time + value % 4 if kind == "event+" else time)
        else:
            cuts.append(value)
    cuts.append(cuts[len(cuts) // 2])   # one repeated ``until``
    cuts.sort()
    return cuts


@settings(max_examples=100, deadline=None)
@given(initial=st.lists(st.tuples(op_kinds, op_delays), min_size=1,
                        max_size=40),
       respawns=st.lists(st.tuples(op_kinds, op_delays), max_size=40),
       specs=st.lists(cut_specs, min_size=1, max_size=8))
def test_bounded_slices_match_one_run(initial, respawns, specs):
    """``run(until)`` slices execute exactly the unbounded run's events,
    in the same order; each slice stops with every event at or before
    ``until`` run, none after it, and the clock at ``until``."""
    whole, whole_executed, _ = _run_sliced(initial, respawns, [])
    times = [time for time, _, _ in whole]
    cuts = _cut_times(specs, times)
    sliced, sliced_executed, stops = _run_sliced(initial, respawns, cuts)
    assert sliced == whole
    assert sliced_executed == whole_executed
    assert stops == [(until, bisect_right(times, until)) for until in cuts]
