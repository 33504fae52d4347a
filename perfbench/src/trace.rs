//! Outside-in tracing: decorators around the public trait objects, the
//! simulator's event and arrival hooks, a counting allocator, and spans.
//!
//! Nothing here changes what the program computes. Every decorator
//! delegates every method (and `name()`), so a traced run's report must
//! digest exactly like the untraced one; the benchmark checks that.
//!
//! Counters are process-wide atomics: each repetition runs in a process of
//! its own, so they never need resetting. `Relaxed` suffices, as no counter
//! publishes other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dilu_cluster::{
    ClusterSim, ClusterView, ElasticityController, FunctionScaleView, FunctionSpec, GpuAddr,
    Placement, PolicyFactory, ScaleAction,
};
use dilu_core::Registry;
use dilu_gpu::{Grant, InstanceId, InstanceView, SharePolicy, SmRate};
use dilu_sim::{SimDuration, SimTime};

/// A decorated layer boundary.
#[derive(Debug, Clone, Copy)]
enum Layer {
    /// `Placement::place` (dilu-scheduler).
    Scheduler = 1,
    /// `ElasticityController::on_tick` (dilu-scaler).
    Scaler = 2,
    /// `SharePolicy::allocate_into` (dilu-rckm).
    Rckm = 3,
}

const LAYER_NAMES: [&str; 3] = ["scheduler", "scaler", "rckm"];

/// Calls, failures, busy time and allocations at one boundary.
struct Boundary {
    calls: AtomicU64,
    failed: AtomicU64,
    nanos: AtomicU64,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
}

impl Boundary {
    const fn new() -> Self {
        Boundary {
            calls: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
        }
    }
}

static BOUNDARIES: [Boundary; 3] = [Boundary::new(), Boundary::new(), Boundary::new()];
/// Allocations of the whole measured run, whatever layer made them.
static RUN: Boundary = Boundary::new();
/// Share-policy calls that replay idle cycles before the current wake
/// (the engine's idle fast-forward, run from the dispatch, promote and
/// step phases) rather than step at it.
static REPLAY: Boundary = Boundary::new();
/// The instant of the wake being processed, in simulated microseconds.
static WAKE_AT: AtomicU64 = AtomicU64::new(0);
/// Whether the counting allocator counts (the traced run only).
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Controller actions by kind: scale-out, scale-in, resize.
static ACTIONS: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];
/// Event-core pops by kind code (0..=7, plus 8 for the quantum chain).
static EVENTS: [AtomicU64; 9] = [const { AtomicU64::new(0) }; 9];
static REFILL_CHUNKS: AtomicU64 = AtomicU64::new(0);
static ARRIVALS: AtomicU64 = AtomicU64::new(0);
/// Kind code of `SimEvent::NetFlowDone`.
const NET_FLOW_DONE: usize = 7;

thread_local! {
    /// The decorated boundary this thread is inside (0 = none).
    static CURRENT: Cell<u8> = const { Cell::new(0) };
}

/// Marks the thread as inside `layer` until dropped.
struct Inside(u8);

fn enter(layer: Layer) -> Inside {
    Inside(CURRENT.with(|c| c.replace(layer as u8)))
}

impl Drop for Inside {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.0));
    }
}

/// Counts one finished call at `layer`.
fn record(layer: Layer, started: Instant, failed: bool) -> u64 {
    let b = &BOUNDARIES[layer as usize - 1];
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    b.calls.fetch_add(1, Relaxed);
    b.failed.fetch_add(u64::from(failed), Relaxed);
    b.nanos.fetch_add(nanos, Relaxed);
    nanos
}

/// Turns allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// The system allocator, counting allocations and their bytes per layer
/// while [`count_allocations`] is on. Off, it costs one relaxed load.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(bytes: usize) {
        if !COUNTING.load(Relaxed) {
            return;
        }
        let bytes = bytes as u64;
        RUN.allocs.fetch_add(1, Relaxed);
        RUN.alloc_bytes.fetch_add(bytes, Relaxed);
        // `try_with`: the slot may already be gone while a thread exits.
        let layer = CURRENT.try_with(Cell::get).unwrap_or(0);
        if let Some(b) = usize::from(layer).checked_sub(1).map(|i| &BOUNDARIES[i]) {
            b.allocs.fetch_add(1, Relaxed);
            b.alloc_bytes.fetch_add(bytes, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting around it touches only
// atomics and a const-initialized thread-local `Cell`, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` was allocated by `System` (every allocation here
        // goes to it) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Times `Placement::place` and counts its failures.
struct TracedPlacement(Box<dyn Placement>);

impl Placement for TracedPlacement {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let _inside = enter(Layer::Scheduler);
        let started = Instant::now();
        let placed = self.0.place(func, cluster);
        record(Layer::Scheduler, started, placed.is_none());
        placed
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Times `ElasticityController::on_tick`, counts its actions, and records
/// one span per tick.
struct TracedController(Box<dyn ElasticityController>);

impl ElasticityController for TracedController {
    fn on_tick(
        &mut self,
        now: SimTime,
        functions: &[FunctionScaleView],
        cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        close_tick_span();
        let started = Instant::now();
        let actions = {
            let _inside = enter(Layer::Scaler);
            self.0.on_tick(now, functions, cluster)
        };
        let nanos = record(Layer::Scaler, started, false);
        for action in &actions {
            let kind = match action {
                ScaleAction::ScaleOut { .. } => 0,
                ScaleAction::ScaleIn { .. } => 1,
                ScaleAction::ResizeQuota { .. } => 2,
                _ => continue,
            };
            ACTIONS[kind].fetch_add(1, Relaxed);
        }
        open_tick_span(started, nanos, now, actions.len());
        actions
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Hands out share policies that time `allocate`/`allocate_into`.
struct TracedFactory(Box<dyn PolicyFactory>);

impl PolicyFactory for TracedFactory {
    fn make(&self) -> Box<dyn SharePolicy> {
        Box::new(TracedPolicy(self.0.make()))
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

struct TracedPolicy(Box<dyn SharePolicy>);

impl SharePolicy for TracedPolicy {
    fn allocate(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
    ) -> Vec<Grant> {
        let _inside = enter(Layer::Rckm);
        let started = Instant::now();
        let grants = self.0.allocate(now, quantum, views);
        record(Layer::Rckm, started, false);
        grants
    }

    fn allocate_into(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        let _inside = enter(Layer::Rckm);
        let started = Instant::now();
        self.0.allocate_into(now, quantum, views, out);
        let nanos = record(Layer::Rckm, started, false);
        if now.as_micros() < WAKE_AT.load(Relaxed) {
            REPLAY.calls.fetch_add(1, Relaxed);
            REPLAY.nanos.fetch_add(nanos, Relaxed);
        }
    }

    fn notify_resize(&mut self, id: InstanceId, request: SmRate, limit: SmRate) {
        self.0.notify_resize(id, request, limit);
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn idle_history_cycles(&self) -> u64 {
        self.0.idle_history_cycles()
    }
}

/// [`Registry::with_defaults`] with every placement, controller (and
/// autoscaler, registered as a controller) and share policy decorated.
pub fn traced_registry() -> Registry {
    let inner = Arc::new(Registry::with_defaults());
    let mut traced = Registry::empty();
    for name in inner.placement_names() {
        let (inner, key) = (Arc::clone(&inner), name.clone());
        traced.register_placement(name, move |p| {
            Ok(Box::new(TracedPlacement(inner.placement(&key, p)?)))
        });
    }
    for name in inner.controller_names().into_iter().chain(inner.autoscaler_names()) {
        let (inner, key) = (Arc::clone(&inner), name.clone());
        traced.register_controller(name, move |p| {
            Ok(Box::new(TracedController(inner.controller(&key, p)?)))
        });
    }
    for name in inner.share_policy_names() {
        let (inner, key) = (Arc::clone(&inner), name.clone());
        traced.register_share_policy(name, move |p| {
            Ok(Box::new(TracedFactory(inner.share_policy(&key, p)?)))
        });
    }
    traced
}

/// Counts event-core pops and arrival-window refills.
pub fn install_hooks(sim: &mut ClusterSim) {
    sim.set_event_hook(Box::new(|event| {
        WAKE_AT.store(event.at.as_micros(), Relaxed);
        EVENTS[usize::from(event.kind).min(EVENTS.len() - 1)].fetch_add(1, Relaxed);
    }));
    sim.set_arrival_hook(Box::new(|_, chunk| {
        REFILL_CHUNKS.fetch_add(1, Relaxed);
        ARRIVALS.fetch_add(chunk.len() as u64, Relaxed);
    }));
}

/// One timed interval at a layer boundary. Spans stay in memory until
/// [`write_spans`].
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    detail: Vec<(&'static str, u64)>,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// The span new tick spans hang under (the measured run).
static RUN_SPAN: Mutex<Option<usize>> = Mutex::new(None);
/// The last tick span, still collecting the placements its actions cause:
/// (span index, place calls and failures when the tick returned).
static OPEN_TICK: Mutex<Option<(usize, u64, u64)>> = Mutex::new(None);

fn since_epoch(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(|| at);
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().expect("a span recorder panicked")
}

/// Records a span from `started` to now and returns its index.
pub fn span(name: &'static str, parent: Option<usize>, started: Instant) -> usize {
    let (start_ns, end_ns) = (since_epoch(started), since_epoch(Instant::now()));
    let mut spans = spans();
    spans.push(Span { name, parent, start_ns, end_ns, detail: Vec::new() });
    spans.len() - 1
}

/// Opens the span of the measured run; tick spans nest under it.
pub fn open_run_span(name: &'static str) -> usize {
    let index = span(name, None, Instant::now());
    *RUN_SPAN.lock().expect("a span recorder panicked") = Some(index);
    index
}

/// Closes the run span and the last tick span.
pub fn close_run_span(index: usize) {
    close_tick_span();
    spans()[index].end_ns = since_epoch(Instant::now());
}

fn place_counts() -> (u64, u64) {
    let b = &BOUNDARIES[Layer::Scheduler as usize - 1];
    (b.calls.load(Relaxed), b.failed.load(Relaxed))
}

fn open_tick_span(started: Instant, nanos: u64, now: SimTime, actions: usize) {
    let parent = *RUN_SPAN.lock().expect("a span recorder panicked");
    let start_ns = since_epoch(started);
    let mut spans = spans();
    spans.push(Span {
        name: "scaler.tick",
        parent,
        start_ns,
        end_ns: start_ns + nanos,
        detail: vec![("sim_ms", now.as_micros() / 1000), ("actions", actions as u64)],
    });
    let (calls, failed) = place_counts();
    *OPEN_TICK.lock().expect("a span recorder panicked") = Some((spans.len() - 1, calls, failed));
}

/// Attaches to the last tick span the placements made since it returned.
fn close_tick_span() {
    let Some((index, calls0, failed0)) = OPEN_TICK.lock().expect("a span recorder panicked").take()
    else {
        return;
    };
    let (calls, failed) = place_counts();
    spans()[index]
        .detail
        .extend([("place_calls", calls - calls0), ("place_failed", failed - failed0)]);
}

/// Writes every span as one JSON line each.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans().iter() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        write!(
            out,
            "{{\"name\":{:?},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}",
            s.name, s.start_ns, s.end_ns
        )?;
        for (key, value) in &s.detail {
            write!(out, ",\"{key}\":{value}")?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

/// The decorator, hook and allocator counters as per-layer metrics.
pub fn layer_metrics() -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let ms = |nanos: u64| nanos as f64 / 1e6;
    let place = &BOUNDARIES[Layer::Scheduler as usize - 1];
    let (calls, failed) = place_counts();
    m.push(("scheduler.place.calls".into(), calls as f64));
    m.push(("scheduler.place.failed".into(), failed as f64));
    m.push(("scheduler.place.ms".into(), ms(place.nanos.load(Relaxed))));
    let ok_ratio = if calls == 0 { 0.0 } else { (calls - failed) as f64 / calls as f64 };
    m.push(("scheduler.place.ok_ratio".into(), ok_ratio));
    let tick = &BOUNDARIES[Layer::Scaler as usize - 1];
    m.push(("scaler.tick.calls".into(), tick.calls.load(Relaxed) as f64));
    m.push(("scaler.tick.ms".into(), ms(tick.nanos.load(Relaxed))));
    for (i, kind) in ["scale_out", "scale_in", "resize"].iter().enumerate() {
        m.push((format!("scaler.actions.{kind}"), ACTIONS[i].load(Relaxed) as f64));
    }
    let rckm = &BOUNDARIES[Layer::Rckm as usize - 1];
    m.push(("rckm.allocate.calls".into(), rckm.calls.load(Relaxed) as f64));
    m.push(("rckm.allocate.ms".into(), ms(rckm.nanos.load(Relaxed))));
    m.push(("rckm.replay.calls".into(), REPLAY.calls.load(Relaxed) as f64));
    m.push(("rckm.replay.ms".into(), ms(REPLAY.nanos.load(Relaxed))));
    m.push(("workload.refill.chunks".into(), REFILL_CHUNKS.load(Relaxed) as f64));
    m.push(("workload.arrivals".into(), ARRIVALS.load(Relaxed) as f64));
    let events: u64 = EVENTS.iter().map(|e| e.load(Relaxed)).sum();
    m.push(("sim.events".into(), events as f64));
    m.push(("net.flow_events".into(), EVENTS[NET_FLOW_DONE].load(Relaxed) as f64));
    for (name, b) in LAYER_NAMES.iter().zip(&BOUNDARIES).chain([(&"run", &RUN)]) {
        m.push((format!("alloc.{name}.count"), b.allocs.load(Relaxed) as f64));
        m.push((format!("alloc.{name}.bytes"), b.alloc_bytes.load(Relaxed) as f64));
    }
    m
}
