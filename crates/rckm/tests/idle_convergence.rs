//! RCKM's idle-convergence claim: once `idle_converged()` reports `true`
//! during an idle replay, stopping there leaves the token manager exactly
//! where replaying every remaining idle cycle would, so every later grant
//! is the same. The event core's early exit relies on this.

use dilu_gpu::{Grant, InstanceId, InstanceView, SharePolicy, SmRate, TaskClass};
use dilu_rckm::{RckmConfig, RckmPolicy};
use dilu_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const QUANTUM: SimDuration = SimDuration::from_millis(5);

/// One resident's fixed attributes.
#[derive(Debug, Clone, Copy)]
struct Resident {
    class: TaskClass,
    request: f64,
    limit: f64,
}

/// Views of `residents` (ids 1, 2, ...) with per-resident blocks, ΔT and
/// queue depth.
fn views(
    residents: &[Resident],
    blocks: impl Fn(usize) -> u64,
    klc: impl Fn(usize) -> f64,
    queue: impl Fn(usize) -> usize,
) -> Vec<InstanceView> {
    residents
        .iter()
        .enumerate()
        .map(|(i, r)| InstanceView {
            id: InstanceId(i as u64 + 1),
            class: r.class,
            request: SmRate::from_percent(r.request),
            limit: SmRate::from_percent(r.limit),
            demand: SmRate::from_percent(r.limit),
            queue_len: queue(i),
            blocks_last_quantum: blocks(i),
            klc_inflation: klc(i),
            idle_quanta: if blocks(i) == 0 { 1 } else { 0 },
        })
        .collect()
}

/// Replays up to `cycles` idle cycles starting at `from`, ageing
/// `idle_quanta` as the engine does; with `early` it stops once the
/// policy converges. Returns the cycles run.
fn replay(
    policy: &mut RckmPolicy,
    idle: &[InstanceView],
    from: SimTime,
    cycles: u64,
    early: bool,
) -> u64 {
    let mut grants = Vec::new();
    let mut now = from;
    let mut views = idle.to_vec();
    for run in 1..=cycles {
        policy.allocate_into(now, QUANTUM, &views, &mut grants);
        if early && run < cycles && policy.idle_converged() {
            return run;
        }
        now += QUANTUM;
        for v in &mut views {
            v.idle_quanta = v.idle_quanta.saturating_add(1);
        }
    }
    cycles
}

fn grants_at(policy: &mut RckmPolicy, now: SimTime, views: &[InstanceView]) -> Vec<Grant> {
    let mut out = Vec::new();
    policy.allocate_into(now, QUANTUM, views, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn converged_replay_matches_full_replay(
        classes in collection::vec(0u8..2, 1..5),
        requests in collection::vec(5.0f64..60.0, 4),
        extras in collection::vec(0.0f64..60.0, 4),
        busy_blocks in collection::vec(0u64..120, 0..64),
        busy_klc in collection::vec(0.0f64..1.5, 64),
        busy_queue in collection::vec(0usize..6, 64),
        idle_klc in collection::vec(0.0f64..1.5, 4),
        idle_queue in collection::vec(0usize..6, 4),
        cycles in 1u64..97,
        after_blocks in collection::vec(0u64..120, 80),
        after_klc in collection::vec(0.0f64..1.5, 80),
        after in 1usize..20,
    ) {
        let residents: Vec<Resident> = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| Resident {
                class: if c == 0 { TaskClass::SloSensitive } else { TaskClass::BestEffort },
                request: requests[i],
                limit: requests[i] + extras[i],
            })
            .collect();
        let n = residents.len();
        let mut full = RckmPolicy::new(RckmConfig::default());
        let mut now = SimTime::ZERO;
        // A random busy history; some cycles issue nothing.
        for (k, step) in busy_blocks.chunks(n).enumerate() {
            let v = views(
                &residents,
                |i| step.get(i).copied().unwrap_or(0),
                |i| busy_klc[(k * n + i) % 64],
                |i| busy_queue[(k * n + i) % 64],
            );
            grants_at(&mut full, now, &v);
            now += QUANTUM;
        }
        let mut early = full.clone();

        // Replayed views keep each resident's ΔT and queue depth, as the
        // engine shows queued-but-unstarted work during a catch-up.
        let idle = views(&residents, |_| 0, |i| idle_klc[i], |i| idle_queue[i]);
        let ran_full = replay(&mut full, &idle, now, cycles, false);
        let ran_early = replay(&mut early, &idle, now, cycles, true);
        prop_assert_eq!(ran_full, cycles);
        prop_assert!(ran_early <= cycles);
        prop_assert_eq!(format!("{full:?}"), format!("{early:?}"));
        now += QUANTUM * cycles;

        for k in 0..after {
            let v = views(
                &residents,
                |i| after_blocks[(k * n + i) % 80],
                |i| after_klc[(k * n + i) % 80],
                |i| 1 + (k + i) % 4,
            );
            let a = grants_at(&mut full, now, &v);
            let b = grants_at(&mut early, now, &v);
            prop_assert_eq!(a, b);
            prop_assert_eq!(format!("{full:?}"), format!("{early:?}"));
            now += QUANTUM;
        }
    }
}

#[test]
fn an_idle_replay_converges_long_before_the_cap() {
    // One busy cycle, then idleness: the kernel-rate windows drain within
    // `rate_window` cycles and the grants settle, so RCKM reports
    // convergence well before the 96-cycle cap.
    let residents = [
        Resident { class: TaskClass::SloSensitive, request: 30.0, limit: 60.0 },
        Resident { class: TaskClass::BestEffort, request: 20.0, limit: 90.0 },
    ];
    let mut policy = RckmPolicy::new(RckmConfig::default());
    grants_at(&mut policy, SimTime::ZERO, &views(&residents, |_| 50, |_| 0.1, |_| 1));
    assert!(!policy.idle_converged(), "a busy cycle changes state");
    let idle = views(&residents, |_| 0, |_| 0.0, |_| 0);
    let cap = policy.idle_history_cycles();
    let ran = replay(&mut policy, &idle, SimTime::ZERO + QUANTUM, cap, true);
    let window = RckmConfig::default().rate_window as u64;
    assert!(ran > window, "windows need {window} cycles to drain, converged after {ran}");
    assert!(ran < cap / 2, "converged after {ran} of {cap} cycles");
    // A resize invalidates the claim until the next cycle re-checks it.
    policy.notify_resize(InstanceId(1), SmRate::from_percent(10.0), SmRate::from_percent(20.0));
    assert!(!policy.idle_converged());
}
