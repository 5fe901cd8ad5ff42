//! Intra-server parallel DES: one server's pipeline partitioned into lanes.
//!
//! The cluster scale-out layer (`crate::scaleout`) runs one logical process
//! per *server*; a single-server simulation was therefore still sequential.
//! This module partitions one server's [`PipelineModel`] along the seams the
//! TrainBox topology already draws: a **lane** is half a train box — four
//! accelerators plus the SSD and preparation FPGA nominally assigned to them
//! (`assign_devices_nominal` maps accelerator `a` to SSD/prep `a / 4`).
//! Each lane's refill traffic rides its own leaf-switch links, so the flow
//! domains are disjoint (checked, not assumed — see
//! [`LanePartition::of`]) and a lane's private [`FlowSim`] computes the same
//! max-min rates the global allocator would, bit for bit.
//!
//! The only cross-lane coupling is the ring synchronization: every
//! accelerator in the server joins one all-reduce per generation. The lane
//! coordinator replays exactly the solo path's arithmetic — the sync starts
//! at `max(lane arrivals)` and completes `t_sync` later — so the **lookahead
//! is the full-ring all-reduce time**: once a lane parks at the barrier, the
//! earliest instant it can observe any other lane is the global release.
//! Windows are therefore one generation long but far cheaper than the
//! cluster barrier; the runner uses [`par::run_windows_with`]'s
//! cheap-window fast path so thread spawn/join never dominates short
//! windows.
//!
//! Determinism discipline is inherited wholesale from `sim::par`: offers are
//! folded and grants applied in lane-index order at every barrier, so
//! `parallel_workers: 0` is byte-identical to any worker count by
//! construction (pinned by `crates/core/tests/parallel_equivalence.rs`).
//!
//! [`FlowSim`]: trainbox_pcie::flow::FlowSim

use std::marker::PhantomData;
use std::time::Instant;

use crate::arch::{Server, ServerKind};
use crate::faults::{FaultDowntime, FaultKind, FaultPlan, FaultStats};
use crate::pipeline::{DesFailure, Ev, PipelineModel, SimConfig, SimResult};
use crate::scaleout::{merge_fault_stats, ClusterLp, LpOffer, CLUSTER_TRACK_STRIDE};
use trainbox_nn::Workload;
use trainbox_sim::par::{self, Coordinator, WindowPolicy};
use trainbox_sim::{Engine, ForkTracer, SimError, SimTime, Tracer};

/// Accelerators per lane: half a train box (4 accelerators share one SSD
/// and one prep FPGA under `assign_devices_nominal`).
pub(crate) const ACCELS_PER_LANE: usize = 4;

/// A validated lane partition of one server: which lane owns each directed
/// PCIe link, derived from the nominal refill routes.
///
/// Existence of a `LanePartition` *is* the eligibility proof: it is a pure
/// function of `(server, plan)` — never of the worker count, the tracer, or
/// the simulation config — so every entry point takes the same partitioning
/// decision and results stay one canonical answer per request.
pub(crate) struct LanePartition {
    /// Number of lanes (`n_accels / ACCELS_PER_LANE`, at least 2).
    pub(crate) lanes: usize,
    /// `link_owner[i]` = the lane whose nominal routes traverse directed
    /// link `i`, `None` for links no lane touches (e.g. root-complex
    /// uplinks the clustered design never crosses).
    link_owner: Vec<Option<usize>>,
}

impl LanePartition {
    /// Partition `server` into lanes, or `None` when the configuration
    /// cannot be partitioned soundly:
    ///
    /// * Only [`ServerKind::TrainBoxNoPool`] qualifies — the clustered
    ///   design whose refill path is strictly SSD → prep → accelerator
    ///   within one box half. The pooled TrainBox shares a global Ethernet
    ///   star; staged designs funnel everything through host memory.
    /// * Device counts must match the nominal assignment (one SSD and one
    ///   prep per 4 accelerators) and yield at least 2 lanes.
    /// * The lanes' nominal routes must be pairwise link-disjoint —
    ///   verified against the actual topology, so an exotic geometry simply
    ///   falls back to the single-engine path.
    /// * Every fault in `plan` must be lane-local. Prep crashes and
    ///   transients re-dispatch work across the whole prep complement, and
    ///   accelerator dropouts re-form the global ring: any of those makes
    ///   the run ineligible (it falls back, it never loses fidelity).
    pub(crate) fn of(server: &Server, plan: &FaultPlan) -> Option<LanePartition> {
        if server.kind() != ServerKind::TrainBoxNoPool {
            return None;
        }
        let topo = server.topology();
        let n = server.n_accels();
        if !n.is_multiple_of(ACCELS_PER_LANE) {
            return None;
        }
        let lanes = n / ACCELS_PER_LANE;
        if lanes < 2 || topo.ssds.len() != lanes || topo.preps.len() != lanes {
            return None;
        }
        let mut link_owner: Vec<Option<usize>> = vec![None; topo.topo.link_count()];
        for l in 0..lanes {
            let mut lane_links = topo.topo.route(topo.ssds[l], topo.preps[l]);
            for a in l * ACCELS_PER_LANE..(l + 1) * ACCELS_PER_LANE {
                lane_links.extend(topo.topo.route(topo.preps[l], topo.accs[a]));
            }
            for link in lane_links {
                match link_owner[link.index()] {
                    Some(owner) if owner != l => return None, // shared link
                    _ => link_owner[link.index()] = Some(l),
                }
            }
        }
        let part = LanePartition { lanes, link_owner };
        if plan.events.iter().any(|ev| part.fault_owner(ev.kind).is_none()) {
            return None;
        }
        Some(part)
    }

    /// The lane that must inject `kind`, or `None` when the fault's effect
    /// crosses lanes (which disqualifies the whole partition).
    fn fault_owner(&self, kind: FaultKind) -> Option<usize> {
        match kind {
            FaultKind::SsdStall { ssd, .. } => (ssd < self.lanes).then_some(ssd),
            FaultKind::PrepSlowdown { dev, .. } => (dev < self.lanes).then_some(dev),
            // A degraded link only reshapes flows that cross it; a link no
            // lane uses still gets injected (once, by lane 0) so the fault
            // statistics match the solo path.
            FaultKind::LinkDegrade { link, .. } => {
                Some(self.link_owner.get(link).copied().flatten().unwrap_or(0))
            }
            FaultKind::PrepCrash { .. }
            | FaultKind::PrepTransient { .. }
            | FaultKind::AccelDropout { .. } => None,
        }
    }

    /// The sub-plan lane `lane` replays: exactly the events it owns, same
    /// retry policy. Filtering preserves order, and every event lands in
    /// exactly one lane (see [`LanePartition::merge_faults`]).
    fn plan_for_lane(&self, plan: &FaultPlan, lane: usize) -> FaultPlan {
        FaultPlan {
            events: plan
                .events
                .iter()
                .copied()
                .filter(|ev| self.fault_owner(ev.kind) == Some(lane))
                .collect(),
            retry: plan.retry,
        }
    }

    /// Merge the lanes' fault statistics into what one engine over the whole
    /// server reports. Counters add. Each lane logs one downtime entry per
    /// injected fault in its sub-plan's firing order, which is the whole
    /// plan's firing order ([`FaultPlan::sorted_events`]) restricted to the
    /// lane; ranking every entry by its event's place in that order restores
    /// the single engine's injection order.
    fn merge_faults(&self, plan: &FaultPlan, mut per_lane: Vec<FaultStats>) -> FaultStats {
        let mut ranks = vec![Vec::new(); self.lanes];
        for (rank, ev) in plan.sorted_events().iter().enumerate() {
            if let Some(lane) = self.fault_owner(ev.kind) {
                ranks[lane].push(rank);
            }
        }
        let mut downtime: Vec<(usize, FaultDowntime)> = per_lane
            .iter_mut()
            .zip(&ranks)
            .flat_map(|(s, r)| r.iter().copied().zip(std::mem::take(&mut s.downtime)))
            .collect();
        downtime.sort_by_key(|&(rank, _)| rank);
        let mut merged = merge_fault_stats(per_lane);
        merged.downtime = downtime.into_iter().map(|(_, d)| d).collect();
        merged
    }
}

/// One closed generation as the coordinator saw it: the latest lane arrival,
/// the granted release, and the lookahead in force that window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneWindow {
    pub(crate) max_arrival: SimTime,
    pub(crate) release: SimTime,
    pub(crate) lookahead: SimTime,
}

/// The ring barrier between lanes: every generation closes at
/// `max(lane arrivals) + lookahead`, where the lookahead is the full-ring
/// all-reduce time — identical to the interval the solo path spans between
/// starting the sync and [`Ev::SyncDone`].
pub(crate) struct LaneCoord<T: Tracer> {
    t_sync: SimTime,
    releases: Vec<SimTime>,
    windows: Vec<LaneWindow>,
    _lp: PhantomData<fn(T)>,
}

impl<T: Tracer> LaneCoord<T> {
    pub(crate) fn new(t_sync: SimTime) -> Self {
        LaneCoord { t_sync, releases: Vec::new(), windows: Vec::new(), _lp: PhantomData }
    }

    /// The lookahead for the window being closed, recomputed at every
    /// barrier. It is the *minimum cross-lane event latency*: after a lane
    /// parks, the earliest instant another lane can affect it is the global
    /// sync completion, one full-ring all-reduce after the last arrival.
    /// Today that is a constant — lane mode excludes the dropout faults
    /// that re-form the ring — but a survivor-aware ring would change the
    /// value here, per window, without touching the protocol.
    fn window_lookahead(&self) -> SimTime {
        self.t_sync
    }

    /// Per-window barrier records (for tests and diagnostics).
    pub(crate) fn windows(&self) -> &[LaneWindow] {
        &self.windows
    }
}

impl<T: Tracer + Send> Coordinator for LaneCoord<T> {
    type Lp = ClusterLp<T>;

    fn exchange(
        &mut self,
        offers: Vec<LpOffer>,
    ) -> Result<Option<Vec<Option<SimTime>>>, SimError> {
        let latest = offers
            .iter()
            .filter_map(|o| match o {
                LpOffer::Barrier(now) => Some(*now),
                LpOffer::Done => None,
            })
            .max();
        let Some(latest) = latest else {
            return Ok(None); // every lane closed its final generation
        };
        // Identical target batches keep lanes in generation lockstep; a
        // mixed Barrier/Done window would be a protocol bug.
        let lookahead = self.window_lookahead();
        let release = latest.saturating_add(lookahead);
        self.windows.push(LaneWindow { max_arrival: latest, release, lookahead });
        self.releases.push(release);
        Ok(Some(
            offers
                .iter()
                .map(|o| match o {
                    LpOffer::Barrier(_) => Some(release),
                    LpOffer::Done => None,
                })
                .collect(),
        ))
    }
}

/// Simulate one server with its pipeline partitioned into lanes, under the
/// conservative window runner. Called from
/// [`crate::pipeline::try_simulate_traced_deadline`] for every eligible
/// `(server, plan)`; `cfg.parallel_workers` only selects how many threads
/// advance the lanes (`0`/`1` = the byte-identical sequential reference).
///
/// # Errors
///
/// A [`DesFailure`] exactly like the single-engine path's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_lanes_traced_deadline<T: ForkTracer + Send>(
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
    part: &LanePartition,
    mut tracer: T,
    deadline: Option<Instant>,
) -> Result<(SimResult, T, par::RunStats), DesFailure> {
    let n = server.n_accels();
    // Same expression the model evaluates for its own `t_sync`, so the
    // coordinator's releases are bit-identical to the solo path's SyncDone
    // times (for any declared sync pattern, not just the ring).
    let eff = crate::profile::effective_workload(workload);
    let t_sync = server.sync_model(&eff).sync_time(eff.model_bytes(), n);

    let mut lps: Vec<ClusterLp<T>> = (0..part.lanes)
        .map(|l| {
            let lane_plan = part.plan_for_lane(plan, l);
            let mut model =
                PipelineModel::new(server, workload, cfg, &lane_plan, tracer.fork());
            model.set_lane(l * ACCELS_PER_LANE..(l + 1) * ACCELS_PER_LANE);
            let mut engine = Engine::new(model);
            engine.schedule_at(SimTime::ZERO, Ev::Start);
            ClusterLp { engine, max_events: cfg.max_events, deadline }
        })
        .collect();
    let mut coord = LaneCoord::<T>::new(t_sync);
    let stats = match par::run_windows_with(
        &mut coord,
        &mut lps,
        cfg.parallel_workers,
        WindowPolicy::fine_grained(),
    ) {
        Ok(stats) => stats,
        Err(error) => {
            let events = lps.iter().map(|lp| lp.engine.events_processed()).sum();
            let partial = part.merge_faults(
                plan,
                lps.iter().map(|lp| lp.engine.model().fault_stats().clone()).collect(),
            );
            return Err(DesFailure { error, events, partial_faults: partial });
        }
    };

    debug_assert!(
        coord
            .windows()
            .iter()
            .all(|w| w.release >= w.max_arrival.saturating_add(w.lookahead)),
        "every release must honor the window's lookahead"
    );
    let releases = coord.releases;
    debug_assert_eq!(releases.len() as u64, cfg.batches, "one release per generation");
    let warm = cfg.warmup_batches as usize;
    let first = releases[warm - 1];
    let last = *releases.last().expect("generations completed");
    let window = (last - first).as_secs_f64();
    let batches_measured = (cfg.batches - cfg.warmup_batches) as f64;

    let models: Vec<PipelineModel<T>> =
        lps.into_iter().map(|lp| lp.engine.into_model()).collect();
    // Each lane recorded only its own accelerators; per-generation sums
    // reconstruct the full server's counts.
    let batch_samples: Vec<u64> = (0..cfg.batches as usize)
        .map(|g| models.iter().map(|m| m.batch_samples()[g]).sum())
        .collect();
    let samples: u64 = batch_samples[warm..].iter().sum();
    let effective = samples as f64 / window;
    let useful: u64 = batch_samples.iter().sum();
    let recomputes: u64 = models.iter().map(PipelineModel::recompute_count).sum();
    let batch = models[0].batch_size();

    // Lanes' flows never share a link, so elementwise addition reproduces
    // the solo path's per-link byte totals exactly.
    let n_links = models[0].link_bytes().len();
    let mut link_bytes = vec![0.0f64; n_links];
    for m in &models {
        for (slot, b) in link_bytes.iter_mut().zip(m.link_bytes()) {
            *slot += b;
        }
    }
    let rc_bytes = server
        .topology()
        .rc_links()
        .iter()
        .map(|l| link_bytes[l.index()])
        .sum();

    let mut faults =
        part.merge_faults(plan, models.iter().map(|m| m.fault_stats().clone()).collect());
    // Lane mode excludes permanent losses, but keep the solo path's NaN
    // resolution so the accounting can never diverge.
    let end = last.as_secs_f64();
    for d in &mut faults.downtime {
        if d.secs.is_nan() {
            d.secs = (end - d.at_secs).max(0.0);
        }
    }
    faults.nominal_samples_per_sec = batches_measured * n as f64 * batch as f64 / window;
    faults.goodput_samples_per_sec = if faults.wasted_samples == 0 {
        effective
    } else {
        effective * useful as f64 / (useful + faults.wasted_samples) as f64
    };

    let result = SimResult {
        samples_per_sec: effective,
        batch_done_at: releases,
        events: stats.total_events(),
        recomputes,
        link_bytes,
        rc_bytes,
        faults,
        tenancy: None,
    };
    // Per-lane streams merge in lane-index order — deterministic for any
    // worker count, same discipline as the cluster runner.
    let parts: Vec<T> = models.into_iter().map(PipelineModel::into_tracer).collect();
    tracer.absorb(parts, CLUSTER_TRACK_STRIDE);
    Ok((result, tracer, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ServerConfig;
    use crate::faults::FaultEvent;

    fn trainbox_nopool(n: usize) -> Server {
        ServerConfig::new(ServerKind::TrainBoxNoPool, n).build()
    }

    #[test]
    fn eligibility_is_a_pure_function_of_server_and_plan() {
        let empty = FaultPlan::empty();
        let part = LanePartition::of(&trainbox_nopool(16), &empty)
            .expect("16-accel TrainBoxNoPool partitions");
        assert_eq!(part.lanes, 4);

        // One lane is not a partition; the solo engine handles it.
        assert!(LanePartition::of(&trainbox_nopool(4), &empty).is_none());
        // The pooled TrainBox shares a global Ethernet star.
        let pooled = ServerConfig::new(ServerKind::TrainBox, 16).build();
        assert!(LanePartition::of(&pooled, &empty).is_none());
        // Staged designs funnel refill traffic through host memory.
        let base = ServerConfig::new(ServerKind::Baseline, 16).build();
        assert!(LanePartition::of(&base, &empty).is_none());
    }

    #[test]
    fn cross_lane_faults_disqualify_lane_local_ones_do_not() {
        let server = trainbox_nopool(16);
        let local = FaultPlan {
            events: vec![
                FaultEvent { at_secs: 1e-4, kind: FaultKind::SsdStall { ssd: 1, secs: 1e-4 } },
                FaultEvent {
                    at_secs: 2e-4,
                    kind: FaultKind::PrepSlowdown { dev: 2, factor: 0.5, secs: 1e-4 },
                },
                FaultEvent {
                    at_secs: 3e-4,
                    kind: FaultKind::LinkDegrade { link: 0, fraction: 0.5, secs: 1e-4 },
                },
            ],
            retry: Default::default(),
        };
        let part = LanePartition::of(&server, &local).expect("lane-local plan qualifies");
        assert_eq!(part.fault_owner(local.events[0].kind), Some(1));
        assert_eq!(part.fault_owner(local.events[1].kind), Some(2));

        for kind in [
            FaultKind::PrepCrash { dev: 0 },
            FaultKind::AccelDropout { acc: 3 },
            FaultKind::PrepTransient { dev: 1, secs: 1e-4 },
        ] {
            let plan = FaultPlan {
                events: vec![FaultEvent { at_secs: 1e-4, kind }],
                retry: Default::default(),
            };
            assert!(
                LanePartition::of(&server, &plan).is_none(),
                "{} must fall back to the single engine",
                kind.label()
            );
        }
    }

    #[test]
    fn every_fault_lands_in_exactly_one_lane() {
        let server = trainbox_nopool(32);
        let plan = FaultPlan {
            events: (0..8)
                .map(|i| FaultEvent {
                    at_secs: 1e-4 * i as f64,
                    kind: FaultKind::SsdStall { ssd: i % 8, secs: 1e-5 },
                })
                .collect(),
            retry: Default::default(),
        };
        let part = LanePartition::of(&server, &plan).expect("eligible");
        let total: usize =
            (0..part.lanes).map(|l| part.plan_for_lane(&plan, l).events.len()).sum();
        assert_eq!(total, plan.events.len());
    }

    #[test]
    fn lookahead_lower_bounds_actual_cross_lane_latency() {
        // Protocol property, checked on the coordinator itself: whatever a
        // lane offered, the granted release is at least its own arrival plus
        // the window's lookahead — no lane can observe another before the
        // lookahead elapses, which is what makes the conservative window
        // sound.
        let t_sync = SimTime::from_secs_f64(1.5e-3);
        let mut coord = LaneCoord::<trainbox_sim::NoopTracer>::new(t_sync);
        let arrivals = [3.0e-3, 2.0e-3, 3.5e-3, 1.0e-3];
        let offers: Vec<LpOffer> = arrivals
            .iter()
            .map(|&s| LpOffer::Barrier(SimTime::from_secs_f64(s)))
            .collect();
        let grants = coord.exchange(offers).expect("exchange ok").expect("grants");
        let w = coord.windows()[0];
        assert!(w.lookahead > SimTime::ZERO, "lookahead must be positive");
        assert_eq!(w.lookahead, t_sync);
        for (&s, grant) in arrivals.iter().zip(grants) {
            let release = grant.expect("every parked lane gets a release");
            let arrival = SimTime::from_secs_f64(s);
            assert!(
                release >= arrival.saturating_add(w.lookahead),
                "release {release:?} violates the lookahead bound for arrival {arrival:?}"
            );
        }
        // All-done window ends the protocol.
        let done = vec![LpOffer::Done, LpOffer::Done, LpOffer::Done, LpOffer::Done];
        assert!(coord.exchange(done).expect("exchange ok").is_none());
    }

    #[test]
    fn lane_releases_are_spaced_by_at_least_the_lookahead() {
        // End-to-end: in a real partitioned run, consecutive generation
        // closes are separated by at least one full-ring sync — the next
        // generation's last arrival cannot precede the previous release.
        let server = trainbox_nopool(8);
        let w = Workload::resnet50();
        let cfg = SimConfig {
            chunk_samples: 128,
            batches: 4,
            warmup_batches: 1,
            max_events: 5_000_000,
            ..SimConfig::default()
        };
        let t_sync = server.ring_model().allreduce_time(w.model_bytes(), 8);
        let (result, _) = crate::pipeline::try_simulate_traced_deadline(
            &server,
            &w,
            &cfg,
            &FaultPlan::empty(),
            trainbox_sim::NoopTracer,
            None,
        )
        .expect("run completes");
        assert_eq!(result.batch_done_at.len(), 4);
        for pair in result.batch_done_at.windows(2) {
            assert!(
                pair[1] >= pair[0].saturating_add(t_sync),
                "generations must be separated by the ring sync"
            );
        }
    }

    #[test]
    fn lane_runner_reports_what_the_single_engine_reports() {
        // The lane runner must give the same answer as one engine over the
        // whole server, fault downtime in injection order included. Only
        // `events` may differ: lanes also count their barrier events.
        use crate::pipeline::simulate_single_engine;
        use trainbox_sim::NoopTracer;
        let w = Workload::resnet50();
        let cfg = SimConfig {
            chunk_samples: 128,
            batches: 4,
            warmup_batches: 1,
            max_events: 5_000_000,
            ..SimConfig::default()
        };
        let json = |mut r: SimResult| {
            r.events = 0;
            serde_json::to_string(&r).expect("SimResult serializes")
        };
        for n in [8, 16] {
            let server = trainbox_nopool(n);
            let last = n / ACCELS_PER_LANE - 1;
            let (healthy, _) =
                simulate_single_engine(&server, &w, &cfg, &FaultPlan::empty(), NoopTracer, None)
                    .expect("healthy run completes");
            let end = healthy.batch_done_at.last().expect("batches").as_secs_f64();
            // Lane-local faults whose injection order interleaves the lanes,
            // with a cross-lane tie at one instant that plan order breaks.
            let storm = FaultPlan::empty()
                .at(end * 0.4, FaultKind::SsdStall { ssd: 0, secs: end * 0.1 })
                .at(end * 0.2, FaultKind::SsdStall { ssd: last, secs: end * 0.1 })
                .at(end * 0.5, FaultKind::PrepSlowdown { dev: last, factor: 0.5, secs: end * 0.1 })
                .at(end * 0.5, FaultKind::PrepSlowdown { dev: 0, factor: 0.5, secs: end * 0.2 });
            for plan in [FaultPlan::empty(), storm] {
                let part = LanePartition::of(&server, &plan).expect("lane-local plan partitions");
                let (lanes, _, _) = simulate_lanes_traced_deadline(
                    &server, &w, &cfg, &plan, &part, NoopTracer, None,
                )
                .expect("lane run completes");
                let (solo, _) = simulate_single_engine(&server, &w, &cfg, &plan, NoopTracer, None)
                    .expect("single-engine run completes");
                assert_eq!(lanes.faults.injected, plan.events.len() as u64);
                let faults = plan.events.len();
                assert_eq!(json(lanes), json(solo), "{n} accelerators, {faults} faults");
            }
        }
    }
}
