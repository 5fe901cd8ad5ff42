//! Scale-up vs scale-out (§III-A).
//!
//! The paper justifies a single giant node over a cluster with three
//! arguments: (1) shared host resources lower TCO; (2) intra-node
//! accelerator fabrics are an order of magnitude faster than NICs, so
//! scale-out synchronization drags — *"a scale-out system with 96 DGX-2
//! shows only 39.7× improvement over one DGX-2 in MLPerf results"*; (3) a
//! single OS keeps the software simple. This module models (1) and (2).

use crate::arch::Server;
use crate::faults::{FaultPlan, FaultStats};
use crate::pipeline::{DesFailure, Ev, PipelineModel, SimConfig};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;
use std::time::Instant;
use trainbox_collective::{HierarchicalModel, RingModel};
use trainbox_nn::Workload;
use trainbox_sim::par::{self, Coordinator, WindowedLp};
use trainbox_sim::{Engine, SimError, SimTime, Tracer};

/// A scale-out cluster: `nodes` hosts of `accels_per_node` accelerators,
/// NVLink-class fabric inside a node, NIC-grade links between nodes.
///
/// The model captures the two effects that make scale-out drag (§III-A):
/// the inter-node ring runs at NIC speed, and — because the *global* batch
/// is capped to preserve accuracy — adding nodes shrinks each accelerator's
/// local batch, eroding its efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleOutCluster {
    /// Number of hosts.
    pub nodes: usize,
    /// Accelerators per host (16 for a DGX-2 class node).
    pub accels_per_node: usize,
    /// Inter-node link bandwidth, bytes/s (§III-A: "100 Gbps NIC").
    pub nic_bytes_per_sec: f64,
    /// Inter-node per-hop latency, seconds (kernel network stack + switch;
    /// orders of magnitude above NVLink's).
    pub nic_hop_secs: f64,
    /// Intra-node fabric model.
    pub fabric: RingModel,
    /// Largest global batch that preserves accuracy (§II-B third fold).
    pub global_batch_cap: u64,
}

impl ScaleOutCluster {
    /// A DGX-2-style cluster: 16 accelerators per node, 100 Gb NICs, ~10 µs
    /// effective per-hop network latency.
    pub fn dgx2_style(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        ScaleOutCluster {
            nodes,
            accels_per_node: 16,
            nic_bytes_per_sec: 12.5e9,
            nic_hop_secs: 10e-6,
            fabric: RingModel::nvlink_default(),
            global_batch_cap: 32_768,
        }
    }

    /// Accelerator efficiency at local batch `b` relative to large batches:
    /// `b/(b+16)` — the gentle GPU-utilization curve of the scale-out era
    /// (half rate at batch 16), distinct from the aggressive TPU curve in
    /// `calib::batch_efficiency`.
    fn local_efficiency(b: f64) -> f64 {
        b / (b + 16.0)
    }

    /// Total accelerators.
    pub fn accels(&self) -> usize {
        self.nodes * self.accels_per_node
    }

    /// Hierarchical synchronization time: intra-node ring, then an
    /// inter-node ring over the NICs, then intra-node broadcast (folded into
    /// the intra term). The inter-node ring's bandwidth term runs at NIC
    /// speed — the §III-A bottleneck.
    pub fn sync_secs(&self, model_bytes: u64) -> f64 {
        let intra = self.fabric.allreduce_secs(model_bytes, self.accels_per_node);
        if self.nodes == 1 {
            return intra;
        }
        let inter = RingModel {
            link_bytes_per_sec: self.nic_bytes_per_sec,
            hop_latency_secs: self.nic_hop_secs,
            chunk_bytes: 64 * 1024,
        }
        .allreduce_secs(model_bytes, self.nodes);
        intra + inter
    }

    /// Cluster training throughput for `workload`, assuming per-node data
    /// preparation is fully provisioned (the comparison isolates
    /// synchronization + batch effects, as MLPerf entries do). The global
    /// batch is capped, so each accelerator runs `cap / accels` samples per
    /// step.
    pub fn throughput(&self, workload: &Workload) -> f64 {
        let local = (self.global_batch_cap as f64 / self.accels() as f64).max(1.0);
        let rate = workload.accel_samples_per_sec * Self::local_efficiency(local);
        let t_comp = local / rate;
        let t_sync = self.sync_secs(workload.model_bytes());
        self.accels() as f64 * local / (t_comp + t_sync)
    }

    /// Throughput relative to a single node of the same design.
    pub fn speedup_over_one_node(&self, workload: &Workload) -> f64 {
        let one = ScaleOutCluster { nodes: 1, ..*self };
        self.throughput(workload) / one.throughput(workload)
    }
}

/// Host-resource TCO model (§III-A benefit 1): every node of a scale-out
/// cluster carries its own CPUs, DRAM, NICs, and chassis; a scale-up system
/// amortizes one host across all accelerators (plus its prep FPGAs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TcoModel {
    /// Cost of one accelerator (the dominant, design-independent term).
    pub accel_cost: f64,
    /// Cost of one host (CPUs + DRAM + chassis + NICs).
    pub host_cost: f64,
    /// Cost of one prep FPGA (TrainBox adds 1 per 4 accelerators).
    pub fpga_cost: f64,
}

impl TcoModel {
    /// Working dollar figures: $10k accelerator, $30k host, $5k FPGA.
    pub fn default_costs() -> Self {
        TcoModel { accel_cost: 10_000.0, host_cost: 30_000.0, fpga_cost: 5_000.0 }
    }

    /// Cost of a scale-out cluster serving `accels` accelerators with
    /// `accels_per_node` per host.
    pub fn scale_out_cost(&self, accels: usize, accels_per_node: usize) -> f64 {
        assert!(accels_per_node > 0, "need accelerators per node");
        let nodes = accels.div_ceil(accels_per_node) as f64;
        accels as f64 * self.accel_cost + nodes * self.host_cost
    }

    /// Cost of a scale-up TrainBox rack serving `accels` accelerators: one
    /// host plus a prep FPGA per four accelerators.
    pub fn scale_up_cost(&self, accels: usize) -> f64 {
        accels as f64 * self.accel_cost
            + self.host_cost
            + (accels as f64 / 4.0).ceil() * self.fpga_cost
    }
}

/// Track-lane stride between servers when merging cluster traces: server
/// `i`'s lanes are offset by `i * CLUSTER_TRACK_STRIDE` so same-named lanes
/// from different servers stay distinguishable in the Chrome export.
pub const CLUSTER_TRACK_STRIDE: u32 = 4096;

/// A multi-rack TrainBox cluster for the DES: `servers` identical servers
/// (each simulated at full datapath fidelity) joined by a two-tier Ethernet
/// fabric — a ToR ring within each rack, a spine ring across racks.
///
/// This is the scenario the paper's evaluation could not touch (its simulator
/// is single-server); the conservative parallel engine in
/// [`trainbox_sim::par`] makes it tractable: each server is one logical
/// process, and the only cross-server interaction is the global gradient
/// synchronization, which happens at window boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClusterSpec {
    /// Number of servers (≥ 1).
    pub servers: usize,
    /// Servers attached to one ToR switch (≥ 1).
    pub servers_per_rack: usize,
    /// ToR-tier ring link model (NIC + ToR switch path).
    pub tor: RingModel,
    /// Spine-tier ring link model (rack-to-rack path).
    pub spine: RingModel,
}

impl ClusterSpec {
    /// A rack-scale default: 8 servers per rack, 100 GbE to the ToR (5 µs
    /// effective hop), 400 GbE rack-to-rack (10 µs hop), 64 KiB chunks.
    pub fn rack_default(servers: usize) -> Self {
        ClusterSpec {
            servers,
            servers_per_rack: 8,
            tor: RingModel {
                link_bytes_per_sec: 12.5e9,
                hop_latency_secs: 5e-6,
                chunk_bytes: 64 * 1024,
            },
            spine: RingModel {
                link_bytes_per_sec: 50e9,
                hop_latency_secs: 10e-6,
                chunk_bytes: 64 * 1024,
            },
        }
    }

    /// Validate the spec, naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers == 0 {
            return Err("cluster.servers must be at least 1".to_string());
        }
        if self.servers_per_rack == 0 {
            return Err("cluster.servers_per_rack must be at least 1".to_string());
        }
        for (name, m) in [("tor", &self.tor), ("spine", &self.spine)] {
            if !(m.link_bytes_per_sec.is_finite() && m.link_bytes_per_sec > 0.0) {
                return Err(format!("cluster.{name}.link_bytes_per_sec must be positive"));
            }
            if !(m.hop_latency_secs.is_finite() && m.hop_latency_secs >= 0.0) {
                return Err(format!("cluster.{name}.hop_latency_secs must be non-negative"));
            }
            if m.chunk_bytes == 0 {
                return Err(format!("cluster.{name}.chunk_bytes must be at least 1"));
            }
        }
        Ok(())
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.servers.div_ceil(self.servers_per_rack)
    }

    /// The cross-server phase of each global synchronization, seconds: a
    /// hierarchical all-reduce — ToR ring over the fullest rack's servers,
    /// then a spine ring over the racks ([`HierarchicalModel`]). Zero for a
    /// single server. The intra-server phase is *not* included: the DES
    /// simulates it per-server (`t_sync`), and the analytic twin reads it
    /// from the server model.
    pub fn cross_sync_secs(&self, model_bytes: u64) -> f64 {
        if self.servers <= 1 {
            return 0.0;
        }
        let tor_ring = self.servers.min(self.servers_per_rack);
        HierarchicalModel::new()
            .tier(self.tor, tor_ring)
            .tier(self.spine, self.racks())
            .allreduce_secs(model_bytes)
    }

    /// Closed-form cluster throughput: every server steps at its solo pace
    /// (intra-server contention and local sync included, from the analytic
    /// server model), and each step additionally pays the cross-server
    /// synchronization phase.
    pub fn analytic(&self, server: &Server, workload: &Workload) -> ClusterThroughput {
        let solo = server.throughput(workload).samples_per_sec;
        let step_samples = server.batch_for(workload) * server.n_accels() as u64;
        let t_step = step_samples as f64 / solo;
        let cross = self.cross_sync_secs(workload.model_bytes());
        let per_server = step_samples as f64 / (t_step + cross);
        ClusterThroughput {
            samples_per_sec: self.servers as f64 * per_server,
            per_server_samples_per_sec: per_server,
            solo_samples_per_sec: solo,
            cross_sync_secs: cross,
            speedup_over_one_server: self.servers as f64 * per_server / solo,
            servers: self.servers,
            total_accels: self.servers * server.n_accels(),
        }
    }
}

// Lenient: `servers` is required, everything else defaults to
// [`ClusterSpec::rack_default`].
impl Deserialize for ClusterSpec {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("ClusterSpec", "object"))?;
        let mut servers = None;
        let mut cluster = ClusterSpec::rack_default(1);
        for (key, val) in obj {
            if matches!(val, serde::json::Json::Null) {
                continue;
            }
            match key.as_str() {
                "servers" => servers = Some(Deserialize::from_json(val)?),
                "servers_per_rack" => cluster.servers_per_rack = Deserialize::from_json(val)?,
                "tor" => cluster.tor = Deserialize::from_json(val)?,
                "spine" => cluster.spine = Deserialize::from_json(val)?,
                other => {
                    return Err(serde::json::JsonError::new(format!(
                        "unknown field `{other}` in cluster spec"
                    )))
                }
            }
        }
        cluster.servers = servers
            .ok_or_else(|| serde::json::JsonError::missing_field("ClusterSpec", "servers"))?;
        Ok(cluster)
    }
}

/// Closed-form answer for a cluster question ([`ClusterSpec::analytic`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClusterThroughput {
    /// Aggregate cluster throughput, samples/s.
    pub samples_per_sec: f64,
    /// Throughput of one member server inside the cluster (solo pace
    /// stretched by the cross-server sync phase).
    pub per_server_samples_per_sec: f64,
    /// The same server running alone (no cluster), samples/s.
    pub solo_samples_per_sec: f64,
    /// Cross-server phase of each synchronization, seconds.
    pub cross_sync_secs: f64,
    /// `samples_per_sec` relative to the solo server.
    pub speedup_over_one_server: f64,
    /// Servers in the cluster.
    pub servers: usize,
    /// Total accelerators across the cluster.
    pub total_accels: usize,
}

/// Result of a cluster DES run ([`simulate_cluster_traced_deadline`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterResult {
    /// Aggregate steady-state throughput over the measured window,
    /// samples/s (all servers).
    pub samples_per_sec: f64,
    /// Global completion time of every generation (after the cross-server
    /// phase) — the coordinator's barrier release times.
    pub batch_done_at: Vec<SimTime>,
    /// Events processed across all servers.
    pub events: u64,
    /// Max-min rate recomputations across all servers' flow simulators.
    pub recomputes: u64,
    /// Synchronization windows the parallel runner crossed.
    pub windows: u64,
    /// Cross-server phase per synchronization, seconds.
    pub cross_sync_secs: f64,
    /// Servers simulated.
    pub servers: usize,
    /// Events per server (the partition load the runner balanced).
    pub server_events: Vec<u64>,
    /// Max/mean ratio of `server_events` (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Work-span speedup bound at 4 workers for this run's windows — the
    /// scaling a 4-core host could achieve on this partition.
    pub work_span_speedup_4: f64,
    /// Merged fault-layer statistics (the plan replays on server 0).
    pub faults: FaultStats,
}

/// One barrier-parking partition as a logical process: a private engine plus
/// its share of the global event budget and the shared wall-clock deadline.
///
/// Shared between the cluster runner (one LP per server) and the
/// intra-server lane runner (`crate::intraserver`, one LP per lane) — both
/// partitions park their model at `at_barrier` and resume on a coordinator
/// grant.
pub(crate) struct ClusterLp<T: Tracer> {
    pub(crate) engine: Engine<PipelineModel<T>>,
    pub(crate) max_events: u64,
    pub(crate) deadline: Option<Instant>,
}

/// What a partition reports at a window boundary.
pub(crate) enum LpOffer {
    /// Local ring sync finished at `now`; parked at the global barrier.
    Barrier(SimTime),
    /// All generations closed.
    Done,
}

impl<T: Tracer + Send> WindowedLp for ClusterLp<T> {
    type Offer = LpOffer;
    /// The coordinator's global release time (`None` for already-done LPs).
    type Grant = Option<SimTime>;

    fn advance(&mut self) -> Result<LpOffer, SimError> {
        if self.engine.model().is_done() {
            return Ok(LpOffer::Done);
        }
        let budget = self.max_events.saturating_sub(self.engine.events_processed());
        let hit = self.engine.run_while_deadline(budget, self.deadline, |m| {
            m.is_done() || m.at_barrier()
        })?;
        if !hit {
            return Err(SimError::Stalled {
                events: self.engine.events_processed(),
                queued: self.engine.queued(),
            });
        }
        if self.engine.model_mut().take_barrier() {
            Ok(LpOffer::Barrier(self.engine.now()))
        } else {
            Ok(LpOffer::Done)
        }
    }

    fn apply(&mut self, grant: Option<SimTime>) -> Result<(), SimError> {
        if let Some(release) = grant {
            self.engine.schedule_at(release, Ev::ClusterResume);
        }
        Ok(())
    }

    fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }
}

/// The global synchronization barrier: every generation closes at
/// `max(local sync completion) + cross_sync` across all servers.
struct BarrierCoord<T: Tracer> {
    cross_sync: SimTime,
    releases: Vec<SimTime>,
    _lp: PhantomData<fn(T)>,
}

impl<T: Tracer + Send> Coordinator for BarrierCoord<T> {
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
            return Ok(None); // every server closed its final generation
        };
        // Identical target batches keep the servers in generation lockstep,
        // so a mixed Barrier/Done window would be a protocol bug; done LPs
        // simply receive no grant.
        let release = latest.saturating_add(self.cross_sync);
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

pub(crate) fn merge_fault_stats(per_server: Vec<FaultStats>) -> FaultStats {
    let mut merged = FaultStats::default();
    for s in per_server {
        merged.injected += s.injected;
        merged.retries += s.retries;
        merged.failed_requests += s.failed_requests;
        merged.wasted_samples += s.wasted_samples;
        merged.accels_lost += s.accels_lost;
        merged.preps_lost += s.preps_lost;
        merged.downtime.extend(s.downtime);
    }
    merged
}

/// Simulate a cluster of `cluster.servers` identical `server`s at full DES
/// fidelity, with the cross-server synchronization handled by the
/// conservative parallel runner ([`par::run_windows`]).
///
/// * Each server is one logical process; `cfg.parallel_workers` selects how
///   many threads advance them (`0`/`1` = the sequential reference; results
///   are byte-identical for any value).
/// * The fault `plan` replays on **server 0 only** — a fault storm strikes
///   specific hardware, not every rack identically — which also makes the
///   load imbalance observable.
/// * `make_tracer(i)` builds server `i`'s private tracer; sharing one tracer
///   across logical processes would interleave records in thread order, so
///   the per-server streams are kept separate and merged deterministically
///   afterwards ([`trainbox_sim::trace::merge_lp_records`] with
///   [`CLUSTER_TRACK_STRIDE`]).
///
/// # Errors
///
/// A [`DesFailure`] exactly like the solo path's: `DeadlineExceeded` when
/// the shared wall-clock deadline expires (no panic, no deadlock — the
/// window barrier is the only synchronization point), `Stalled` when a
/// server exhausts the event budget.
///
/// # Panics
///
/// Under the conditions of [`crate::pipeline::try_simulate_traced_deadline`]
/// (invalid config or fault plan), or if `cluster` fails
/// [`ClusterSpec::validate`].
pub fn simulate_cluster_traced_deadline<T: Tracer + Send>(
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
    cluster: &ClusterSpec,
    mut make_tracer: impl FnMut(usize) -> T,
    deadline: Option<Instant>,
) -> Result<(ClusterResult, Vec<T>), DesFailure> {
    assert!(cfg.batches > cfg.warmup_batches, "need batches after warmup");
    if let Err(e) = cluster.validate() {
        panic!("invalid cluster spec: {e}");
    }
    let cross_secs = cluster.cross_sync_secs(workload.model_bytes());
    let empty_plan = FaultPlan::empty();
    let mut lps: Vec<ClusterLp<T>> = (0..cluster.servers)
        .map(|i| {
            let lp_plan = if i == 0 { plan } else { &empty_plan };
            let mut model =
                PipelineModel::new(server, workload, cfg, lp_plan, make_tracer(i));
            model.set_cluster_hold();
            let mut engine = Engine::new(model);
            engine.schedule_at(SimTime::ZERO, Ev::Start);
            ClusterLp { engine, max_events: cfg.max_events, deadline }
        })
        .collect();
    let mut coord = BarrierCoord::<T> {
        cross_sync: SimTime::from_secs_f64(cross_secs),
        releases: Vec::new(),
        _lp: PhantomData,
    };
    let stats = match par::run_windows(&mut coord, &mut lps, cfg.parallel_workers) {
        Ok(stats) => stats,
        Err(error) => {
            let events = lps.iter().map(|lp| lp.engine.events_processed()).sum();
            let partial = merge_fault_stats(
                lps.iter().map(|lp| lp.engine.model().fault_stats().clone()).collect(),
            );
            return Err(DesFailure { error, events, partial_faults: partial });
        }
    };

    let releases = coord.releases;
    debug_assert_eq!(releases.len() as u64, cfg.batches, "one release per generation");
    let warm = cfg.warmup_batches as usize;
    let first = releases[warm - 1];
    let last = *releases.last().expect("generations completed");
    let window = (last - first).as_secs_f64();
    let batches_measured = (cfg.batches - cfg.warmup_batches) as f64;

    let models: Vec<PipelineModel<T>> =
        lps.into_iter().map(|lp| lp.engine.into_model()).collect();
    let samples: u64 = models
        .iter()
        .flat_map(|m| m.batch_samples()[warm..].iter())
        .sum();
    let effective = samples as f64 / window;
    let useful: u64 = models.iter().flat_map(|m| m.batch_samples().iter()).sum();
    let recomputes: u64 = models.iter().map(PipelineModel::recompute_count).sum();
    let n0: f64 = models.iter().map(|m| m.n_accels() as f64).sum();
    let batch = models[0].batch_size();

    let mut faults =
        merge_fault_stats(models.iter().map(|m| m.fault_stats().clone()).collect());
    let end = last.as_secs_f64();
    for d in &mut faults.downtime {
        if d.secs.is_nan() {
            d.secs = (end - d.at_secs).max(0.0);
        }
    }
    faults.nominal_samples_per_sec = batches_measured * n0 * batch as f64 / window;
    faults.goodput_samples_per_sec = if faults.wasted_samples == 0 {
        effective
    } else {
        effective * useful as f64 / (useful + faults.wasted_samples) as f64
    };

    let result = ClusterResult {
        samples_per_sec: effective,
        batch_done_at: releases,
        events: stats.total_events(),
        recomputes,
        windows: stats.windows,
        cross_sync_secs: cross_secs,
        servers: cluster.servers,
        imbalance: par::imbalance(&stats.lp_events),
        work_span_speedup_4: par::work_span_speedup(&stats.window_events, 4),
        server_events: stats.lp_events,
        faults,
    };
    let tracers = models.into_iter().map(PipelineModel::into_tracer).collect();
    Ok((result, tracers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerKind;

    #[test]
    fn mlperf_scale_out_inefficiency_reproduced() {
        // §III-A: 96 DGX-2 give only ~39.7x one DGX-2 (41% efficiency) in
        // MLPerf. Across the Table-I workloads our model's 96-node speedups
        // span the same far-below-linear regime, with the best workload in
        // the tens and parameter-heavy VGG-19 in the single digits.
        let mut best = 0.0f64;
        for w in Workload::all() {
            let s = ScaleOutCluster::dgx2_style(96).speedup_over_one_node(&w);
            assert!(s < 60.0, "{}: {s} should be far below 96", w.name);
            best = best.max(s);
        }
        assert!((15.0..60.0).contains(&best), "best speedup {best}");
        let vgg = ScaleOutCluster::dgx2_style(96).speedup_over_one_node(&Workload::vgg19());
        assert!(vgg < 15.0, "parameter-heavy models scale worst: {vgg}");
        // Scale-up with the same 1536 accelerators on one fabric syncs far
        // faster than the NIC ring.
        let w = Workload::vgg19();
        let fabric = RingModel::nvlink_default();
        let scale_up_sync = fabric.allreduce_secs(w.model_bytes(), 1536);
        assert!(scale_up_sync < ScaleOutCluster::dgx2_style(96).sync_secs(w.model_bytes()) / 5.0);
    }

    #[test]
    fn small_models_scale_out_fine_at_modest_node_counts() {
        // RNN-S has 1 MB of gradients: at 4 nodes the NIC ring is cheap and
        // local batches are still healthy — near-linear scaling. The penalty
        // is model-size and scale dependent.
        let w = Workload::rnn_s();
        let s = ScaleOutCluster::dgx2_style(4).speedup_over_one_node(&w);
        assert!(s > 3.4, "4-node small-model scaling should be near-linear: {s}");
    }

    #[test]
    fn single_node_is_the_baseline() {
        let w = Workload::resnet50();
        let one = ScaleOutCluster::dgx2_style(1);
        assert!((one.speedup_over_one_node(&w) - 1.0).abs() < 1e-12);
        assert_eq!(one.accels(), 16);
    }

    #[test]
    fn sync_grows_with_nodes_but_sublinearly() {
        let m = 97_500_000u64;
        let t2 = ScaleOutCluster::dgx2_style(2).sync_secs(m);
        let t32 = ScaleOutCluster::dgx2_style(32).sync_secs(m);
        assert!(t32 > t2);
        assert!(t32 < t2 * 4.0, "ring saturates inter-node too: {t2} vs {t32}");
    }

    #[test]
    fn cluster_analytic_one_server_is_solo() {
        let server = crate::arch::ServerConfig::new(ServerKind::TrainBoxNoPool, 16).build();
        let w = Workload::resnet50();
        let t = ClusterSpec::rack_default(1).analytic(&server, &w);
        assert_eq!(t.cross_sync_secs, 0.0);
        assert!((t.samples_per_sec - t.solo_samples_per_sec).abs() < 1e-9);
        assert!((t.speedup_over_one_server - 1.0).abs() < 1e-12);
        assert_eq!(t.total_accels, 16);
    }

    #[test]
    fn cluster_analytic_scales_sublinearly() {
        let server = crate::arch::ServerConfig::new(ServerKind::TrainBoxNoPool, 16).build();
        let w = Workload::inception_v4();
        let spec = ClusterSpec::rack_default(32);
        assert_eq!(spec.racks(), 4);
        let t = spec.analytic(&server, &w);
        assert!(t.speedup_over_one_server > 8.0, "{}", t.speedup_over_one_server);
        assert!(t.speedup_over_one_server < 32.0, "{}", t.speedup_over_one_server);
        // The cross-server phase is what separates it from linear.
        assert!(t.cross_sync_secs > 0.0);
    }

    #[test]
    fn cluster_spec_validation_names_the_field() {
        let mut spec = ClusterSpec::rack_default(0);
        assert!(spec.validate().unwrap_err().contains("servers"));
        spec.servers = 2;
        spec.tor.link_bytes_per_sec = f64::NAN;
        assert!(spec.validate().unwrap_err().contains("tor"));
    }

    fn quick_cfg(workers: usize) -> SimConfig {
        SimConfig {
            chunk_samples: 128,
            batches: 6,
            warmup_batches: 2,
            prefetch_batches: 1,
            max_events: 5_000_000,
            parallel_workers: workers,
        }
    }

    #[test]
    fn cluster_des_is_worker_count_invariant() {
        use crate::faults::FaultKind;
        use trainbox_sim::NoopTracer;
        let server = crate::arch::ServerConfig::new(ServerKind::TrainBoxNoPool, 4)
            .batch_size(64)
            .build();
        let w = Workload::rnn_s();
        let spec = ClusterSpec::rack_default(3);
        let plan = FaultPlan::empty()
            .at(1e-4, FaultKind::PrepSlowdown { dev: 0, factor: 0.5, secs: 0.05 })
            .at(2e-4, FaultKind::AccelDropout { acc: 1 });
        let reference = simulate_cluster_traced_deadline(
            &server,
            &w,
            &quick_cfg(0),
            &plan,
            &spec,
            |_| NoopTracer,
            None,
        )
        .expect("sequential reference")
        .0;
        for workers in [1usize, 2, 3, 8] {
            let got = simulate_cluster_traced_deadline(
                &server,
                &w,
                &quick_cfg(workers),
                &plan,
                &spec,
                |_| NoopTracer,
                None,
            )
            .expect("parallel run")
            .0;
            assert_eq!(got, reference, "workers={workers} diverged");
        }
        assert_eq!(reference.servers, 3);
        assert_eq!(reference.batch_done_at.len(), 6);
        assert_eq!(reference.server_events.len(), 3);
        // The storm replays on server 0 only, so it carries more events.
        assert!(reference.imbalance >= 1.0);
        assert!(reference.faults.injected > 0);
    }

    #[test]
    fn one_server_cluster_matches_the_solo_des() {
        use crate::pipeline::try_simulate_traced_deadline;
        use trainbox_sim::NoopTracer;
        let server = crate::arch::ServerConfig::new(ServerKind::TrainBoxNoPool, 4)
            .batch_size(64)
            .build();
        let w = Workload::rnn_s();
        let cfg = quick_cfg(2);
        let solo = try_simulate_traced_deadline(
            &server,
            &w,
            &cfg,
            &FaultPlan::empty(),
            NoopTracer,
            None,
        )
        .expect("solo run")
        .0;
        let cluster = simulate_cluster_traced_deadline(
            &server,
            &w,
            &cfg,
            &FaultPlan::empty(),
            &ClusterSpec::rack_default(1),
            |_| NoopTracer,
            None,
        )
        .expect("cluster run")
        .0;
        // A 1-server cluster pays no cross-server phase: the barrier releases
        // at the local sync time, so throughput matches the solo engine.
        assert_eq!(cluster.cross_sync_secs, 0.0);
        assert!(
            (cluster.samples_per_sec - solo.samples_per_sec).abs()
                < 1e-9 * solo.samples_per_sec,
            "cluster {} vs solo {}",
            cluster.samples_per_sec,
            solo.samples_per_sec
        );
    }

    #[test]
    fn expired_deadline_fails_cleanly_at_any_worker_count() {
        use trainbox_sim::NoopTracer;
        let server = crate::arch::ServerConfig::new(ServerKind::TrainBoxNoPool, 4)
            .batch_size(64)
            .build();
        let w = Workload::rnn_s();
        let expired = Some(Instant::now() - std::time::Duration::from_secs(1));
        for workers in [0usize, 4] {
            let err = simulate_cluster_traced_deadline(
                &server,
                &w,
                &quick_cfg(workers),
                &FaultPlan::empty(),
                &ClusterSpec::rack_default(2),
                |_| NoopTracer,
                expired,
            )
            .expect_err("deadline must trip");
            assert!(
                matches!(err.error, SimError::DeadlineExceeded { .. }),
                "workers={workers}: {:?}",
                err.error
            );
        }
    }

    #[test]
    fn tco_favors_scale_up() {
        // §III-A: "one node with 256 accelerators vs 256 nodes with one
        // accelerator per node" — the extreme case — and the DGX-2 case.
        let tco = TcoModel::default_costs();
        let up = tco.scale_up_cost(256);
        let out_1 = tco.scale_out_cost(256, 1);
        let out_16 = tco.scale_out_cost(256, 16);
        assert!(up < out_1 / 2.0, "vs 1-acc nodes: {up} vs {out_1}");
        assert!(up < out_16, "vs 16-acc nodes: {up} vs {out_16}");
        // The FPGA adder is small relative to the host savings.
        let plain_accels = 256.0 * tco.accel_cost;
        assert!(up - plain_accels < out_16 - plain_accels);
    }
}
