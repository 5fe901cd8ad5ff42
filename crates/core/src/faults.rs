//! Deterministic fault injection and degraded-mode accounting.
//!
//! A real 256-accelerator server does not fail cleanly or rarely: SSDs
//! stall, preparation devices crash or slow down, PCIe links retrain to
//! fewer lanes, accelerators drop off the ring, and prep requests time out.
//! This module describes such faults as a *plan* — a seeded, fully
//! deterministic schedule of typed events — that
//! [`crate::pipeline::try_simulate_traced_deadline`] replays against the
//! discrete-event datapath. The simulator then exercises the degraded
//! modes: preparation work is rebalanced across surviving devices (greedy
//! water-filling, the discrete analogue of max-min fairness), the
//! synchronization ring is re-formed over the surviving accelerators (see
//! [`trainbox_collective::reform`]), degraded links reshape the max-min
//! flow rates, and transient request failures retry with exponential
//! backoff.
//!
//! Determinism guarantee: a plan is data, not a random process. The same
//! `(server, workload, config, plan)` tuple always produces the identical
//! event sequence and [`FaultStats`]; [`FaultPlan::seeded`] derives a plan
//! from a seed up front so even "random" fault storms replay exactly. An
//! empty plan injects nothing and leaves the fault-free simulation
//! byte-identical.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One kind of fault, with its target and (where applicable) duration.
///
/// Device indices refer to the simulated server's device arrays (SSD, prep
/// device, accelerator order of the topology); link indices refer to the
/// PCIe topology's directed links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// SSD `ssd` stops serving reads for `secs` (controller hiccup, GC
    /// pause). Queued reads wait it out.
    SsdStall { ssd: usize, secs: f64 },
    /// Preparation device `dev` crashes permanently. Its queued and future
    /// work is rebalanced over the surviving prep devices.
    PrepCrash { dev: usize },
    /// Preparation device `dev` runs at `factor` (< 1) of nominal speed for
    /// `secs` (thermal throttling, background scrub).
    PrepSlowdown { dev: usize, factor: f64, secs: f64 },
    /// Directed PCIe link `link` degrades to `fraction` of nominal
    /// bandwidth for `secs` (lane retraining).
    LinkDegrade { link: usize, fraction: f64, secs: f64 },
    /// Accelerator `acc` drops out permanently. The synchronization ring is
    /// re-formed over the survivors; data buffered or in flight toward the
    /// dead device is wasted.
    AccelDropout { acc: usize },
    /// Preparation device `dev` rejects new requests for `secs`; affected
    /// requests retry with exponential backoff under the plan's
    /// [`RetryPolicy`].
    PrepTransient { dev: usize, secs: f64 },
}

impl FaultKind {
    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SsdStall { .. } => "ssd-stall",
            FaultKind::PrepCrash { .. } => "prep-crash",
            FaultKind::PrepSlowdown { .. } => "prep-slowdown",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::AccelDropout { .. } => "accel-dropout",
            FaultKind::PrepTransient { .. } => "prep-transient",
        }
    }
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Injection time, seconds from simulation start.
    pub at_secs: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Retry discipline for transiently failing prep requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries before a request is declared failed (its chunk is re-read
    /// from the SSD and the samples counted as wasted).
    pub max_retries: u32,
    /// Time a request waits before its failure is detected.
    pub timeout_secs: f64,
    /// Backoff before retry `k` is `base * multiplier^k`.
    pub backoff_base_secs: f64,
    /// Exponential backoff growth per retry.
    pub backoff_multiplier: f64,
}

impl RetryPolicy {
    /// Backoff delay preceding retry attempt `k` (0-based).
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        self.backoff_base_secs * self.backoff_multiplier.powi(attempt as i32)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            timeout_secs: 1e-3,
            backoff_base_secs: 1e-4,
            backoff_multiplier: 2.0,
        }
    }
}

/// The bounds a plan's targets must respect, taken from the simulated
/// server: device counts, link count, and the horizon faults may land in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDomain {
    /// SSDs in the server.
    pub n_ssds: usize,
    /// Preparation devices in the server.
    pub n_preps: usize,
    /// Accelerators in the server.
    pub n_accels: usize,
    /// Directed PCIe links in the topology.
    pub n_links: usize,
    /// Latest time a generated fault may fire, seconds.
    pub horizon_secs: f64,
}

/// A deterministic schedule of faults plus the retry discipline.
///
/// Build one explicitly with [`FaultPlan::at`], or derive a reproducible
/// storm from a seed with [`FaultPlan::seeded`]. The empty plan is the
/// fault-free simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Scheduled faults (any order; the simulator sorts by time).
    pub events: Vec<FaultEvent>,
    /// Retry discipline for [`FaultKind::PrepTransient`] failures.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::empty()
    }
}

// Hand-written so a request may omit `retry` and get the default policy —
// the derive would insist on every field being present.
impl Deserialize for FaultPlan {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("FaultPlan", "object"))?;
        let events = obj
            .iter()
            .find(|(k, _)| k == "events")
            .map(|(_, v)| Deserialize::from_json(v))
            .transpose()?
            .unwrap_or_default();
        let retry = obj
            .iter()
            .find(|(k, _)| k == "retry")
            .map(|(_, v)| Deserialize::from_json(v))
            .transpose()?
            .unwrap_or_default();
        Ok(FaultPlan { events, retry })
    }
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new(), retry: RetryPolicy::default() }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append a fault at `at_secs` (builder style).
    #[must_use]
    pub fn at(mut self, at_secs: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_secs, kind });
        self
    }

    /// Events sorted by injection time (stable: simultaneous faults keep
    /// their declaration order).
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut ev = self.events.clone();
        ev.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
        ev
    }

    /// Generate a reproducible fault storm: about `intensity` faults per
    /// simulated second over `domain.horizon_secs`, drawn from `seed`.
    ///
    /// The generator never schedules more permanent losses than the server
    /// can survive: at most `n_preps - 1` prep crashes and `n_accels - 1`
    /// accelerator dropouts are emitted, and kinds whose target class the
    /// server lacks are skipped. The same `(seed, intensity, domain)`
    /// always yields the same plan.
    pub fn seeded(seed: u64, intensity: f64, domain: &FaultDomain) -> Self {
        assert!(intensity >= 0.0 && intensity.is_finite(), "intensity must be >= 0");
        assert!(domain.horizon_secs > 0.0, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let count = (intensity * domain.horizon_secs).round() as usize;
        let mut plan = FaultPlan::empty();
        let mut crashes_left = domain.n_preps.saturating_sub(1);
        let mut dropouts_left = domain.n_accels.saturating_sub(1);
        for _ in 0..count {
            let at = rng.gen_range(0.0..domain.horizon_secs);
            // Transient window lengths scale with the horizon so short
            // simulations still see overlapping degradation.
            let window = rng.gen_range(0.05..0.25) * domain.horizon_secs;
            let kind = loop {
                match rng.gen_range(0u32..6) {
                    0 if domain.n_ssds > 0 => {
                        break FaultKind::SsdStall {
                            ssd: rng.gen_range(0..domain.n_ssds),
                            secs: window,
                        }
                    }
                    1 if crashes_left > 0 => {
                        crashes_left -= 1;
                        break FaultKind::PrepCrash { dev: rng.gen_range(0..domain.n_preps) };
                    }
                    2 if domain.n_preps > 0 => {
                        break FaultKind::PrepSlowdown {
                            dev: rng.gen_range(0..domain.n_preps),
                            factor: rng.gen_range(0.2..0.8),
                            secs: window,
                        }
                    }
                    3 if domain.n_links > 0 => {
                        break FaultKind::LinkDegrade {
                            link: rng.gen_range(0..domain.n_links),
                            fraction: rng.gen_range(0.25..0.75),
                            secs: window,
                        }
                    }
                    4 if dropouts_left > 0 => {
                        dropouts_left -= 1;
                        break FaultKind::AccelDropout {
                            acc: rng.gen_range(0..domain.n_accels),
                        };
                    }
                    5 if domain.n_preps > 0 => {
                        break FaultKind::PrepTransient {
                            dev: rng.gen_range(0..domain.n_preps),
                            secs: window,
                        }
                    }
                    _ => continue, // class exhausted or absent; redraw
                }
            };
            plan.events.push(FaultEvent { at_secs: at, kind });
        }
        plan
    }

    /// Check every event against `domain`: indices in range, durations and
    /// fractions sane, and at least one prep device / accelerator left
    /// standing. Returns the first problem found.
    pub fn validate(&self, domain: &FaultDomain) -> Result<(), String> {
        let mut crashed = std::collections::BTreeSet::new();
        let mut dropped = std::collections::BTreeSet::new();
        for (i, ev) in self.events.iter().enumerate() {
            let err = |msg: String| Err(format!("fault #{i} ({}): {msg}", ev.kind.label()));
            if !ev.at_secs.is_finite() || ev.at_secs < 0.0 {
                return err(format!("bad injection time {}", ev.at_secs));
            }
            let dur_ok = |d: f64| d.is_finite() && d > 0.0;
            match ev.kind {
                FaultKind::SsdStall { ssd, secs } => {
                    if ssd >= domain.n_ssds {
                        return err(format!("ssd {ssd} out of range ({})", domain.n_ssds));
                    }
                    if !dur_ok(secs) {
                        return err(format!("bad duration {secs}"));
                    }
                }
                FaultKind::PrepCrash { dev } => {
                    if dev >= domain.n_preps {
                        return err(format!("prep {dev} out of range ({})", domain.n_preps));
                    }
                    crashed.insert(dev);
                    if crashed.len() >= domain.n_preps {
                        return err("no prep device would survive".into());
                    }
                }
                FaultKind::PrepSlowdown { dev, factor, secs } => {
                    if dev >= domain.n_preps {
                        return err(format!("prep {dev} out of range ({})", domain.n_preps));
                    }
                    if !(factor > 0.0 && factor <= 1.0) {
                        return err(format!("factor {factor} outside (0, 1]"));
                    }
                    if !dur_ok(secs) {
                        return err(format!("bad duration {secs}"));
                    }
                }
                FaultKind::LinkDegrade { link, fraction, secs } => {
                    if link >= domain.n_links {
                        return err(format!("link {link} out of range ({})", domain.n_links));
                    }
                    if !(fraction > 0.0 && fraction <= 1.0) {
                        return err(format!("fraction {fraction} outside (0, 1]"));
                    }
                    if !dur_ok(secs) {
                        return err(format!("bad duration {secs}"));
                    }
                }
                FaultKind::AccelDropout { acc } => {
                    if acc >= domain.n_accels {
                        return err(format!("accel {acc} out of range ({})", domain.n_accels));
                    }
                    dropped.insert(acc);
                    if dropped.len() >= domain.n_accels {
                        return err("no accelerator would survive".into());
                    }
                }
                FaultKind::PrepTransient { dev, secs } => {
                    if dev >= domain.n_preps {
                        return err(format!("prep {dev} out of range ({})", domain.n_preps));
                    }
                    if !dur_ok(secs) {
                        return err(format!("bad duration {secs}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Downtime attributed to one injected fault.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultDowntime {
    /// When the fault fired, seconds.
    pub at_secs: f64,
    /// [`FaultKind::label`] of the fault.
    pub kind: &'static str,
    /// How long the affected component was impaired: the fault's window for
    /// transient faults, time-to-end-of-run for permanent losses.
    pub secs: f64,
}

/// What the fault layer observed during one simulation.
///
/// With an empty plan every counter is zero and the throughput fields
/// coincide with the fault-free result.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct FaultStats {
    /// Faults injected.
    pub injected: u64,
    /// Prep-request retries performed (transient failures).
    pub retries: u64,
    /// Requests that exhausted their retries and re-read from the SSD.
    pub failed_requests: u64,
    /// Samples whose work was discarded (data headed to or buffered at a
    /// dropped accelerator, or re-read after exhausted retries).
    pub wasted_samples: u64,
    /// Accelerators permanently lost.
    pub accels_lost: u64,
    /// Preparation devices permanently lost.
    pub preps_lost: u64,
    /// Per-fault downtime, in injection order.
    pub downtime: Vec<FaultDowntime>,
    /// Throughput the *initial* device complement would have sustained over
    /// the measured window at the achieved pace (samples/s).
    pub nominal_samples_per_sec: f64,
    /// Achieved throughput discounted by the wasted-work fraction
    /// (samples/s): `effective * useful / (useful + wasted)`.
    pub goodput_samples_per_sec: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> FaultDomain {
        FaultDomain { n_ssds: 4, n_preps: 4, n_accels: 16, n_links: 40, horizon_secs: 2.0 }
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::empty();
        assert!(p.is_empty());
        assert!(p.validate(&domain()).is_ok());
    }

    #[test]
    fn builder_orders_events_by_time() {
        let p = FaultPlan::empty()
            .at(0.5, FaultKind::PrepCrash { dev: 1 })
            .at(0.1, FaultKind::SsdStall { ssd: 0, secs: 0.2 });
        let ev = p.sorted_events();
        assert_eq!(ev[0].at_secs, 0.1);
        assert_eq!(ev[1].at_secs, 0.5);
        assert!(p.validate(&domain()).is_ok());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_valid() {
        let d = domain();
        let a = FaultPlan::seeded(7, 4.0, &d);
        let b = FaultPlan::seeded(7, 4.0, &d);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 8);
        assert!(a.validate(&d).is_ok());
        let c = FaultPlan::seeded(8, 4.0, &d);
        assert_ne!(a, c, "different seeds should give different storms");
    }

    #[test]
    fn seeded_never_kills_every_prep_or_accel() {
        // A violent storm against a tiny server must leave survivors.
        let d = FaultDomain { n_ssds: 1, n_preps: 2, n_accels: 2, n_links: 4, horizon_secs: 1.0 };
        for seed in 0..20 {
            let p = FaultPlan::seeded(seed, 50.0, &d);
            assert!(p.validate(&d).is_ok(), "seed {seed}: {:?}", p.validate(&d));
        }
    }

    #[test]
    fn validate_catches_out_of_range_and_total_loss() {
        let d = domain();
        let bad = FaultPlan::empty().at(0.1, FaultKind::SsdStall { ssd: 9, secs: 0.1 });
        assert!(bad.validate(&d).unwrap_err().contains("out of range"));
        let mut total = FaultPlan::empty();
        for dev in 0..d.n_preps {
            total = total.at(0.1, FaultKind::PrepCrash { dev });
        }
        assert!(total.validate(&d).unwrap_err().contains("survive"));
        let neg = FaultPlan::empty().at(-1.0, FaultKind::PrepCrash { dev: 0 });
        assert!(neg.validate(&d).unwrap_err().contains("injection time"));
        let frac = FaultPlan::empty()
            .at(0.0, FaultKind::LinkDegrade { link: 0, fraction: 1.5, secs: 0.1 });
        assert!(frac.validate(&d).unwrap_err().contains("outside"));
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy::default();
        assert!((r.backoff_secs(0) - 1e-4).abs() < 1e-12);
        assert!((r.backoff_secs(3) - 8e-4).abs() < 1e-12);
    }
}
