//! Fluid bandwidth sharing: max-min fair rates and an event-driven transfer
//! simulator.
//!
//! Concurrent DMA transfers that share a directed link split its capacity.
//! PCIe switches arbitrate per-port roughly fairly, so we model the steady
//! state as the classic **max-min fair allocation** computed by progressive
//! filling: all flows grow at the same rate; when a link saturates, the flows
//! crossing it freeze at their current rate; repeat. Flows can additionally
//! carry a *demand cap* (a device that cannot source data faster than its own
//! throughput), which progressive filling honors by freezing a flow when it
//! reaches its demand.
//!
//! [`FlowSim`] layers finite-size transfers on top: it tracks the remaining
//! bytes of each active flow, recomputes rates whenever the flow set changes,
//! and exposes the next completion instant for a discrete-event driver.

use crate::topology::{LinkId, Topology};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use trainbox_sim::{FxHashMap, SimTime, TimeWeighted};

/// Identifier of an active flow in a [`FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(u64);

/// Specification of one flow for a rate computation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Directed links the flow traverses (may be empty for node-local copies).
    pub route: Vec<LinkId>,
    /// Optional source/sink throughput cap in bytes/s.
    pub demand: Option<f64>,
}

impl FlowSpec {
    /// A flow over `route` limited only by the network.
    pub fn new(route: Vec<LinkId>) -> Self {
        FlowSpec { route, demand: None }
    }

    /// A flow over `route` that additionally cannot exceed `demand` bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not finite and positive.
    pub fn with_demand(route: Vec<LinkId>, demand: f64) -> Self {
        assert!(demand.is_finite() && demand > 0.0, "demand must be positive");
        FlowSpec { route, demand: Some(demand) }
    }
}

/// The link-capacity view used for rate computations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowNet {
    /// Capacity of each directed link in bytes/s, indexed by [`LinkId`].
    capacity: Vec<f64>,
}

impl FlowNet {
    /// Capacities taken from a topology's directed links.
    pub fn from_topology(topo: &Topology) -> Self {
        FlowNet {
            capacity: topo
                .links()
                .map(|(_, l)| l.bandwidth.bytes_per_sec() as f64)
                .collect(),
        }
    }

    /// Capacities given directly (mainly for tests).
    ///
    /// # Panics
    ///
    /// Panics if any capacity is not finite and positive.
    pub fn from_capacities(capacity: Vec<f64>) -> Self {
        assert!(
            capacity.iter().all(|&c| c.is_finite() && c > 0.0),
            "link capacities must be positive"
        );
        FlowNet { capacity }
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.capacity.len()
    }

    /// Capacity of one link in bytes/s.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.capacity[link.index()]
    }

    /// Change one link's capacity — the fault-injection hook for modeling a
    /// degraded PCIe link (e.g. retraining to fewer lanes or a lower rate).
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown or `bytes_per_sec` is not finite and
    /// positive.
    pub fn set_capacity(&mut self, link: LinkId, bytes_per_sec: f64) {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        assert!(link.index() < self.capacity.len(), "unknown link");
        self.capacity[link.index()] = bytes_per_sec;
    }

    /// Batched capacity change: apply every `(link, bytes_per_sec)` update in
    /// one call. The fault-injection hook for a *storm* of link degradations
    /// — callers holding a [`FlowSim`] get a single rate recomputation for
    /// the whole batch instead of one per link.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`FlowNet::set_capacity`].
    pub fn set_capacities(&mut self, updates: &[(LinkId, f64)]) {
        for &(link, bytes_per_sec) in updates {
            self.set_capacity(link, bytes_per_sec);
        }
    }

    /// Partition the links into **flow domains**: connected components of the
    /// "can contend" relation, where two links are coupled when some route in
    /// `routes` crosses both. Rates in one domain are independent of flows
    /// and capacities in every other — max-min progressive filling only
    /// propagates pressure along shared links — so a domain is the unit a
    /// parallel simulation may own exclusively without synchronizing rate
    /// recomputations.
    ///
    /// Deterministic: domain ids are dense and assigned in ascending order of
    /// each domain's smallest link index. Links no route touches belong to no
    /// domain ([`FlowDomains::domain_of`] returns `None`) — they can never
    /// contend with anything.
    ///
    /// # Panics
    ///
    /// Panics if a route references an unknown link.
    pub fn domains<'a>(&self, routes: impl IntoIterator<Item = &'a [LinkId]>) -> FlowDomains {
        // Union-find over link indices, path-halving, union by attaching the
        // larger root index under the smaller so roots stay minimal.
        let n = self.capacity.len();
        let mut parent: Vec<usize> = (0..n).collect();
        let mut used = vec![false; n];
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for route in routes {
            let mut first: Option<usize> = None;
            for l in route {
                assert!(l.index() < n, "route references unknown link");
                used[l.index()] = true;
                match first {
                    None => first = Some(l.index()),
                    Some(f) => {
                        let (a, b) = (find(&mut parent, f), find(&mut parent, l.index()));
                        if a != b {
                            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                            parent[hi] = lo;
                        }
                    }
                }
            }
        }
        let mut domain_of = vec![None; n];
        let mut next = 0usize;
        let mut id_of_root: FxHashMap<usize, usize> = FxHashMap::default();
        for i in 0..n {
            if !used[i] {
                continue;
            }
            let root = find(&mut parent, i);
            let id = *id_of_root.entry(root).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            domain_of[i] = Some(id);
        }
        FlowDomains { domain_of, count: next }
    }

    fn validate(&self, f: &FlowSpec) {
        assert!(
            !f.route.is_empty() || f.demand.is_some(),
            "a flow with an empty route needs a demand cap"
        );
        for l in &f.route {
            assert!(l.index() < self.capacity.len(), "route references unknown link");
        }
    }

    /// Max-min fair rates (bytes/s) for `flows`, honoring demand caps.
    ///
    /// Progressive filling: all unfrozen flows grow together; the binding
    /// constraint each round is either a saturating link or a flow hitting
    /// its demand. Flows with an empty route and no demand are unconstrained
    /// and rejected.
    ///
    /// This is the direct per-flow implementation: the oracle that
    /// [`FlowSim`]'s domain-incremental solver is checked against, bit for
    /// bit, after every domain solve in debug builds and by the tests.
    ///
    /// # Panics
    ///
    /// Panics if a flow has an empty route and no demand, or if a route
    /// references an unknown link.
    pub fn max_min_rates_ref(&self, flows: &[FlowSpec]) -> Vec<f64> {
        for f in flows {
            self.validate(f);
        }
        let n = flows.len();
        let mut rate = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        let mut residual = self.capacity.clone();
        // Flows crossing each link.
        let mut on_link: Vec<Vec<usize>> = vec![Vec::new(); self.capacity.len()];
        for (i, f) in flows.iter().enumerate() {
            for l in &f.route {
                on_link[l.index()].push(i);
            }
        }

        // Per-round unfrozen counts, allocated once and refilled in place.
        let mut unfrozen_on: Vec<usize> = vec![0; self.capacity.len()];
        loop {
            // Unfrozen flow count per link.
            for (li, fl) in on_link.iter().enumerate() {
                unfrozen_on[li] = fl.iter().filter(|&&i| !frozen[i]).count();
            }
            // Smallest head-room per unfrozen flow: link constraint.
            let mut inc = f64::INFINITY;
            for li in 0..self.capacity.len() {
                if unfrozen_on[li] > 0 {
                    inc = inc.min(residual[li] / unfrozen_on[li] as f64);
                }
            }
            // Demand constraints.
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                if let Some(d) = f.demand {
                    inc = inc.min(d - rate[i]);
                }
            }
            if !inc.is_finite() {
                // No unfrozen flow crosses any link and none has a demand gap
                // left: all remaining flows are empty-route demand flows that
                // were already frozen, or there are no unfrozen flows at all.
                break;
            }
            let inc = inc.max(0.0);
            // Apply the increment.
            let mut progressed = false;
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                rate[i] += inc;
                progressed = true;
                for l in &f.route {
                    residual[l.index()] -= inc;
                }
            }
            if !progressed {
                break;
            }
            // Freeze: flows at demand, and flows crossing a saturated link.
            const EPS: f64 = 1e-9;
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let at_demand = f.demand.is_some_and(|d| rate[i] >= d - EPS * d.max(1.0));
                let on_saturated = f.route.iter().any(|l| {
                    residual[l.index()] <= EPS * self.capacity[l.index()]
                });
                if at_demand || on_saturated {
                    frozen[i] = true;
                }
            }
            if frozen.iter().all(|&f| f) {
                break;
            }
        }
        rate
    }

    /// Total traffic each link carries (bytes/s) under the given rates —
    /// useful for utilization accounting and for checking feasibility.
    pub fn link_loads(&self, flows: &[FlowSpec], rates: &[f64]) -> Vec<f64> {
        assert_eq!(flows.len(), rates.len(), "flows and rates must correspond");
        let mut load = vec![0.0; self.capacity.len()];
        for (f, &r) in flows.iter().zip(rates) {
            for l in &f.route {
                load[l.index()] += r;
            }
        }
        load
    }
}

/// Result of [`FlowNet::domains`]: a dense labeling of links by the flow
/// domain that owns them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDomains {
    domain_of: Vec<Option<usize>>,
    count: usize,
}

impl FlowDomains {
    /// Number of distinct domains (coupled link groups).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Domain owning `link`, or `None` when no route touches it.
    pub fn domain_of(&self, link: LinkId) -> Option<usize> {
        self.domain_of.get(link.index()).copied().flatten()
    }

    /// Links per domain, indexed by domain id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for d in self.domain_of.iter().flatten() {
            sizes[*d] += 1;
        }
        sizes
    }

    /// True when `a` and `b` can never influence each other's rates: they
    /// belong to different domains (or one is untouched by any route).
    pub fn independent(&self, a: LinkId, b: LinkId) -> bool {
        match (self.domain_of(a), self.domain_of(b)) {
            (Some(da), Some(db)) => da != db,
            _ => true,
        }
    }
}

/// Identity of a flow class: flows sharing a route and demand cap are
/// interchangeable to the max-min allocator. Demand is keyed by its bit
/// pattern so `HashMap` lookups stay exact (the allocator never treats two
/// different f64 values as the same class).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ClassKey {
    route: Vec<LinkId>,
    demand_bits: u64,
}

impl ClassKey {
    fn of(spec: &FlowSpec) -> Self {
        ClassKey {
            route: spec.route.clone(),
            // All NaN/None collisions are impossible: demand is validated
            // finite-positive, and u64::MAX is not a finite f64's bit pattern.
            demand_bits: spec.demand.map_or(u64::MAX, f64::to_bits),
        }
    }
}

/// One equivalence class of flows for the fast allocator.
#[derive(Debug, Clone)]
struct FlowClass {
    route: Vec<LinkId>,
    demand: Option<f64>,
    /// Active flows in this class; 0 marks a tombstoned (reusable) slot.
    members: usize,
}

/// Persistent scratch for the domain-incremental solver ([`FlowSim`]'s hot
/// path). The link-indexed vectors are full-size but only the entries of the
/// domain being solved are ever touched, so a recompute costs O(domain), not
/// O(links).
#[derive(Debug, Clone, Default)]
struct DomainScratch {
    /// Links of the domain under solve (deduplicated via `link_epoch`).
    links: Vec<usize>,
    /// Dedup stamps for `links`; a link is in the current domain's list iff
    /// its stamp equals the current epoch. Never cleared, only outdated.
    link_epoch: Vec<u64>,
    epoch: u64,
    /// Residual capacity, refreshed per solve on domain links only.
    residual: Vec<f64>,
    /// Unfrozen member count per link; zeroed back after every solve so the
    /// next domain starts clean without a full sweep.
    unfrozen_on: Vec<usize>,
    /// Per-domain-class state, indexed by position in the solve's class list.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Class ids of the dirty domains, grouped per root.
    class_ids: Vec<usize>,
    /// Dirty domain roots of the current recompute (deduplicated).
    dirty_roots: Vec<usize>,
    root_epoch: Vec<u64>,
}

/// Monotone union-find over link indices: links sharing a route are merged
/// when a class first appears and never split, so the partition only
/// coarsens. Coarser-than-necessary domains cost extra solve work, never
/// wrong rates — and in the DES the route set is fixed after warm-up, so the
/// partition converges to exactly [`FlowNet::domains`].
#[derive(Debug, Clone, Default)]
struct LinkDomains {
    parent: Vec<usize>,
}

impl LinkDomains {
    fn new(n_links: usize) -> Self {
        LinkDomains { parent: (0..n_links).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic tie-break: smaller index wins the root, so the
            // domain structure is a pure function of the interning history.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Progressive filling over a single link domain, touching only the
/// domain's links. `ds.class_ids` names the domain's live classes
/// (ascending class index); rates land in `class_rate`.
///
/// Bit-identical to [`FlowNet::max_min_rates_ref`] run on the domain's flows
/// alone, by construction:
///
/// * within a round every unfrozen flow receives the *same* increment, so a
///   link crossed by `k` unfrozen flows ends the round after `k` identical
///   subtractions — the result depends only on `k`, not on which flows or in
///   what order, and [`sub_repeat`] computes exactly that chain;
/// * members of a class have bit-equal rates at every round (same start,
///   same increments), so tracking one rate per class loses nothing;
/// * the round increment is a `min` over link head-rooms and demand gaps,
///   which is exact and order-independent for finite f64 values.
///
/// Restricting the round scan to the domain's links loses nothing — every
/// link with a nonzero unfrozen count is in the domain by construction.
///
/// The link-indexed scratch vectors are refreshed only on the domain's links
/// (epoch-stamped dedup), so a solve costs O(domain), independent of the
/// fabric size — no per-call reallocation, no full-capacity copy.
fn solve_domain(
    capacity: &[f64],
    classes: &[FlowClass],
    ds: &mut DomainScratch,
    class_rate: &mut [f64],
) {
    let n = ds.class_ids.len();
    ds.links.clear();
    ds.rate.clear();
    ds.rate.resize(n, 0.0);
    ds.frozen.clear();
    ds.frozen.resize(n, false);
    for k in 0..n {
        let cl = &classes[ds.class_ids[k]];
        for l in &cl.route {
            let li = l.index();
            if ds.link_epoch[li] != ds.epoch {
                ds.link_epoch[li] = ds.epoch;
                ds.links.push(li);
                ds.residual[li] = capacity[li];
                ds.unfrozen_on[li] = 0;
            }
            ds.unfrozen_on[li] += cl.members;
        }
    }
    let mut unfrozen = n;
    while unfrozen > 0 {
        let mut inc = f64::INFINITY;
        for &li in &ds.links {
            if ds.unfrozen_on[li] > 0 {
                inc = inc.min(ds.residual[li] / ds.unfrozen_on[li] as f64);
            }
        }
        for k in 0..n {
            if ds.frozen[k] {
                continue;
            }
            if let Some(d) = classes[ds.class_ids[k]].demand {
                inc = inc.min(d - ds.rate[k]);
            }
        }
        if !inc.is_finite() {
            // Mirrors the reference's termination guard; unreachable while a
            // validated unfrozen class remains (its links bound the round).
            break;
        }
        let inc = inc.max(0.0);
        for k in 0..n {
            if !ds.frozen[k] {
                ds.rate[k] += inc;
            }
        }
        // One exact chain per link: its `unfrozen_on` members each subtract
        // the same increment.
        for &li in &ds.links {
            let k = ds.unfrozen_on[li];
            if k > 0 {
                ds.residual[li] = sub_repeat(ds.residual[li], inc, k);
            }
        }
        const EPS: f64 = 1e-9;
        for k in 0..n {
            if ds.frozen[k] {
                continue;
            }
            let cl = &classes[ds.class_ids[k]];
            let at_demand = cl.demand.is_some_and(|d| ds.rate[k] >= d - EPS * d.max(1.0));
            let on_saturated = cl
                .route
                .iter()
                .any(|l| ds.residual[l.index()] <= EPS * capacity[l.index()]);
            if at_demand || on_saturated {
                ds.frozen[k] = true;
                unfrozen -= 1;
                for l in &cl.route {
                    ds.unfrozen_on[l.index()] -= cl.members;
                }
            }
        }
    }
    for k in 0..n {
        class_rate[ds.class_ids[k]] = ds.rate[k];
    }
    // Leave the unfrozen counts zeroed for the next solve (they already are
    // unless the termination guard broke the loop early).
    for &li in &ds.links {
        ds.unfrozen_on[li] = 0;
    }
}

/// `k` sequential IEEE subtractions `r -= d`, bit for bit, in far fewer than
/// `k` steps when the chain is long.
///
/// Let `r` be positive and normal in the binade `[2^e, 2^(e+1))`, where
/// doubles are the integer multiples of `u = ulp(r)`. While the exact
/// difference `r − d` stays inside that binade, round-to-nearest commutes
/// with shifting by a multiple of `u`, so `fl(r − d) = r − s·u` with `s` the
/// nearest integer to `d/u` — the *same* rounded step on every iteration.
/// The in-binade run therefore collapses into one integer subtraction on the
/// mantissa. Where that argument does not hold the kernel takes single IEEE
/// subtractions instead: at a binade crossing (it then continues in the
/// lower binade), when `d/u` has a fraction of exactly one half (the tie
/// rounds to even, which alternates with the mantissa's parity), when `r` or
/// `d` is non-positive, subnormal or non-finite, when `d` is not below `r`'s
/// binade, and for chains too short to pay for the set-up.
fn sub_repeat(mut r: f64, d: f64, mut k: usize) -> f64 {
    while k > 0 {
        match in_binade_run(r, d, k) {
            Some((next, n)) => (r, k) = (next, k - n),
            None => (r, k) = (r - d, k - 1),
        }
    }
    r
}

/// The longest prefix of `k` subtractions `r -= d` that provably stays in
/// `r`'s binade, as `(result, steps taken)`; `None` where [`sub_repeat`] must
/// take a single IEEE subtraction.
fn in_binade_run(r: f64, d: f64, k: usize) -> Option<(f64, usize)> {
    const FRAC: u64 = (1 << 52) - 1;
    const HIDDEN: u64 = 1 << 52;
    if k < 4 || !(r.is_normal() && r > 0.0 && d.is_normal() && d > 0.0) {
        return None;
    }
    // Positive normals have a clear sign bit, so these are the biased
    // exponents, and `de < re` puts `d` below `r`'s binade.
    let (rb, db) = (r.to_bits(), d.to_bits());
    let (re, de) = (rb >> 52, db >> 52);
    if de >= re {
        return None;
    }
    // r = m·u and d = dm·u / 2^sh, with m in [2^52, 2^53) and sh >= 1.
    let m = (rb & FRAC) | HIDDEN;
    let dm = (db & FRAC) | HIDDEN;
    let sh = re - de;
    let step = if sh > 54 {
        0 // d < u/2 with no tie possible: dm < 2^53
    } else {
        let rem = dm & ((1 << sh) - 1);
        let half = 1 << (sh - 1);
        if rem == half {
            return None;
        }
        (dm >> sh) + u64::from(rem > half)
    };
    if step == 0 {
        // d rounds away on every step, so r never moves — unless r is the
        // power of two itself, where the grid below is finer.
        return (m > HIDDEN).then_some((r, k));
    }
    // Step i (from 0) is exact while m − (i+1)·step − 1 >= 2^52: the exact
    // difference is then above 2^52 + 1/2 ulps, inside the binade.
    let n = ((m - HIDDEN).saturating_sub(1) / step).min(k as u64);
    (n > 0).then(|| (f64::from_bits((re << 52) | (m - n * step - HIDDEN)), n as usize))
}

/// The plain chain [`sub_repeat`] must reproduce bit for bit.
#[cfg(test)]
fn sub_repeat_ref(mut r: f64, d: f64, k: usize) -> f64 {
    for _ in 0..k {
        r -= d;
    }
    r
}

/// One active transfer. [`FlowSim`] keeps these in arrival order, which is
/// also ascending id order (ids are handed out monotonically).
#[derive(Debug, Clone)]
struct ActiveFlow {
    id: FlowId,
    /// Index into the simulator's class table; the flow's rate is
    /// `class_rate[class]`.
    class: usize,
    remaining: f64,
}

/// Event-driven finite-transfer simulator over a [`FlowNet`].
///
/// Drive it from a DES loop: add flows as transfers start, query
/// [`FlowSim::next_completion`], advance to that instant, and call
/// [`FlowSim::complete`] on the finished flow.
///
/// # Example
///
/// ```
/// use trainbox_pcie::flow::{FlowNet, FlowSim, FlowSpec};
/// use trainbox_pcie::topology::LinkId;
/// use trainbox_sim::{SimTime, TimeWeighted};
///
/// // One 1 GB/s link shared by two 1 MB transfers: each gets 0.5 GB/s,
/// // both complete at 2 ms.
/// let net = FlowNet::from_capacities(vec![1e9]);
/// let mut sim = FlowSim::new(net);
/// let l = trainbox_pcie::test_util::link(0);
/// let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![l]), 1_000_000.0);
/// let b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![l]), 1_000_000.0);
/// let (t, first) = sim.next_completion().unwrap();
/// assert_eq!(t, SimTime::from_millis(2));
/// assert!(first == a || first == b);
/// ```
#[derive(Debug, Clone)]
pub struct FlowSim {
    net: FlowNet,
    /// Active flows in arrival order, hence sorted by id: lookup is a binary
    /// search and the hot loops walk one dense vector.
    flows: Vec<ActiveFlow>,
    /// The answer of the last [`FlowSim::next_completion`] scan, valid until
    /// the next mutation (`None` = not computed). A discrete-event driver
    /// asks twice per completion — once to schedule the check, once when it
    /// fires — with nothing in between.
    next: Cell<Option<Option<(SimTime, FlowId)>>>,
    /// Flow classes (route + demand equivalence); tombstoned slots are
    /// reused so indices stay stable while flows churn.
    classes: Vec<FlowClass>,
    class_index: FxHashMap<ClassKey, usize>,
    free_classes: Vec<usize>,
    /// Set when the flow set or a capacity changed since the last
    /// recomputation; a clean simulator skips the allocator entirely.
    dirty: bool,
    /// Monotone link partition: which links can currently share a bottleneck.
    domains: LinkDomains,
    /// Links whose domain must be re-solved at the next recomputation
    /// (route links of added/completed flows, links with capacity changes).
    dirty_links: Vec<usize>,
    /// Set when a link-free class (empty route, demand-capped) appeared or
    /// disappeared; such classes form their own pseudo-domains.
    dirty_nolink: bool,
    /// Per-class rate from the last solve of that class's domain; classes in
    /// clean domains keep their rates without any allocator work.
    class_rate: Vec<f64>,
    dscratch: DomainScratch,
    recomputes: u64,
    domain_solves: u64,
    now: SimTime,
    next_id: u64,
    utilization: Vec<TimeWeighted>,
    /// Per-link load accumulator for utilization accounting.
    load: Vec<f64>,
    /// When enabled, every allocator recomputation appends one
    /// [`FlowTraceEvent`] here; the trace layer drains it with
    /// [`FlowSim::take_trace`]. Off by default — recording only observes the
    /// rates already computed, never affects them.
    trace: bool,
    trace_log: Vec<FlowTraceEvent>,
}

/// One allocator recomputation observed by [`FlowSim`] rate tracing
/// ([`FlowSim::set_trace`]): the instant, the population, and the spread of
/// the max-min allocation that resulted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowTraceEvent {
    /// Simulated time of the recomputation.
    pub at: SimTime,
    /// Active flows after the triggering change.
    pub active: usize,
    /// Smallest allocated rate, bytes/s (0 when no flows are active).
    pub min_rate: f64,
    /// Largest allocated rate, bytes/s (0 when no flows are active).
    pub max_rate: f64,
}

impl FlowSim {
    /// Create a simulator over `net` at time zero with no flows.
    ///
    /// Per-link utilization tracking starts disabled; call
    /// [`FlowSim::set_track_utilization`] before adding flows to record it.
    pub fn new(net: FlowNet) -> Self {
        let utilization = Vec::new();
        let n_links = net.link_count();
        FlowSim {
            net,
            flows: Vec::new(),
            next: Cell::new(None),
            classes: Vec::new(),
            class_index: FxHashMap::default(),
            free_classes: Vec::new(),
            dirty: false,
            domains: LinkDomains::new(n_links),
            dirty_links: Vec::new(),
            dirty_nolink: false,
            class_rate: Vec::new(),
            dscratch: DomainScratch::default(),
            recomputes: 0,
            domain_solves: 0,
            now: SimTime::ZERO,
            next_id: 0,
            utilization,
            load: Vec::new(),
            trace: false,
            trace_log: Vec::new(),
        }
    }

    /// Current simulator time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Borrow the capacity view.
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Number of rate recomputations performed so far — the simulator-core
    /// cost metric `bench_sim` tracks.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Number of per-domain allocator solves performed so far. One
    /// recomputation re-solves only the *dirty* domains, so on a server whose
    /// links split into several independent groups this grows slower than
    /// `recomputes × domains` — the domain-incremental win.
    pub fn domain_solves(&self) -> u64 {
        self.domain_solves
    }

    /// Enable (or disable) per-link time-weighted utilization tracking.
    ///
    /// Off by default: it costs O(links) samples per rate recomputation and
    /// no figure reads it, so the DES pipelines leave it off. Enable before
    /// adding flows — samples only accumulate from that point on.
    pub fn set_track_utilization(&mut self, on: bool) {
        if on && self.utilization.is_empty() {
            self.utilization = (0..self.net.link_count())
                .map(|i| TimeWeighted::new(format!("link-{i}")))
                .collect();
        } else if !on {
            self.utilization = Vec::new();
        }
    }

    /// Enable (or disable) rate-change tracing: each allocator recomputation
    /// appends one [`FlowTraceEvent`] to an internal log. Purely
    /// observational — the rates themselves are identical with tracing on or
    /// off. Disabling clears the log.
    pub fn set_trace(&mut self, on: bool) {
        self.trace = on;
        if !on {
            self.trace_log = Vec::new();
        }
    }

    /// Drain the rate-change trace log accumulated since the last call
    /// (empty unless [`FlowSim::set_trace`] enabled tracing).
    pub fn take_trace(&mut self) -> Vec<FlowTraceEvent> {
        std::mem::take(&mut self.trace_log)
    }

    /// Find or create the class for `spec`, consuming its route. Marks the
    /// class's domain dirty and merges the route's links into one domain
    /// (they now share a potential bottleneck).
    fn intern_class(&mut self, spec: FlowSpec) -> usize {
        let key = ClassKey::of(&spec);
        if let Some(&c) = self.class_index.get(&key) {
            self.classes[c].members += 1;
            self.mark_route_dirty(c);
            return c;
        }
        let class = FlowClass { route: spec.route, demand: spec.demand, members: 1 };
        if let Some((&first, rest)) = class.route.split_first() {
            for l in rest {
                self.domains.union(first.index(), l.index());
            }
        }
        let c = match self.free_classes.pop() {
            Some(slot) => {
                self.classes[slot] = class;
                slot
            }
            None => {
                self.classes.push(class);
                self.classes.len() - 1
            }
        };
        if self.class_rate.len() <= c {
            self.class_rate.resize(c + 1, 0.0);
        }
        self.class_rate[c] = 0.0;
        self.class_index.insert(key, c);
        self.mark_route_dirty(c);
        c
    }

    /// Mark class `c`'s domain dirty (its member set or environment changed).
    fn mark_route_dirty(&mut self, c: usize) {
        let route = &self.classes[c].route;
        if route.is_empty() {
            self.dirty_nolink = true;
        } else {
            // One route link suffices: every link of the route is already in
            // the same domain by the union in `intern_class`.
            self.dirty_links.push(route[0].index());
        }
        self.dirty = true;
    }

    /// Drop one membership from class `c`, tombstoning the slot when empty.
    fn release_class(&mut self, c: usize) {
        self.mark_route_dirty(c);
        let cl = &mut self.classes[c];
        cl.members -= 1;
        if cl.members == 0 {
            let key = ClassKey {
                route: std::mem::take(&mut cl.route),
                demand_bits: cl.demand.map_or(u64::MAX, f64::to_bits),
            };
            self.class_index.remove(&key);
            self.free_classes.push(c);
        }
    }

    /// Re-solve the max-min allocation **incrementally**: only the domains a
    /// change touched since the last recomputation are solved; every other
    /// domain's classes keep their persistent rates untouched. Domains are
    /// max-min-independent by construction (no shared link ⇒ no shared
    /// bottleneck), so solving them separately gives the same allocation a
    /// joint solve would.
    fn recompute(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.next.set(None);
        self.recomputes += 1;
        self.solve_dirty_domains();
        if self.trace {
            let mut min_rate = f64::INFINITY;
            let mut max_rate = 0.0f64;
            for f in &self.flows {
                let r = self.class_rate[f.class];
                min_rate = min_rate.min(r);
                max_rate = max_rate.max(r);
            }
            if self.flows.is_empty() {
                min_rate = 0.0;
            }
            self.trace_log.push(FlowTraceEvent {
                at: self.now,
                active: self.flows.len(),
                min_rate,
                max_rate,
            });
        }
        if self.utilization.is_empty() {
            return;
        }
        // Record the new per-link utilization from this instant onward,
        // accumulating loads in flow arrival order (the same summation order
        // as the per-flow reference, so the statistics match bit for bit).
        self.load.clear();
        self.load.resize(self.net.capacity.len(), 0.0);
        for f in &self.flows {
            let rate = self.class_rate[f.class];
            for l in &self.classes[f.class].route {
                self.load[l.index()] += rate;
            }
        }
        for (li, load) in self.load.iter().enumerate() {
            self.utilization[li].set(self.now, load / self.net.capacity[li]);
        }
    }

    /// Solve every domain marked dirty since the last recomputation,
    /// updating the persistent `class_rate` table in place.
    fn solve_dirty_domains(&mut self) {
        let n_links = self.net.capacity.len();
        let ds = &mut self.dscratch;
        if ds.link_epoch.len() < n_links {
            ds.link_epoch.resize(n_links, 0);
            ds.root_epoch.resize(n_links, 0);
            ds.residual.resize(n_links, 0.0);
            ds.unfrozen_on.resize(n_links, 0);
        }
        ds.epoch += 1;
        ds.dirty_roots.clear();
        for &l in &self.dirty_links {
            let r = self.domains.find(l);
            if ds.root_epoch[r] != ds.epoch {
                ds.root_epoch[r] = ds.epoch;
                ds.dirty_roots.push(r);
            }
        }
        self.dirty_links.clear();
        // Dirty marks arrive in event order; solve in root order so the
        // allocator's work schedule is a function of the state, not the
        // history that produced it.
        ds.dirty_roots.sort_unstable();

        // Link-free classes are their own pseudo-domains: crossing no link,
        // their max-min rate is exactly the (validated, mandatory) demand —
        // the same value the reference allocator assigns them solved alone.
        if self.dirty_nolink {
            self.dirty_nolink = false;
            for (c, cl) in self.classes.iter().enumerate() {
                if cl.members > 0 && cl.route.is_empty() {
                    self.class_rate[c] =
                        cl.demand.expect("validated: a link-free flow carries a demand");
                }
            }
        }

        for ri in 0..self.dscratch.dirty_roots.len() {
            let root = self.dscratch.dirty_roots[ri];
            // The domain's live classes, in class-index order. Finding the
            // root of one route link suffices: `intern_class` unioned every
            // route into a single domain.
            self.dscratch.class_ids.clear();
            for (c, cl) in self.classes.iter().enumerate() {
                if cl.members == 0 || cl.route.is_empty() {
                    continue;
                }
                if self.domains.find(cl.route[0].index()) == root {
                    self.dscratch.class_ids.push(c);
                }
            }
            if self.dscratch.class_ids.is_empty() {
                continue;
            }
            self.domain_solves += 1;
            solve_domain(
                &self.net.capacity,
                &self.classes,
                &mut self.dscratch,
                &mut self.class_rate,
            );
            #[cfg(debug_assertions)]
            self.assert_domain_matches_reference(root);
        }
    }

    /// Debug-build cross-check of the domain-incremental fast path: the
    /// domain's rates must match [`FlowNet::max_min_rates_ref`] run on the
    /// domain's flows alone, bit for bit.
    #[cfg(debug_assertions)]
    fn assert_domain_matches_reference(&mut self, root: usize) {
        let mut cids = Vec::new();
        let mut specs = Vec::new();
        for f in &self.flows {
            let c = f.class;
            let cl = &self.classes[c];
            if cl.route.is_empty() {
                continue;
            }
            if self.domains.find(cl.route[0].index()) == root {
                cids.push(c);
                specs.push(FlowSpec { route: cl.route.clone(), demand: cl.demand });
            }
        }
        let rates = self.net.max_min_rates_ref(&specs);
        for (c, r) in cids.iter().zip(&rates) {
            debug_assert!(
                self.class_rate[*c].to_bits() == r.to_bits(),
                "domain-incremental solve diverged from max_min_rates_ref \
                 (class {c}: fast {} vs reference {r})",
                self.class_rate[*c],
            );
        }
    }

    /// Time-weighted mean utilization of `link` over `[0, now]`, in `[0, 1]`
    /// (zero before any time has elapsed).
    ///
    /// # Panics
    ///
    /// Panics unless [`FlowSim::set_track_utilization`] enabled tracking.
    pub fn mean_utilization(&self, link: LinkId) -> f64 {
        assert!(!self.utilization.is_empty(), "utilization tracking is off");
        if self.now == SimTime::ZERO {
            0.0
        } else {
            self.utilization[link.index()].mean(self.now)
        }
    }

    /// Peak instantaneous utilization observed on `link`.
    ///
    /// # Panics
    ///
    /// Panics unless [`FlowSim::set_track_utilization`] enabled tracking.
    pub fn peak_utilization(&self, link: LinkId) -> f64 {
        assert!(!self.utilization.is_empty(), "utilization tracking is off");
        self.utilization[link.index()].peak()
    }

    /// Advance the clock to `now`, draining bytes at current rates.
    ///
    /// # Panics
    ///
    /// Panics if `now` is in the past.
    pub fn advance(&mut self, now: SimTime) {
        assert!(now >= self.now, "FlowSim cannot go backwards in time");
        let dt = (now - self.now).as_secs_f64();
        if dt > 0.0 {
            for f in &mut self.flows {
                f.remaining = (f.remaining - self.class_rate[f.class] * dt).max(0.0);
            }
            self.next.set(None);
        }
        self.now = now;
    }

    /// Start a transfer of `bytes` over `spec` at time `now` (advancing the
    /// clock there first). Returns the flow's id.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not finite and positive, or `now` is in the past.
    pub fn add_flow(&mut self, now: SimTime, spec: FlowSpec, bytes: f64) -> FlowId {
        assert!(bytes.is_finite() && bytes > 0.0, "transfer size must be positive");
        self.net.validate(&spec);
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let class = self.intern_class(spec);
        self.flows.push(ActiveFlow { id, class, remaining: bytes });
        self.recompute();
        id
    }

    /// Change one link's capacity at time `now` and redistribute the active
    /// flows' rates max-min fairly over the new capacities. Bytes already in
    /// flight drain at the old rates up to `now`, then at the new ones — the
    /// fluid analogue of a PCIe link degrading (or recovering) mid-transfer.
    ///
    /// Setting a link to its current capacity is a no-op (no recomputation).
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown, `bytes_per_sec` is not finite and
    /// positive, or `now` is in the past.
    pub fn set_capacity(&mut self, now: SimTime, link: LinkId, bytes_per_sec: f64) {
        self.set_capacities(now, &[(link, bytes_per_sec)]);
    }

    /// Apply a batch of capacity changes at time `now` with a *single* rate
    /// redistribution — a fault storm degrading N links costs one
    /// recomputation instead of N. Updates that leave a link's capacity
    /// unchanged are ignored; if the whole batch is no-op the allocator is
    /// skipped entirely.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`FlowSim::set_capacity`].
    pub fn set_capacities(&mut self, now: SimTime, updates: &[(LinkId, f64)]) {
        self.advance(now);
        for &(link, bytes_per_sec) in updates {
            assert!(link.index() < self.net.capacity.len(), "unknown link");
            if self.net.capacity(link) != bytes_per_sec {
                self.net.set_capacity(link, bytes_per_sec);
                self.dirty_links.push(link.index());
                self.dirty = true;
            }
        }
        self.recompute();
    }

    /// Remaining bytes of a flow (`None` if unknown/completed).
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.find(id).map(|i| self.flows[i].remaining)
    }

    /// Current rate of a flow in bytes/s (`None` if unknown).
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.find(id).map(|i| self.class_rate[self.flows[i].class])
    }

    /// Position of an active flow in the arrival-ordered table.
    fn find(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |f| f.id).ok()
    }

    /// The earliest `(time, flow)` completion under current rates, if any
    /// flow is active. Ties break toward the earliest-started flow.
    ///
    /// Two passes over plain f64s instead of one [`SimTime`] conversion per
    /// flow. Pass 1 finds the first flow with the smallest time-to-finish
    /// `dt`; pass 2 returns the first flow before it in arrival order whose
    /// `dt` converts to the same picosecond, or that flow itself. Because `SimTime::from_secs_f64` and `+` are monotone,
    /// that is exactly the flow a per-flow scan keeping the first strict
    /// minimum of `now + from_secs_f64(dt)` returns — including when a later
    /// flow's `dt` is smaller by less than the rounding of one picosecond.
    /// The result is cached until the next mutation.
    ///
    /// # Panics
    ///
    /// Panics if some flow's finish time is not a valid [`SimTime`] (NaN,
    /// negative, infinite or past the representable range) — the same
    /// condition under which a per-flow conversion panics.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        if let Some(cached) = self.next.get() {
            return cached;
        }
        let next = self.scan_next_completion();
        self.next.set(Some(next));
        next
    }

    /// Time-to-finish of `f` in seconds, if it is draining at all.
    fn finish_dt(&self, f: &ActiveFlow) -> Option<f64> {
        let rate = self.class_rate[f.class];
        (rate > 0.0).then(|| f.remaining / rate)
    }

    fn scan_next_completion(&self) -> Option<(SimTime, FlowId)> {
        // Pass 1: the first flow with the smallest time-to-finish, and the
        // largest time-to-finish.
        let (mut lo, mut hi, mut nan, mut first) = (f64::INFINITY, f64::NEG_INFINITY, false, 0);
        for (i, f) in self.flows.iter().enumerate() {
            let Some(dt) = self.finish_dt(f) else { continue };
            if dt < lo {
                (lo, first) = (dt, i);
            }
            hi = hi.max(dt);
            nan |= dt.is_nan();
        }
        assert!(!nan, "invalid duration: NaN");
        if hi == f64::NEG_INFINITY {
            return None; // no flow is draining
        }
        // Conversion is monotone, so converting the extremes checks every
        // flow: the earliest is a valid duration, the latest fits after `now`.
        let target = SimTime::from_secs_f64(lo);
        if hi > lo {
            let _ = self.now + SimTime::from_secs_f64(hi);
        }
        // Pass 2: an earlier-started flow wins the tie if its larger `dt`
        // still converts to `target`'s picosecond. Such a `dt` lies below
        // `lo` + 1 ps up to a few ulps of rounding, which the 1e-12 relative
        // margin of the prefilter covers many times over.
        let cut = (lo + 1e-12) * (1.0 + 1e-12);
        let winner = self.flows[..first]
            .iter()
            .find(|f| {
                self.finish_dt(f)
                    .is_some_and(|dt| dt <= cut && SimTime::from_secs_f64(dt) == target)
            })
            .unwrap_or(&self.flows[first]);
        Some((self.now + target, winner.id))
    }

    /// The tie rule spelled out as a per-flow scan, the oracle for
    /// [`FlowSim::next_completion`]: keep the first strict minimum of the
    /// converted finish time in arrival order.
    #[cfg(test)]
    fn next_completion_ref(&self) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        for f in &self.flows {
            let rate = self.class_rate[f.class];
            if rate <= 0.0 {
                continue;
            }
            let t = self.now + SimTime::from_secs_f64(f.remaining / rate);
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, f.id));
            }
        }
        best
    }

    /// Remove a completed (or cancelled) flow at time `now` and recompute
    /// remaining rates.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not active or `now` is in the past.
    pub fn complete(&mut self, now: SimTime, id: FlowId) {
        self.advance(now);
        let Some(i) = self.find(id) else {
            panic!("unknown flow {id:?}")
        };
        let flow = self.flows.remove(i);
        self.release_class(flow.class);
        self.recompute();
    }

    /// Run all active flows to completion, returning `(time, flow)` pairs in
    /// completion order.
    pub fn drain(&mut self) -> Vec<(SimTime, FlowId)> {
        let mut done = Vec::new();
        while let Some((t, id)) = self.next_completion() {
            self.complete(t, id);
            done.push((t, id));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::link;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The oracle's rates for `flows` (arrival order): each domain's flows
    /// solved alone by [`FlowNet::max_min_rates_ref`], link-free flows at
    /// exactly their demand. `domain_of` labels the domain of a route link.
    fn per_domain_oracle(
        net: &FlowNet,
        flows: &[FlowSpec],
        mut domain_of: impl FnMut(LinkId) -> usize,
    ) -> Vec<f64> {
        let mut rates = vec![0.0; flows.len()];
        let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, f) in flows.iter().enumerate() {
            match f.route.first() {
                Some(&l) => members.entry(domain_of(l)).or_default().push(i),
                None => rates[i] = f.demand.expect("a link-free flow carries a demand"),
            }
        }
        for ids in members.values() {
            let specs: Vec<FlowSpec> = ids.iter().map(|&i| flows[i].clone()).collect();
            for (&i, r) in ids.iter().zip(net.max_min_rates_ref(&specs)) {
                rates[i] = r;
            }
        }
        rates
    }

    /// Every live flow of `sim` runs at its oracle rate bit for bit, and no
    /// link is oversubscribed. `domain_of` labels the domain of a route link.
    fn assert_rates_match_oracle(sim: &FlowSim, domain_of: impl FnMut(LinkId) -> usize) {
        let specs: Vec<FlowSpec> = sim
            .flows
            .iter()
            .map(|f| {
                let cl = &sim.classes[f.class];
                FlowSpec { route: cl.route.clone(), demand: cl.demand }
            })
            .collect();
        let rates: Vec<f64> = sim.flows.iter().map(|f| sim.class_rate[f.class]).collect();
        let oracle = per_domain_oracle(sim.net(), &specs, domain_of);
        for (i, (r, o)) in rates.iter().zip(&oracle).enumerate() {
            assert_eq!(r.to_bits(), o.to_bits(), "flow {i} ({:?}): sim={r} oracle={o}", specs[i]);
        }
        let loads = sim.net().link_loads(&specs, &rates);
        for (li, &l) in loads.iter().enumerate() {
            let cap = sim.net().capacity[li];
            assert!(l <= cap * (1.0 + 1e-6), "link {li} oversubscribed: {l} > {cap}");
        }
    }

    /// Add `flows` to a fresh [`FlowSim`] at t = 0 and check the rates it
    /// settles on against the per-domain oracle, with domains taken from
    /// [`FlowNet::domains`].
    fn assert_settled_rates_match_oracle(net: &FlowNet, flows: &[FlowSpec]) {
        let mut sim = FlowSim::new(net.clone());
        for f in flows {
            let _ = sim.add_flow(SimTime::ZERO, f.clone(), 1e6);
        }
        let domains = net.domains(flows.iter().map(|f| f.route.as_slice()));
        assert_rates_match_oracle(&sim, |l| domains.domain_of(l).expect("a routed link"));
    }

    #[test]
    fn equal_flows_split_a_link_evenly() {
        let net = FlowNet::from_capacities(vec![10.0]);
        let flows = vec![FlowSpec::new(vec![link(0)]); 4];
        let rates = net.max_min_rates_ref(&flows);
        for r in rates {
            assert!((r - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn domains_partition_links_by_route_coupling() {
        let net = FlowNet::from_capacities(vec![1.0; 7]);
        // Routes: {0,1}, {1,2} (couples with the first), {4,5}; links 3 and 6
        // are untouched.
        let routes: Vec<Vec<LinkId>> = vec![
            vec![link(0), link(1)],
            vec![link(1), link(2)],
            vec![link(4), link(5)],
        ];
        let d = net.domains(routes.iter().map(Vec::as_slice));
        assert_eq!(d.count(), 2);
        assert_eq!(d.domain_of(link(0)), Some(0));
        assert_eq!(d.domain_of(link(1)), Some(0));
        assert_eq!(d.domain_of(link(2)), Some(0));
        assert_eq!(d.domain_of(link(3)), None);
        assert_eq!(d.domain_of(link(4)), Some(1));
        assert_eq!(d.domain_of(link(5)), Some(1));
        assert_eq!(d.sizes(), vec![3, 2]);
        assert!(d.independent(link(0), link(4)));
        assert!(d.independent(link(0), link(3)));
        assert!(!d.independent(link(0), link(2)));
        // Labeling is insensitive to route order (ids follow smallest link).
        let mut rev = routes.clone();
        rev.reverse();
        assert_eq!(d, net.domains(rev.iter().map(Vec::as_slice)));
    }

    #[test]
    fn domain_rates_are_independent_across_domains() {
        // Two disjoint domains: squeezing a link in one must not move rates
        // in the other — the property that makes domains safe parallel units.
        let net = FlowNet::from_capacities(vec![10.0, 10.0, 8.0, 8.0]);
        let flows = vec![
            FlowSpec::new(vec![link(0), link(1)]),
            FlowSpec::new(vec![link(1)]),
            FlowSpec::new(vec![link(2), link(3)]),
        ];
        let d = net.domains(flows.iter().map(|f| f.route.as_slice()));
        assert_eq!(d.count(), 2);
        let before = net.max_min_rates_ref(&flows);
        let mut squeezed = net.clone();
        squeezed.set_capacity(link(2), 1.0);
        let after = squeezed.max_min_rates_ref(&flows);
        assert_eq!(before[0], after[0]);
        assert_eq!(before[1], after[1]);
        assert!(after[2] < before[2]);
    }

    #[test]
    fn classic_max_min_example() {
        // Links: L0 cap 10 shared by f0,f1,f2; L1 cap 4 crossed by f2 only.
        // f2 is limited to 4 by L1? No: progressive filling freezes at
        // min(10/3, 4/1) = 10/3 on L0 first; all freeze at 10/3.
        let net = FlowNet::from_capacities(vec![10.0, 4.0]);
        let flows = vec![
            FlowSpec::new(vec![link(0)]),
            FlowSpec::new(vec![link(0)]),
            FlowSpec::new(vec![link(0), link(1)]),
        ];
        let rates = net.max_min_rates_ref(&flows);
        for r in &rates {
            assert!((r - 10.0 / 3.0).abs() < 1e-9, "rates={rates:?}");
        }
    }

    #[test]
    fn bottlenecked_flow_releases_capacity_to_others() {
        // L0 cap 10 shared by f0,f1; f1 also crosses L1 cap 2.
        // f1 freezes at 2 (L1 saturates), f0 then takes 8.
        let net = FlowNet::from_capacities(vec![10.0, 2.0]);
        let flows = vec![
            FlowSpec::new(vec![link(0)]),
            FlowSpec::new(vec![link(0), link(1)]),
        ];
        let rates = net.max_min_rates_ref(&flows);
        assert!((rates[1] - 2.0).abs() < 1e-9);
        assert!((rates[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn demand_caps_respected_and_redistributed() {
        let net = FlowNet::from_capacities(vec![10.0]);
        let flows = vec![
            FlowSpec::with_demand(vec![link(0)], 1.0),
            FlowSpec::new(vec![link(0)]),
        ];
        let rates = net.max_min_rates_ref(&flows);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn empty_route_flow_runs_at_demand() {
        let net = FlowNet::from_capacities(vec![10.0]);
        let flows = vec![FlowSpec::with_demand(vec![], 3.5)];
        let rates = net.max_min_rates_ref(&flows);
        assert!((rates[0] - 3.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty route needs a demand cap")]
    fn unconstrained_empty_flow_rejected() {
        let net = FlowNet::from_capacities(vec![10.0]);
        net.max_min_rates_ref(&[FlowSpec::new(vec![])]);
    }

    #[test]
    fn no_link_oversubscribed() {
        let net = FlowNet::from_capacities(vec![7.0, 3.0, 11.0]);
        let flows = vec![
            FlowSpec::new(vec![link(0), link(1)]),
            FlowSpec::new(vec![link(0), link(2)]),
            FlowSpec::new(vec![link(1), link(2)]),
            FlowSpec::with_demand(vec![link(2)], 2.0),
        ];
        let rates = net.max_min_rates_ref(&flows);
        let loads = net.link_loads(&flows, &rates);
        for (li, &l) in loads.iter().enumerate() {
            assert!(
                l <= net.capacity[li] * (1.0 + 1e-6),
                "link {li} oversubscribed: {l} > {}",
                net.capacity[li]
            );
        }
    }

    #[test]
    fn flow_sim_shares_then_speeds_up() {
        // 1 GB/s link; two 1 MB transfers start together. After the first
        // completes at 2ms... they tie; complete one, the other finishes at
        // the same instant since both drained together.
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        let b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        assert!((sim.rate(a).unwrap() - 5e8).abs() < 1.0);
        let done = sim.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, SimTime::from_millis(2));
        assert_eq!(done[1].0, SimTime::from_millis(2));
        let _ = b;
    }

    #[test]
    fn late_flow_slows_early_flow() {
        // 1 GB/s link. Flow A (2 MB) alone for 1 ms (1 MB done), then B
        // (0.5 MB) joins: both at 0.5 GB/s. B finishes at 1ms + 1ms = 2ms;
        // A has 0.5 MB left at 2ms, alone again -> finishes at 2.5ms.
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
        let b = sim.add_flow(SimTime::from_millis(1), FlowSpec::new(vec![link(0)]), 5e5);
        let done = sim.drain();
        assert_eq!(done[0].1, b);
        assert_eq!(done[0].0, SimTime::from_millis(2));
        assert_eq!(done[1].1, a);
        assert_eq!(done[1].0, SimTime::from_micros(2500));
    }

    #[test]
    fn completion_frees_bandwidth() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        let _b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
        let (t, id) = sim.next_completion().unwrap();
        assert_eq!(id, a);
        sim.complete(t, a);
        // b now runs at full rate.
        let (_tb, idb) = sim.next_completion().unwrap();
        assert!((sim.rate(idb).unwrap() - 1e9).abs() < 1.0);
        assert_eq!(sim.active(), 1);
    }

    #[test]
    fn utilization_tracks_load_over_time() {
        // One 1 GB/s link: a flow saturates it for 1 ms, then idle 1 ms.
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        sim.set_track_utilization(true);
        let f = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        let (t, _) = sim.next_completion().unwrap();
        sim.complete(t, f);
        assert_eq!(sim.peak_utilization(link(0)), 1.0);
        sim.advance(SimTime::from_millis(2));
        let mean = sim.mean_utilization(link(0));
        assert!((mean - 0.5).abs() < 1e-6, "mean={mean}");
    }

    #[test]
    fn utilization_shares_between_flows() {
        // Demand-capped flow uses half the link.
        let net = FlowNet::from_capacities(vec![10.0]);
        let mut sim = FlowSim::new(net);
        sim.set_track_utilization(true);
        let _ = sim.add_flow(SimTime::ZERO, FlowSpec::with_demand(vec![link(0)], 5.0), 50.0);
        sim.advance(SimTime::from_secs(1));
        assert!((sim.mean_utilization(link(0)) - 0.5).abs() < 1e-6);
        assert_eq!(sim.peak_utilization(link(0)), 0.5);
    }

    #[test]
    fn rate_trace_records_recomputes_without_affecting_rates() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut traced = FlowSim::new(net.clone());
        traced.set_trace(true);
        let mut plain = FlowSim::new(net);

        for sim in [&mut traced, &mut plain] {
            let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
            let _b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
            let (t, id) = sim.next_completion().unwrap();
            assert_eq!(id, a);
            sim.complete(t, id);
        }
        // Identical completions either way.
        assert_eq!(traced.next_completion(), plain.next_completion());

        let log = traced.take_trace();
        assert_eq!(log.len(), 3, "add, add, complete each recompute");
        // Two flows sharing 1 GB/s: min == max == 0.5 GB/s.
        assert_eq!(log[1].active, 2);
        assert!((log[1].min_rate - 0.5e9).abs() < 1.0);
        assert!((log[1].max_rate - 0.5e9).abs() < 1.0);
        // Survivor gets the full link.
        assert_eq!(log[2].active, 1);
        assert!((log[2].max_rate - 1e9).abs() < 1.0);
        assert!(traced.take_trace().is_empty(), "drained");
        assert!(plain.take_trace().is_empty(), "off by default");
    }

    #[test]
    fn degrading_a_link_slows_the_flow_crossing_it() {
        // 1 GB/s link, 2 MB transfer. After 1 ms (1 MB done) the link
        // degrades to a quarter: the remaining 1 MB takes 4 ms -> 5 ms total.
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let f = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
        sim.set_capacity(SimTime::from_millis(1), link(0), 0.25e9);
        let (t, id) = sim.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t, SimTime::from_millis(5));
    }

    #[test]
    fn restoring_a_link_speeds_the_flow_back_up() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let f = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
        sim.set_capacity(SimTime::ZERO, link(0), 0.5e9);
        sim.set_capacity(SimTime::from_millis(2), link(0), 1e9);
        // 1 MB drained in the degraded first 2 ms, 1 MB at full rate after.
        let (t, id) = sim.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t, SimTime::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let mut net = FlowNet::from_capacities(vec![1e9]);
        net.set_capacity(link(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot go backwards")]
    fn flow_sim_rejects_time_travel() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        sim.advance(SimTime::from_millis(5));
        sim.advance(SimTime::from_millis(1));
    }

    #[test]
    fn fast_allocator_is_bit_identical_to_reference() {
        // Not just close: the domain solver replays the oracle's exact
        // arithmetic, so the DES results it feeds stay byte-identical.
        let net = FlowNet::from_capacities(vec![7.0, 3.0, 11.0, 1e9]);
        let flows = vec![
            FlowSpec::new(vec![link(0), link(1)]),
            FlowSpec::new(vec![link(0), link(1)]), // same class as above
            FlowSpec::new(vec![link(0), link(2)]),
            FlowSpec::with_demand(vec![link(2)], 2.0),
            FlowSpec::with_demand(vec![link(2)], 2.0),
            FlowSpec::with_demand(vec![], 3.5),
            FlowSpec::new(vec![link(3)]),
            FlowSpec::new(vec![link(1), link(2), link(3)]),
        ];
        assert_settled_rates_match_oracle(&net, &flows);
    }

    #[test]
    fn batched_capacity_change_recomputes_once() {
        let net = FlowNet::from_capacities(vec![10.0, 10.0, 10.0]);
        let mut sim = FlowSim::new(net);
        let _ = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0), link(1)]), 100.0);
        let _ = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(2)]), 100.0);
        let before = sim.recomputes();
        sim.set_capacities(
            SimTime::ZERO,
            &[(link(0), 5.0), (link(1), 4.0), (link(2), 2.0)],
        );
        assert_eq!(sim.recomputes(), before + 1, "storm must cost one recompute");
        assert!((sim.rate(FlowId(0)).unwrap() - 4.0).abs() < 1e-9);
        assert!((sim.rate(FlowId(1)).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_change_resolves_only_the_dirty_domain() {
        // Two flows on disjoint links form two independent domains. Squeezing
        // link 0 must cost exactly one domain solve, and the untouched
        // domain's rate must come out bit-identical — not merely close.
        let net = FlowNet::from_capacities(vec![1e9, 1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        let b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(1)]), 1e6);
        let b_rate = sim.rate(b).unwrap();
        let solves = sim.domain_solves();
        sim.set_capacity(SimTime::ZERO, link(0), 0.5e9);
        assert_eq!(
            sim.domain_solves(),
            solves + 1,
            "only link 0's domain is dirty; link 1's must not be re-solved"
        );
        assert_eq!(sim.rate(b).unwrap().to_bits(), b_rate.to_bits());
        assert!((sim.rate(a).unwrap() - 0.5e9).abs() < 1e-9);
    }

    #[test]
    fn noop_capacity_change_skips_the_allocator() {
        let net = FlowNet::from_capacities(vec![10.0]);
        let mut sim = FlowSim::new(net);
        let f = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 100.0);
        let before = sim.recomputes();
        sim.set_capacity(SimTime::from_millis(1), link(0), 10.0);
        sim.set_capacities(SimTime::from_millis(2), &[]);
        assert_eq!(sim.recomputes(), before, "unchanged capacities must be free");
        assert!((sim.rate(f).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn class_slots_are_reclaimed() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        for _ in 0..100 {
            let f = sim.add_flow(sim.now(), FlowSpec::new(vec![link(0)]), 1e3);
            let (t, _) = sim.next_completion().unwrap();
            sim.complete(t, f);
        }
        assert!(
            sim.classes.len() <= 1,
            "churning one route must reuse its tombstoned class slot"
        );
    }

    #[test]
    fn next_completion_prefers_the_earlier_flow_within_a_picosecond() {
        // Two flows in different classes finish 0.3 ps apart; the later-
        // started one is the smaller in f64, but both convert to the same
        // picosecond, so the tie goes to the earlier-started flow. An argmin
        // over the raw f64 finish times would pick `b`.
        let net = FlowNet::from_capacities(vec![1e9, 1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6 + 3e-4);
        let b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(1)]), 1e6);
        let (ra, rb) = (sim.rate(a).unwrap(), sim.rate(b).unwrap());
        let (da, db) = (sim.remaining(a).unwrap() / ra, sim.remaining(b).unwrap() / rb);
        assert!(db < da && (da - db) * 1e12 < 0.5, "set-up: {da} vs {db}");
        assert_eq!(sim.next_completion(), Some((SimTime::from_millis(1), a)));
        assert_eq!(sim.next_completion(), sim.next_completion_ref());
    }

    #[test]
    fn sub_repeat_matches_the_plain_chain_on_adversarial_inputs() {
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1) - x;
        let p2 = 1024.0f64;
        let above = f64::from_bits(p2.to_bits() + 1);
        let u = ulp(3.0);
        let cases = [
            // r exactly at a power of two, and one ulp above it.
            (p2, 1e-3, 100_000),
            (p2, ulp(p2) * 0.3, 1_000),
            (above, ulp(p2) * 0.3, 1_000),
            (above, 1e-3, 100_000),
            // d with a fraction of exactly half an ulp of r (a tie), and one
            // and a half ulps.
            (3.0, u * 0.5, 1_000),
            (3.0, u * 1.5, 1_000),
            (3.0 + u, u * 2.5, 1_000),
            // d below half an ulp: r must not move.
            (3.0, u * 0.49, 100_000),
            (3.0, f64::MIN_POSITIVE, 10),
            // Chains that land exactly on the power of two with d/u just
            // above the rounded step: the last in-binade subtraction's exact
            // result falls below 2^e, where the grid is finer.
            (p2 + 10.0 * ulp(p2), 1.3 * ulp(p2), 100),
            (p2 + 12.0 * ulp(p2), 3.25 * ulp(p2), 100),
            (p2 + 12.0 * ulp(p2), 3.2 * ulp(p2), 100),
            // d larger than r; a chain driven through zero.
            (3.0, 5.0, 50),
            (1e9, 1e9 / 7.0, 20),
            (1e9, 1e9 / 100_000.0, 100_000),
            // r non-positive, subnormal, non-finite.
            (0.0, 1e-3, 10),
            (-0.0, 1e-3, 10),
            (-5.0, 1e-3, 10),
            (f64::MIN_POSITIVE / 4.0, f64::MIN_POSITIVE / 64.0, 100),
            (f64::INFINITY, 1.0, 10),
            (f64::NAN, 1.0, 10),
            // d = 0 and k = 0.
            (3.0, 0.0, 10),
            (3.0, -0.0, 10),
            (-0.0, 0.0, 10),
            (3.0, 1e-3, 0),
        ];
        for (r, d, k) in cases {
            let (fast, plain) = (sub_repeat(r, d, k), sub_repeat_ref(r, d, k));
            assert_eq!(fast.to_bits(), plain.to_bits(), "r={r} d={d} k={k}: {fast} vs {plain}");
        }
        assert_eq!(sub_repeat(3.0, u * 0.49, 100_000), 3.0, "sub-half-ulp d leaves r");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The batched residual kernel is the plain chain, bit for bit, on
        /// chains that cross many binades on their way toward zero.
        #[test]
        fn sub_repeat_matches_the_plain_chain(
            r in 1e-9f64..1e12,
            frac in 0.0f64..2.0,
            k in 0usize..100_000,
        ) {
            let d = r * frac / k.max(1) as f64;
            prop_assert_eq!(sub_repeat(r, d, k).to_bits(), sub_repeat_ref(r, d, k).to_bits());
        }

        /// Chains that start a whole number of rounded steps above a power
        /// of two, with every fraction of an ulp in the step, so the run
        /// ends exactly at the binade edge.
        #[test]
        fn sub_repeat_matches_the_plain_chain_at_binade_edges(
            e in -40i32..40,
            steps in 1u64..2_000,
            step in 1u64..64,
            frac in 0.0f64..1.0,
            extra in 0usize..200,
        ) {
            let u = 2f64.powi(e - 52);
            let r = (((1u64 << 52) + steps * step) as f64) * u;
            let d = (step as f64 - 0.5 + frac) * u;
            let k = steps as usize + extra;
            prop_assert_eq!(sub_repeat(r, d, k).to_bits(), sub_repeat_ref(r, d, k).to_bits());
        }

        /// Arbitrary bit patterns, NaN, infinities and subnormals included.
        #[test]
        fn sub_repeat_matches_the_plain_chain_on_any_bits(
            rb in any::<u64>(),
            db in any::<u64>(),
            k in 0usize..2_000,
        ) {
            let (r, d) = (f64::from_bits(rb), f64::from_bits(db));
            prop_assert_eq!(sub_repeat(r, d, k).to_bits(), sub_repeat_ref(r, d, k).to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random capacities and flow sets, a [`FlowSim`] with every flow
        /// added at t = 0 runs each flow at the per-domain oracle rate bit for
        /// bit (the byte-identical `results/` invariant rides on it), link-free
        /// flows at exactly their demand, and oversubscribes no link.
        #[test]
        fn fast_matches_reference_on_random_inputs(
            caps in proptest::collection::vec(0.5f64..1e4, 1..8),
            flow_picks in proptest::collection::vec(
                (proptest::collection::vec(0u32..8, 0..5), any::<bool>(), 0.1f64..1e3),
                0..24,
            ),
        ) {
            let n_links = caps.len() as u32;
            let net = FlowNet::from_capacities(caps);
            let flows: Vec<FlowSpec> = flow_picks
                .into_iter()
                .map(|(route, capped, d)| {
                    let route: Vec<LinkId> =
                        route.into_iter().map(|l| link(l % n_links)).collect();
                    if capped || route.is_empty() {
                        FlowSpec::with_demand(route, d)
                    } else {
                        FlowSpec::new(route)
                    }
                })
                .collect();
            assert_settled_rates_match_oracle(&net, &flows);
        }

        /// Along an interleaved add/complete/degrade history, every live flow
        /// runs at the per-domain oracle rate after every operation — checked
        /// here in release builds too, not only by the debug-build assertion
        /// — and the two-pass next completion agrees with the per-flow scan.
        /// Domains are the simulator's own partition, which a completed flow
        /// can leave coarser than [`FlowNet::domains`] of the live routes.
        /// Adds outnumber completions, so classes hold many flows.
        #[test]
        fn flow_sim_histories_match_reference(
            ops in proptest::collection::vec((0u8..5, 0u32..4, 1u64..1_000_000), 1..80),
        ) {
            let net = FlowNet::from_capacities(vec![1e9, 2e9, 0.5e9, 1e9]);
            let mut sim = FlowSim::new(net);
            let mut t = SimTime::ZERO;
            for &(op, l, v) in &ops {
                t += SimTime::from_nanos(v % 977);
                match op {
                    0 | 3 => {
                        let _ = sim.add_flow(
                            t,
                            FlowSpec::new(vec![link(l), link((l + 1) % 4)]),
                            v as f64,
                        );
                    }
                    1 => {
                        if let Some((ct, id)) = sim.next_completion() {
                            sim.complete(ct.max(t), id);
                            t = ct.max(t);
                        }
                    }
                    2 => {
                        sim.set_capacity(t, link(l), 0.25e9 + v as f64);
                    }
                    _ => sim.set_capacities(t, &[]), // advance only
                }
                let mut domains = sim.domains.clone();
                assert_rates_match_oracle(&sim, |l| domains.find(l.index()));
                prop_assert_eq!(sim.next_completion(), sim.next_completion_ref());
            }
        }
    }
}
