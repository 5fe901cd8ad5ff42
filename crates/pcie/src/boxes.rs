//! The paper's "box" constructions and chained server topologies.
//!
//! §III-A: *"a box consists of multiple devices and several PCIe switches,
//! and has two external ports (an uplink and a downlink). To scale the number
//! of devices, we chain the boxes from the root complex by connecting the
//! uplink and the downlink of two boxes."*
//!
//! §V-D (train box): *"we place four neural network accelerators and an FPGA
//! under a PCIe switch and connect two of such switches using another switch
//! having two NVMe SSDs."*
//!
//! This module builds the topologies of:
//!
//! * Fig 7 — the baseline: chained accelerator boxes plus SSD boxes;
//! * Fig 13 — Step 1: baseline plus chained preparation boxes;
//! * Fig 15/18 — TrainBox: chained *train boxes* that cluster SSDs, prep
//!   accelerators, and NN accelerators under one switch, plus a separate
//!   Ethernet preparation network to the prep-pool.
//!
//! Chaining matters for the bottleneck analysis: every chained box reaches
//! the root complex through the top switch of each box before it, so the
//! whole chain shares a single root-complex port pair — the "single-point
//! hotspot" of §I that clustering removes.

use crate::bandwidth::{Bandwidth, Generation};
use crate::topology::{EndpointKind, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Devices per train box, following §V-D / DGX-2 conventions.
pub const ACCS_PER_TRAIN_BOX: usize = 8;
/// FPGAs per train box (one per 4-accelerator switch).
pub const PREPS_PER_TRAIN_BOX: usize = 2;
/// NVMe SSDs per train box.
pub const SSDS_PER_TRAIN_BOX: usize = 2;
/// Accelerators per baseline accelerator box.
pub const ACCS_PER_ACC_BOX: usize = 8;
/// Prep accelerators per preparation box.
pub const PREPS_PER_PREP_BOX: usize = 8;
/// SSDs per baseline SSD box.
pub const SSDS_PER_SSD_BOX: usize = 8;
/// PCIe chains hanging off the root complex (DGX-2 style: one per CPU socket).
pub const DEFAULT_CHAINS: usize = 2;

/// What a box contains (for reporting and traffic construction).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoxInfo {
    /// The box's top switch (its uplink attaches to the previous box or RC).
    pub top: NodeId,
    /// NN accelerators in the box.
    pub accs: Vec<NodeId>,
    /// Data-preparation accelerators in the box.
    pub preps: Vec<NodeId>,
    /// SSDs in the box.
    pub ssds: Vec<NodeId>,
}

/// A fully built server interconnect plus grouped device ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerTopology {
    /// The PCIe tree.
    pub topo: Topology,
    /// All NN accelerators, in box order.
    pub accs: Vec<NodeId>,
    /// All data-preparation accelerators, in box order.
    pub preps: Vec<NodeId>,
    /// All SSDs, in box order.
    pub ssds: Vec<NodeId>,
    /// Per-box inventory, in chain order.
    pub boxes: Vec<BoxInfo>,
}

impl ServerTopology {
    /// The directed links incident to the root complex (the RC hotspot that
    /// Figure 10c measures pressure on).
    pub fn rc_links(&self) -> Vec<crate::topology::LinkId> {
        self.topo
            .links()
            .filter(|(_, l)| l.upstream == self.topo.root())
            .map(|(id, _)| id)
            .collect()
    }
}

/// Builder for chained-box server topologies.
///
/// # Example
///
/// ```
/// use trainbox_pcie::boxes::ServerBuilder;
/// use trainbox_pcie::Generation;
///
/// let server = ServerBuilder::new(Generation::Gen3).baseline(16, 8);
/// assert_eq!(server.accs.len(), 16);
/// assert_eq!(server.ssds.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    gen: Generation,
    chains: usize,
}

impl ServerBuilder {
    /// A builder using PCIe generation `gen` and [`DEFAULT_CHAINS`] chains.
    pub fn new(gen: Generation) -> Self {
        ServerBuilder { gen, chains: DEFAULT_CHAINS }
    }

    /// Override the number of chains from the root complex.
    ///
    /// # Panics
    ///
    /// Panics if `chains` is zero.
    pub fn chains(mut self, chains: usize) -> Self {
        assert!(chains > 0, "need at least one chain");
        self.chains = chains;
        self
    }

    fn x16(&self) -> Bandwidth {
        self.gen.lanes(16)
    }

    fn x4(&self) -> Bandwidth {
        self.gen.lanes(4)
    }

    /// Build the Fig 7 baseline: `n_acc` accelerators in acc boxes and
    /// `n_ssd` SSDs in SSD boxes, chained round-robin across the chains.
    ///
    /// # Panics
    ///
    /// Panics if `n_acc` is zero.
    pub fn baseline(&self, n_acc: usize, n_ssd: usize) -> ServerTopology {
        assert!(n_acc > 0, "a training server needs at least one accelerator");
        let mut b = Build::new(self);
        let acc_boxes = n_acc.div_ceil(ACCS_PER_ACC_BOX);
        let ssd_boxes = n_ssd.div_ceil(SSDS_PER_SSD_BOX);
        for i in 0..acc_boxes {
            let take = (n_acc - i * ACCS_PER_ACC_BOX).min(ACCS_PER_ACC_BOX);
            b.acc_box(take);
        }
        for i in 0..ssd_boxes {
            let take = (n_ssd - i * SSDS_PER_SSD_BOX).min(SSDS_PER_SSD_BOX);
            b.ssd_box(take);
        }
        b.finish()
    }

    /// Build the Fig 13 Step-1 server: the baseline plus `n_prep` preparation
    /// accelerators in chained prep boxes. `gpu` selects GPU-style prep
    /// endpoints (Fig 21's comparison arm) instead of FPGAs.
    pub fn with_prep_boxes(
        &self,
        n_acc: usize,
        n_ssd: usize,
        n_prep: usize,
        gpu: bool,
    ) -> ServerTopology {
        assert!(n_acc > 0, "a training server needs at least one accelerator");
        let mut b = Build::new(self);
        let acc_boxes = n_acc.div_ceil(ACCS_PER_ACC_BOX);
        for i in 0..acc_boxes {
            b.acc_box((n_acc - i * ACCS_PER_ACC_BOX).min(ACCS_PER_ACC_BOX));
        }
        let ssd_boxes = n_ssd.div_ceil(SSDS_PER_SSD_BOX);
        for i in 0..ssd_boxes {
            b.ssd_box((n_ssd - i * SSDS_PER_SSD_BOX).min(SSDS_PER_SSD_BOX));
        }
        let prep_boxes = n_prep.div_ceil(PREPS_PER_PREP_BOX);
        for i in 0..prep_boxes {
            b.prep_box((n_prep - i * PREPS_PER_PREP_BOX).min(PREPS_PER_PREP_BOX), gpu);
        }
        b.finish()
    }

    /// Build the Fig 15/18 TrainBox server: `n_boxes` train boxes, each with
    /// 8 NN accelerators, 2 prep FPGAs, and 2 SSDs clustered under one switch.
    ///
    /// # Panics
    ///
    /// Panics if `n_boxes` is zero.
    pub fn train_boxes(&self, n_boxes: usize) -> ServerTopology {
        assert!(n_boxes > 0, "need at least one train box");
        let mut b = Build::new(self);
        for _ in 0..n_boxes {
            b.train_box();
        }
        b.finish()
    }
}

/// In-progress build state.
struct Build<'a> {
    cfg: &'a ServerBuilder,
    topo: Topology,
    /// Tail switch of each chain (next box attaches under it).
    tails: Vec<NodeId>,
    next_chain: usize,
    boxes: Vec<BoxInfo>,
}

impl<'a> Build<'a> {
    fn new(cfg: &'a ServerBuilder) -> Self {
        let topo = Topology::new(cfg.x16());
        let root = topo.root();
        Build {
            cfg,
            topo,
            tails: vec![root; cfg.chains],
            next_chain: 0,
            boxes: Vec::new(),
        }
    }

    /// Attach a new box top switch to the shortest chain (round-robin).
    fn attach_top(&mut self) -> NodeId {
        let chain = self.next_chain;
        self.next_chain = (self.next_chain + 1) % self.tails.len();
        let parent = self.tails[chain];
        let top = self.topo.add_switch(parent, self.cfg.x16());
        self.tails[chain] = top;
        top
    }

    fn acc_box(&mut self, n: usize) {
        let top = self.attach_top();
        let mut accs = Vec::new();
        // Two leaf switches of up to 4 accelerators each (PEX8796-style).
        let mut remaining = n;
        while remaining > 0 {
            let leaf = self.topo.add_switch(top, self.cfg.x16());
            for _ in 0..remaining.min(4) {
                accs.push(self.topo.add_endpoint(leaf, EndpointKind::NnAccel, self.cfg.x16()));
            }
            remaining -= remaining.min(4);
        }
        self.boxes.push(BoxInfo { top, accs, preps: Vec::new(), ssds: Vec::new() });
    }

    fn ssd_box(&mut self, n: usize) {
        let top = self.attach_top();
        let mut ssds = Vec::new();
        // Leaf switches of up to 4 SSDs keep every switch within the
        // PEX8796 port budget (§V-D).
        let mut remaining = n;
        while remaining > 0 {
            let leaf = self.topo.add_switch(top, self.cfg.x16());
            for _ in 0..remaining.min(4) {
                ssds.push(self.topo.add_endpoint(leaf, EndpointKind::Ssd, self.cfg.x4()));
            }
            remaining -= remaining.min(4);
        }
        self.boxes.push(BoxInfo { top, accs: Vec::new(), preps: Vec::new(), ssds });
    }

    fn prep_box(&mut self, n: usize, gpu: bool) {
        let top = self.attach_top();
        let kind = if gpu { EndpointKind::GpuPrep } else { EndpointKind::PrepAccel };
        let mut preps = Vec::new();
        let mut remaining = n;
        while remaining > 0 {
            let leaf = self.topo.add_switch(top, self.cfg.x16());
            for _ in 0..remaining.min(4) {
                preps.push(self.topo.add_endpoint(leaf, kind, self.cfg.x16()));
            }
            remaining -= remaining.min(4);
        }
        self.boxes.push(BoxInfo { top, accs: Vec::new(), preps, ssds: Vec::new() });
    }

    fn train_box(&mut self) {
        let top = self.attach_top();
        let mut accs = Vec::new();
        let mut preps = Vec::new();
        let mut ssds = Vec::new();
        for _ in 0..SSDS_PER_TRAIN_BOX {
            ssds.push(self.topo.add_endpoint(top, EndpointKind::Ssd, self.cfg.x4()));
        }
        for _ in 0..2 {
            let leaf = self.topo.add_switch(top, self.cfg.x16());
            for _ in 0..4 {
                accs.push(self.topo.add_endpoint(leaf, EndpointKind::NnAccel, self.cfg.x16()));
            }
            preps.push(self.topo.add_endpoint(leaf, EndpointKind::PrepAccel, self.cfg.x16()));
        }
        self.boxes.push(BoxInfo { top, accs, preps, ssds });
    }

    fn finish(self) -> ServerTopology {
        let mut accs = Vec::new();
        let mut preps = Vec::new();
        let mut ssds = Vec::new();
        for b in &self.boxes {
            accs.extend(&b.accs);
            preps.extend(&b.preps);
            ssds.extend(&b.ssds);
        }
        ServerTopology { topo: self.topo, accs, preps, ssds, boxes: self.boxes }
    }
}

/// The Ethernet preparation network of §IV-D: a top-of-rack switch connecting
/// the in-box prep accelerators' NICs to a shared pool of extra prep
/// accelerators.
///
/// Modeled as its own star [`Topology`] whose "root" is the ToR switch; all
/// links are 100 GbE. Kept separate from the PCIe tree on purpose — the paper
/// dedicates the network "not to incur contentions on the PCIe".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrepPoolNet {
    /// The Ethernet star; root is the ToR switch.
    pub topo: Topology,
    /// NIC endpoints of in-box prep accelerators (requesters).
    pub box_nics: Vec<NodeId>,
    /// NIC endpoints of pool prep accelerators (servers).
    pub pool_nics: Vec<NodeId>,
}

impl PrepPoolNet {
    /// Build a prep network with `n_box_nics` requesters and `n_pool` pool
    /// accelerators.
    pub fn new(n_box_nics: usize, n_pool: usize) -> Self {
        let eth = Bandwidth::ethernet_100g();
        let mut topo = Topology::new(eth);
        let tor = topo.root();
        let box_nics = (0..n_box_nics)
            .map(|_| topo.add_endpoint(tor, EndpointKind::Nic, eth))
            .collect();
        let pool_nics = (0..n_pool)
            .map(|_| topo.add_endpoint(tor, EndpointKind::Nic, eth))
            .collect();
        PrepPoolNet { topo, box_nics, pool_nics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{verify_addr_routing_matches_lca, AddressMap};
    use crate::flow::{FlowNet, FlowSpec};

    #[test]
    fn baseline_inventory() {
        let s = ServerBuilder::new(Generation::Gen3).baseline(256, 16);
        assert_eq!(s.accs.len(), 256);
        assert_eq!(s.ssds.len(), 16);
        assert!(s.preps.is_empty());
        assert_eq!(s.boxes.len(), 32 + 2);
    }

    #[test]
    fn partial_boxes_hold_remainders() {
        let s = ServerBuilder::new(Generation::Gen3).baseline(10, 3);
        assert_eq!(s.accs.len(), 10);
        assert_eq!(s.boxes[1].accs.len(), 2);
        assert_eq!(s.ssds.len(), 3);
    }

    #[test]
    fn chained_boxes_share_rc_links() {
        let s = ServerBuilder::new(Generation::Gen3).chains(1).baseline(32, 8);
        // All traffic from any acc to the RC crosses exactly one RC link.
        let rc_links = s.rc_links();
        assert_eq!(rc_links.len(), 2); // one chain: up+down
        for &acc in &s.accs {
            let route = s.topo.route(acc, s.topo.root());
            assert!(route.iter().filter(|l| rc_links.contains(l)).count() == 1);
        }
        // Deeper boxes have longer routes to the RC (chaining, not a star).
        let last_acc_box = s.boxes.iter().rev().find(|b| !b.accs.is_empty()).unwrap();
        let first = s.topo.route(s.boxes[0].accs[0], s.topo.root()).len();
        let last = s.topo.route(last_acc_box.accs[0], s.topo.root()).len();
        assert!(last > first);
    }

    #[test]
    fn train_box_contents_follow_paper() {
        let s = ServerBuilder::new(Generation::Gen3).train_boxes(32);
        assert_eq!(s.accs.len(), 256);
        assert_eq!(s.preps.len(), 64);
        assert_eq!(s.ssds.len(), 64);
        for b in &s.boxes {
            assert_eq!(b.accs.len(), ACCS_PER_TRAIN_BOX);
            assert_eq!(b.preps.len(), PREPS_PER_TRAIN_BOX);
            assert_eq!(b.ssds.len(), SSDS_PER_TRAIN_BOX);
        }
    }

    #[test]
    fn train_box_traffic_is_rc_free() {
        let s = ServerBuilder::new(Generation::Gen3).train_boxes(4);
        for b in &s.boxes {
            // SSD -> prep and prep -> acc inside a box never cross the RC.
            for &ssd in &b.ssds {
                for &prep in &b.preps {
                    assert!(!s.topo.route_crosses_root(ssd, prep));
                }
            }
            for &prep in &b.preps {
                for &acc in &b.accs {
                    assert!(!s.topo.route_crosses_root(prep, acc));
                }
            }
        }
    }

    #[test]
    fn prep_boxes_attach_requested_kind() {
        let s = ServerBuilder::new(Generation::Gen3).with_prep_boxes(8, 2, 6, false);
        assert_eq!(s.preps.len(), 6);
        assert_eq!(
            s.topo.endpoints_of_kind(EndpointKind::PrepAccel).len(),
            6
        );
        let g = ServerBuilder::new(Generation::Gen3).with_prep_boxes(8, 2, 6, true);
        assert_eq!(g.topo.endpoints_of_kind(EndpointKind::GpuPrep).len(), 6);
    }

    #[test]
    fn gen4_doubles_link_capacity() {
        let g3 = ServerBuilder::new(Generation::Gen3).baseline(8, 2);
        let g4 = ServerBuilder::new(Generation::Gen4).baseline(8, 2);
        let l3 = g3.topo.link(g3.rc_links()[0]).bandwidth;
        let l4 = g4.topo.link(g4.rc_links()[0]).bandwidth;
        assert_eq!(l4.bytes_per_sec(), 2 * l3.bytes_per_sec());
    }

    #[test]
    fn address_routing_consistent_on_built_servers() {
        // Keep it small: a 2-train-box server still has 24 endpoints.
        let s = ServerBuilder::new(Generation::Gen3).train_boxes(2);
        let map = AddressMap::assign(&s.topo, 1 << 20);
        let pairs = verify_addr_routing_matches_lca(&s.topo, &map);
        assert_eq!(pairs, 24 * 23);
    }

    #[test]
    fn clustered_flows_avoid_rc_saturation() {
        // Demonstration of the Step-3 claim: in-box prep->acc flows in every
        // train box simultaneously run at full endpoint bandwidth because no
        // shared link is crossed; the same flows routed through a prep box in
        // a different chain position would contend at the chain links.
        let s = ServerBuilder::new(Generation::Gen3).chains(1).train_boxes(4);
        let net = FlowNet::from_topology(&s.topo);
        let flows: Vec<FlowSpec> = s
            .boxes
            .iter()
            .flat_map(|b| {
                b.preps
                    .iter()
                    .zip(b.accs.chunks(4))
                    .map(|(&p, accs)| FlowSpec::new(s.topo.route(p, accs[0])))
            })
            .collect();
        let rates = net.max_min_rates_ref(&flows);
        let x16 = Generation::Gen3.lanes(16).bytes_per_sec() as f64;
        for r in rates {
            assert!((r - x16).abs() < 1.0, "each in-box flow should get full x16: {r}");
        }
    }

    #[test]
    fn every_built_server_respects_pex8796_radix() {
        use crate::topology::PEX8796_MAX_LINKS;
        let b = ServerBuilder::new(Generation::Gen3);
        for s in [
            b.baseline(256, 16),
            b.with_prep_boxes(64, 8, 16, false),
            b.train_boxes(32),
        ] {
            let violations = s.topo.radix_violations(PEX8796_MAX_LINKS);
            assert!(
                violations.is_empty(),
                "switches over the port budget: {violations:?}"
            );
        }
    }

    #[test]
    fn train_box_top_switch_uses_the_full_budget() {
        // 2 SSDs + 2 leaf switches + uplink (+ downlink on chained boxes):
        // exactly the six PEX8796 links when chained.
        let s = ServerBuilder::new(Generation::Gen3).chains(1).train_boxes(2);
        let first_top = s.boxes[0].top;
        assert_eq!(s.topo.switch_radix(first_top), 6);
        let last_top = s.boxes[1].top;
        assert_eq!(s.topo.switch_radix(last_top), 5); // no further downlink
    }

    #[test]
    fn prep_pool_net_star() {
        let p = PrepPoolNet::new(8, 4);
        assert_eq!(p.box_nics.len(), 8);
        assert_eq!(p.pool_nics.len(), 4);
        // All NICs are directly under the ToR.
        for &n in p.box_nics.iter().chain(&p.pool_nics) {
            assert_eq!(p.topo.parent(n), Some(p.topo.root()));
        }
    }
}
