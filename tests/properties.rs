//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trainbox::core::arch::{ServerConfig, ServerKind};
use trainbox::dataprep::jpeg;
use trainbox::dataprep::synth::synthetic_image;
use trainbox::nn::Workload;
use trainbox::pcie::addr::{verify_addr_routing_matches_lca, AddressMap};
use trainbox::pcie::bandwidth::Bandwidth;
use trainbox::pcie::flow::{FlowNet, FlowSpec};
use trainbox::pcie::topology::{EndpointKind, Topology};
use trainbox::collective::halving_doubling_all_reduce;
use trainbox::dataprep::sampler::AliasTable;
use trainbox::dataprep::shard::{ShardReader, ShardWriter};
use trainbox::dataprep::wav;
use trainbox::dataprep::audio::Waveform;

/// Build a random PCIe tree from a seed: random switch fan-out, random
/// endpoint placement.
fn random_topology(seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::new(Bandwidth::gen3_x16());
    let mut parents = vec![topo.root()];
    let kinds = [EndpointKind::Ssd, EndpointKind::NnAccel, EndpointKind::PrepAccel];
    for _ in 0..rng.gen_range(2..20) {
        let parent = parents[rng.gen_range(0..parents.len())];
        if rng.gen_bool(0.4) {
            parents.push(topo.add_switch(parent, Bandwidth::gen3_x16()));
        } else {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            topo.add_endpoint(parent, kind, Bandwidth::gen3_x8());
        }
    }
    // Guarantee at least two endpoints so routing has pairs to check.
    topo.add_endpoint(topo.root(), EndpointKind::Ssd, Bandwidth::gen3_x4());
    let p = parents[0];
    topo.add_endpoint(p, EndpointKind::NnAccel, Bandwidth::gen3_x16());
    topo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The paper's §IV-C mechanism: per-switch address forwarding reproduces
    /// LCA routing on arbitrary trees.
    #[test]
    fn address_routing_equals_lca_routing(seed in 0u64..500) {
        let topo = random_topology(seed);
        let map = AddressMap::assign(&topo, 1 << 20);
        let pairs = verify_addr_routing_matches_lca(&topo, &map);
        prop_assert!(pairs >= 2);
    }

    /// Max-min fair rates never oversubscribe a link and never starve a flow.
    #[test]
    fn max_min_rates_feasible_and_positive(seed in 0u64..500) {
        let topo = random_topology(seed);
        let net = FlowNet::from_topology(&topo);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let endpoints: Vec<_> = (0..topo.node_count() as u32)
            .map(trainbox::pcie::test_util::node)
            .filter(|&n| matches!(topo.kind(n), trainbox::pcie::topology::NodeKind::Endpoint(_)))
            .collect();
        prop_assume!(endpoints.len() >= 2);
        let mut flows = Vec::new();
        for _ in 0..rng.gen_range(1..8) {
            let a = endpoints[rng.gen_range(0..endpoints.len())];
            let b = endpoints[rng.gen_range(0..endpoints.len())];
            if a == b { continue; }
            flows.push(FlowSpec::new(topo.route(a, b)));
        }
        prop_assume!(!flows.is_empty());
        let rates = net.max_min_rates_ref(&flows);
        // Positivity: every flow with a route makes progress.
        for r in &rates {
            prop_assert!(*r > 0.0);
        }
        // Feasibility: no link oversubscribed.
        let loads = net.link_loads(&flows, &rates);
        for (li, load) in loads.iter().enumerate() {
            let cap = net.capacity(trainbox::pcie::test_util::link(li as u32));
            prop_assert!(*load <= cap * (1.0 + 1e-6), "link {li}: {load} > {cap}");
        }
    }

    /// JPEG round-trips at arbitrary sizes preserve dimensions and stay
    /// reasonably faithful.
    #[test]
    fn jpeg_roundtrip_dimensions(w in 1usize..96, h in 1usize..96, seed: u64) {
        let img = synthetic_image(w, h, seed);
        let back = jpeg::decode(&jpeg::encode(&img, 85)).unwrap();
        prop_assert_eq!((back.width(), back.height()), (w, h));
        if w >= 16 && h >= 16 {
            prop_assert!(jpeg::psnr(&img, &back) > 20.0);
        }
    }

    /// Monotonicity: adding accelerators never reduces analytic throughput,
    /// for any design and workload.
    #[test]
    fn throughput_monotone_in_accelerators(
        kind_idx in 0usize..7,
        wl_idx in 0usize..7,
    ) {
        let kinds = [
            ServerKind::Baseline,
            ServerKind::AccFpga,
            ServerKind::AccGpu,
            ServerKind::AccFpgaP2p,
            ServerKind::AccFpgaP2pGen4,
            ServerKind::TrainBoxNoPool,
            ServerKind::TrainBox,
        ];
        let kind = kinds[kind_idx];
        let w = &Workload::all()[wl_idx];
        let mut prev = 0.0;
        for n in [1usize, 2, 8, 32, 128, 256] {
            let t = ServerConfig::new(kind, n).build().throughput(w).samples_per_sec;
            prop_assert!(t >= prev * 0.999, "{kind:?} {} n={n}: {t} < {prev}", w.name);
            prev = t;
        }
    }

    /// TrainBox dominates the baseline at every scale (it never does worse).
    #[test]
    fn trainbox_never_loses(wl_idx in 0usize..7, n in 1usize..300) {
        let w = &Workload::all()[wl_idx];
        let tb = ServerConfig::new(ServerKind::TrainBox, n).build().throughput(w).samples_per_sec;
        let base = ServerConfig::new(ServerKind::Baseline, n).build().throughput(w).samples_per_sec;
        prop_assert!(tb >= base * 0.999, "n={n} {}: {tb} < {base}", w.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shard container round-trips arbitrary record sets.
    #[test]
    fn shard_roundtrip(records in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..512), 0..20)) {
        let mut w = ShardWriter::new();
        for r in &records {
            w.push(r);
        }
        let bytes = w.finish();
        let back = ShardReader::open(&bytes).unwrap().read_all().unwrap();
        prop_assert_eq!(back.len(), records.len());
        for (a, b) in back.iter().zip(&records) {
            prop_assert_eq!(*a, &b[..]);
        }
    }

    /// WAV round-trips within 16-bit quantization error.
    #[test]
    fn wav_roundtrip(samples in proptest::collection::vec(-1.0f32..1.0, 1..2000)) {
        let wform = Waveform::new(samples.clone(), 16_000).unwrap();
        let back = wav::decode(&wav::encode(&wform)).unwrap();
        prop_assert_eq!(back.samples().len(), samples.len());
        for (a, b) in samples.iter().zip(back.samples()) {
            prop_assert!((a - b).abs() < 2.0 / 32768.0 + 1e-6);
        }
    }

    /// Halving–doubling all-reduce equals the serial sum for any
    /// power-of-two participant count.
    #[test]
    fn halving_doubling_correct(
        log_n in 0u32..4,
        len in 1usize..64,
        seed: u64,
    ) {
        let n = 1usize << log_n;
        let mut rng = StdRng::seed_from_u64(seed);
        let bufs: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut want = vec![0.0f32; len];
        for b in &bufs {
            for (w, v) in want.iter_mut().zip(b) {
                *w += v;
            }
        }
        for got in halving_doubling_all_reduce(bufs) {
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-4);
            }
        }
    }

    /// Alias tables always return in-range categories and never emit
    /// zero-weight ones.
    #[test]
    fn alias_table_in_range(
        weights in proptest::collection::vec(0.0f64..10.0, 1..40),
        seed: u64,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let t = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = t.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "zero-weight category {i} sampled");
        }
    }
}
