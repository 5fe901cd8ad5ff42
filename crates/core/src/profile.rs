//! The preparation profile: one struct answering every question the
//! analytic model and the DES ask about a workload's data preparation.
//!
//! Historically those questions were answered by modality-keyed calibration
//! lookups (`crate::calib`) scattered across `arch`, `host`, `analytic`,
//! `pipeline`, `initializer`, and `multijob`. The workload DSL
//! ([`trainbox_nn::StageGraph`]) lets a workload *describe* its preparation
//! instead of being keyed by modality, so the lookups now converge here:
//!
//! * a **Table-I preset** (no stage graph) profiles the graph
//!   [`lower_legacy`] gives its [`InputKind`], so every field is that
//!   modality's calibration value, bit for bit;
//! * a workload with a **stage graph** takes sizes, per-class CPU seconds,
//!   the aggregate CPU cost, and device rates from the graph, while memory
//!   traffic and the CPU-time *decomposition fractions* stay
//!   modality-calibrated (the lowering rule: graphs describe work, the
//!   calibration describes how the host moves bytes for that modality);
//! * a **mixed-tenancy** workload (non-empty `tenants`) blends its tenants'
//!   profiles by batch share — the prep pipeline serves an interleaved
//!   sample stream, so per-sample costs mix linearly and device rates mix
//!   harmonically.
//!
//! [`lower_legacy`] carries the calibrated values verbatim (raw per-class
//! products, declared aggregates), so a lowered preset profiles
//! **byte-identically** to its calibration — pinned by this module's tests,
//! the `workload_dsl_equivalence` test, and every committed figure.

use crate::calib::{
    baseline_mem_bytes_per_sample, cpu_fractions, cpu_secs_per_sample, fpga_samples_per_sec,
    gpu_prep_samples_per_sec, CpuFractions, MemBreakdown, SampleSizes,
};
use crate::host::Breakdown;
use trainbox_nn::{InputKind, PrepClass, StageCost, StageGraph, StageSpec, Workload};

/// Everything the models need to know about one workload's preparation,
/// per sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrepProfile {
    /// Stored-record and tensor bytes per sample.
    pub sizes: SampleSizes,
    /// Total host-CPU core-seconds to prepare one sample on the baseline.
    pub cpu_secs_per_sample: f64,
    /// The same CPU time decomposed by operation class (Fig 11's legend;
    /// `data_copy` is always zero on the baseline path).
    pub cpu: Breakdown,
    /// CPU-time fractions by class (the Fig 9 decomposition keys).
    pub fractions: CpuFractions,
    /// Host memory traffic per sample on the baseline, by class.
    pub mem: MemBreakdown,
    /// Throughput of one FPGA preparation accelerator, samples/s.
    pub fpga_samples_per_sec: f64,
    /// Throughput of one GPU used for preparation, samples/s.
    pub gpu_samples_per_sec: f64,
}

impl PrepProfile {
    /// The profile of `workload`: tenants blend, and every other workload
    /// profiles its stage graph — for a Table-I preset, the one
    /// [`lower_legacy`] gives its modality.
    pub fn of(workload: &Workload) -> PrepProfile {
        if !workload.tenants.is_empty() {
            return PrepProfile::blended(&workload.tenants);
        }
        match &workload.stages {
            Some(graph) => PrepProfile::of_graph(workload.input, graph),
            None => PrepProfile::of_graph(workload.input, &lower_legacy(workload.input)),
        }
    }

    /// Profile a stage graph declared for a workload of modality `input`.
    ///
    /// The graph supplies what it states — byte sizes, per-class CPU
    /// seconds, the aggregate CPU cost, device rates — and the modality
    /// calibration fills what a graph cannot know about the host: memory
    /// traffic per byte moved and the class decomposition of that movement.
    pub fn of_graph(input: InputKind, graph: &StageGraph) -> PrepProfile {
        PrepProfile {
            sizes: SampleSizes {
                stored: graph.stored_bytes() as f64,
                tensor: graph.tensor_bytes() as f64,
            },
            cpu_secs_per_sample: graph.total_cpu_secs_per_sample(),
            cpu: Breakdown {
                ssd_read: graph.class_cpu_secs(PrepClass::SsdRead),
                formatting: graph.class_cpu_secs(PrepClass::Formatting),
                augmentation: graph.class_cpu_secs(PrepClass::Augmentation),
                data_load: graph.class_cpu_secs(PrepClass::DataLoad),
                data_copy: 0.0,
                others: graph.class_cpu_secs(PrepClass::Others),
            },
            fractions: cpu_fractions(input),
            mem: baseline_mem_bytes_per_sample(input),
            fpga_samples_per_sec: graph
                .fpga_samples_per_sec
                .unwrap_or_else(|| fpga_samples_per_sec(input)),
            gpu_samples_per_sec: graph
                .gpu_samples_per_sec
                .unwrap_or_else(|| gpu_prep_samples_per_sec(input)),
        }
    }

    /// Blend tenant profiles by batch share. Per-sample quantities (bytes,
    /// CPU seconds, memory traffic) mix linearly — a random sample from the
    /// interleaved stream is tenant `i`'s with probability `share_i` — and
    /// device rates mix harmonically (the device time per blended sample is
    /// the share-weighted sum of per-tenant times).
    pub fn blended(tenants: &[Workload]) -> PrepProfile {
        assert!(tenants.len() >= 2, "mixed tenancy needs at least 2 tenants");
        let total: f64 = tenants.iter().map(|t| t.batch_size as f64).sum();
        let mut acc = PrepProfile {
            sizes: SampleSizes { stored: 0.0, tensor: 0.0 },
            cpu_secs_per_sample: 0.0,
            cpu: Breakdown::default(),
            fractions: CpuFractions {
                ssd_read: 0.0,
                formatting: 0.0,
                augmentation: 0.0,
                data_load: 0.0,
                others: 0.0,
            },
            mem: MemBreakdown::default(),
            fpga_samples_per_sec: 0.0,
            gpu_samples_per_sec: 0.0,
        };
        let mut fpga_secs = 0.0f64;
        let mut gpu_secs = 0.0f64;
        for t in tenants {
            let share = t.batch_size as f64 / total;
            let p = PrepProfile::of(t);
            acc.sizes.stored += share * p.sizes.stored;
            acc.sizes.tensor += share * p.sizes.tensor;
            acc.cpu_secs_per_sample += share * p.cpu_secs_per_sample;
            acc.cpu.ssd_read += share * p.cpu.ssd_read;
            acc.cpu.formatting += share * p.cpu.formatting;
            acc.cpu.augmentation += share * p.cpu.augmentation;
            acc.cpu.data_load += share * p.cpu.data_load;
            acc.cpu.data_copy += share * p.cpu.data_copy;
            acc.cpu.others += share * p.cpu.others;
            acc.mem.ssd_read += share * p.mem.ssd_read;
            acc.mem.formatting += share * p.mem.formatting;
            acc.mem.augmentation += share * p.mem.augmentation;
            acc.mem.data_load += share * p.mem.data_load;
            acc.mem.data_copy += share * p.mem.data_copy;
            acc.mem.others += share * p.mem.others;
            fpga_secs += share / p.fpga_samples_per_sec;
            gpu_secs += share / p.gpu_samples_per_sec;
        }
        // The blended decomposition is the blended CPU breakdown itself,
        // normalized — not a blend of the tenants' fractions, which would
        // overweight cheap tenants.
        let c = acc.cpu.total();
        acc.fractions = if c > 0.0 {
            CpuFractions {
                ssd_read: acc.cpu.ssd_read / c,
                formatting: acc.cpu.formatting / c,
                augmentation: acc.cpu.augmentation / c,
                data_load: acc.cpu.data_load / c,
                others: acc.cpu.others / c,
            }
        } else {
            acc.fractions
        };
        acc.fpga_samples_per_sec = 1.0 / fpga_secs;
        acc.gpu_samples_per_sec = 1.0 / gpu_secs;
        acc
    }

    /// Per-sample bytes over the prep-pool Ethernet when offloading one
    /// sample: the raw input out and the prepared tensor back, charged
    /// against one NIC budget (same expression as
    /// [`crate::calib::ethernet_bytes_per_offloaded_sample`]).
    pub fn ethernet_bytes_per_offloaded_sample(&self) -> f64 {
        self.sizes.stored + self.sizes.tensor
    }
}

/// Lower a flat (Table-I) workload of modality `input` onto the
/// stage-graph DSL.
///
/// The lowering carries the calibration **verbatim** so that profiling the
/// result reproduces the calibrated profile bit for bit:
///
/// * one stage per operation class, whose `HostCpuSecs` cost is the raw
///   product `cpu_secs_per_sample(input) × fraction(class)` — the exact
///   f64 the legacy [`crate::host::PerSampleUsage`] computed inline;
/// * the first stage's `bytes_in` is the stored size, the last stage's
///   `bytes_out` the tensor size (both integral by calibration);
/// * the aggregate CPU cost and both device rates are *declared* rather
///   than re-derived, because `Σ (c × fᵢ)` is not bitwise `c`.
pub fn lower_legacy(input: InputKind) -> StageGraph {
    let sizes = SampleSizes::for_input(input);
    let c = cpu_secs_per_sample(input);
    let f = cpu_fractions(input);
    let stored = sizes.stored as u64;
    let tensor = sizes.tensor as u64;
    let stages = vec![
        StageSpec::new("ssd_read", PrepClass::SsdRead, StageCost::HostCpuSecs(c * f.ssd_read))
            .bytes(stored, stored),
        StageSpec::new(
            "formatting",
            PrepClass::Formatting,
            StageCost::HostCpuSecs(c * f.formatting),
        )
        .bytes(stored, tensor)
        .after("ssd_read"),
        StageSpec::new(
            "augmentation",
            PrepClass::Augmentation,
            StageCost::HostCpuSecs(c * f.augmentation),
        )
        .bytes(tensor, tensor)
        .after("formatting"),
        StageSpec::new("data_load", PrepClass::DataLoad, StageCost::HostCpuSecs(c * f.data_load))
            .bytes(tensor, tensor)
            .after("augmentation"),
        StageSpec::new("others", PrepClass::Others, StageCost::HostCpuSecs(c * f.others))
            .bytes(0, 0)
            .after("data_load"),
    ];
    StageGraph {
        stages,
        cpu_secs_per_sample: Some(c),
        fpga_samples_per_sec: Some(fpga_samples_per_sec(input)),
        gpu_samples_per_sec: Some(gpu_prep_samples_per_sec(input)),
    }
}

/// The workload the accelerator-side models should see: tenanted workloads
/// blend into one flat aggregate (batches and model sizes sum, compute
/// rates time-share) while **keeping** their tenants, so the prep side
/// still profiles the mixture; everything else passes through unchanged.
pub fn effective_workload(workload: &Workload) -> Workload {
    if workload.tenants.is_empty() {
        return workload.clone();
    }
    let mut eff = Workload::blended_flat(workload.name.clone(), workload.tenants.clone());
    eff.sync = workload.sync;
    eff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(p: &PrepProfile) -> Vec<u64> {
        [
            p.sizes.stored,
            p.sizes.tensor,
            p.cpu_secs_per_sample,
            p.cpu.ssd_read,
            p.cpu.formatting,
            p.cpu.augmentation,
            p.cpu.data_load,
            p.cpu.data_copy,
            p.cpu.others,
            p.fractions.ssd_read,
            p.fractions.formatting,
            p.fractions.augmentation,
            p.fractions.data_load,
            p.fractions.others,
            p.mem.ssd_read,
            p.mem.formatting,
            p.mem.augmentation,
            p.mem.data_load,
            p.mem.data_copy,
            p.mem.others,
            p.fpga_samples_per_sec,
            p.gpu_samples_per_sec,
        ]
        .iter()
        .map(|v| v.to_bits())
        .collect()
    }

    #[test]
    fn lowered_legacy_profiles_bit_identically_for_every_preset() {
        // A flat preset profiles to exactly the values the pre-DSL code read
        // straight out of `crate::calib`.
        for w in Workload::presets() {
            if w.stages.is_some() || !w.tenants.is_empty() {
                continue;
            }
            let (c, f) = (cpu_secs_per_sample(w.input), cpu_fractions(w.input));
            let calibrated = PrepProfile {
                sizes: SampleSizes::for_input(w.input),
                cpu_secs_per_sample: c,
                cpu: Breakdown {
                    ssd_read: c * f.ssd_read,
                    formatting: c * f.formatting,
                    augmentation: c * f.augmentation,
                    data_load: c * f.data_load,
                    data_copy: 0.0,
                    others: c * f.others,
                },
                fractions: f,
                mem: baseline_mem_bytes_per_sample(w.input),
                fpga_samples_per_sec: fpga_samples_per_sec(w.input),
                gpu_samples_per_sec: gpu_prep_samples_per_sec(w.input),
            };
            let p = PrepProfile::of(&w);
            assert_eq!(bits(&p), bits(&calibrated), "profile diverged for {}", w.name);
        }
    }

    #[test]
    fn lowered_graphs_validate() {
        for w in Workload::all() {
            let g = lower_legacy(w.input);
            let rebuilt = Workload::builder(w.name.clone())
                .kind(w.kind)
                .input(w.input)
                .task(w.task.clone())
                .batch_size(w.batch_size)
                .model_mbytes(w.model_mbytes)
                .accel_samples_per_sec(w.accel_samples_per_sec)
                .stage_graph(g)
                .try_build();
            assert!(rebuilt.is_ok(), "{}: {:?}", w.name, rebuilt.err());
        }
    }

    #[test]
    fn graph_sizes_override_calibration() {
        let w = Workload::llm();
        let p = PrepProfile::of(&w);
        assert_eq!(p.sizes.stored, 16_384.0);
        assert_eq!(p.sizes.tensor, 8_192.0);
        // The Text preset's graph sum equals the Text calibration by
        // construction.
        assert!((p.cpu_secs_per_sample - cpu_secs_per_sample(InputKind::Text)).abs() < 1e-12);
    }

    #[test]
    fn declared_device_rates_win_over_modality() {
        let g = StageGraph {
            stages: vec![StageSpec::new(
                "only",
                PrepClass::Formatting,
                StageCost::HostCpuSecs(1e-3),
            )
            .bytes(1000, 2000)],
            cpu_secs_per_sample: None,
            fpga_samples_per_sec: Some(123.0),
            gpu_samples_per_sec: None,
        };
        let p = PrepProfile::of_graph(InputKind::Image, &g);
        assert_eq!(p.fpga_samples_per_sec, 123.0);
        assert_eq!(p.gpu_samples_per_sec, gpu_prep_samples_per_sec(InputKind::Image));
        assert_eq!(p.cpu.formatting, 1e-3);
        assert_eq!(p.cpu_secs_per_sample, 1e-3);
    }

    #[test]
    fn blended_profile_mixes_linearly_and_harmonically() {
        let w = Workload::mixed();
        assert!(!w.tenants.is_empty());
        let p = PrepProfile::of(&w);
        let rn = PrepProfile::of(&Workload::resnet50());
        let sr = PrepProfile::of(&Workload::transformer_sr());
        let (b_rn, b_sr) = (8192.0, 512.0);
        let total = b_rn + b_sr;
        let expect_cpu =
            (b_rn / total) * rn.cpu_secs_per_sample + (b_sr / total) * sr.cpu_secs_per_sample;
        assert!((p.cpu_secs_per_sample - expect_cpu).abs() < 1e-15);
        // Harmonic device rate sits between the tenants', nearer the
        // dominant tenant's.
        assert!(p.fpga_samples_per_sec < rn.fpga_samples_per_sec);
        assert!(p.fpga_samples_per_sec > sr.fpga_samples_per_sec);
        let f = p.fractions;
        let sum = f.ssd_read + f.formatting + f.augmentation + f.data_load + f.others;
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn effective_workload_blends_flat_but_keeps_tenants_and_sync() {
        let w = Workload::builder("pair")
            .tenant(Workload::resnet50())
            .tenant(Workload::transformer_sr())
            .sync(trainbox_nn::SyncPattern::ParameterServer)
            .build();
        let eff = effective_workload(&w);
        assert_eq!(eff.batch_size, 8192 + 512);
        assert_eq!(eff.sync, trainbox_nn::SyncPattern::ParameterServer);
        assert_eq!(eff.tenants.len(), 2);
        let solo = effective_workload(&Workload::resnet50());
        assert_eq!(solo, Workload::resnet50());
    }

    #[test]
    fn ethernet_bytes_match_calibration_for_legacy() {
        for w in Workload::all() {
            let p = PrepProfile::of(&w);
            assert_eq!(
                p.ethernet_bytes_per_offloaded_sample().to_bits(),
                crate::calib::ethernet_bytes_per_offloaded_sample(w.input).to_bits()
            );
        }
    }
}
