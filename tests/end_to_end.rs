//! Cross-crate integration: data flows from synthetic storage through the
//! real preparation kernels into the training substrate, and the server
//! models agree with each other.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trainbox::core::arch::{ServerConfig, ServerKind};
use trainbox::core::pipeline::SimConfig;
use trainbox::core::request::{SimOutcome, SimRequest};
use trainbox::dataprep::audio::{mel_spectrogram, StftConfig};
use trainbox::dataprep::image::Image;
use trainbox::dataprep::pipeline::{DataItem, PrepPipeline};
use trainbox::dataprep::synth::{imagenet_like_jpeg, librispeech_like_clip, synthetic_image};
use trainbox::dataprep::jpeg;
use trainbox::dataprep::shard::{distribute, ShardReader};
use trainbox::dataprep::wav;
use trainbox::nn::tensor::Matrix;
use trainbox::nn::Workload;

#[test]
fn stored_jpeg_to_training_tensor() {
    // SSD format -> decode -> augment -> cast -> training matrix.
    let mut rng = StdRng::seed_from_u64(0);
    let out = PrepPipeline::standard_image()
        .run(DataItem::EncodedImage(imagenet_like_jpeg(9)), &mut rng)
        .expect("pipeline runs");
    let DataItem::FloatImage(tensor) = out else {
        panic!("expected a float tensor");
    };
    // The tensor is directly usable as a training batch row.
    let row = Matrix::from_vec(1, tensor.data().len(), tensor.data().to_vec());
    assert_eq!(row.cols(), 224 * 224 * 3);
    assert!(row.data().iter().all(|v| (0.0..=1.0).contains(v)));
}

#[test]
fn stored_audio_to_feature_matrix() {
    let clip = librispeech_like_clip(4);
    let mel = mel_spectrogram(&clip, StftConfig::speech_default(), 80).unwrap();
    let feats = Matrix::from_vec(mel.frames(), mel.bins(), mel.data().to_vec());
    assert_eq!(feats.cols(), 80);
    assert!(feats.rows() > 400);
    // Log power values are finite.
    assert!(feats.data().iter().all(|v| v.is_finite()));
}

#[test]
fn codec_survives_prep_augmentations() {
    // Encode, decode, re-encode a mirrored crop: the full image round trip
    // used by static-dataset pipelines.
    let img = synthetic_image(256, 256, 77);
    let decoded = jpeg::decode(&jpeg::encode(&img, 90)).unwrap();
    let crop = decoded.crop(16, 16, 224, 224).unwrap().mirror();
    let again = jpeg::decode(&jpeg::encode(&crop, 90)).unwrap();
    assert_eq!((again.width(), again.height()), (224, 224));
    assert!(jpeg::psnr(&crop, &again) > 28.0);
}

#[test]
fn des_and_analytic_agree_across_designs() {
    let w = Workload::inception_v4();
    let cfg = SimConfig {
        chunk_samples: 128,
        batches: 8,
        warmup_batches: 4,
        prefetch_batches: 1,
        max_events: 5_000_000,
        parallel_workers: 0,
    };
    for (kind, n, batch, tol) in [
        (ServerKind::Baseline, 16, 512u64, 0.10),
        (ServerKind::Baseline, 64, 256, 0.15),
        (ServerKind::TrainBoxNoPool, 16, 512, 0.10),
        (ServerKind::TrainBoxNoPool, 32, 512, 0.10),
    ] {
        let mut req = SimRequest::des(kind, n, w.clone(), cfg);
        req.server.batch_size = Some(batch);
        let server = req.build_server().expect("valid configuration");
        let SimOutcome::Des(sim) = req.run().expect("simulation runs").outcome else {
            panic!("DES request produced a non-DES outcome");
        };
        let des = sim.samples_per_sec;
        let ana = server.throughput(&w).samples_per_sec;
        let err = (des - ana).abs() / ana;
        assert!(
            err < tol,
            "{kind:?} n={n}: DES {des:.0} vs analytic {ana:.0} (err {err:.3})"
        );
    }
}

#[test]
fn trainbox_topology_isolates_prep_traffic() {
    // Structural check across crates: in the built TrainBox server, every
    // SSD->prep and prep->acc route stays inside one box (never crosses the
    // root complex), while baseline prep traffic always does.
    let tb = ServerConfig::new(ServerKind::TrainBox, 64).build();
    let topo = tb.topology();
    for b in &topo.boxes {
        for &ssd in &b.ssds {
            for &prep in &b.preps {
                assert!(!topo.topo.route_crosses_root(ssd, prep));
            }
        }
    }
    let base = ServerConfig::new(ServerKind::Baseline, 64).build();
    let bt = base.topology();
    for &ssd in &bt.ssds {
        // Baseline: SSD data must reach host memory through the RC.
        assert!(bt.topo.route_crosses_root(ssd, bt.topo.root()));
    }
}

#[test]
fn augmented_image_still_compresses() {
    // Augmentations produce valid images for the codec (regression guard on
    // buffer handling across crates).
    let mut rng = StdRng::seed_from_u64(3);
    let img = synthetic_image(64, 64, 5)
        .gaussian_noise(8.0, &mut rng)
        .mirror();
    let bytes = jpeg::encode(&img, 70);
    let back = jpeg::decode(&bytes).unwrap();
    assert_eq!((back.width(), back.height()), (64, 64));
}

#[test]
fn all_workloads_run_on_all_designs() {
    // Smoke matrix: no panic, positive throughput, bottleneck consistent
    // with the reported minimum.
    for w in Workload::all() {
        for kind in [
            ServerKind::Baseline,
            ServerKind::AccFpga,
            ServerKind::AccGpu,
            ServerKind::AccFpgaP2p,
            ServerKind::AccFpgaP2pGen4,
            ServerKind::TrainBoxNoPool,
            ServerKind::TrainBox,
        ] {
            for n in [1usize, 8, 256] {
                let tp = ServerConfig::new(kind, n).build().throughput(&w);
                assert!(tp.samples_per_sec > 0.0, "{kind:?} {} n={n}", w.name);
                let min = tp
                    .ceilings
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(tp.samples_per_sec, min);
            }
        }
    }
}

#[test]
fn initializer_style_data_distribution_round_trips() {
    // §V-A: the initializer distributes the dataset to the SSDs of each
    // train box. Shard 12 JPEG samples over the 4 SSDs of a 2-box server,
    // read each shard back, and prepare every sample.
    let server = ServerConfig::new(ServerKind::TrainBox, 16).build();
    let n_ssds = server.topology().ssds.len();
    assert_eq!(n_ssds, 4);
    let items: Vec<Vec<u8>> = (0..12).map(imagenet_like_jpeg).collect();
    let shards = distribute(items.iter().map(|v| &v[..]), n_ssds);
    let mut rng = StdRng::seed_from_u64(0);
    let pipeline = PrepPipeline::standard_image();
    let mut prepared = 0;
    for shard in &shards {
        for rec in ShardReader::open(shard).unwrap().read_all().unwrap() {
            let out = pipeline
                .run(DataItem::EncodedImage(rec.to_vec()), &mut rng)
                .unwrap();
            assert!(matches!(out, DataItem::FloatImage(_)));
            prepared += 1;
        }
    }
    assert_eq!(prepared, 12);
}

#[test]
fn wav_storage_to_mel_features() {
    // Audio storage path: waveform -> WAV on "SSD" -> decode -> Mel.
    let clip = librispeech_like_clip(6);
    let stored = wav::encode(&clip);
    let loaded = wav::decode(&stored).unwrap();
    let mel = mel_spectrogram(&loaded, StftConfig::speech_default(), 80).unwrap();
    let reference = mel_spectrogram(&clip, StftConfig::speech_default(), 80).unwrap();
    assert_eq!(mel.frames(), reference.frames());
    // 16-bit quantization barely perturbs the features where there is
    // signal; near-silent bins amplify in log space, so gate on energy.
    let mut sum_err = 0.0f64;
    let mut hi_max = 0.0f32;
    for (a, b) in mel.data().iter().zip(reference.data()) {
        sum_err += (a - b).abs() as f64;
        if *b > -4.0 {
            hi_max = hi_max.max((a - b).abs());
        }
    }
    let mean_err = sum_err / mel.data().len() as f64;
    assert!(mean_err < 0.05, "mean log-mel error {mean_err}");
    assert!(hi_max < 0.3, "max error on energetic bins {hi_max}");
    // And the feature maps are globally near-identical (correlation check).
    let n = mel.data().len() as f64;
    let (ma, mb) = (
        mel.data().iter().map(|&v| v as f64).sum::<f64>() / n,
        reference.data().iter().map(|&v| v as f64).sum::<f64>() / n,
    );
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (a, b) in mel.data().iter().zip(reference.data()) {
        let (x, y) = (*a as f64 - ma, *b as f64 - mb);
        num += x * y;
        da += x * x;
        db += y * y;
    }
    let corr = num / (da.sqrt() * db.sqrt());
    assert!(corr > 0.995, "feature correlation {corr}");
}

#[test]
fn grayscale_path_via_dataprep_image() {
    // Grey image through the codec keeps channels equal (decoder grayscale
    // assembly shares the RGB image type used by the rest of the stack).
    let grey = Image::filled(40, 24, [77, 77, 77]);
    let back = jpeg::decode(&jpeg::encode(&grey, 85)).unwrap();
    for y in [0usize, 11, 23] {
        for x in [0usize, 20, 39] {
            let [r, g, b] = back.pixel(x, y);
            assert!((r as i16 - 77).unsigned_abs() < 6);
            assert!((r as i16 - g as i16).unsigned_abs() <= 2);
            assert!((g as i16 - b as i16).unsigned_abs() <= 2);
        }
    }
}
