//! Direct probes of the layers a workload's client does not call itself.
//!
//! A traced run first takes every per-layer metric it can from the spans
//! around its own calls; [`fill`] then measures the rest by calling each
//! remaining layer's public functions at the workload's own shapes — its
//! model, its training night, its test frames. Layers a workload exercises
//! only from inside another layer (the online detector inside the governor,
//! the GEMM kernels inside the model) are always probed here.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use aero_baselines::SpectralResidual;
use aero_core::fleet::{FleetConfig, FleetCoordinator, ShardAssignment, StarCatalog};
use aero_core::online::{DegradePolicy, OnlineAero};
use aero_core::serve::codec::{Decoder, DEFAULT_MAX_PAYLOAD};
use aero_core::wal::{self, WalConfig, WalWriter};
use aero_core::{
    load_model, window_adjacency, Aero, AeroConfig, Detector, DetectorError, DetectorResult,
    GovernedVerdict, OverloadPolicy, ScoreMode, ShardFactory, StarDelta, StreamGovernor,
};
use aero_evt::{pot_threshold, pot_threshold_lenient, PotConfig};
use aero_tensor::{workspace, Matrix};
use aero_timeseries::MultivariateSeries;

use crate::night;
use crate::stream::{cli_policy, encode_ticks, sr_fallback, Client};
use crate::trace::{durations, median, percentile, span, timed};
use crate::{allocs_now, dir_bytes, with_threads, Report, FIT_THREADS, SERVE_THREADS};

/// What the probes measure against.
pub struct ProbeInput<'a> {
    /// A fresh trained detector over every star of the night.
    pub model: &'a dyn Fn() -> Aero,
    /// The workload's checkpoint on disk.
    pub checkpoint: &'a Path,
    /// The configuration the workload trains with, on `fit_series`, taking
    /// `fit_secs` (median) at `FIT_THREADS`.
    pub cfg: &'a AeroConfig,
    pub fit_series: &'a MultivariateSeries,
    pub fit_secs: f64,
    pub train: &'a MultivariateSeries,
    pub test: &'a MultivariateSeries,
    pub pot: PotConfig,
    pub work: &'a Path,
    pub smoke: bool,
}

fn wants(report: &Report, names: &[&str]) -> bool {
    names.iter().any(|n| !report.has(n))
}

/// Calls `f` until at least `secs` have passed (and at least 3 times);
/// returns seconds per call.
fn per_call(secs: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || start.elapsed().as_secs_f64() < secs {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.1 - 0.5);
    let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c * 13) % 7) as f32 * 0.1 - 0.3);
    let secs = span("tensor.matmul", || {
        per_call(0.25, || {
            std::hint::black_box(a.matmul(&b).expect("conforming shapes"));
        })
    });
    2.0 * (m * k * n) as f64 / secs / 1e9
}

/// Number of scoring windows `Aero::score` runs over `len` frames.
fn scoring_windows(len: usize, cfg: &AeroConfig) -> usize {
    let (w, omega) = (cfg.window, cfg.effective_short_window());
    if len < w {
        return 0;
    }
    let stride = (omega / 2).max(1);
    let regular = (len - w) / stride + 1;
    regular + usize::from((w - 1 + (regular - 1) * stride) != len - 1)
}

fn prefix(series: &MultivariateSeries, len: usize) -> MultivariateSeries {
    if len >= series.len() {
        return series.clone();
    }
    series.split_at(len).expect("a prefix").0
}

pub fn fill(report: &mut Report, input: &ProbeInput) {
    let n = input.train.num_variates();
    let cfg = input.cfg;
    let (w, d) = (cfg.window, cfg.d_model);

    if wants(
        report,
        &["tensor.gemm_stage1_gflops", "tensor.gemm_train_gflops"],
    ) {
        // Batched Stage-1 inference stacks every star's window into one
        // (N·W)×d operand; training runs one W×d window per tape.
        report.set("tensor.gemm_stage1_gflops", gemm_gflops(n * w, d, cfg.d_ff));
        report.set("tensor.gemm_train_gflops", gemm_gflops(w, d, cfg.d_ff));
    }

    if wants(
        report,
        &[
            "online.push_ms_p50",
            "online.heap_allocs_per_frame",
            "tensor.pool_misses_per_frame",
            "online.calibrate_s",
        ],
    ) {
        with_threads(SERVE_THREADS, || probe_online(report, input));
    }

    let mut model = (input.model)();
    if wants(report, &["model.stage1_ms_per_window"]) {
        let series = prefix(input.test, 3 * w);
        let windows = scoring_windows(series.len(), cfg).max(1) as f64;
        let stage1_modes = vec![ScoreMode::Stage1; n];
        let stage1: Vec<f64> = (0..3)
            .map(|_| {
                timed(|| {
                    span("model.score_with_modes", || {
                        model.score_with_modes(&series, &stage1_modes)
                    })
                })
                .1
            })
            .collect();
        report.set(
            "model.stage1_ms_per_window",
            median(&stage1) * 1e3 / windows,
        );
    }
    if wants(report, &["model.stage2_ms_per_window"]) {
        report.set("model.stage2_ms_per_window", stage2_ms_per_window(input));
    }

    if wants(report, &["graph_learn.adjacency_us"]) {
        let window = prefix(input.test, w);
        let (errors, _) = model
            .stage_scores(&window)
            .expect("stage scores of one window");
        let omega = cfg.effective_short_window();
        let errors = errors
            .slice_cols(w - omega, omega)
            .expect("the scored columns");
        let secs = span("graph_learn.window_adjacency", || {
            per_call(0.1, || {
                std::hint::black_box(window_adjacency(&errors));
            })
        });
        report.set("graph_learn.adjacency_us", secs * 1e6);
    }

    if wants(report, &["evt.pot_fit_ms"]) {
        let scores = model.score(input.train).expect("calibration scores");
        let warm = model.warmup().min(scores.cols());
        let flat: Vec<f32> = (0..scores.rows())
            .flat_map(|r| scores.row(r)[warm..].iter().copied())
            .collect();
        let fits: Vec<f64> = (0..5)
            .map(|_| {
                timed(|| {
                    span("evt.pot_threshold", || {
                        pot_threshold(&flat, input.pot)
                            .unwrap_or_else(|_| pot_threshold_lenient(&flat, input.pot))
                    })
                })
                .1
            })
            .collect();
        report.set("evt.pot_fit_ms", median(&fits) * 1e3);
    }

    if wants(report, &["persist.load_ms"]) {
        let loads: Vec<f64> = (0..3)
            .map(|_| {
                timed(|| {
                    span("persist.load_model", || {
                        load_model(input.checkpoint).expect("loading the checkpoint")
                    })
                })
                .1
            })
            .collect();
        report.set("persist.load_ms", median(&loads) * 1e3);
    }

    if wants(report, &["timeseries.csv_read_ms"]) {
        report.set(
            "timeseries.csv_read_ms",
            median(&durations("timeseries.csv_read")) * 1e3,
        );
    }

    if wants(report, &["baselines.sr_fallback_us"]) {
        let window = input.test.values().row(0)[..w.min(input.test.len())].to_vec();
        let sr = SpectralResidual::default();
        let secs = span("baselines.sr_latest_score", || {
            per_call(0.1, || {
                std::hint::black_box(sr.latest_score(&window));
            })
        });
        report.set("baselines.sr_fallback_us", secs * 1e6);
    }

    let governed = [
        "serve.decode_mb_per_s",
        "overload.offer_us_p50",
        "overload.poll_ms_p50",
        "overload.queue_peak",
        "overload.star_sheds",
        "overload.fallback_scores",
        "wal.bytes_per_frame",
        "wal.replay_frames_per_s",
    ];
    if wants(report, &governed) {
        with_threads(SERVE_THREADS, || probe_governed(report, input));
    }

    if wants(report, &["fleet.offer_us_p50", "fleet.poll_ms_p50"]) {
        with_threads(SERVE_THREADS, || probe_fleet(report, input, &model));
    }

    if wants(report, &["parallel.fit_speedup", "parallel.score_speedup"]) {
        let threads = aero_parallel::max_threads();
        let score_at = |t: usize, model: &mut Aero| {
            with_threads(t, || {
                let secs: Vec<f64> = (0..2)
                    .map(|_| timed(|| span("model.score", || model.score(input.test))).1)
                    .collect();
                median(&secs)
            })
        };
        let score_n = score_at(threads, &mut model);
        let score_1 = score_at(1, &mut model);
        let fits: Vec<f64> = (0..3)
            .map(|_| {
                let mut fresh = Aero::new(cfg.clone()).expect("a valid configuration");
                timed(|| span("model.fit", || fresh.fit(input.fit_series))).1
            })
            .collect();
        let fit_n = median(&fits);
        eprintln!(
            "parallel: fit {fit_n:.3} s at {threads} threads (median of 3), {:.3} s at {FIT_THREADS} (the workload's median); test-night score {score_n:.3} s at {threads} threads, {score_1:.3} s at 1",
            input.fit_secs
        );
        report.set("parallel.fit_speedup", input.fit_secs / fit_n);
        report.set("parallel.score_speedup", score_1 / score_n);
    }
}

/// Stage 2 per scoring window, in ms. Stage 2 costs microseconds a window
/// against Stage 1's milliseconds, so `score` minus an all-`Stage1` pass on
/// the workload's model is lost in Stage 1's run-to-run noise. The probe
/// therefore runs the same difference on a detector of the workload's
/// configuration with the temporal module off (Stage 1 is then `E = Y`, a
/// window copy) and only its graph stage trained, for one epoch: Stage 2's
/// cost depends on its shapes (stars, ω, iterations, graph mode), not on its
/// weights. Interleaved pairs over the whole test night for at least a
/// second; the median of the per-pair differences.
fn stage2_ms_per_window(input: &ProbeInput) -> f64 {
    let cfg = AeroConfig {
        use_temporal: false,
        max_epochs: 1,
        ..input.cfg.clone()
    };
    let mut model = Aero::new(cfg.clone()).expect("a valid configuration");
    span("model.fit", || {
        model.fit(&prefix(input.train, 4 * cfg.window))
    })
    .expect("fitting the graph stage");
    let stage1_modes = vec![ScoreMode::Stage1; input.test.num_variates()];
    let windows = scoring_windows(input.test.len(), &cfg).max(1) as f64;
    let mut diffs = Vec::new();
    let start = Instant::now();
    while diffs.len() < 5 || start.elapsed().as_secs_f64() < 1.0 {
        let (_, full) = timed(|| span("model.score", || model.score(input.test)));
        let (_, stage1) = timed(|| {
            span("model.score_with_modes", || {
                model.score_with_modes(input.test, &stage1_modes)
            })
        });
        diffs.push(full - stage1);
    }
    let quartiles = [0.25, 0.75].map(|p| percentile(&diffs, p) * 1e3 / windows);
    eprintln!(
        "stage 2: {} interleaved pairs, per-window difference quartiles {:.4}..{:.4} ms",
        diffs.len(),
        quartiles[0],
        quartiles[1]
    );
    median(&diffs) * 1e3 / windows
}

/// Pushes test frames straight into an `OnlineAero` (no governor): warm-up
/// frames first, then the measured ones.
fn probe_online(report: &mut Report, input: &ProbeInput) {
    let (warm, measured) = if input.smoke { (10, 20) } else { (40, 60) };
    let model = (input.model)();
    let (online, calib_secs) = timed(|| {
        span("online.calibrate", || {
            OnlineAero::with_policy(model, input.train, input.pot, DegradePolicy::default())
        })
    });
    let mut online = online.expect("calibrating the online detector");
    let frames = night::frames(&prefix(input.test, warm + measured));
    let (warm_frames, timed_frames) = frames.split_at(warm.min(frames.len()));
    for (ts, values) in warm_frames {
        online.push(*ts, values).expect("warm-up push");
    }
    let mut secs = Vec::with_capacity(timed_frames.len());
    let pool_before = workspace::stats();
    let allocs_before = allocs_now();
    for (ts, values) in timed_frames {
        let start = Instant::now();
        let verdict = online.push(*ts, values).expect("measured push");
        secs.push(start.elapsed().as_secs_f64());
        drop(verdict);
    }
    let allocs = allocs_now() - allocs_before;
    let pool = workspace::stats();
    let misses = (pool.buffer_misses - pool_before.buffer_misses)
        + (pool.tape_misses - pool_before.tape_misses);
    let count = timed_frames.len().max(1) as f64;
    report.set("online.push_ms_p50", median(&secs) * 1e3);
    report.set("online.heap_allocs_per_frame", allocs as f64 / count);
    report.set("tensor.pool_misses_per_frame", misses as f64 / count);
    if !report.has("online.calibrate_s") {
        report.set("online.calibrate_s", calib_secs);
    }
}

/// Queue sized so the probe's burst never fills it (the burst leaves 48
/// frames queued), with the high watermark low enough that it sheds stars
/// and walks the ladder down.
fn burst_policy() -> OverloadPolicy {
    OverloadPolicy {
        queue_capacity: 64,
        high_watermark: 16,
        low_watermark: 4,
        ..OverloadPolicy::default()
    }
}

/// A short governed stream with the WAL attached and frames arriving as
/// wire bytes (the `aero serve` ingest path minus the sockets): 60 realtime
/// ticks, a 4× burst (16 ticks at 4 frames) and 56 quiet ticks that only
/// poll, then 60 more realtime ticks, under [`burst_policy`], so the queue
/// fills past its high watermark, stars are shed and fall back to the SR
/// rung. Only runs for workloads with no governed stream of their own, so
/// the `serve.decode` / `overload.*` spans it reads are its own.
fn probe_governed(report: &mut Report, input: &ProbeInput) {
    let schedule: Vec<usize> = [(60, 1), (16, 4), (56, 0), (60, 1)]
        .iter()
        .flat_map(|&(ticks, rate)| std::iter::repeat_n(rate, ticks))
        .collect();
    let frames = night::frames(&prefix(input.test, schedule.iter().sum()));
    let model = (input.model)();
    let online = OnlineAero::with_policy(model, input.train, input.pot, DegradePolicy::default())
        .expect("calibrating");
    let mut gov = StreamGovernor::with_policy(online, burst_policy()).expect("a valid policy");
    gov.set_fallback(Some(sr_fallback()));
    let wal_dir = input.work.join("probe-wal");
    gov.attach_wal(WalWriter::create(&wal_dir, WalConfig::default()).expect("creating the WAL"))
        .expect("attaching");
    let ticks = encode_ticks(&frames, &schedule);
    let mut client = Client::default();
    let mut decoder = Decoder::new(DEFAULT_MAX_PAYLOAD);
    client
        .ticks(&mut gov, &mut decoder, &ticks)
        .expect("streaming");
    client.drain(&mut gov).expect("draining");
    let bytes: usize = ticks.iter().map(Vec::len).sum();
    let decode_secs: f64 = durations("serve.decode").iter().sum();
    report.set("serve.decode_mb_per_s", bytes as f64 / decode_secs / 1e6);
    report.set(
        "overload.offer_us_p50",
        median(&durations("overload.offer")) * 1e6,
    );
    report.set(
        "overload.poll_ms_p50",
        median(&durations("overload.poll")) * 1e3,
    );
    let overload = gov.online().health().overload;
    for (name, value) in [
        ("overload.queue_peak", overload.queue_peak),
        ("overload.star_sheds", overload.star_sheds),
        ("overload.fallback_scores", overload.fallback_scores),
    ] {
        if !report.has(name) {
            report.set(name, value as f64);
        }
    }
    drop(gov);
    report.set(
        "wal.bytes_per_frame",
        dir_bytes(&wal_dir) as f64 / frames.len() as f64,
    );
    let (logged, secs) = timed(|| span("wal.replay", || wal::replay(&wal_dir)));
    report.set(
        "wal.replay_frames_per_s",
        logged.expect("replaying the WAL").0.len() as f64 / secs,
    );
}

/// A short realtime night through a 2-shard fleet whose shards are
/// assembled from `model`'s trunk plus its per-star deltas, as the CLI's
/// fleet factory assembles them. Checks that no shard slice is rejected and
/// that each shard answers every frame once, in order.
fn probe_fleet(report: &mut Report, input: &ProbeInput, model: &Aero) {
    let backbone = model.backbone().expect("a trained model");
    let deltas: Vec<StarDelta> = (0..input.train.num_variates())
        .map(|v| model.star_delta(v).expect("a star delta"))
        .collect();
    let train = input.train.clone();
    let pot = input.pot;
    let factory: ShardFactory = Arc::new(move |members: &[usize]| {
        let slice = train
            .select_variates(members)
            .map_err(|e| DetectorError::Invalid(e.to_string()))?;
        let mine: Vec<StarDelta> = members.iter().map(|&v| deltas[v].clone()).collect();
        let model = Aero::from_backbone(&backbone, &mine)?;
        OnlineAero::with_policy(model, &slice, pot, DegradePolicy::default())
    });
    let frames = night::frames(&prefix(input.test, if input.smoke { 60 } else { 200 }));
    let (rejected, per_shard) =
        fleet_night(input.train.num_variates(), factory, &frames).expect("streaming the fleet");
    report.check(rejected == 0, || {
        format!("fleet probe: {rejected} shard slices were rejected")
    });
    for (k, verdicts) in per_shard.iter().enumerate() {
        let conserved = verdicts.len() == frames.len()
            && verdicts
                .iter()
                .zip(&frames)
                .all(|(v, (ts, _))| v.verdict.timestamp.to_bits() == ts.to_bits());
        report.check(conserved, || {
            format!(
                "fleet probe: shard {k} emitted {} verdicts for {} frames (or out of order)",
                verdicts.len(),
                frames.len()
            )
        });
    }
    report.set(
        "fleet.offer_us_p50",
        median(&durations("fleet.offer")) * 1e6,
    );
    report.set("fleet.poll_ms_p50", median(&durations("fleet.poll")) * 1e3);
}

/// Streams `frames` at realtime (one offer, then one poll of every shard)
/// through a 2-shard fleet of `n` stars under the CLI's default queue, then
/// drains it. Returns the rejected shard slices and each shard's verdicts.
fn fleet_night(
    n: usize,
    factory: ShardFactory,
    frames: &[(f64, Vec<f32>)],
) -> DetectorResult<(usize, Vec<Vec<GovernedVerdict>>)> {
    let catalog = StarCatalog::sequential(n);
    let assignment = ShardAssignment::partition(&catalog, 2, 7)?;
    let config = FleetConfig {
        seed: 7,
        overload: cli_policy(64),
        ..FleetConfig::default()
    };
    let mut fleet = span("fleet.new", || {
        FleetCoordinator::new(catalog, assignment, factory, Some(sr_fallback()), config)
    })?;
    let mut rejected = 0;
    let mut per_shard: Vec<Vec<GovernedVerdict>> = Vec::new();
    let mut collect = |round: Vec<Option<GovernedVerdict>>| {
        per_shard.resize_with(round.len(), Vec::new);
        let mut any = false;
        for (k, v) in round.into_iter().enumerate() {
            if let Some(v) = v {
                per_shard[k].push(v);
                any = true;
            }
        }
        any
    };
    for (timestamp, values) in frames {
        let admissions = span("fleet.offer", || fleet.offer(*timestamp, values))?;
        rejected += admissions
            .iter()
            .filter(|a| !a.as_ref().is_some_and(|a| a.is_accepted()))
            .count();
        collect(span("fleet.poll", || fleet.poll())?);
    }
    while collect(span("fleet.poll", || fleet.poll())?) {}
    Ok((rejected, per_shard))
}
