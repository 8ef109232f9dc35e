//! `night-batch`: the `aero detect` path. `run_detection` (fit, POT
//! calibration on the held-out training tail, scoring, thresholding) on a
//! 24-star SyntheticMiddle-shaped night, repeated in whole rounds for the
//! run's seconds.

use std::path::Path;
use std::time::Instant;

use aero_core::{
    load_model, run_detection, save_model, Aero, AeroConfig, Detector, DetectorError,
    DetectorResult,
};
use aero_eval::threshold_scores;
use aero_evt::{pot_threshold_lenient, PotConfig};
use aero_tensor::Matrix;
use aero_timeseries::{Dataset, MultivariateSeries};

use crate::night::{self, Shape};
use crate::probes::{self, ProbeInput};
use crate::reference::{
    bitwise_mismatches, level_quantile, noise_to_clean_ratio, point_adjusted_f1, Grid,
};
use crate::trace::{median, span, timed};
use crate::{with_threads, Ctx, Report, FIT_THREADS};

/// Point-adjusted F1 every seed must reach (flagging every point scores
/// about 0.01 on this night).
pub const F1_FLOOR: f64 = 0.2;
/// Training epochs (`AeroConfig::fast()` allows 15).
const EPOCHS: usize = 3;
const SETUP_REPS: usize = 15;
const RECOVERY_REPS: usize = 9;
/// Share of the training night `run_detection` holds out for calibration.
const HOLDOUT: f64 = 0.2;

/// The batch night keeps its full shape in smoke runs too: smaller nights
/// miss every anomaly segment on some seeds, and the F1 floor is a check.
const SHAPE: Shape = Shape {
    stars: 24,
    train_len: 1500,
    test_len: 1500,
};

fn config() -> AeroConfig {
    AeroConfig {
        max_epochs: EPOCHS,
        ..AeroConfig::fast()
    }
}

/// `Aero` behind the `Detector` interface, recording what `run_detection`
/// asks of it: the fit time and every score matrix with its time.
struct Recorded<'a> {
    aero: &'a mut Aero,
    fit_secs: f64,
    scores: Vec<(f64, Matrix)>,
}

impl Detector for Recorded<'_> {
    fn name(&self) -> String {
        self.aero.name()
    }

    fn fit(&mut self, train: &MultivariateSeries) -> DetectorResult<()> {
        let (out, secs) =
            timed(|| with_threads(FIT_THREADS, || span("model.fit", || self.aero.fit(train))));
        self.fit_secs = secs;
        out
    }

    fn score(&mut self, series: &MultivariateSeries) -> DetectorResult<Matrix> {
        let (out, secs) = timed(|| span("model.score", || self.aero.score(series)));
        if let Ok(m) = &out {
            self.scores.push((secs, m.clone()));
        }
        out
    }

    fn warmup(&self) -> usize {
        self.aero.warmup()
    }
}

/// One round's outputs.
struct Round {
    model: Aero,
    fit_secs: f64,
    test_secs: f64,
    verdict_secs: f64,
    calib_scores: Matrix,
    scores: Matrix,
    threshold: f64,
    f1: f64,
}

fn round(ds: &Dataset, cfg: &AeroConfig, pot: PotConfig) -> DetectorResult<Round> {
    let mut model = Aero::new(cfg.clone())?;
    let mut rec = Recorded {
        aero: &mut model,
        fit_secs: 0.0,
        scores: Vec::new(),
    };
    let outcome = span("detector.run_detection", || {
        run_detection(&mut rec, ds, pot)
    })?;
    let (fit_secs, mut scores) = (rec.fit_secs, std::mem::take(&mut rec.scores));
    let (test_secs, test_scores) = scores.pop().expect("run_detection scores the test night");
    let (_, calib_scores) = scores
        .pop()
        .expect("run_detection scores the calibration night");
    // The verdicts exist once the test scores are thresholded.
    let (_, threshold_secs) = timed(|| {
        span("eval.threshold_scores", || {
            threshold_scores(&test_scores, outcome.threshold.threshold)
        })
    });
    Ok(Round {
        model,
        fit_secs,
        test_secs,
        verdict_secs: test_secs + threshold_secs,
        calib_scores,
        scores: test_scores,
        threshold: outcome.threshold.threshold,
        f1: outcome.metrics.f1,
    })
}

/// First column of the held-out calibration tail, as `run_detection` picks it.
fn calib_start(train_len: usize, warmup: usize, cols: usize) -> usize {
    let holdout = ((train_len as f64 * HOLDOUT) as usize).min(train_len / 2);
    (train_len - holdout)
        .max(warmup)
        .min(cols.saturating_sub(1))
}

fn tail(m: &Matrix, start: usize) -> Vec<f32> {
    (0..m.rows())
        .flat_map(|r| m.row(r)[start..].iter().copied())
        .collect()
}

/// Restart to ready: reload the saved checkpoint and re-derive the
/// threshold from the calibration tail.
fn recover(path: &Path, train: &MultivariateSeries, pot: PotConfig) -> DetectorResult<f64> {
    let mut model = span("persist.load_model", || load_model(path))?;
    let calib = span("model.score", || model.score(train))?;
    let start = calib_start(train.len(), model.warmup(), calib.cols());
    let flat = tail(&calib, start);
    Ok(span("evt.pot_threshold", || pot_threshold_lenient(&flat, pot)).threshold)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> DetectorResult<()> {
    let cfg = config();
    let pot = PotConfig::default();
    let night_dir = ctx.work.join("night");

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut ds = None;
    for _ in 0..SETUP_REPS {
        let (d, secs) = timed(|| night::round_trip(SHAPE, ctx.seed, &night_dir));
        setup.push(secs);
        ds = Some(d);
    }
    let ds = ds.expect("at least one set-up");
    report.set("setup_s", median(&setup));

    // Whole rounds while another fits in the run's seconds.
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut last_secs = 0.0;
    while rounds.is_empty() || start.elapsed().as_secs_f64() + last_secs <= ctx.seconds {
        let began = Instant::now();
        report.attempted += 1;
        match round(&ds, &cfg, pot) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                report.failed += 1;
                eprintln!("run_detection failed: {e}");
                if report.failed >= 3 {
                    break;
                }
            }
        }
        last_secs = began.elapsed().as_secs_f64();
    }
    let Some(first) = rounds.first() else {
        return Err(DetectorError::Invalid(
            "no run_detection round succeeded".into(),
        ));
    };
    eprintln!(
        "night-batch: {} rounds, fit {:.3}s, test {:.3}s, threshold {:.6}, F1 {:.4}",
        rounds.len(),
        first.fit_secs,
        first.test_secs,
        first.threshold,
        first.f1
    );
    let fits: Vec<f64> = rounds.iter().map(|r| r.fit_secs).collect();
    let tests: Vec<f64> = rounds.iter().map(|r| r.test_secs).collect();
    let verdicts: Vec<f64> = rounds.iter().map(|r| r.verdict_secs * 1e3).collect();
    report.set("fit_s", median(&fits));
    report.set("frames_per_s", ds.test.len() as f64 / median(&tests));
    report.set("verdict_p50_ms", median(&verdicts));

    let checkpoint = ctx.work.join("model.json");
    save_model(&first.model, &checkpoint)?;
    let mut recovery = Vec::with_capacity(RECOVERY_REPS);
    for _ in 0..RECOVERY_REPS {
        let (threshold, secs) = timed(|| recover(&checkpoint, &ds.train, pot));
        recovery.push(secs);
        match threshold {
            Ok(t) => report.check(t.to_bits() == first.threshold.to_bits(), || {
                format!(
                    "reloaded checkpoint calibrates to {t}, the round to {}",
                    first.threshold
                )
            }),
            Err(e) => report.check(false, || format!("recovery failed: {e}")),
        }
    }
    report.set("recovery_s", median(&recovery));

    let model = &mut rounds[0].model;
    let stages = model
        .stage_scores(&ds.train)
        .and_then(|train| Ok((train, model.stage_scores(&ds.test)?)))
        .ok();
    check(report, &ds, &rounds, stages, pot);

    if ctx.trace {
        let fit_series = ds
            .train
            .split_at(calib_start(ds.train.len(), 0, ds.train.len()))
            .expect("split")
            .0;
        probes::fill(
            report,
            &ProbeInput {
                model: &|| load_model(&checkpoint).expect("loading the checkpoint"),
                checkpoint: &checkpoint,
                cfg: &cfg,
                fit_series: &fit_series,
                fit_secs: median(&fits),
                train: &ds.train,
                test: &ds.test,
                pot,
                work: &ctx.work,
                smoke: ctx.smoke,
            },
        );
    }
    Ok(())
}

type StageScores = ((Matrix, Matrix), (Matrix, Matrix));

fn check(
    report: &mut Report,
    ds: &Dataset,
    rounds: &[Round],
    stages: Option<StageScores>,
    pot: PotConfig,
) {
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        let same = bitwise_mismatches(r.scores.as_slice(), first.scores.as_slice()) == 0;
        report.check(
            same && r.threshold.to_bits() == first.threshold.to_bits(),
            || format!("round {i} scored the night differently from round 0"),
        );
    }
    let scores = &first.scores;
    let bad = scores
        .as_slice()
        .iter()
        .chain(first.calib_scores.as_slice())
        .filter(|s| !(s.is_finite() && **s >= 0.0))
        .count();
    report.check(bad == 0, || {
        format!("{bad} scores are negative or not finite")
    });

    let start = calib_start(
        ds.train.len(),
        first.model.warmup(),
        first.calib_scores.cols(),
    );
    let calib = tail(&first.calib_scores, start);
    if pot.q < 1.0 - pot.level {
        let quantile = level_quantile(&calib, pot.level);
        report.check(first.threshold >= quantile, || {
            format!(
                "POT threshold {} is below the {} quantile {quantile}",
                first.threshold, pot.level
            )
        });
    }

    let (n, len) = (scores.rows(), scores.cols());
    let truth = Grid::from_fn(n, len, |r, c| ds.test_labels.get(r, c));
    let flags = Grid::from_fn(n, len, |r, c| {
        f64::from(scores.get(r, c)) >= first.threshold
    });
    let f1 = point_adjusted_f1(&flags, &truth);
    let all = point_adjusted_f1(&Grid::from_fn(n, len, |_, _| true), &truth);
    eprintln!(
        "night-batch: point-adjusted F1 {f1:.4} (aero-eval {:.4}, flag-everything {all:.4})",
        first.f1
    );
    report.check((f1 - first.f1).abs() <= 1e-12, || {
        format!(
            "reference point-adjusted F1 {f1} differs from aero-eval's {}",
            first.f1
        )
    });
    report.check(f1 >= F1_FLOOR, || {
        format!("point-adjusted F1 {f1} is below the floor {F1_FLOOR}")
    });
    report.check(all < F1_FLOOR / 5.0, || {
        format!("flagging everything scores F1 {all}, too close to the floor")
    });

    // Stage 2's noise cancellation, gated: two-stage scores differ from
    // Stage 1's, and the mean score on concurrent-noise points relative to
    // clean points falls. The paper's count form of the claim (each stage at
    // its own POT threshold, two-stage flags fewer noise points) is only
    // reported: at this night size it fails on some seeds (see README.md).
    let Some(((e_train, r_train), (e_test, r_test))) = stages else {
        report.check(false, || "per-stage scores could not be computed".into());
        return;
    };
    let noise = Grid::from_fn(n, len, |r, c| ds.test_noise.get(r, c));
    let stage1_ratio = noise_to_clean_ratio(e_test.as_slice(), &noise, &truth);
    let stage2_ratio = noise_to_clean_ratio(r_test.as_slice(), &noise, &truth);
    let differ = bitwise_mismatches(e_test.as_slice(), r_test.as_slice());
    let noise_flagged = |train: &Matrix, test: &Matrix| {
        let threshold = pot_threshold_lenient(&tail(train, start), pot).threshold;
        (0..n)
            .flat_map(|r| (0..len).map(move |c| (r, c)))
            .filter(|&(r, c)| noise.cells[r * len + c] && f64::from(test.get(r, c)) >= threshold)
            .count()
    };
    eprintln!(
        "night-batch: concurrent-noise / clean mean score: Stage-1 {stage1_ratio:.3}, two-stage {stage2_ratio:.3}; noise points flagged: Stage-1 alone {}, two-stage {}",
        noise_flagged(&e_train, &e_test),
        noise_flagged(&r_train, &r_test)
    );
    report.check(differ > 0, || {
        "two-stage scores equal Stage-1 scores on every point: Stage 2 did nothing".into()
    });
    report.check(stage2_ratio < stage1_ratio, || {
        format!(
            "Stage 2 did not lower the concurrent-noise / clean mean score ({stage1_ratio} -> {stage2_ratio})"
        )
    });
}
