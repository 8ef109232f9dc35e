//! `stream-night`: the `aero stream --model --wal` path at realtime (one
//! offer and one poll per frame), with frames delivered as AWP1 Ingest bytes
//! through `serve::Decoder` as `aero serve` receives them. Halfway through
//! the night the governor is dropped and rebuilt with
//! `StreamGovernor::resume_wal`, then the night continues.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use aero_baselines::SpectralResidual;
use aero_core::online::{DegradePolicy, OnlineAero};
use aero_core::serve::codec::{encode, Decoder, WireFrame, WireMsg, DEFAULT_MAX_PAYLOAD};
use aero_core::wal::{self, WalConfig, WalWriter};
use aero_core::{
    load_model, save_model, Aero, AeroConfig, Detector, DetectorResult, FallbackScorer,
    GovernedVerdict, OverloadPolicy, StreamGovernor,
};
use aero_evt::PotConfig;
use aero_timeseries::MultivariateSeries;

use crate::night::{self, Shape};
use crate::probes::{self, ProbeInput};
use crate::reference::{bitwise_mismatches, flag_mismatches};
use crate::trace::{durations, median, percentile, span, timed};
use crate::{dir_bytes, with_threads, Ctx, Report, FIT_THREADS, SERVE_THREADS};

const EPOCHS: usize = 3;
const SETUP_REPS: usize = 5;
/// Trainings of the checkpoint (identical; the median is `fit_s`).
const FIT_REPS: usize = 3;
/// Frames sampled on each side of the restart for the online/offline check.
const SAMPLES_PER_HALF: usize = 3;

/// 8 stars: at the batch night's 24, a night with its restart takes about
/// 22 s, so a 30 s run holds one night, where at 8 it holds 3 or 4 and
/// reports the median night (README.md, Steadiness).
fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            stars: 4,
            train_len: 300,
            test_len: 120,
        }
    } else {
        Shape {
            stars: 8,
            train_len: 1500,
            test_len: 1100,
        }
    }
}

fn config(smoke: bool) -> AeroConfig {
    let mut cfg = if smoke {
        AeroConfig::tiny()
    } else {
        AeroConfig::fast()
    };
    cfg.max_epochs = EPOCHS;
    cfg
}

/// The CLI's default admission policy (`--queue-cap 64`).
pub fn cli_policy(queue_cap: usize) -> OverloadPolicy {
    OverloadPolicy {
        queue_capacity: queue_cap,
        high_watermark: queue_cap / 2,
        low_watermark: queue_cap / 8,
        ..OverloadPolicy::default()
    }
}

/// The CLI's model-free fallback rung: spectral residual.
pub fn sr_fallback() -> FallbackScorer {
    let sr = SpectralResidual::default();
    FallbackScorer::new(move |window| sr.latest_score(window))
}

/// Encodes each tick's arrivals as one AWP1 Ingest message (quiet ticks
/// carry no bytes).
pub fn encode_ticks(frames: &[(f64, Vec<f32>)], schedule: &[usize]) -> Vec<Vec<u8>> {
    let mut next = frames.iter();
    schedule
        .iter()
        .enumerate()
        .map(|(seq, &arrivals)| {
            if arrivals == 0 {
                return Vec::new();
            }
            let batch: Vec<WireFrame> = next
                .by_ref()
                .take(arrivals)
                .map(|(timestamp, values)| WireFrame {
                    timestamp: *timestamp,
                    values: values.clone(),
                })
                .collect();
            encode(&WireMsg::Ingest {
                seq: seq as u64,
                frames: batch,
            })
        })
        .collect()
}

/// Feeds one tick's bytes to the decoder and returns the frames it yields.
fn decode(decoder: &mut Decoder, bytes: &[u8]) -> Vec<WireFrame> {
    span("serve.decode", || {
        decoder.extend(bytes);
        let mut frames = Vec::new();
        while let Some(msg) = decoder.next().expect("the benchmark's own bytes decode") {
            if let WireMsg::Ingest { frames: batch, .. } = msg {
                frames.extend(batch);
            }
        }
        frames
    })
}

/// A verdict as the client receives it.
pub struct Delivered {
    pub latency_s: f64,
    pub verdict: GovernedVerdict,
}

/// The client's side of a governed stream: frames in flight and verdicts
/// received, with the offer instant of every frame.
#[derive(Default)]
pub struct Client {
    inflight: VecDeque<(f64, Instant)>,
    pub delivered: Vec<Delivered>,
    pub offered: usize,
    pub rejected: usize,
    /// Verdicts that did not come back in offer order.
    pub out_of_order: usize,
}

impl Client {
    fn receive(&mut self, verdict: GovernedVerdict) {
        let now = Instant::now();
        let Some((timestamp, offered_at)) = self.inflight.pop_front() else {
            self.out_of_order += 1;
            return;
        };
        if timestamp.to_bits() != verdict.verdict.timestamp.to_bits() {
            self.out_of_order += 1;
        }
        self.delivered.push(Delivered {
            latency_s: (now - offered_at).as_secs_f64(),
            verdict,
        });
    }

    /// Runs ticks through `gov`: each tick decodes its bytes, offers every
    /// frame, then polls once.
    pub fn ticks(
        &mut self,
        gov: &mut StreamGovernor,
        decoder: &mut Decoder,
        ticks: &[Vec<u8>],
    ) -> DetectorResult<()> {
        for bytes in ticks {
            for frame in decode(decoder, bytes) {
                let offered_at = Instant::now();
                let admission = span("overload.offer", || {
                    gov.offer(frame.timestamp, &frame.values)
                })?;
                self.offered += 1;
                if admission.is_accepted() {
                    self.inflight.push_back((frame.timestamp, offered_at));
                } else {
                    self.rejected += 1;
                }
            }
            if let Some(v) = span("overload.poll", || gov.poll())? {
                self.receive(v);
            }
        }
        Ok(())
    }

    /// Polls until the queue is empty.
    pub fn drain(&mut self, gov: &mut StreamGovernor) -> DetectorResult<()> {
        while let Some(v) = span("overload.poll", || gov.poll())? {
            self.receive(v);
        }
        Ok(())
    }
}

/// Whether two verdicts are the same bit for bit.
fn same_verdict(a: &GovernedVerdict, b: &GovernedVerdict) -> bool {
    let (x, y) = (&a.verdict, &b.verdict);
    x.frame == y.frame
        && x.timestamp.to_bits() == y.timestamp.to_bits()
        && x.disposition == y.disposition
        && x.gap_filled == y.gap_filled
        && x.stars.len() == y.stars.len()
        && x.stars.iter().zip(&y.stars).all(|(s, t)| {
            s.score.to_bits() == t.score.to_bits()
                && s.anomalous == t.anomalous
                && s.status == t.status
        })
        && a.shed == b.shed
        && a.levels == b.levels
        && a.classes == b.classes
}

fn calibrate(
    checkpoint: &Path,
    train: &MultivariateSeries,
    pot: PotConfig,
) -> DetectorResult<OnlineAero> {
    let model = span("persist.load_model", || load_model(checkpoint))?;
    span("online.calibrate", || {
        OnlineAero::with_policy(model, train, pot, DegradePolicy::default())
    })
}

/// One streamed night as the client saw it.
struct Night {
    delivered: Vec<Delivered>,
    offered: usize,
    streaming_secs: f64,
    recovery_secs: f64,
    replayed: usize,
}

/// Streams the night's first half, drops the governor, restarts it from the
/// checkpoint and the WAL, and streams the second half. Checks what only
/// this night can show; returns the night and its final governor.
fn stream_night(
    report: &mut Report,
    online: OnlineAero,
    checkpoint: &Path,
    train: &MultivariateSeries,
    ticks: &[Vec<u8>],
    wal_dir: &Path,
) -> DetectorResult<(Night, StreamGovernor)> {
    let pot = PotConfig::default();
    let wal_config = WalConfig::default();
    let policy = cli_policy(64);
    let threshold = online.threshold().threshold;
    let half = ticks.len() / 2;
    let mut client = Client::default();
    let mut decoder = Decoder::new(DEFAULT_MAX_PAYLOAD);

    let mut gov = StreamGovernor::with_policy(online, policy.clone())?;
    gov.set_fallback(Some(sr_fallback()));
    gov.attach_wal(WalWriter::create(wal_dir, wal_config)?)?;
    let (live, first_half_secs) = timed(|| client.ticks(&mut gov, &mut decoder, &ticks[..half]));
    live?;

    // Crash: the governor and its WAL handle go away mid-night.
    drop(gov);
    let restart = Instant::now();
    let online = calibrate(checkpoint, train, pot)?;
    let (mut gov, replayed, _recovery) = span("overload.resume_wal", || {
        StreamGovernor::resume_wal(online, policy, Some(sr_fallback()), wal_dir, wal_config)
    })?;
    // Offers whose service poll was not yet logged re-execute here; their
    // verdicts were already delivered before the crash.
    let mut reexecuted = Vec::new();
    while replayed.len() + reexecuted.len() < client.delivered.len() {
        match span("overload.poll", || gov.poll())? {
            Some(v) => reexecuted.push(v),
            None => break,
        }
    }
    let recovery_secs = restart.elapsed().as_secs_f64();
    let before_restart = client.delivered.len();
    let same_prefix = replayed
        .iter()
        .chain(&reexecuted)
        .zip(&client.delivered)
        .filter(|(r, live)| same_verdict(r, &live.verdict))
        .count();
    report.check(replayed.len() + reexecuted.len() == before_restart && same_prefix == before_restart, || {
        format!(
            "resume_wal replayed {} + re-executed {} verdicts, {same_prefix} of {before_restart} equal to the live ones",
            replayed.len(),
            reexecuted.len()
        )
    });
    report.check(
        gov.online().threshold().threshold.to_bits() == threshold.to_bits(),
        || "the restarted stream calibrated a different threshold".into(),
    );

    let (live, second_half_secs) = timed(|| -> DetectorResult<()> {
        client.ticks(&mut gov, &mut decoder, &ticks[half..])?;
        client.drain(&mut gov)
    });
    live?;

    report.check(client.rejected == 0, || {
        format!("{} offers were rejected", client.rejected)
    });
    report.check(
        client.delivered.len() == client.offered && client.out_of_order == 0,
        || {
            format!(
                "{} verdicts for {} offered frames, {} out of order",
                client.delivered.len(),
                client.offered,
                client.out_of_order
            )
        },
    );
    let shed: usize = client
        .delivered
        .iter()
        .map(|d| d.verdict.shed.iter().filter(|&&s| s).count())
        .sum();
    report.check(shed == 0, || {
        format!("{shed} star-frames were shed at realtime")
    });
    let flags: Vec<(f32, bool)> = client
        .delivered
        .iter()
        .flat_map(|d| {
            d.verdict
                .verdict
                .stars
                .iter()
                .map(|s| (s.score, s.anomalous))
        })
        .collect();
    let wrong = flag_mismatches(&flags, threshold);
    report.check(wrong == 0, || {
        format!("{wrong} verdicts disagree with score >= threshold")
    });

    let night = Night {
        offered: client.offered,
        delivered: client.delivered,
        streaming_secs: first_half_secs + second_half_secs,
        recovery_secs,
        replayed: replayed.len(),
    };
    Ok((night, gov))
}

pub fn run(ctx: &Ctx, report: &mut Report) -> DetectorResult<()> {
    let cfg = config(ctx.smoke);
    let pot = PotConfig::default();
    let ds = night::round_trip(shape(ctx.smoke), ctx.seed, &ctx.work.join("night"));
    let frames = night::frames(&ds.test);
    let ticks = encode_ticks(&frames, &vec![1; frames.len()]);

    // The checkpoint `aero detect --save-model` would leave behind.
    let mut fits = Vec::with_capacity(FIT_REPS);
    let mut model = None;
    for _ in 0..FIT_REPS {
        let (m, secs) = timed(|| -> DetectorResult<Aero> {
            let mut m = Aero::new(cfg.clone())?;
            with_threads(FIT_THREADS, || span("model.fit", || m.fit(&ds.train)))?;
            Ok(m)
        });
        fits.push(secs);
        model = Some(m?);
    }
    let model = model.expect("at least one fit");
    let fit_secs = median(&fits);
    report.set("fit_s", fit_secs);
    let checkpoint = ctx.work.join("model.json");
    save_model(&model, &checkpoint)?;
    drop(model);

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut online = None;
    for _ in 0..SETUP_REPS {
        let (o, secs) = timed(|| calibrate(&checkpoint, &ds.train, pot));
        setup.push(secs);
        online = Some(o?);
    }
    report.set("setup_s", median(&setup));

    // Whole nights while another fits in the run's seconds, served at
    // `SERVE_THREADS`.
    aero_parallel::set_max_threads(SERVE_THREADS);
    let start = Instant::now();
    let mut nights: Vec<Night> = Vec::new();
    let mut last_gov = None;
    let mut last_secs = 0.0;
    while nights.is_empty() || start.elapsed().as_secs_f64() + last_secs <= ctx.seconds {
        let began = Instant::now();
        let online = match online.take() {
            Some(o) => o,
            None => calibrate(&checkpoint, &ds.train, pot)?,
        };
        let wal_dir = ctx.work.join(format!("wal-{}", nights.len()));
        let (night, gov) = stream_night(report, online, &checkpoint, &ds.train, &ticks, &wal_dir)?;
        report.attempted += night.offered as u64;
        if let Some(first) = nights.first() {
            let same = night.delivered.len() == first.delivered.len()
                && night
                    .delivered
                    .iter()
                    .zip(&first.delivered)
                    .all(|(a, b)| same_verdict(&a.verdict, &b.verdict));
            report.check(same, || {
                format!(
                    "night {} streamed different verdicts from night 0",
                    nights.len()
                )
            });
        }
        let ms: Vec<f64> = night.delivered.iter().map(|d| d.latency_s * 1e3).collect();
        eprintln!(
            "stream-night: {} frames in {:.3}s live (verdict p50 {:.3} p99 {:.3} max {:.3} ms), restart {:.3}s ({} replayed)",
            night.delivered.len(),
            night.streaming_secs,
            median(&ms),
            percentile(&ms, 0.99),
            percentile(&ms, 1.0),
            night.recovery_secs,
            night.replayed
        );
        nights.push(night);
        last_gov = Some((gov, wal_dir));
        last_secs = began.elapsed().as_secs_f64();
    }

    aero_parallel::set_max_threads(ctx.threads);

    // Per-night figures, then the median night: one night hit by a host
    // hiccup does not move the run's numbers.
    let per_night = |f: &dyn Fn(&Night) -> f64| median(&nights.iter().map(f).collect::<Vec<_>>());
    let latencies = |n: &Night| {
        n.delivered
            .iter()
            .map(|d| d.latency_s * 1e3)
            .collect::<Vec<_>>()
    };
    let recoveries: Vec<f64> = nights.iter().map(|n| n.recovery_secs).collect();
    report.set(
        "frames_per_s",
        per_night(&|n| n.offered as f64 / n.streaming_secs),
    );
    report.set("verdict_p50_ms", per_night(&|n| median(&latencies(n))));
    eprintln!(
        "stream-night: median night verdict p99 {:.3} ms (stderr only: see README.md, Steadiness)",
        per_night(&|n| percentile(&latencies(n), 0.99))
    );
    report.set("recovery_s", median(&recoveries));

    let first = &nights[0];
    let in_order = first.delivered.len() == frames.len()
        && first
            .delivered
            .iter()
            .zip(&frames)
            .all(|(d, (ts, _))| d.verdict.verdict.timestamp.to_bits() == ts.to_bits());
    report.check(in_order, || {
        "the night's verdicts are not one per frame in timestamp order".into()
    });

    // Online/offline agreement on frames sampled either side of the restart,
    // scored by a second copy of the checkpoint.
    let mut offline = load_model(&checkpoint)?;
    let w = offline.config().window;
    let n_frames = frames.len();
    let half = n_frames / 2;
    let stars: Vec<usize> = (0..ds.test.num_variates()).collect();
    let sampled: Vec<usize> = (1..=SAMPLES_PER_HALF)
        .flat_map(|i| {
            [
                i * half / (SAMPLES_PER_HALF + 1),
                half + i * (n_frames - half) / (SAMPLES_PER_HALF + 1),
            ]
        })
        .collect();
    let (mut streamed, mut recomputed) = (Vec::new(), Vec::new());
    for &t in &sampled {
        let window = night::window(&ds.train, &ds.test, &stars, t, w);
        let scores = span("model.score", || offline.score(&window))?;
        recomputed.extend(stars.iter().map(|&v| scores.get(v, w - 1)));
        if let Some(d) = first.delivered.get(t) {
            streamed.extend(d.verdict.verdict.stars.iter().map(|s| s.score));
        }
    }
    let mismatched = bitwise_mismatches(&streamed, &recomputed);
    eprintln!(
        "stream-night: {} nights, {} of {} sampled scores equal offline",
        nights.len(),
        recomputed.len() - mismatched.min(recomputed.len()),
        recomputed.len()
    );
    report.check(mismatched == 0, || {
        format!(
            "{mismatched} of {} sampled streamed scores differ from Aero::score on the window",
            recomputed.len()
        )
    });

    if ctx.trace {
        let (gov, wal_dir) = last_gov.expect("at least one night");
        let decode_secs: f64 = durations("serve.decode").iter().sum();
        let bytes: usize = ticks.iter().map(Vec::len).sum::<usize>() * nights.len();
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
        report.set("overload.queue_peak", overload.queue_peak as f64);
        report.set("overload.star_sheds", overload.star_sheds as f64);
        report.set("overload.fallback_scores", overload.fallback_scores as f64);
        report.set("online.calibrate_s", median(&durations("online.calibrate")));
        report.set(
            "persist.load_ms",
            median(&durations("persist.load_model")) * 1e3,
        );
        drop(gov);
        report.set(
            "wal.bytes_per_frame",
            dir_bytes(&wal_dir) as f64 / n_frames as f64,
        );
        let (logged, secs) = timed(|| span("wal.replay", || wal::replay(&wal_dir)));
        report.set("wal.replay_frames_per_s", logged?.0.len() as f64 / secs);
        probes::fill(
            report,
            &ProbeInput {
                model: &|| load_model(&checkpoint).expect("loading the checkpoint"),
                checkpoint: &checkpoint,
                cfg: &cfg,
                fit_series: &ds.train,
                fit_secs,
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

#[cfg(test)]
mod tests {
    use super::*;
    use aero_core::online::{FrameDisposition, FrameVerdict, StarStatus, StarVerdict};
    use aero_core::{LadderLevel, PriorityClass};

    fn verdict(scores: &[f32], threshold: f32) -> GovernedVerdict {
        let n = scores.len();
        GovernedVerdict {
            verdict: FrameVerdict {
                frame: 7,
                timestamp: 1507.0,
                stars: scores
                    .iter()
                    .map(|&score| StarVerdict {
                        score,
                        anomalous: score >= threshold,
                        status: StarStatus::Nominal,
                    })
                    .collect(),
                disposition: FrameDisposition::Scored,
                gap_filled: 0,
            },
            shed: vec![false; n],
            levels: vec![LadderLevel::FullAero; n],
            classes: vec![PriorityClass::Nominal; n],
        }
    }

    #[test]
    fn corrupting_one_streamed_score_fails_the_replay_check() {
        let live = verdict(&[0.01, 0.02, 0.5], 0.3);
        let mut replayed = live.clone();
        assert!(same_verdict(&live, &replayed));
        replayed.verdict.stars[1].score = f32::from_bits(0.02f32.to_bits() + 1);
        assert!(!same_verdict(&live, &replayed));
    }

    #[test]
    fn ticks_decode_back_to_the_frames_offered() {
        let frames: Vec<(f64, Vec<f32>)> = (0..5).map(|t| (t as f64, vec![t as f32; 3])).collect();
        let ticks = encode_ticks(&frames, &[1, 0, 4]);
        assert!(ticks[1].is_empty());
        let mut decoder = Decoder::new(DEFAULT_MAX_PAYLOAD);
        let decoded: Vec<(f64, Vec<f32>)> = ticks
            .iter()
            .flat_map(|bytes| decode(&mut decoder, bytes))
            .map(|f| (f.timestamp, f.values))
            .collect();
        assert_eq!(decoded, frames);
    }
}
