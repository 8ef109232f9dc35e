//! Inputs shared by the workloads: a seeded synthetic night, its CSV round
//! trip through the CLI's reader, and its frames as the stream sees them.

use std::path::Path;

use aero_datagen::SyntheticConfig;
use aero_timeseries::io::{read_labels, read_series, write_labels, write_series};
use aero_timeseries::{Dataset, MultivariateSeries};

use crate::trace::span;

/// The make-up of one workload's night.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub stars: usize,
    pub train_len: usize,
    pub test_len: usize,
}

/// A SyntheticMiddle-shaped night (40% variable stars, 5 injected anomaly
/// segments, 1.7% concurrent noise on about 70% of the stars) resized to
/// `shape` and seeded with `seed`.
fn build(shape: Shape, seed: u64) -> Dataset {
    let middle = SyntheticConfig::middle();
    span("datagen.build", || {
        SyntheticConfig {
            seed,
            train_len: shape.train_len,
            test_len: shape.test_len,
            variates: shape.stars,
            noise_variates: (shape.stars * middle.noise_variates / middle.variates).max(4),
            anomaly_segments: if shape.stars < 12 {
                2
            } else {
                middle.anomaly_segments
            },
            ..middle
        }
        .build()
    })
}

/// Writes the night as `aero generate` does.
fn write_csv(ds: &Dataset, dir: &Path) {
    std::fs::create_dir_all(dir).expect("creating the night directory");
    span("timeseries.write_series", || {
        write_series(&ds.train, &dir.join("train.csv")).expect("writing train.csv");
        write_series(&ds.test, &dir.join("test.csv")).expect("writing test.csv");
        write_labels(&ds.test_labels, &dir.join("test_labels.csv")).expect("writing labels");
    });
}

/// Reads the night back as `aero detect` / `aero stream` do. The
/// generator's concurrent-noise mask rides along from `truth`: the CLI has
/// no file for it, and only the checks read it.
fn read_back(dir: &Path, truth: &Dataset) -> Dataset {
    let (train, test, labels) = span("timeseries.csv_read", || {
        (
            span("timeseries.read_series", || {
                read_series(&dir.join("train.csv"))
            }),
            span("timeseries.read_series", || {
                read_series(&dir.join("test.csv"))
            }),
            read_labels(&dir.join("test_labels.csv")),
        )
    });
    Dataset {
        name: dir.display().to_string(),
        train: train.expect("reading train.csv"),
        test: test.expect("reading test.csv"),
        test_labels: labels.expect("reading test_labels.csv"),
        test_noise: truth.test_noise.clone(),
        train_noise: truth.train_noise.clone(),
    }
}

/// Builds the night, writes it, and reads it back.
pub fn round_trip(shape: Shape, seed: u64, dir: &Path) -> Dataset {
    let ds = build(shape, seed);
    write_csv(&ds, dir);
    let back = read_back(dir, &ds);
    assert_eq!(
        back.test.values(),
        ds.test.values(),
        "CSV round trip changed the night"
    );
    back
}

/// The test night as `(timestamp, values)` frames.
pub fn frames(series: &MultivariateSeries) -> Vec<(f64, Vec<f32>)> {
    let n = series.num_variates();
    (0..series.len())
        .map(|t| {
            (
                series.timestamps()[t],
                (0..n).map(|v| series.get(v, t)).collect(),
            )
        })
        .collect()
}

/// The `w`-frame window of `stars` ending at test frame `t`, taking the
/// training tail for frames before the test night starts — exactly what an
/// online detector warmed from `train` holds after pushing frames `0..=t`.
pub fn window(
    train: &MultivariateSeries,
    test: &MultivariateSeries,
    stars: &[usize],
    t: usize,
    w: usize,
) -> MultivariateSeries {
    let from_train = w.saturating_sub(t + 1);
    let mut values = aero_tensor::Matrix::zeros(stars.len(), w);
    let mut timestamps = Vec::with_capacity(w);
    for c in 0..w {
        let (series, col) = if c < from_train {
            (train, train.len() - from_train + c)
        } else {
            (test, t + 1 + c - w)
        };
        timestamps.push(series.timestamps()[col]);
        for (row, &v) in stars.iter().enumerate() {
            values.set(row, c, series.get(v, col));
        }
    }
    MultivariateSeries::new(values, timestamps).expect("a well-formed window")
}
