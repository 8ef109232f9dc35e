//! Reference computations the correctness checks compare the program
//! against. Written from the definitions, sharing no code with `aero-eval`
//! or `aero-evt`.

/// A row-major `rows × cols` grid of booleans.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    pub rows: usize,
    pub cols: usize,
    pub cells: Vec<bool>,
}

impl Grid {
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut cells = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                cells.push(f(r, c));
            }
        }
        Self { rows, cols, cells }
    }

    fn row(&self, r: usize) -> &[bool] {
        &self.cells[r * self.cols..(r + 1) * self.cols]
    }
}

/// Point-adjusted F1: within each maximal run of ground-truth anomaly points
/// of one row, one flagged point counts the whole run as flagged; then
/// point-wise precision and recall over the grid.
pub fn point_adjusted_f1(flags: &Grid, truth: &Grid) -> f64 {
    assert_eq!(
        (flags.rows, flags.cols),
        (truth.rows, truth.cols),
        "grid shapes differ"
    );
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for r in 0..truth.rows {
        let (pred, gt) = (flags.row(r), truth.row(r));
        let mut adjusted = pred.to_vec();
        let mut c = 0;
        while c < gt.len() {
            if !gt[c] {
                c += 1;
                continue;
            }
            let start = c;
            while c < gt.len() && gt[c] {
                c += 1;
            }
            if pred[start..c].iter().any(|&p| p) {
                adjusted[start..c].iter_mut().for_each(|p| *p = true);
            }
        }
        for (&p, &t) in adjusted.iter().zip(gt) {
            match (p, t) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let precision = match (tp + fp, fn_) {
        (0, 0) => 1.0,
        (0, _) => 0.0,
        (predicted, _) => tp as f64 / predicted as f64,
    };
    let recall = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

/// The `level` quantile of `scores` by a plain sort: the element at rank
/// `round(level · (n − 1))` of the ascending order.
pub fn level_quantile(scores: &[f32], level: f64) -> f64 {
    assert!(!scores.is_empty(), "quantile of an empty set");
    let mut sorted: Vec<f64> = scores.iter().map(|&s| f64::from(s)).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = (level * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Positions where two score vectors differ bit for bit (length mismatch
/// counts every unmatched position).
pub fn bitwise_mismatches(a: &[f32], b: &[f32]) -> usize {
    let shared = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    shared + a.len().abs_diff(b.len())
}

/// Mean score on concurrent-noise points over the mean score on clean
/// points (neither noise nor labelled anomaly), for a row-major
/// `rows × cols` score grid. Points labelled anomalous count in neither
/// mean. NaN when either set is empty.
pub fn noise_to_clean_ratio(scores: &[f32], noise: &Grid, truth: &Grid) -> f64 {
    assert_eq!(
        scores.len(),
        noise.cells.len(),
        "score and noise grids differ"
    );
    assert_eq!(
        noise.cells.len(),
        truth.cells.len(),
        "noise and label grids differ"
    );
    let (mut noisy, mut n_noisy, mut clean, mut n_clean) = (0.0f64, 0usize, 0.0f64, 0usize);
    for ((&s, &is_noise), &is_anomaly) in scores.iter().zip(&noise.cells).zip(&truth.cells) {
        match (is_anomaly, is_noise) {
            (true, _) => {}
            (false, true) => {
                noisy += f64::from(s);
                n_noisy += 1;
            }
            (false, false) => {
                clean += f64::from(s);
                n_clean += 1;
            }
        }
    }
    if n_noisy == 0 || n_clean == 0 {
        return f64::NAN;
    }
    (noisy / n_noisy as f64) / (clean / n_clean as f64)
}

/// Verdicts whose `anomalous` flag disagrees with `score ≥ threshold`.
pub fn flag_mismatches(verdicts: &[(f32, bool)], threshold: f64) -> usize {
    verdicts
        .iter()
        .filter(|&&(score, anomalous)| (f64::from(score) >= threshold) != anomalous)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: &[&str]) -> Grid {
        let cols = rows[0].len();
        Grid::from_fn(rows.len(), cols, |r, c| rows[r].as_bytes()[c] == b'1')
    }

    #[test]
    fn point_adjust_counts_a_touched_segment_whole() {
        // Truth: one 4-point segment. One flag inside it plus one false
        // alarm: TP 4, FP 1, FN 0 -> P 0.8, R 1, F1 = 1.6 / 1.8.
        let truth = grid(&["0111100000"]);
        let flags = grid(&["0010000001"]);
        let f1 = point_adjusted_f1(&flags, &truth);
        assert!((f1 - 1.6 / 1.8).abs() < 1e-12, "{f1}");
    }

    #[test]
    fn point_adjust_on_hand_worked_two_row_grid() {
        // Row 0: segment [1,2] missed, segment [5,6] touched -> TP 2, FN 2.
        // Row 1: no truth, flags at 0 and 9 -> FP 2.
        // P = 2/4, R = 2/4, F1 = 0.5.
        let truth = grid(&["0110011000", "0000000000"]);
        let flags = grid(&["0000010000", "1000000001"]);
        assert_eq!(point_adjusted_f1(&flags, &truth), 0.5);
        // Nothing flagged, something to find: F1 0. Nothing to find and
        // nothing flagged: F1 1.
        let none = grid(&["0000000000", "0000000000"]);
        assert_eq!(point_adjusted_f1(&none, &truth), 0.0);
        assert_eq!(point_adjusted_f1(&none, &none), 1.0);
    }

    #[test]
    fn flag_everything_f1_is_twice_the_anomaly_share_over_one_plus_it() {
        // 2 of 10 points anomalous: P 0.2, R 1 -> F1 = 0.4 / 1.2.
        let truth = grid(&["0000110000"]);
        let all = Grid::from_fn(1, 10, |_, _| true);
        assert!((point_adjusted_f1(&all, &truth) - 0.4 / 1.2).abs() < 1e-12);
    }

    #[test]
    fn level_quantile_matches_hand_sorted_ranks() {
        let scores = [5.0, 1.0, 4.0, 2.0, 3.0];
        // n = 5: rank round(0.5 * 4) = 2 -> 3; rank round(0.99 * 4) = 4 -> 5.
        assert_eq!(level_quantile(&scores, 0.5), 3.0);
        assert_eq!(level_quantile(&scores, 0.99), 5.0);
        assert_eq!(level_quantile(&scores, 0.0), 1.0);
        // n = 101 ascending 0..=100: the 0.99 quantile is 99.
        let ramp: Vec<f32> = (0..=100).map(|i| i as f32).collect();
        assert_eq!(level_quantile(&ramp, 0.99), 99.0);
    }

    #[test]
    fn noise_to_clean_ratio_on_a_hand_worked_grid() {
        // Noise at 1 and 2, anomaly at 4 (in neither mean), clean at 0, 3,
        // 5, 6. Noise mean (0.6 + 0.2) / 2 = 0.4; clean mean (0.1 + 0.1 +
        // 0.2 + 0.6) / 4 = 0.25 -> ratio 1.6.
        let noise = grid(&["0110000"]);
        let truth = grid(&["0000100"]);
        let scores = [0.1f32, 0.6, 0.2, 0.1, 9.0, 0.2, 0.6];
        let ratio = noise_to_clean_ratio(&scores, &noise, &truth);
        assert!((ratio - 1.6).abs() < 1e-6, "{ratio}");
        // No noise point: undefined, so the batch check fails on it.
        let quiet = grid(&["0000000"]);
        assert!(noise_to_clean_ratio(&scores, &quiet, &truth).is_nan());
    }

    #[test]
    fn a_bypassed_noise_stage_fails_the_cancellation_check() {
        // The batch check requires Stage 2 to lower the noise-to-clean
        // ratio strictly. Stage 2 returning Stage 1's scores unchanged, or
        // scaling every score alike, leaves the ratio where it was.
        let noise = grid(&["0110000"]);
        let truth = grid(&["0000000"]);
        let stage1 = [0.1f32, 0.8, 0.6, 0.1, 0.1, 0.2, 0.1];
        let before = noise_to_clean_ratio(&stage1, &noise, &truth);
        let cancelled = [0.1f32, 0.2, 0.1, 0.1, 0.1, 0.2, 0.1];
        assert!(noise_to_clean_ratio(&cancelled, &noise, &truth) < before);
        let bypassed = stage1;
        assert_eq!(noise_to_clean_ratio(&bypassed, &noise, &truth), before);
        let halved = stage1.map(|s| s * 0.5);
        let ratio = noise_to_clean_ratio(&halved, &noise, &truth);
        assert!((ratio - before).abs() < 1e-9, "{ratio} {before}");
    }

    #[test]
    fn corrupting_one_score_fails_the_bitwise_agreement() {
        let streamed = vec![0.25f32, 0.5, 0.75, 1.0];
        let mut offline = streamed.clone();
        assert_eq!(bitwise_mismatches(&streamed, &offline), 0);
        offline[2] = f32::from_bits(offline[2].to_bits() + 1);
        assert_eq!(bitwise_mismatches(&streamed, &offline), 1);
        assert_eq!(bitwise_mismatches(&streamed, &streamed[..3]), 1);
    }

    #[test]
    fn corrupting_one_score_fails_the_flag_agreement() {
        let threshold = 0.6;
        let mut verdicts = vec![(0.25f32, false), (0.6, true), (0.9, true)];
        assert_eq!(flag_mismatches(&verdicts, threshold), 0);
        verdicts[0].0 = 0.61;
        assert_eq!(flag_mismatches(&verdicts, threshold), 1);
    }

    #[test]
    fn corrupting_one_score_moves_the_recomputed_f1() {
        // The batch check recomputes F1 from `score >= threshold`; one score
        // pushed over the threshold inside a missed segment changes it.
        let truth = grid(&["0011000000"]);
        let mut scores = vec![0.1f32; 10];
        scores[7] = 0.9;
        let flags_of = |s: &[f32]| Grid::from_fn(1, 10, |_, c| f64::from(s[c]) >= 0.5);
        let before = point_adjusted_f1(&flags_of(&scores), &truth);
        scores[2] = 0.9;
        let after = point_adjusted_f1(&flags_of(&scores), &truth);
        assert_eq!(before, 0.0);
        assert!(after > 0.5, "{after}");
    }
}
