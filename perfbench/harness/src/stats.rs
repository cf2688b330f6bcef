//! Sample summaries: the median and the tail every timing reports.

/// Median plus tail of one set of samples.
///
/// The tail is the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it, i.e. the 11th-largest sample. With
/// fewer than `TAIL_BEYOND + 1` samples the tail is the maximum and
/// `beyond` says how many samples lie past it (zero).
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// Percentile rank of the tail sample, in percent.
    pub tail_pct: f64,
    /// Samples strictly beyond the tail sample's rank.
    pub beyond: usize,
}

pub const TAIL_BEYOND: usize = 10;

/// Samples per window of [`windowed_tail`].
pub const TAIL_WINDOW: usize = 30;

/// Percentile each window of [`windowed_tail`] contributes.
pub const WINDOW_PCT: f64 = 90.0;

/// The tail of samples taken in order by a closed loop of many short
/// operations: the run is cut into consecutive windows of
/// [`TAIL_WINDOW`] samples (the last window also takes the remainder),
/// and the tail is the median over windows of each window's 90th
/// percentile (nearest rank). A burst of a few seconds in which the whole
/// machine is slow lifts the tail of one window, where over the whole run
/// it would lift the 11th-largest sample. Returns the tail and the number
/// of windows.
pub fn windowed_tail(samples: &[f64]) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let windows = (samples.len() / TAIL_WINDOW).max(1);
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * TAIL_WINDOW
            };
            let mut s = samples[w * TAIL_WINDOW..end].to_vec();
            s.sort_by(f64::total_cmp);
            let rank = (WINDOW_PCT / 100.0 * s.len() as f64).ceil() as usize;
            s[rank.clamp(1, s.len()) - 1]
        })
        .collect();
    Some((median(&tails), windows))
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let idx = n.saturating_sub(TAIL_BEYOND + 1);
    let idx = if n > TAIL_BEYOND { idx } else { n - 1 };
    Some(Summary {
        n,
        p50: median_sorted(&s),
        tail: s[idx],
        tail_pct: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
    })
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_tail_is_the_median_of_window_p90s() {
        // Three windows of 1..=30 ms; the middle one is twice as slow.
        let mut samples: Vec<f64> = (1..=30).map(f64::from).collect();
        samples.extend((1..=30).map(|x| 2.0 * f64::from(x)));
        samples.extend((1..=30).map(f64::from));
        assert_eq!(windowed_tail(&samples), Some((27.0, 3)));
    }

    #[test]
    fn windowed_tail_puts_the_remainder_in_the_last_window() {
        let samples: Vec<f64> = (1..=59).map(f64::from).collect();
        // One window of 59 samples: rank ceil(0.9 * 59) = 54.
        assert_eq!(windowed_tail(&samples), Some((54.0, 1)));
        assert_eq!(windowed_tail(&[]), None);
    }
}
