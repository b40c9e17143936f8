//! The benchmark's arithmetic: nearest-rank percentiles, medians over
//! measurement windows, and per-request counter deltas.

/// A percentile together with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`: the smallest
/// sample such that at least `p`% of the samples are at or below it.
/// `None` for an empty input.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    Some(Percentile {
        value: sorted[index],
        samples: sorted.len(),
    })
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0).map(|p| p.value)
}

/// `(after - before) / requests`: a cumulative counter's growth per
/// request over one phase. `None` when no request completed or the
/// counter went backwards (a restarted server, not a delta).
pub fn per_request(before: u64, after: u64, requests: u64) -> Option<f64> {
    if requests == 0 || after < before {
        return None;
    }
    Some((after - before) as f64 / requests as f64)
}

/// `part / whole`, or `None` when `whole` is zero.
pub fn fraction(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

/// One completed request, as the per-window statistics need it.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Completion time, seconds since the phase started.
    pub at_s: f64,
    /// Round-trip latency in milliseconds.
    pub latency_ms: f64,
}

/// Throughput and latency of one measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    pub throughput_rps: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

/// Split `[0, span_s)` into `windows` equal windows by completion time and
/// compute each window's throughput and latency percentiles. Completions
/// at or after `span_s` are ignored; a window with no completion is
/// omitted.
pub fn window_stats(done: &[Completion], span_s: f64, windows: usize) -> Vec<WindowStats> {
    let width = span_s / windows as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for c in done {
        if c.at_s >= 0.0 && c.at_s < span_s {
            let w = ((c.at_s / width) as usize).min(windows - 1);
            buckets[w].push(c.latency_ms);
        }
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| WindowStats {
            throughput_rps: b.len() as f64 / width,
            p50_ms: percentile(b, 50.0).expect("non-empty").value,
            p90_ms: percentile(b, 90.0).expect("non-empty").value,
        })
        .collect()
}

/// 64-bit FNV-1a-style hash taken a word at a time (fast enough to run on
/// every ~200 KB response inside the client loop), with a final avalanche
/// so nearby inputs land far apart.
pub fn hash_bytes(bytes: &[u8], seed: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325 ^ seed;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_report_their_sample_count() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 50.0),
            Some(Percentile {
                value: 5.0,
                samples: 10
            })
        );
        assert_eq!(percentile(&v, 90.0).unwrap().value, 9.0);
        assert_eq!(percentile(&v, 91.0).unwrap().value, 10.0);
        assert_eq!(percentile(&v, 100.0).unwrap().value, 10.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), percentile(&v, 90.0));
        // The smallest rank is 1, never 0.
        assert_eq!(percentile(&v, 1.0).unwrap().value, 1.0);
        assert_eq!(percentile(&[], 50.0), None);
        let one = percentile(&[7.5], 99.0).unwrap();
        assert_eq!((one.value, one.samples), (7.5, 1));
    }

    #[test]
    fn median_of_even_count_is_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn per_request_deltas() {
        assert_eq!(per_request(100, 350, 50), Some(5.0));
        assert_eq!(per_request(7, 7, 3), Some(0.0));
        assert_eq!(per_request(0, 10, 0), None);
        assert_eq!(per_request(10, 5, 1), None);
        assert_eq!(fraction(99, 100), Some(0.99));
        assert_eq!(fraction(0, 0), None);
    }

    #[test]
    fn windows_split_by_completion_time() {
        let done = [
            Completion {
                at_s: 0.1,
                latency_ms: 1.0,
            },
            Completion {
                at_s: 0.4,
                latency_ms: 3.0,
            },
            Completion {
                at_s: 0.6,
                latency_ms: 2.0,
            },
            // After the span: ignored.
            Completion {
                at_s: 1.0,
                latency_ms: 100.0,
            },
        ];
        let w = window_stats(&done, 1.0, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].throughput_rps, 4.0);
        assert_eq!((w[0].p50_ms, w[0].p90_ms), (1.0, 3.0));
        assert_eq!(w[1].throughput_rps, 2.0);
        assert_eq!((w[1].p50_ms, w[1].p90_ms), (2.0, 2.0));
        assert!(window_stats(&done[..1], 1.0, 4).len() == 1);
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = hash_bytes(b"SELECT r1.cname FROM r1", 0);
        assert_eq!(a, hash_bytes(b"SELECT r1.cname FROM r1", 0));
        assert_ne!(a, hash_bytes(b"SELECT r1.cname FROM r2", 0));
        assert_ne!(a, hash_bytes(b"SELECT r1.cname FROM r1", 1));
        assert_ne!(hash_bytes(b"", 0), hash_bytes(b"\0", 0));
    }
}
