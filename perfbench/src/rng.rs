//! Seeded inputs: a SplitMix64 generator and the Zipf tenant sequence.

/// SplitMix64 step: a well-mixed 64-bit value from `state`.
pub fn mix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sub-seed for stream `stream` of the run seed `seed`, so the Zipf
/// trace, the SPD values and the fault plans never share a stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(mix(seed) ^ stream)
}

/// A Zipf sequence of `len` indices in `0..n`: index `r` appears in
/// proportion to `1 / (r + 1)^s`, with exact counts (largest-remainder
/// rounding) in a seeded random order. Fixing the counts keeps the
/// request mix the same for every seed, so seeds vary only the order.
pub fn zipf(n: usize, len: usize, s: f64, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = len - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    let mut seq: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect();
    let mut state = seed;
    for i in (1..seq.len()).rev() {
        state = mix(state);
        seq.swap(i, (state % (i as u64 + 1)) as usize);
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let a = zipf(8, 1000, 1.1, 7);
        let b = zipf(8, 1000, 1.1, 8);
        assert_eq!(a, zipf(8, 1000, 1.1, 7));
        assert_ne!(a, b);
        let count = |v: &[usize], r| v.iter().filter(|&&x| x == r).count();
        for r in 0..8 {
            assert_eq!(count(&a, r), count(&b, r), "same mix for every seed");
        }
        assert!(count(&a, 0) > count(&a, 1) && count(&a, 1) > count(&a, 7));
        assert_eq!(a.len(), 1000);
    }
}
