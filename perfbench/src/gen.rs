//! Seeded inputs: the op sequence, the sizes and the payload bytes of a
//! run, all drawn from one splitmix64 stream before timing starts.
//!
//! Payloads are checkable without a side table. A read of `count` bytes
//! must return `pattern[..count]`. A write's payload starts with a key
//! byte `k` and continues with `pattern[k..]`, so the handler can verify
//! any payload from the payload alone.

use std::sync::Arc;

/// Ops in the generated sequence; a run cycles through it.
const OPS: usize = 4096;
/// Distinct write payloads the ops draw from.
const PAYLOADS: usize = 64;
/// Largest payload any workload sends or asks for.
const MAX_PAYLOAD: usize = 64 * 1024;

/// `splitmix64` step: the seeded stream every input is drawn from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One FileIO call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `read(count)`.
    Read { count: u32 },
    /// `write(payloads[payload])`.
    Write { payload: usize },
}

/// How a workload draws payload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizes {
    /// Uniform over `min..=max` bytes.
    Uniform { min: usize, max: usize },
    /// `small` bytes, except one draw in `one_in` is `large`.
    Mix { small: usize, large: usize, one_in: u64 },
}

impl Sizes {
    /// `n` sizes that cover the distribution evenly, one seeded draw per
    /// stratum, in seeded order. Stratifying keeps a run's mean payload
    /// the same whatever the seed, so seeds change the inputs but not the
    /// work a run measures.
    fn stratified(self, n: usize, rng: &mut u64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n as u64)
            .map(|i| match self {
                Sizes::Uniform { min, max } => {
                    let span = (max - min + 1) as u64;
                    min + ((i * span + splitmix64(rng) % span) / n as u64) as usize
                }
                Sizes::Mix { small, large, one_in } => {
                    if i % one_in == 0 {
                        large
                    } else {
                        small
                    }
                }
            })
            .collect();
        shuffle(&mut v, rng);
        v
    }
}

/// Fisher-Yates over the seeded stream.
fn shuffle<T>(v: &mut [T], rng: &mut u64) {
    for i in (1..v.len()).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// A run's inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub ops: Vec<Op>,
    pub payloads: Vec<Arc<[u8]>>,
    /// The handler's reply pattern, `MAX_PAYLOAD + 256` seeded bytes.
    pub pattern: Arc<[u8]>,
}

impl Inputs {
    /// Draws the inputs for `sizes` from `seed`: `writes_in_8` eighths of
    /// the ops are writes, the rest reads, every payload is written
    /// equally often, all in seeded order.
    pub fn generate(seed: u64, sizes: Sizes, writes_in_8: usize) -> Inputs {
        let mut rng = seed;
        let pattern: Arc<[u8]> =
            (0..MAX_PAYLOAD + 256).map(|_| splitmix64(&mut rng) as u8).collect();
        let payloads = sizes
            .stratified(PAYLOADS, &mut rng)
            .into_iter()
            .map(|len| {
                let key = (splitmix64(&mut rng) % 256) as usize;
                let mut p = Vec::with_capacity(len);
                p.push(key as u8);
                p.extend_from_slice(&pattern[key..key + len - 1]);
                Arc::from(p)
            })
            .collect();
        let writes = OPS / 8 * writes_in_8.min(8);
        let reads = sizes.stratified(OPS - writes, &mut rng);
        let mut ops: Vec<Op> = reads
            .into_iter()
            .map(|n| Op::Read { count: n as u32 })
            .chain((0..writes).map(|i| Op::Write { payload: i % PAYLOADS }))
            .collect();
        shuffle(&mut ops, &mut rng);
        Inputs { ops, payloads, pattern }
    }
}

/// Whether `data` is a well-formed write payload over `pattern`.
pub fn write_ok(pattern: &[u8], data: &[u8]) -> bool {
    match data.split_first() {
        Some((&key, rest)) => pattern.get(key as usize..key as usize + rest.len()) == Some(rest),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes = Sizes::Uniform { min: 16, max: 256 };

    fn payload_bytes(inputs: &Inputs, op: Op) -> u64 {
        match op {
            Op::Read { count } => count as u64,
            Op::Write { payload } => inputs.payloads[payload].len() as u64,
        }
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let a = Inputs::generate(7, SMALL, 4);
        let b = Inputs::generate(7, SMALL, 4);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.payloads, b.payloads);
        assert_eq!(a.pattern, b.pattern);
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let a = Inputs::generate(7, SMALL, 4);
        let b = Inputs::generate(8, SMALL, 4);
        assert_ne!(a.ops, b.ops);
        assert_ne!(a.payloads, b.payloads);
    }

    #[test]
    fn sizes_mix_and_payloads_are_checkable() {
        let bulk = Sizes::Uniform { min: 4096, max: MAX_PAYLOAD };
        let inputs = Inputs::generate(3, bulk, 4);
        let reads = inputs.ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, OPS / 2);
        let amo = Inputs::generate(3, bulk, 5);
        let writes = amo.ops.iter().filter(|o| matches!(o, Op::Write { .. })).count();
        assert_eq!(writes, OPS / 8 * 5);
        for op in &inputs.ops {
            let n = payload_bytes(&inputs, *op) as usize;
            assert!((4096..=MAX_PAYLOAD).contains(&n));
        }
        for p in &inputs.payloads {
            assert!(write_ok(&inputs.pattern, p));
        }
        let mut bad = inputs.payloads[0].to_vec();
        *bad.last_mut().expect("nonempty") ^= 1;
        assert!(!write_ok(&inputs.pattern, &bad));
        assert!(!write_ok(&inputs.pattern, &[]));
    }

    #[test]
    fn stratified_sizes_keep_the_mean_whatever_the_seed() {
        let bulk = Sizes::Uniform { min: 4096, max: MAX_PAYLOAD };
        let mean = |seed| {
            let inputs = Inputs::generate(seed, bulk, 4);
            inputs.ops.iter().map(|o| payload_bytes(&inputs, *o)).sum::<u64>() as f64 / OPS as f64
        };
        let exact = (4096 + MAX_PAYLOAD) as f64 / 2.0;
        for seed in 1..6 {
            assert!((mean(seed) - exact).abs() / exact < 0.002, "seed {seed}: {}", mean(seed));
        }
    }

    #[test]
    fn mix_draws_both_sizes() {
        let net = Sizes::Mix { small: 64, large: 8192, one_in: 8 };
        let inputs = Inputs::generate(11, net, 4);
        let sizes: Vec<u64> = inputs.ops.iter().map(|o| payload_bytes(&inputs, *o)).collect();
        let large = sizes.iter().filter(|&&n| n == 8192).count();
        assert!(sizes.iter().all(|&n| n == 64 || n == 8192));
        assert_eq!(large, OPS / 8, "one in eight large");
    }
}
