//! Seeded inputs: a SplitMix64 generator and the fixed job lists every
//! workload runs. The same seed always gives the same list; the program
//! under test only ever sees the generated jobs.

/// SplitMix64: tiny, fast, and good enough for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one benchmark seed, so
    /// that adding a stream never shifts the values of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Distinct input seeds per job class. Jobs draw their seed from this
/// small table, so every job's output can be checked against a
/// reference computed once in set-up.
pub const SEEDS_PER_CLASS: usize = 32;

/// One job of a job list: its class (an index into the workload's mix)
/// and which of the class's seeds it runs on. Two bytes, so a list of a
/// million jobs stays small beside the program under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub class: u8,
    pub seed_ix: u8,
}

/// The per-class input seeds of a workload.
pub fn class_seeds(seed: u64, classes: usize) -> Vec<Vec<u64>> {
    let mut rng = Rng::new(seed, 1);
    (0..classes)
        .map(|_| (0..SEEDS_PER_CLASS).map(|_| rng.next_u64()).collect())
        .collect()
}

/// A list of `count` jobs drawn uniformly over `classes` classes.
pub fn job_list(seed: u64, classes: usize, count: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed, 2);
    (0..count)
        .map(|_| Job {
            class: rng.below(classes) as u8,
            seed_ix: rng.below(SEEDS_PER_CLASS) as u8,
        })
        .collect()
}

/// The input seed of each round of a round-based workload.
pub fn round_seeds(seed: u64, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 3);
    (0..rounds).map(|_| rng.below(SEEDS_PER_CLASS)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(job_list(7, 6, 500), job_list(7, 6, 500));
        assert_ne!(job_list(7, 6, 500), job_list(8, 6, 500));
        assert_eq!(class_seeds(7, 6), class_seeds(7, 6));
        assert_ne!(class_seeds(7, 6), class_seeds(8, 6));
        assert_eq!(round_seeds(7, 100), round_seeds(7, 100));
        assert_ne!(round_seeds(7, 100), round_seeds(8, 100));
    }

    #[test]
    fn job_lists_cover_every_class_and_seed_slot() {
        let jobs = job_list(1, 6, 6000);
        for c in 0..6 {
            let n = jobs.iter().filter(|j| j.class == c).count();
            assert!((800..1200).contains(&n), "class {c} drawn {n} times");
        }
        assert!(jobs
            .iter()
            .all(|j| usize::from(j.seed_ix) < SEEDS_PER_CLASS));
        assert!((0..SEEDS_PER_CLASS).all(|s| jobs.iter().any(|j| usize::from(j.seed_ix) == s)));
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let draw = |stream| {
            let mut r = Rng::new(5, stream);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_ne!(draw(1), draw(2));
        let mut r = Rng::new(5, 1);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
